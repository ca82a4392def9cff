"""JSON round-trips: rings, values, matrices; canonical form is enforced
on the way in and emission is byte-stable."""

import copy
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derivring import (
    DerivringError,
    InvalidRing,
    Matrix,
    ParseError,
    PolyRing,
    Zmod,
)
from derivring.sampling import random_matrix
from derivring.serialize import (
    dumps_canonical,
    loads_strict,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    matrix_to_obj,
    payload_to_obj,
    ring_from_obj,
    ring_to_obj,
    value_from_obj,
    value_to_obj,
)

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)

RINGS = [Z5, Z9, P5, PolyRing(Z9)]


class TestRingCodec:
    @pytest.mark.parametrize("ring", RINGS)
    def test_round_trip(self, ring):
        assert ring_from_obj(ring_to_obj(ring)) == ring

    def test_expected_shapes(self):
        assert ring_to_obj(Z5) == {"ring": "zmod", "m": 5}
        assert ring_to_obj(P5) == {"ring": "poly", "base": {"ring": "zmod", "m": 5}}

    def test_missing_ring_key(self):
        with pytest.raises(ParseError, match='missing "ring" key'):
            ring_from_obj({"m": 5})

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            ring_from_obj({"ring": "quaternion"})

    @pytest.mark.parametrize("obj, missing", [
        ({"ring": "zmod"}, "zmod descriptor is missing \"m\""),
        ({"ring": "poly"}, "poly descriptor is missing \"base\""),
    ])
    def test_descriptor_without_its_parameter(self, obj, missing):
        with pytest.raises(ParseError, match=missing):
            ring_from_obj(obj)

    @pytest.mark.parametrize("value", [5, "zmod:5", None, Z5.one])
    def test_non_ring_is_refused(self, value):
        with pytest.raises(ParseError, match="unknown ring type"):
            ring_to_obj(value)

    def test_failure_payload_strings_pass_through(self):
        # a violation side that is neither a matrix nor a ring value
        assert payload_to_obj("a*b") == "a*b"
        assert payload_to_obj(Z5.one) == 1 and payload_to_obj(P5.t) == [0, 1]


class TestValueCodec:
    def test_zmod_round_trip(self):
        for v in range(5):
            elem = Z5.element(v)
            assert value_from_obj(Z5, value_to_obj(elem)) == elem

    def test_poly_round_trip(self):
        elem = P5.element([2, 0, 1])
        assert value_to_obj(elem) == [2, 0, 1]
        assert value_from_obj(P5, [2, 0, 1]) == elem
        assert value_from_obj(P5, []) == P5.zero

    def test_residue_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="non-canonical"):
            value_from_obj(Z5, 5)
        with pytest.raises(ParseError):
            value_from_obj(Z5, -1)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ParseError):
            value_from_obj(Z5, True)

    def test_trailing_zero_rejected(self):
        with pytest.raises(ParseError, match="trailing zero"):
            value_from_obj(P5, [1, 0])

    def test_poly_coefficient_out_of_range(self):
        with pytest.raises(ParseError):
            value_from_obj(P5, [7])


class TestMatrixCodec:
    def test_round_trip_many(self):
        rng = random.Random(90)
        for _ in range(200):
            ring = RINGS[rng.randrange(len(RINGS))]
            n = rng.randint(1, 4)
            mat = random_matrix(ring, n, rng)
            text = matrix_to_json(mat)
            again = matrix_from_json(text)
            assert again == mat
            assert matrix_to_json(again) == text  # canonical re-emit, byte-exact

    def test_entry_above_modulus_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json('{"n":1,"ring":{"ring":"zmod","m":5},"rows":[[5]]}')

    def test_missing_keys(self):
        with pytest.raises(ParseError, match='missing "ring" key'):
            matrix_from_obj({"n": 1, "rows": [[0]]})
        with pytest.raises(ParseError, match='missing "rows" key'):
            matrix_from_obj({"n": 1, "ring": {"ring": "zmod", "m": 5}})

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as err:
            matrix_from_json('{"n": 1,')
        assert err.value.line is not None
        assert err.value.column is not None

    def test_row_shape_enforced(self):
        with pytest.raises(ParseError):
            matrix_from_json('{"n":2,"ring":{"ring":"zmod","m":5},"rows":[[1,2]]}')


class TestParsersAreTotal:
    @pytest.mark.parametrize("bad", [7, None, "ab", {"i": 1}])
    def test_non_list_rows(self, bad):
        obj = matrix_to_obj(Matrix.identity(Z5, 2))
        obj["rows"] = bad
        with pytest.raises(ParseError, match="matrix needs 2 rows"):
            matrix_from_obj(obj)
        obj["rows"] = [[1, 0], bad]
        with pytest.raises(ParseError, match="rows must each hold 2 values"):
            matrix_from_obj(obj)

    @pytest.mark.parametrize("bad", [[1], {"k": 1}, "1", 1.0, True, 0, -2])
    def test_bad_n(self, bad):
        obj = matrix_to_obj(Matrix.identity(Z5, 2))
        obj["n"] = bad
        with pytest.raises(ParseError, match='"n" must be a positive integer'):
            matrix_from_obj(obj)

    @pytest.mark.parametrize("bad", [7, None, "ab", [1]])
    def test_non_object_ring_descriptor(self, bad):
        with pytest.raises(ParseError, match="ring descriptor must be an object"):
            ring_from_obj(bad)
        with pytest.raises(ParseError, match="ring descriptor must be an object"):
            matrix_from_obj({"n": 1, "ring": bad, "rows": [[0]]})

    @pytest.mark.parametrize("bad", [0, 1, 4, -3, True, 5.0, "5"])
    def test_bad_modulus(self, bad):
        with pytest.raises(InvalidRing):
            ring_from_obj({"ring": "zmod", "m": bad})
        with pytest.raises(InvalidRing):
            ring_from_obj({"ring": "poly", "base": {"ring": "zmod", "m": bad}})

    def test_deep_nesting(self):
        with pytest.raises(ParseError):
            loads_strict("[" * 100_000 + "]" * 100_000)

    def test_over_long_integer(self):
        # Python 3.11+ caps the digits of an int literal with a ValueError
        try:
            loads_strict("9" * 5000)
        except ParseError:
            pass

    def test_nested_poly_bases(self):
        obj = {"ring": "zmod", "m": 5}
        for _ in range(5000):
            obj = {"ring": "poly", "base": obj}
        with pytest.raises(ParseError, match="poly base"):
            ring_from_obj(obj)

    @pytest.mark.parametrize(
        "error,parse",
        [
            (ParseError, lambda x: value_from_obj(Z5, x)),
            (ParseError, lambda x: value_from_obj(P5, {"v": x})),
            (ParseError, lambda x: value_from_obj(P5, x)),
            (ParseError, lambda x: matrix_from_obj({"n": x, "ring": {}, "rows": []})),
            (ParseError, lambda x: ring_from_obj({"ring": x})),
            (InvalidRing, lambda x: ring_from_obj({"ring": "zmod", "m": x})),
            (InvalidRing, Zmod),
        ],
        ids=[
            "zmod-value", "poly-value", "poly-coefficient", "matrix-n",
            "ring-kind", "ring-modulus", "zmod",
        ],
    )
    def test_deep_input_on_a_deep_stack(self, error, parse):
        # error messages name the offending type: a repr of a list nested
        # 900 deep, taken 150 frames down, would raise RecursionError
        deep = loads_strict("[" * 900 + "]" * 900)

        def descend(frames):
            return parse(deep) if frames == 0 else descend(frames - 1)

        with pytest.raises(error):
            descend(150)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=30,
)


def _near_valid(template):
    """Valid documents with one of their own keys, each of which the
    parser reads, set to arbitrary JSON; random objects alone rarely get
    past the first key check."""

    def swap(key, value):
        doc = copy.deepcopy(template)
        doc[key] = value
        return doc

    return st.builds(swap, st.sampled_from(sorted(template)), _JSON)


class TestParsersFuzz:
    """Whatever the input, the parsers raise only DerivringError."""

    @given(st.one_of(_JSON, *(_near_valid(ring_to_obj(r)) for r in (Z9, PolyRing(Z9)))))
    def test_ring_from_obj(self, obj):
        try:
            ring_from_obj(obj)
        except DerivringError:
            pass

    @pytest.mark.parametrize("ring", [Z5, PolyRing(Z9)], ids=str)
    @given(obj=st.one_of(st.integers(), _JSON))
    def test_value_from_obj(self, ring, obj):
        try:
            value_from_obj(ring, obj)
        except DerivringError:
            pass

    @given(st.one_of(_JSON, _near_valid(matrix_to_obj(Matrix.identity(P5, 2)))))
    def test_matrix_from_obj(self, obj):
        try:
            matrix_from_obj(obj)
        except DerivringError:
            pass

    @given(st.one_of(_JSON.map(json.dumps), st.text(max_size=20)))
    def test_loads_strict(self, text):
        try:
            loads_strict(text)
        except DerivringError:
            pass


class TestCanonicalDumps:
    def test_key_order_is_stable(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_loads_strict_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            loads_strict("[1, 2")
        assert err.value.line == 1
