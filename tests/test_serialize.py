"""JSON round-trips: rings, values, matrices, witness families; canonical
form is enforced on the way in and emission is byte-stable."""

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivring import (
    ContractError,
    DerivringError,
    InnerDerivation,
    InvalidRing,
    JordanPairDerivation,
    Matrix,
    NoiseSpec,
    ParseError,
    PolyRing,
    TwoLocalOracle,
    Zmod,
    gen_jordan_instance,
    gen_witness_family,
    matrix_unit,
)
from derivring.sampling import random_matrix, random_pairs
from derivring.serialize import (
    dumps_canonical,
    family_from_obj,
    family_to_obj,
    jordan_family_from_obj,
    jordan_family_to_obj,
    loads_strict,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    matrix_to_obj,
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


class TestFamilyCodec:
    def test_witness_family_round_trip(self):
        rng = random.Random(91)
        hidden = random_matrix(Z9, 3, rng)
        oracle, family = gen_witness_family(hidden, NoiseSpec.CENTRAL_SHIFTS, seed=13)
        obj = family_to_obj(family)
        again = family_from_obj(obj, oracle)
        assert again.oracle is oracle
        assert again.offdiag == family.offdiag
        assert again.c == family.c
        assert dumps_canonical(family_to_obj(again)) == dumps_canonical(obj)

    def test_restored_family_must_witness_its_oracle(self):
        rng = random.Random(92)
        hidden = random_matrix(Z5, 2, rng)
        oracle, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=14)
        obj = family_to_obj(family)
        assert family_from_obj(obj, oracle).offdiag == family.offdiag
        # [e_11, e_12] != 0: the witnesses of [hidden, .] miss this map
        moved = hidden + matrix_unit(Z5, 2, 1, 1)
        other = TwoLocalOracle(Z5, 2, InnerDerivation(moved))
        with pytest.raises(ContractError, match=r"a\(1,2\) does not witness"):
            family_from_obj(obj, other)

    def test_jordan_family_round_trip(self):
        rng = random.Random(93)
        hidden = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 2))
        oracle, family = gen_jordan_instance(hidden, seed=15)
        obj = jordan_family_to_obj(family)
        again = jordan_family_from_obj(obj, oracle)
        assert again.oracle is oracle
        assert again.diag == family.diag
        zero = TwoLocalOracle(Z9, 3, lambda x: Matrix.zero(Z9, 3))
        with pytest.raises(ContractError, match=r"d\(11\) does not witness"):
            jordan_family_from_obj(obj, zero)

    @pytest.mark.parametrize(
        "ring,n,message",
        [(Z9, 2, "ring does not match"), (Z5, 3, '"n" must be the oracle')],
    )
    def test_ring_or_shape_of_another_oracle_is_a_parse_error(self, ring, n, message):
        oracle = TwoLocalOracle(ring, n, lambda x: Matrix.zero(ring, n))
        obj, _ = _witness_family_obj()
        with pytest.raises(ParseError, match=message):
            family_from_obj(obj, oracle)
        obj, _ = _jordan_family_obj()
        with pytest.raises(ParseError, match=message):
            jordan_family_from_obj(obj, oracle)

    def test_incomplete_family_is_a_parse_error(self):
        rng = random.Random(94)
        hidden = random_matrix(Z5, 2, rng)
        oracle, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=16)
        obj = family_to_obj(family)
        obj["witnesses"] = obj["witnesses"][:1]
        with pytest.raises(ParseError):
            family_from_obj(obj, oracle)


def _witness_family_obj():
    """A Z_5, n = 2 witness family document and the oracle it witnesses."""
    hidden = random_matrix(Z5, 2, random.Random(95))
    oracle, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=17)
    return family_to_obj(family), oracle


def _jordan_family_obj():
    """A Z_5, n = 2 Jordan family document and the oracle it witnesses."""
    hidden = JordanPairDerivation(Z5, 2, random_pairs(Z5, 2, random.Random(96), 1))
    oracle, family = gen_jordan_instance(hidden, seed=18)
    return jordan_family_to_obj(family), oracle


_WITNESS_OBJ, _WITNESS_ORACLE = _witness_family_obj()
_JORDAN_OBJ, _JORDAN_ORACLE = _jordan_family_obj()


class TestParsersAreTotal:
    @pytest.mark.parametrize("bad", [7, None, "ab", {"i": 1}])
    def test_non_list_records(self, bad):
        obj, oracle = _witness_family_obj()
        obj["witnesses"] = bad
        with pytest.raises(ParseError, match='"witnesses" must be a list'):
            family_from_obj(obj, oracle)
        obj, oracle = _jordan_family_obj()
        obj["diag"] = bad
        with pytest.raises(ParseError, match='"diag" must be a list'):
            jordan_family_from_obj(obj, oracle)

    @pytest.mark.parametrize("bad", [[1], {"k": 1}, "1", 1.0, True, 0, 3])
    def test_bad_index(self, bad):
        obj, oracle = _witness_family_obj()
        obj["witnesses"][0]["j"] = bad
        with pytest.raises(ParseError, match="witness indices"):
            family_from_obj(obj, oracle)
        obj, oracle = _jordan_family_obj()
        obj["diag"][0]["i"] = bad
        with pytest.raises(ParseError, match="witness indices"):
            jordan_family_from_obj(obj, oracle)

    def test_duplicate_record(self):
        obj, oracle = _witness_family_obj()
        obj["witnesses"].append(obj["witnesses"][0])
        with pytest.raises(ParseError, match="duplicate witness"):
            family_from_obj(obj, oracle)
        obj, oracle = _jordan_family_obj()
        obj["diag"].append(obj["diag"][0])
        with pytest.raises(ParseError, match="duplicate witness"):
            jordan_family_from_obj(obj, oracle)

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
            (
                ParseError,
                lambda x: family_from_obj({**_WITNESS_OBJ, "n": x}, _WITNESS_ORACLE),
            ),
            (
                ParseError,
                lambda x: jordan_family_from_obj(
                    {**_JORDAN_OBJ, "n": x}, _JORDAN_ORACLE
                ),
            ),
            (ParseError, lambda x: ring_from_obj({"ring": x})),
            (InvalidRing, lambda x: ring_from_obj({"ring": "zmod", "m": x})),
            (InvalidRing, Zmod),
        ],
        ids=[
            "zmod-value", "poly-value", "poly-coefficient", "matrix-n",
            "family-n", "jordan-family-n", "ring-kind", "ring-modulus", "zmod",
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
_KEYS = ("kind", "ring", "n", "witnesses", "c", "diag", "i", "j", "rows", "m", "base")


def _near_valid(template, records=None):
    """Valid documents with one field swapped for arbitrary JSON, at the
    top or in the first item under `records`; random objects alone rarely
    get past the first key check."""

    def swap(key, value, inner):
        doc = copy.deepcopy(template)
        target = doc[records][0] if inner and records else doc
        target[key] = value
        return doc

    return st.builds(swap, st.sampled_from(_KEYS), _JSON, st.booleans())


class TestParsersFuzz:
    """Whatever the input, the parsers raise only DerivringError."""

    @settings(max_examples=300)
    @given(st.one_of(_JSON, _near_valid(_WITNESS_OBJ, "witnesses")))
    def test_family_from_obj(self, obj):
        try:
            family_from_obj(obj, _WITNESS_ORACLE)
        except DerivringError:
            pass

    @settings(max_examples=300)
    @given(st.one_of(_JSON, _near_valid(_JORDAN_OBJ, "diag")))
    def test_jordan_family_from_obj(self, obj):
        try:
            jordan_family_from_obj(obj, _JORDAN_ORACLE)
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
