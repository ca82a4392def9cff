"""Ring arithmetic: canonical forms, axioms, halving, base derivations."""

import copy
import operator
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from derivring import (
    BaseDerivation,
    DomainError,
    InvalidRing,
    Matrix,
    PolyRing,
    Zmod,
    matrix_unit,
    rings,
)
from derivring.errors import ContractError, ParseError
from derivring.serialize import loads_strict, matrix_from_obj, ring_to_obj

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)
P9 = PolyRing(Z9)

RINGS = [Z5, Z9, Zmod(15), P5, P9]
MISMATCHED = [(Z5, Z9), (Z9, Z5), (Z5, P5), (P5, Z5), (P5, P9), (P9, P5)]


def elements_of(ring):
    if isinstance(ring, Zmod):
        return st.integers(0, ring.modulus - 1).map(ring.element)
    return st.lists(
        st.integers(0, ring.base.modulus - 1), max_size=5
    ).map(ring.element)


@st.composite
def ring_with_elements(draw, count):
    ring = draw(st.sampled_from(RINGS))
    return ring, [draw(elements_of(ring)) for _ in range(count)]


def ref_poly_mul(a, b, m):
    """Schoolbook reference multiply, independent of the implementation."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % m
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestConstruction:
    def test_even_modulus_rejected(self):
        with pytest.raises(InvalidRing):
            Zmod(6)

    @pytest.mark.parametrize("m", [0, 1, 2, -5, "5", 4.0])
    def test_bad_moduli_rejected(self, m):
        with pytest.raises(InvalidRing):
            Zmod(m)

    def test_poly_base_must_be_valid_zmod(self):
        with pytest.raises(InvalidRing):
            PolyRing(Zmod(6))
        with pytest.raises(InvalidRing):
            PolyRing("Z5")

    def test_error_message_names_the_requirement(self):
        with pytest.raises(InvalidRing, match="2 is invertible"):
            Zmod(6)

    @pytest.mark.parametrize(
        "error,build",
        [
            (DomainError, lambda x: Z5.element(x)),
            (DomainError, lambda x: P5.element({"v": x})),
            (DomainError, lambda x: P5.element([x])),
            (InvalidRing, lambda x: PolyRing(x)),
            (DomainError, lambda x: Matrix.from_rows(Z5, [[x]])),
        ],
        ids=["zmod", "poly-value", "poly-coefficient", "poly-base", "from-rows"],
    )
    def test_deep_input_on_a_deep_stack(self, error, build):
        # error messages name the offending type: a repr of a list nested
        # 900 deep, taken 150 frames down, would raise RecursionError
        deep = loads_strict("[" * 900 + "]" * 900)

        def descend(frames):
            return build(deep) if frames == 0 else descend(frames - 1)

        with pytest.raises(error):
            descend(150)

    # what `element` refuses, as a value and as a coefficient: bools,
    # non-ints, nested lists and elements of another ring (Z_5 and Z_5[t]
    # refuse each other's elements too)
    NOT_VALUES = [True, False, 1.0, "1", None, [[1]], (1, [2]), Z9.one, P9.one]
    REFUSALS = (
        [(Z5, x) for x in NOT_VALUES + [[1], (1,), P5.one]]
        + [(P5, x) for x in NOT_VALUES + [Z5.one, {"v": 1}]]
        + [(P5, [x]) for x in NOT_VALUES + [Z5.one, P5.one]]
        + [(P5, (1, x)) for x in NOT_VALUES]
    )

    @pytest.mark.parametrize("ring,value", REFUSALS, ids=repr)
    def test_element_refusals(self, ring, value):
        with pytest.raises(DomainError):
            ring.element(value)
        # the matrix parser turns each refusal into a ParseError alone
        obj = {"n": 1, "ring": ring_to_obj(ring), "rows": [[value]]}
        with pytest.raises(ParseError):
            matrix_from_obj(obj)

    SLOTS = [
        (Zmod(9), "modulus", 5),
        (Zmod(9), "zero", Z5.zero),
        (Zmod(9), "one", Z5.one),
        (Zmod(9), "half", Z5.half),
        (PolyRing(Z9), "base", Z5),
        (PolyRing(Z9), "zero", P5.zero),
        (PolyRing(Z9), "one", P5.one),
        (PolyRing(Z9), "half", P5.half),
        (PolyRing(Z9), "t", P5.t),
    ]

    @pytest.mark.parametrize("ring,name,value", SLOTS, ids=repr)
    def test_rings_are_read_only(self, ring, name, value):
        # a write would move every matrix over the ring to another one
        x = Matrix.from_rows(ring, [[1, 2], [3, 4]])
        before = getattr(ring, name)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(ring, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(ring, name)
        assert getattr(ring, name) is before
        assert x.ring == ring and x * x == Matrix.from_rows(ring, [[7, 10], [15, 22]])

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_read_only_rings_copy_and_pickle(self, ring):
        for twin in (
            copy.copy(ring),
            copy.deepcopy(ring),
            pickle.loads(pickle.dumps(ring)),
        ):
            assert twin == ring and str(twin) == str(ring)
            assert (twin.zero, twin.one, twin.half) == (ring.zero, ring.one, ring.half)
        x = ring.sample(random.Random(6), 3)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and type(twin) is type(x)

    ELEMENTS = [
        ("zero", "payload", 1),
        ("zero", "ring", Z9),
        ("half", "ring", Z5),
        ("half", "payload", 0),
        ("one", "payload", 2),
    ]

    @pytest.mark.parametrize("attr,name,value", ELEMENTS, ids=repr)
    @pytest.mark.parametrize("ring", [Zmod(5), Zmod(9), PolyRing(Z5)], ids=str)
    def test_elements_are_read_only(self, ring, attr, name, value):
        # a ring's zero, one and half are shared by every matrix over it:
        # a write to zero's payload turned Matrix.zero into a matrix of ones
        z = getattr(ring, attr)
        before = (z.ring, z.payload, repr(z))
        with pytest.raises(AttributeError, match="read-only"):
            setattr(z, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(z, name)
        assert (z.ring, z.payload, repr(z)) == before
        assert Matrix.zero(ring, 2).is_zero()
        assert repr(matrix_unit(ring, 2, 1, 2)).endswith("[0 1; 0 0]")

    def test_canonical_residues(self):
        assert Z5.element(7).payload == 2
        assert Z5.element(-1).payload == 4
        assert Zmod(5).element(Z5.element(3)) == Z5.element(3)

    def test_canonical_coefficients(self):
        assert P5.element([6, 1]).payload == (1, 1)
        assert P5.element([1, 0, 0]).payload == (1,)
        assert P5.element(0).payload == ()
        assert P5.element(-1).payload == P5.element((4,)).payload == (4,)
        assert P5.element([]) == P5.zero
        assert PolyRing(Zmod(5)).element(P5.t) == P5.t

    @given(ring_with_elements(1))
    def test_canonicalization_idempotent(self, data):
        ring, (x,) = data
        assert ring.element(x.payload) == x


class TestArithmetic:
    def test_add(self):
        assert Z5.element(3) + Z5.element(4) == Z5.element(2)

    def test_add_poly_coefficient_wraps(self):
        # (t + 1) + 8t over Z_9: the t coefficient becomes 9 = 0
        assert P9.element([1, 1]) + P9.element([0, 8]) == P9.one

    def test_mul(self):
        assert Z5.element(3) * Z5.element(4) == Z5.element(2)

    def test_mul_poly(self):
        a, b = (1, 1), (4, 1)  # t + 1 and t + 4 = t - 1
        expected = ref_poly_mul(a, b, 5)
        assert expected == (4, 0, 1)  # t^2 + 4
        assert P5.element(a) * P5.element(b) == P5.element(list(expected))

    @given(
        st.sampled_from([P5, P9, PolyRing(Zmod(10**61 + 3))]),
        st.data(),
    )
    def test_poly_ops_match_coefficient_references(self, ring, data):
        # degrees 0..20 and all-(m-1) coefficients, against schoolbook
        # multiplication and coefficientwise addition
        m = ring.base.modulus
        coeff = st.one_of(st.just(m - 1), st.integers(0, m - 1))
        a, b = (data.draw(st.lists(coeff, max_size=21)) for _ in range(2))
        x, y = ring.element(a), ring.element(b)
        assert (x * y).payload == ref_poly_mul(x.payload, y.payload, m)
        width = max(len(a), len(b))
        pad = lambda c: list(c) + [0] * (width - len(c))  # noqa: E731
        assert x + y == ring.element([p + q for p, q in zip(pad(a), pad(b))])
        assert x - y == ring.element([p - q for p, q in zip(pad(a), pad(b))])
        assert -x == ring.element([-p for p in a])

    def test_leading_coefficient_can_vanish(self):
        # (3t)(3t) = 9 t^2 = 0 over Z_9
        assert P9.element([0, 3]) * P9.element([0, 3]) == P9.zero

    @given(ring_with_elements(2))
    def test_commutative(self, data):
        ring, (a, b) = data
        assert a + b == b + a
        assert a * b == b * a

    @given(ring_with_elements(3))
    def test_associative_distributive(self, data):
        ring, (a, b, c) = data
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(ring_with_elements(1))
    def test_identities(self, data):
        ring, (a,) = data
        assert a + ring.zero == a
        assert a * ring.one == a
        assert a - a == ring.zero
        assert a + (-a) == ring.zero

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"]
    )
    @pytest.mark.parametrize("left,right", MISMATCHED, ids=str)
    def test_ring_mismatch(self, op, left, right):
        with pytest.raises(DomainError):
            op(left.one, right.one)

    @pytest.mark.parametrize("left,right", MISMATCHED, ids=str)
    def test_scaling_ring_mismatch(self, left, right):
        mat, z = Matrix.identity(left, 2), right.one
        with pytest.raises(DomainError):
            mat * z
        with pytest.raises(DomainError):
            z * mat

    @pytest.mark.parametrize("other", [1, "1"], ids=repr)
    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul], ids=["+", "-", "*"]
    )
    @pytest.mark.parametrize(
        "value",
        [
            Z5.one,
            P5.t,
            Matrix.identity(Z5, 2),
            Matrix.identity(P5, 2),
            Matrix.identity(P5, 2) * Matrix.identity(P5, 2),
        ],
        ids=["Z_5", "Z_5[t]", "M_2(Z_5)", "M_2(Z_5[t])", "unread-product"],
    )
    def test_ints_and_strings_are_not_operands(self, value, op, other):
        # each operator returns NotImplemented, on either side; an unread
        # product too, which is refused before it is read
        with pytest.raises(TypeError):
            op(value, other)
        with pytest.raises(TypeError):
            op(other, value)

    def test_equal_elements_hash_equal(self):
        # equal rings built apart: equal elements are one set member
        pairs = [
            (Zmod(9).element(4), Zmod(9).element(13)),
            (PolyRing(Zmod(5)).element([1, 2]), PolyRing(Zmod(5)).element([6, 7, 0])),
        ]
        for a, b in pairs:
            assert a.ring is not b.ring and a == b
            assert hash(a) == hash(b) and len({a, b}) == 1


@st.composite
def residue_operands(draw):
    """An odd modulus m >= 3, two residue tuples of one length in 0..81,
    and a scalar residue."""
    m = draw(st.integers(1, 10**6).map(lambda h: 2 * h + 1))
    size = draw(st.integers(0, 81))
    residues = st.lists(st.integers(0, m - 1), min_size=size, max_size=size)
    return m, tuple(draw(residues)), tuple(draw(residues)), draw(st.integers(0, m - 1))


def assert_tuple_ops_map_scalar_ops(ring, a, b, scalars):
    assert ring.add_all(a, b) == tuple(map(ring.add, a, b))
    assert ring.sub_all(a, b) == tuple(map(ring.sub, a, b))
    assert ring.neg_all(a) == tuple(map(ring.neg, a))
    for s in scalars:
        assert ring.scale_all(s, a) == tuple(ring.mul(s, x) for x in a)


class TestTupleOps:
    """Each whole-tuple op equals the map of its scalar op; on Z_m each
    runs a straight-line kernel generated per (length, op)."""

    @pytest.mark.parametrize("ring", [Z5, Z9, Zmod(3), Zmod(1000003), P5], ids=str)
    @pytest.mark.parametrize("size", [0, 1, 4, 9, 16, 25, 64])
    def test_each_is_the_map_of_its_scalar_op(self, ring, size):
        rng = random.Random(size)
        # every third entry zero, so () appears in Z_5[t]
        a, b = (
            tuple(
                ring.zero.payload if k % 3 == 0 else ring.sample(rng, 3).payload
                for k in range(size)
            )
            for _ in range(2)
        )
        scalars = (ring.zero.payload, ring.one.payload, ring.sample(rng, 3).payload)
        assert_tuple_ops_map_scalar_ops(ring, a, b, scalars)

    @given(residue_operands())
    def test_kernels_map_scalar_ops_for_any_odd_modulus(self, operands):
        m, a, b, s = operands
        assert_tuple_ops_map_scalar_ops(Zmod(m), a, b, (0, 1, m - 1, s))

    @pytest.mark.parametrize("op", list(rings._ENTRYWISE))
    @pytest.mark.parametrize("size", [0, 1, 4, 64])
    def test_kernel_built_once_per_length_and_op(self, op, size):
        kernel = rings._entrywise(size, op)
        assert rings._entrywise(size, op) is kernel
        assert rings._entrywise(size + 1, op) is not kernel
        others = set(rings._ENTRYWISE) - {op}
        assert all(rings._entrywise(size, o) is not kernel for o in others)

    def test_ops_build_each_kernel_once_on_first_use(self):
        # a fresh interpreter: importing builds nothing, the first add of
        # each length builds one kernel, a second add builds none
        probe = (
            "from derivring import Zmod, rings\n"
            "info = rings._entrywise.cache_info\n"
            "built = info().currsize\n"
            "z = Zmod(7)\n"
            "assert z.add_all((3, 4), (5, 6)) == (1, 3)\n"
            "assert z.add_all((1,), (6,)) == (0,)\n"
            "after = info().currsize\n"
            "assert z.add_all((1, 1), (1, 1)) == (2, 2)\n"
            "assert z.neg_all((1, 1)) == (6, 6)\n"
            "print(built, after, info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "2", "3"]

    def test_poly_ops_reach_one_kernel_each(self):
        # a fresh interpreter: add, sub and neg of Z_m[t] each run one
        # `_entrywise` kernel on the zero-padded coefficients, built on
        # the first call at that length and never again
        probe = (
            "from derivring import PolyRing, Zmod, rings\n"
            "info = rings._entrywise.cache_info\n"
            "ring = PolyRing(Zmod(9))\n"
            "built = info().currsize\n"
            "assert ring.add((1, 2), (3,)) == (4, 2)\n"
            "first = info().currsize\n"
            "assert ring.add((5, 8), (4, 1)) == ()\n"
            "second = info().currsize\n"
            "assert ring.sub((1,), (1, 3)) == (0, 6)\n"
            "assert ring.neg((1, 0, 2)) == (8, 0, 7)\n"
            "print(built, first, second, info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "1", "1", "3"]

    def test_leading_terms_vanish_mod_9(self):
        # 3t * 3t = 9t^2 = 0 and 3t + 6t = 9t = 0 over Z_9
        three_t, six_t = (0, 3), (0, 6)
        assert P9.scale_all(three_t, (three_t, (), (1,))) == ((), (), three_t)
        assert P9.add_all((three_t, ()), (six_t, ())) == ((), ())
        assert P9.sub_all((three_t,), (three_t,)) == ((),)
        assert P9.neg_all((three_t, ())) == (six_t, ())

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    @pytest.mark.parametrize("p", [(), (1,), (0, 3), (2, 0, 4)])
    def test_zero_polynomial_operand(self, ring, p):
        m = ring.base.modulus
        assert ring.add(p, ()) is p and ring.add((), p) is p and ring.sub(p, ()) is p
        assert ring.sub((), p) == tuple((-c) % m for c in p)


def strip_reference(coeffs):
    """The literal rule: drop zeros from the top until the top is nonzero."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestStrip:
    @pytest.mark.parametrize(
        "coeffs",
        [(), [], (0,), [0], (0, 0, 0, 0, 0, 0, 0), [0, 0], (1,), (0, 1), (3, 0),
         (1, 2, 0, 0, 0, 0, 0), [1, 2, 0, 0, 0, 0, 0], (0, 0, 5, 0), [4, 0, 0, 1]],
    )
    def test_matches_reference(self, coeffs):
        stripped = rings._strip(coeffs)
        assert type(stripped) is tuple
        assert stripped == strip_reference(coeffs)

    @given(st.lists(st.sampled_from([0, 0, 0, 1, 7]), max_size=12), st.booleans())
    def test_matches_reference_on_draws(self, coeffs, as_tuple):
        coeffs = tuple(coeffs) if as_tuple else coeffs
        stripped = rings._strip(coeffs)
        assert type(stripped) is tuple and stripped == strip_reference(coeffs)

    def test_nonzero_top_is_not_copied(self):
        p = (0, 0, 3)
        assert rings._strip(p) is p


def is_canonical_poly(payload, m):
    return (
        type(payload) is tuple
        and all(0 <= c < m for c in payload)
        and (not payload or payload[-1] != 0)
    )


class TestMonomialProducts:
    """A zero operand gives zero, and a monomial c t^k is packed like any
    other operand; the result is the schoolbook product, canonical even
    where c p loses its leading term mod a composite m."""

    OTHERS = [(), (1,), (0, 3), (3, 6), (2, 0, 4), (1, 3, 6, 3), (4,) * 6]

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    @pytest.mark.parametrize("k", [None, 0, 1, 2], ids=["zero", "c", "ct", "ct2"])
    def test_matches_schoolbook_on_either_side(self, ring, k):
        m = ring.base.modulus
        others = [ring.element(p).payload for p in self.OTHERS]
        monomials = [()] if k is None else [(0,) * k + (c,) for c in range(1, m)]
        for mono in monomials:
            for p in others + monomials:
                for x, y in ((mono, p), (p, mono)):
                    got = ring.mul(x, y)
                    assert got == ref_poly_mul(x, y, m), (x, y)
                    assert is_canonical_poly(got, m), (x, y)

    @pytest.mark.parametrize(
        "x,y", [((3,), (0, 3)), ((0, 3), (0, 0, 3)), ((3,), (3, 6)), ((0, 6), (3,))]
    )
    def test_products_that_vanish_mod_9(self, x, y):
        # 3 * 3t = 9t and 3t * 3t^2 = 9t^3: zero, not (0,) or (0, 0, 0)
        assert P9.mul(x, y) == P9.mul(y, x) == ()

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    def test_scale_all_by_a_constant_matches_mul(self, ring):
        # every scalar, constant or not, takes the Kronecker mul; (3,) is
        # a zero divisor in Z_9[t]: 3 * 3t = 0
        m = ring.base.modulus
        entries = tuple(ring.element(p).payload for p in self.OTHERS)
        entries += ring.draw(random.Random(m), 20, 4)
        for s in [(), (1,), ring.half.payload, (3,), (2, 0, 1)]:
            got = ring.scale_all(s, entries)
            assert got == tuple(map(ring.mul, [s] * len(entries), entries)), s
            assert all(is_canonical_poly(p, m) for p in got), s
        assert P9.scale_all((3,), ((0, 3), (3, 6), (1, 3))) == ((), (), (3,))

    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    def test_scale_all_by_half(self, ring):
        m, half = ring.base.modulus, ring.half.payload
        others = tuple(ring.element(p).payload for p in self.OTHERS)
        halves = ring.scale_all(half, others)
        assert halves == tuple(ref_poly_mul(half, p, m) for p in others)
        assert all(is_canonical_poly(h, m) for h in halves)
        assert ring.add_all(halves, halves) == others

    def test_monomial_values(self):
        assert P9.mul((0, 2), (1, 1)) == (0, 2, 2)
        assert P9.mul((1, 3, 6, 3), (3,)) == (3,)
        assert P9.mul((), (1, 2)) == P9.mul((1, 2), ()) == ()
        assert P5.scale_all(P5.half.payload, ((2, 4),)) == ((1, 2),)


# Every odd modulus of a byte, and one far past it
KRONECKER_MODULI = list(range(3, 256, 2)) + [1000003]

# (n, la, lb): kernels over n-term dot products of entries with at most
# la and lb coefficients, from byte slots up to widths past 16 bits
SLOT_SHAPES = [(1, 1, 1), (1, 4, 7), (2, 4, 4), (5, 4, 4), (8, 7, 4)]


def packed_slots(slots, bits):
    """Reference packing: the int whose slot k holds slots[k], of any
    sign, at `_pack`'s spacing (8 bits on byte slots, else `bits`)."""
    spacing = 8 if bits <= 8 else bits
    return sum(v << spacing * k for k, v in enumerate(slots))


def per_slot_payload(slots, m):
    """Reference unpacking: each slot reduced mod m on its own, trailing
    zeros stripped."""
    coeffs = [v % m for v in slots]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def slot_cases(rng, size, low, high, m):
    """Lists of `size` slot values in [low, high]: all zero, all at
    either end, random, and random under a top slot that is a nonzero
    multiple of m, so that it cancels (3 * 3 mod 9, 3 * 5 mod 15 and
    5 * 5 mod 25 are such tops)."""
    draw = [[rng.randint(low, high) for _ in range(size)] for _ in range(4)]
    tops = [m * rng.randint(1, high // m) for _ in range(3)]
    if low:
        tops += [-top for top in tops]
    cancelled = [row[:-1] + [top] for row, top in zip(draw * 2, tops)]
    return [[[0] * size] * 3, [[high] * size, [low] * size], draw, cancelled]


class TestKroneckerSlots:
    """`rings._unpacked`, which reads a whole kernel result (one packed
    sum per entry), against the per-slot reference, at the width and
    with the bias that `rings._slots` plans: byte slots, two-byte slots
    read by byte planes where the pair rule holds, and one shift per
    slot elsewhere."""

    @pytest.mark.parametrize("m", KRONECKER_MODULI)
    def test_unpacked_matches_per_slot_reference(self, m):
        # sign 0: a product, slots in [0, B]; sign 1: a sum of two, in
        # [0, 2B]; sign -1: a difference, in [-B, B] before the bias
        rng = random.Random(m)
        for n, la, lb in SLOT_SHAPES:
            size, bound = la + lb - 1, rings._slot_bound(n, la, lb, m)
            for sign, low, high in ((0, 0, bound), (1, 0, 2 * bound), (-1, -bound, bound)):
                bits, offset = rings._slots(n, sign, la, lb, m)
                assert (offset != 0) == (sign < 0)
                for rows in slot_cases(rng, size, low, high, m):
                    sums = [packed_slots(row, bits) for row in rows]
                    want = tuple(per_slot_payload(row, m) for row in rows)
                    assert rings._unpacked(sums, bits, offset, m) == want, (n, la, lb, sign)

    def test_two_byte_width_is_the_pair_rule(self):
        # a width of 9 to 15 bits rounds up to 16 exactly where the pair
        # rule holds, and `_unpacked` takes the byte planes exactly there
        pairs = [m for m in KRONECKER_MODULI if (m - 1) * (1 + 256 % m) < 256]
        assert pairs == list(range(3, 26, 2)) + [51, 85]
        for m in KRONECKER_MODULI:
            for n, la, lb in SLOT_SHAPES:
                exact = rings._slot_bound(n, la, lb, m).bit_length()
                bits = rings._slot_bits(n, la, lb, m)
                rounds = 8 < exact < 16 and m in pairs
                assert bits == (16 if rounds else exact)
                assert rings._two_byte(bits, m) == (bits == 16 and m in pairs)

    def test_exact_two_byte_width_without_the_pair_rule(self):
        # Z_61[t], n = 4, degree 3: the bound 57,600 needs exactly 16
        # bits, but 60 * (1 + 256 % 61) = 780 does not fit a byte, so the
        # slots take the shift path, never the byte planes
        n, length, m = 4, 4, 61
        assert rings._slot_bound(n, length, length, m) == 57_600
        bits, offset = rings._slots(n, 0, length, length, m)
        assert (bits, offset) == (16, 0) and not rings._two_byte(bits, m)
        rng = random.Random(61)
        for rows in slot_cases(rng, 2 * length - 1, 0, 57_600, m):
            sums = [packed_slots(row, bits) for row in rows]
            want = tuple(per_slot_payload(row, m) for row in rows)
            assert rings._unpacked(sums, bits, 0, m) == want
        ring = PolyRing(Zmod(m))
        full = Matrix.from_rows(ring, [[[m - 1] * length] * n] * n)
        top = ref_poly_mul((m - 1,) * length, (m - 1,) * length, m)
        want = tuple(
            per_slot_payload([n * c for c in top], m) for _ in range(n * n)
        )
        assert ring.matmul(full, full) == want

    @pytest.mark.parametrize("bits", [8, 9, 15, 17])
    def test_negative_sum_raises_on_one_sum(self, bits):
        # a negative sum is a borrowing slot: it raises, where the shift
        # loop used to run on forever (-1 >> bits is -1)
        with pytest.raises(ContractError, match="negative packed sum"):
            rings._unpack(-1, bits, 5)

    def test_negative_sum_raises_on_two_byte_slots(self):
        # a difference whose bias is laid one slot short: the top slot
        # borrows and the whole sum is negative, on the byte planes as on
        # the shift path
        n, la, lb = 2, 4, 4
        for m in (5, 61):
            bits, offset = rings._slots(n, -1, la, lb, m)
            bias = offset >> bits * (la + lb - 2)  # the top slot's K
            short = offset - (bias << bits * (la + lb - 2))
            bound = rings._slot_bound(n, la, lb, m)
            rows = [[0] * 6 + [-bound], [1]]
            sums = [packed_slots(row, bits) for row in rows]
            assert rings._two_byte(bits, m) == (m == 5)
            want = tuple(per_slot_payload(row, m) for row in rows)
            assert rings._unpacked(sums, bits, offset, m) == want
            with pytest.raises(ContractError, match="negative packed sum"):
                rings._unpacked(sums, bits, short, m)
        with pytest.raises(ContractError):
            rings._unpacked([0, -1], 16, 0, 5)

    def test_slot_plans_are_cached(self):
        # the plan is pure in (n, sign, la, lb, m): the bias is packed once
        plan = rings._slots(3, -1, 5, 2, 9)
        hits = rings._slots.cache_info().hits
        assert rings._slots(3, -1, 5, 2, 9) is plan
        assert rings._slots.cache_info().hits == hits + 1


def matvec_reference(ring, table, v):
    """Reference M v, row by row: M has len(v) columns and its payloads
    flat in `table`, row-major; each entry is a dot product summed with
    plain ints on Z_m and with `ref_poly_mul` and coefficient sums on
    Z_m[t]."""
    size = len(v)
    rows = [table[r : r + size] for r in range(0, len(table), size)]
    if isinstance(ring, Zmod):
        return tuple(sum(a * b for a, b in zip(row, v)) % ring.modulus for row in rows)
    m = ring.base.modulus
    out = []
    for row in rows:
        total = []
        for a, b in zip(row, v):
            for k, c in enumerate(ref_poly_mul(a, b, m)):
                total += [0] * (k + 1 - len(total))
                total[k] = (total[k] + c) % m
        out.append(per_slot_payload(total, m))
    return tuple(out)


def matvec_entries(ring, rng, count, longest):
    """`count` payloads: residues on Z_m; on Z_m[t] coefficient tuples of
    mixed lengths 0 to `longest`, the zero polynomial among them."""
    if isinstance(ring, Zmod):
        return tuple(rng.randrange(ring.modulus) for _ in range(count))
    m = ring.base.modulus
    lengths = [rng.randint(0, longest) for _ in range(count)]
    return tuple(
        tuple([rng.randrange(m) for _ in range(k - 1)] + [rng.randrange(1, m)])
        if k
        else ()
        for k in lengths
    )


# Z_m[t] at byte, two-byte and shift slots, the last wider than 16 bits
MATVEC_RINGS = [
    Z5, Z9, Zmod(1000003), P5, P9, PolyRing(Zmod(61)), PolyRing(Zmod(1000003))
]


class TestMatvec:
    """`ring.matvec(table, v)`, the tabulated Jordan oracle's one op: the
    one-column kernel of `rings._product_sums` against a literal per-row
    reference, at every table size the oracle builds up to n = 4 (1, 3,
    6 and 10) and the sizes between."""

    @pytest.mark.parametrize("ring", MATVEC_RINGS, ids=str)
    @pytest.mark.parametrize("size", range(1, 11))
    def test_matches_the_per_row_reference(self, ring, size):
        rng = random.Random(size)
        zero = ring.zero.payload
        for longest in (1, 3, 6):
            table = matvec_entries(ring, rng, size * size, longest)
            v = matvec_entries(ring, rng, size, longest)
            cases = [
                (table, v),
                (table, (zero,) * size),  # an all-zero v
                ((zero,) * (size * size), v),  # the table of a zero pair list
            ]
            for table, v in cases:
                out = ring.matvec(table, v)
                assert type(out) is tuple and len(out) == size
                assert out == matvec_reference(ring, table, v), (longest, table, v)

    @pytest.mark.parametrize("ring", MATVEC_RINGS, ids=str)
    @pytest.mark.parametrize("size", [1, 3, 6, 10])
    def test_largest_entries_fill_every_slot(self, ring, size):
        # every coefficient m - 1: each dot product reaches the slot bound
        m = ring.modulus if isinstance(ring, Zmod) else ring.base.modulus
        top = m - 1 if isinstance(ring, Zmod) else (m - 1,) * 4
        table, v = (top,) * (size * size), (top,) * size
        assert ring.matvec(table, v) == matvec_reference(ring, table, v)

    def test_rectangular_table(self):
        # the kernel zips rows of len(v) columns, however many there are
        rng = random.Random(7)
        for ring in (Z9, P9):
            table = matvec_entries(ring, rng, 12, 3)
            v = matvec_entries(ring, rng, 4, 3)
            out = ring.matvec(table, v)
            assert len(out) == 3 and out == matvec_reference(ring, table, v)


def matmul_each_reference(ring, xs, b):
    """Reference payloads of x b for each x of xs, concatenated: column j
    of each product is `matvec_reference` of x's entries against column
    j of b, read back row by row."""
    n = b.n
    out = []
    for x in xs:
        columns = [matvec_reference(ring, x.entries, b.entries[j::n]) for j in range(n)]
        out += [columns[j][i] for i in range(n) for j in range(n)]
    return tuple(out)


# Z_m, and Z_m[t] at byte (Z_3[t]), two-byte (Z_5[t], Z_9[t]) and shift
# (Z_1000003[t]) slots
STACKED_RINGS = [
    Z9, Zmod(1000003), PolyRing(Zmod(3)), P5, P9, PolyRing(Zmod(1000003))
]


class TestMatmulEach:
    """`ring.matmul_each(xs, b)`: the payloads of x b for every x of xs,
    concatenated, from one kernel call on the stacked rows, against a
    literal per-entry reference and against one `matmul` per x."""

    @pytest.mark.parametrize("ring", STACKED_RINGS, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_reference(self, ring, n):
        rng = random.Random(920 + n)
        zero = Matrix.zero(ring, n)
        for longest in (1, 4, 7):
            def draw():
                return Matrix(ring, n, matvec_entries(ring, rng, n * n, longest))

            b = draw()
            for count in (1, 2, 40):
                xs = [draw() for _ in range(count)]
                for stack, right in ((xs, b), (xs + [zero], b), (xs, zero)):
                    out = ring.matmul_each(stack, right)
                    assert type(out) is tuple and len(out) == len(stack) * n * n
                    assert out == matmul_each_reference(ring, stack, right)
                    assert out == sum((ring.matmul(x, right) for x in stack), ())

    @pytest.mark.parametrize("ring", STACKED_RINGS[2:], ids=str)
    def test_each_x_is_packed_through_its_memo(self, ring):
        # every x gets the plan's width in its own `_packings` memo, which
        # a later call at that width reuses
        rng = random.Random(9)
        xs = [Matrix(ring, 3, matvec_entries(ring, rng, 9, k)) for k in (1, 5, 3)]
        b = Matrix(ring, 3, matvec_entries(ring, rng, 9, 4))
        out = ring.matmul_each(xs, b)
        m = ring.base.modulus
        la, lb = (max(len(p) for x in mats for p in x.entries) for mats in (xs, [b]))
        bits = rings._slots(3, 0, la, lb, m)[0]
        packed = [x._packings[2][bits] for x in xs]
        assert ring.matmul_each(xs, b) == out
        assert [x._packings[2][bits] for x in xs] == packed
        assert all(x._packings[2][bits] is p for x, p in zip(xs, packed))


def randrange_reference(ring, rng, count, max_degree):
    """What `ring.draw` must return: one rng.randrange(m) per coefficient,
    constant term first, each polynomial stripped of trailing zeros."""
    if isinstance(ring, Zmod):
        return tuple(rng.randrange(ring.modulus) for _ in range(count))
    m = ring.base.modulus
    out = []
    for _ in range(count):
        coeffs = [rng.randrange(m) for _ in range(max_degree + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(tuple(coeffs))
    return tuple(out)


def draws_agree(draw, ring, max_degree, seeds=range(50), count=40):
    """`draw(rng, count, max_degree)` equals the reference on every seed
    and leaves the generator where the reference leaves it."""
    for seed in seeds:
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        got = draw(got_rng, count, max_degree)
        if got != randrange_reference(ring, ref_rng, count, max_degree):
            return False
        if got_rng.getrandbits(64) != ref_rng.getrandbits(64):
            return False
    return True


def biased_draw(self, rng, count, max_degree=0):
    """A planted `Zmod.draw` that reduces getrandbits(k) mod m instead of
    rejecting: one value per residue, and biased residues."""
    m = self.modulus
    return tuple(rng.getrandbits(m.bit_length()) % m for _ in range(count))


# residues drawn with almost no rejection (2**61 - 1) and with a lot
# (10**61 + 3 rejects about 22% of its 203-bit values)
DRAW_ZMODS = [Zmod(m) for m in (3, 5, 9, 2**61 - 1, 10**61 + 3)]
DRAW_CASES = [(ring, 0) for ring in DRAW_ZMODS] + [
    (ring, d) for ring in (P5, P9) for d in range(6)
]


class TestDraw:
    """`ring.draw` is one batch of exactly the draws that one
    rng.randrange(m) per coefficient takes."""

    @pytest.mark.parametrize("ring,max_degree", DRAW_CASES, ids=str)
    def test_draw_matches_per_entry_randrange(self, ring, max_degree):
        assert draws_agree(ring.draw, ring, max_degree)

    @pytest.mark.parametrize("ring,max_degree", DRAW_CASES, ids=str)
    def test_sample_is_one_draw(self, ring, max_degree):
        got_rng, ref_rng = random.Random(7), random.Random(7)
        for _ in range(20):
            (want,) = randrange_reference(ring, ref_rng, 1, max_degree)
            assert ring.sample(got_rng, max_degree) == ring.wrap(want)
        assert got_rng.getrandbits(64) == ref_rng.getrandbits(64)

    def test_negative_degree_is_refused(self):
        with pytest.raises(DomainError):
            P5.draw(random.Random(0), 2, -1)

    def test_empty_draw_takes_nothing(self):
        for ring in (Z5, P5):
            rng = random.Random(3)
            assert ring.draw(rng, 0) == ()
            assert rng.getrandbits(64) == random.Random(3).getrandbits(64)

    # 2**61 - 1 rejects one value in 2**61, so there the biased kernel
    # agrees with rejection on any feasible number of seeds
    @pytest.mark.parametrize(
        "ring,max_degree",
        [(r, d) for r, d in DRAW_CASES if r != Zmod(2**61 - 1)],
        ids=str,
    )
    def test_biased_kernel_is_caught(self, monkeypatch, ring, max_degree):
        monkeypatch.setattr(Zmod, "draw", biased_draw)
        assert not draws_agree(ring.draw, ring, max_degree)


class TestHalf:
    def test_half_z5(self):
        assert Z5.element(1).half() == Z5.element(3)

    def test_half_z9(self):
        assert Z9.element(1).half() == Z9.element(5)

    @given(ring_with_elements(1))
    def test_double_of_half(self, data):
        ring, (a,) = data
        h = a.half()
        assert h + h == a


class TestBaseDerivation:
    @pytest.mark.parametrize(
        "name,value", [("scale", (0, 1)), ("ring", P9), ("modulus", 9), ("_terms", ())]
    )
    def test_read_only(self, name, value):
        # a new scale used to leave the map on its old terms: d(t^2) stayed
        # 2t while the repr said (t) d/dt
        d = BaseDerivation.formal(P5)
        before = getattr(d, name)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(d, name, value)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(d, name)
        assert getattr(d, name) == before
        assert d(P5.element([0, 0, 1])) == P5.element([0, 2])
        assert repr(d) == "BaseDerivation((1) d/dt on Z_5[t])"

    def test_read_only_copy_and_pickle(self):
        p = P5.element([1, 3, 1, 4])
        for d in (
            BaseDerivation.zero(Z5),
            BaseDerivation.formal(P5),
            BaseDerivation.scaled(P5.element([2, 0, 1])),
        ):
            x = p if d.ring == P5 else Z5.element(3)
            for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
                assert repr(twin) == repr(d) and twin(x) == d(x)

    def test_power_rule(self):
        d = BaseDerivation.formal(P5)
        p = P5.element([1, 3, 1])  # t^2 + 3t + 1
        assert d(p) == P5.element([3, 2])  # 2t + 3

    def test_zero_map(self):
        d = BaseDerivation.zero(P5)
        assert d(P5.element([1, 2, 3])) == P5.zero
        assert BaseDerivation.zero(Z5)(Z5.element(4)) == Z5.zero

    def test_leibniz_witness(self):
        d = BaseDerivation.formal(P5)
        f = P5.element([1, 1])  # t + 1
        g = P5.t
        assert d(f * g) == P5.element([1, 2])  # 2t + 1
        assert d(f * g) == d(f) * g + f * d(g)

    def test_unit_maps_to_zero(self):
        for d in (
            BaseDerivation.zero(P5),
            BaseDerivation.formal(P5),
            BaseDerivation.scaled(P5.t),
        ):
            assert d(P5.one) == P5.zero

    def test_formal_needs_polynomials(self):
        with pytest.raises(DomainError):
            BaseDerivation.formal(Z5)
        with pytest.raises(DomainError):
            BaseDerivation.scaled(Z5.element(2))

    def test_constructor_canonicalises_the_scale(self):
        # a payload with a trailing zero is read through ring.element, not as
        # the monomial 0 t that PolyRing.mul would take it for
        d = BaseDerivation(P5, (1, 0))
        assert d.scale == (1,)
        assert d(P5.element([1, 2, 3])) == P5.element([2, 1])  # 2 + 6t = 2 + t
        # an int scale is a constant polynomial
        d = BaseDerivation(P5, 3)
        assert d.scale == (3,)
        assert d(P5.element([0, 0, 1])) == P5.element([0, 6])  # 3 * 2t
        assert BaseDerivation(P5, 5)(P5.t) == P5.zero

    def test_constructor_refuses_nonzero_scale_on_zmod(self):
        with pytest.raises(DomainError):
            BaseDerivation(Z5, 1)
        with pytest.raises(DomainError):
            BaseDerivation(Z5, P5.t)
        assert BaseDerivation(Z5, 5)(Z5.element(3)) == Z5.zero

    def test_ring_mismatch(self):
        d = BaseDerivation.formal(P5)
        with pytest.raises(DomainError):
            d(P9.t)

    @given(st.lists(st.integers(0, 4), max_size=6))
    def test_scale_one_and_zero(self, coeffs):
        # delta(t) = 1 is d/dt and delta(t) = 0 the zero map
        p = P5.element(coeffs)
        assert BaseDerivation.scaled(P5.one)(p) == BaseDerivation.formal(P5)(p)
        assert BaseDerivation.scaled(P5.zero)(p) == BaseDerivation.zero(P5)(p)

    @given(
        st.sampled_from(["zero", "formal", "scaled"]),
        st.lists(st.integers(0, 4), max_size=5),
        st.lists(st.integers(0, 4), max_size=5),
    )
    def test_additivity_and_leibniz(self, kind, pc, qc):
        if kind == "zero":
            d = BaseDerivation.zero(P5)
        elif kind == "formal":
            d = BaseDerivation.formal(P5)
        else:
            d = BaseDerivation.scaled(P5.t)
        p, q = P5.element(pc), P5.element(qc)
        assert d(p + q) == d(p) + d(q)
        assert d(p * q) == d(p) * q + p * d(q)
