"""Ring arithmetic: canonical forms, axioms, halving, base derivations."""

import operator
import random

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
)
from derivring.serialize import loads_strict

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

    def test_canonical_residues(self):
        assert Z5.element(7).payload == 2
        assert Z5.element(-1).payload == 4

    def test_canonical_coefficients(self):
        assert P5.element([6, 1]).payload == (1, 1)
        assert P5.element([1, 0, 0]).payload == (1,)
        assert P5.element(0).payload == ()

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

    def test_foreign_types_rejected(self):
        with pytest.raises(TypeError):
            Z5.element(1) + 1


class TestTupleOps:
    """Each whole-tuple op equals the map of its scalar op."""

    @pytest.mark.parametrize("ring", [Z5, Z9, P5], ids=str)
    @pytest.mark.parametrize("size", [0, 1, 4, 9, 16])
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
        assert ring.add_all(a, b) == tuple(map(ring.add, a, b))
        assert ring.sub_all(a, b) == tuple(map(ring.sub, a, b))
        assert ring.neg_all(a) == tuple(map(ring.neg, a))
        for s in (ring.zero.payload, ring.one.payload, ring.sample(rng, 3).payload):
            assert ring.scale_all(s, a) == tuple(ring.mul(s, x) for x in a)

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
        assert ring.add(p, ()) == ring.add((), p) == ring.sub(p, ()) == p
        assert ring.sub((), p) == tuple((-c) % m for c in p)


def is_canonical_poly(payload, m):
    return (
        type(payload) is tuple
        and all(0 <= c < m for c in payload)
        and (not payload or payload[-1] != 0)
    )


class TestMonomialProducts:
    """A zero or monomial operand c t^k is multiplied without packing; the
    result is the schoolbook product, canonical even where c p loses its
    leading term mod a composite m."""

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
    def test_scale_all_by_half(self, ring):
        m, half = ring.base.modulus, ring.half.payload
        others = tuple(ring.element(p).payload for p in self.OTHERS)
        halves = ring.scale_all(half, others)
        assert halves == tuple(ref_poly_mul(half, p, m) for p in others)
        assert all(is_canonical_poly(h, m) for h in halves)
        assert ring.add_all(halves, halves) == others

    def test_no_packing(self, monkeypatch):
        from derivring import rings

        def refuse(*args):
            raise AssertionError("a monomial product was packed")

        monkeypatch.setattr(rings, "_pack", refuse)
        assert P9.mul((0, 2), (1, 1)) == (0, 2, 2)
        assert P9.mul((1, 3, 6, 3), (3,)) == (3,)
        assert P9.mul((), (1, 2)) == P9.mul((1, 2), ()) == ()
        assert P5.scale_all(P5.half.payload, ((2, 4),)) == ((1, 2),)


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
