"""Inner derivations, Leibniz verification, the 2x2 extension block, the
doubling tower, and the two-generator propagation check."""

import random

import pytest

from derivring import (
    BaseDerivation,
    DomainError,
    InnerDerivation,
    Matrix,
    PolyRing,
    Zmod,
    commutator,
    entrywise,
    extend_m2,
    extend_tower,
    leibniz_check,
    matrix_unit,
    two_generator_check,
)
from derivring.rings import RingElement
from derivring.sampling import random_element, random_matrix

Z5 = Zmod(5)
P5 = PolyRing(Z5)
P9 = PolyRing(Zmod(9))


class TestInnerApply:
    def test_unit_relation(self):
        a = matrix_unit(Z5, 2, 1, 1)
        x = matrix_unit(Z5, 2, 1, 2)
        assert InnerDerivation(a)(x) == x

    def test_center_acts_trivially(self):
        rng = random.Random(21)
        z = Matrix.scalar(Z5.element(3), 2)
        for _ in range(50):
            x = random_matrix(Z5, 2, rng)
            assert InnerDerivation(z)(x).is_zero()

    def test_dense_generator(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        x = matrix_unit(Z5, 2, 1, 2)
        # schoolbook: a e12 puts column 1 of a into column 2, e12 a puts
        # row 2 of a into row 1; the difference mod 5 is [[2, 2], [0, 3]]
        assert InnerDerivation(a)(x) == Matrix.from_rows(Z5, [[2, 2], [0, 3]])

    def test_central_shift_acts_identically(self):
        rng = random.Random(22)
        for _ in range(20):
            a = random_matrix(Z5, 3, rng)
            z = Matrix.scalar(random_element(Z5, rng), 3)
            for i in range(1, 4):
                for j in range(1, 4):
                    unit = matrix_unit(Z5, 3, i, j)
                    assert InnerDerivation(a)(unit) == InnerDerivation(a + z)(unit)


class TestLeibnizCheck:
    def test_inner_derivations_pass(self):
        rng = random.Random(23)
        a = random_matrix(Z5, 3, rng)
        samples = [
            (random_matrix(Z5, 3, rng), random_matrix(Z5, 3, rng)) for _ in range(100)
        ]
        report = leibniz_check(InnerDerivation(a), samples)
        assert report.ok
        assert report.checked == 100

    def test_identity_map_fails(self):
        e11 = matrix_unit(Z5, 2, 1, 1)
        report = leibniz_check(lambda x: x, [(e11, e11)])
        assert not report.ok
        assert report.violations[0].kind == "leibniz"
        # D(e11 e11) = e11 but D(e11) e11 + e11 D(e11) = 2 e11
        assert report.violations[0].lhs == e11
        assert report.violations[0].rhs == e11 + e11

    def test_zero_map_passes(self):
        zero = Matrix.zero(Z5, 2)
        report = leibniz_check(lambda x: zero, [(zero, zero)])
        assert report.ok


def literal_m2(delta, mat):
    """The 2x2 extension written out entry by entry, as a reference:
    [[l, m], [v, e]] -> [[dl, dm + m], [dv - v, de]]."""
    lam, mu, nu, eta = (mat.entry(i, j) for i in (1, 2) for j in (1, 2))
    rows = [[delta(lam), delta(mu) + mu], [delta(nu) - nu, delta(eta)]]
    return Matrix.from_rows(mat.ring, rows)


class TestExtendM2:
    def test_formula_on_polynomials(self):
        ext = extend_m2(BaseDerivation.formal(P5))
        t = P5.t
        m = Matrix.from_rows(P5, [[t, (1,)], [(0,), t * t]])
        expected = Matrix.from_rows(P5, [[(1,), (1,)], [(0,), (0, 2)]])
        assert ext(m) == expected

    def test_identity_maps_to_zero(self):
        ext = extend_m2(BaseDerivation.formal(P5))
        assert ext(Matrix.identity(P5, 2)).is_zero()

    def test_symmetric_input(self):
        ext = extend_m2(BaseDerivation.formal(P5))
        t = P5.t
        m = Matrix.from_rows(P5, [[(0,), t], [t, (0,)]])
        # [[0, 1 + t], [1 - t, 0]] with 1 - t = 1 + 4t over Z_5
        expected = Matrix.from_rows(P5, [[(0,), (1, 1)], [(1, 4), (0,)]])
        assert ext(m) == expected

    @pytest.mark.parametrize("ring", [P5, P9])
    def test_is_a_derivation(self, ring):
        rng = random.Random(24)
        ext = extend_m2(BaseDerivation.formal(ring))
        samples = [
            (random_matrix(ring, 2, rng), random_matrix(ring, 2, rng))
            for _ in range(1000)
        ]
        report = leibniz_check(ext, samples)
        assert report.ok
        assert report.checked == 1000

    def test_wrong_shape(self):
        ext = extend_m2(BaseDerivation.formal(P5))
        with pytest.raises(DomainError):
            ext(Matrix.zero(P5, 3))


class TestEntrywise:
    def test_applies_per_entry(self):
        lift = entrywise(BaseDerivation.formal(P5), 2)
        t = P5.t
        m = Matrix.from_rows(P5, [[t, (0,)], [(0,), t * t]])
        assert lift(m) == Matrix.from_rows(P5, [[(1,), (0,)], [(0,), (0, 2)]])

    def test_zero_derivation_lifts_to_zero(self):
        lift = entrywise(BaseDerivation.zero(P5), 2)
        rng = random.Random(25)
        assert lift(random_matrix(P5, 2, rng)).is_zero()

    @pytest.mark.parametrize("ring", [P5, P9])
    @pytest.mark.parametrize("kind", ["zero", "d/dt", "t*d/dt"])
    def test_matches_per_entry_delta(self, ring, kind):
        delta = {
            "zero": BaseDerivation.zero(ring),
            "d/dt": BaseDerivation.formal(ring),
            "t*d/dt": BaseDerivation.scaled(ring.t),
        }[kind]
        rng = random.Random(35)
        for n in (1, 2, 3, 4):
            lift = entrywise(delta, n)
            for _ in range(10):
                m = random_matrix(ring, n, rng)
                expected = [
                    [delta(m.entry(i, j)) for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
                assert lift(m) == Matrix.from_rows(ring, expected)

    def test_is_a_derivation(self):
        rng = random.Random(26)
        lift = entrywise(BaseDerivation.formal(P5), 3)
        samples = [
            (random_matrix(P5, 3, rng), random_matrix(P5, 3, rng)) for _ in range(100)
        ]
        assert leibniz_check(lift, samples).ok


class TestExtendTower:
    def test_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            extend_tower(BaseDerivation.formal(P5), 1)

    def test_matches_extend_m2(self):
        # both against the literal formula: extend_m2 is the tower at n = 2
        rng = random.Random(27)
        delta = BaseDerivation.formal(P5)
        tower = extend_tower(delta, 2)
        block = extend_m2(delta)
        for _ in range(500):
            m = random_matrix(P5, 2, rng, max_degree=2)
            expected = literal_m2(delta, m)
            assert tower(m) == expected
            assert block(m) == expected

    def test_applying_creates_no_ring_elements(self, monkeypatch):
        rng = random.Random(34)
        tower = extend_tower(BaseDerivation.scaled(P5.t), 5)
        m = random_matrix(P5, 5, rng)
        created = []
        init = RingElement.__init__

        def counted(self, ring, payload):
            created.append(payload)
            init(self, ring, payload)

        monkeypatch.setattr(RingElement, "__init__", counted)
        tower(m)
        tower(m * m)
        assert created == []

    def test_zero_delta_still_a_derivation(self):
        rng = random.Random(28)
        tower = extend_tower(BaseDerivation.zero(P5), 3)
        samples = [
            (random_matrix(P5, 3, rng), random_matrix(P5, 3, rng)) for _ in range(100)
        ]
        assert leibniz_check(tower, samples).ok

    def test_restriction_to_base(self):
        tower = extend_tower(BaseDerivation.formal(P5), 3)
        u11 = matrix_unit(P5, 3, 1, 1)
        assert tower(u11 * P5.t) == u11  # d/dt t = 1
        rng = random.Random(29)
        for _ in range(100):
            lam = random_element(P5, rng)
            expected = u11 * BaseDerivation.formal(P5)(lam)
            assert tower(u11 * lam) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_leibniz_across_sizes(self, n):
        rng = random.Random(30 + n)
        tower = extend_tower(BaseDerivation.scaled(P5.t), n)
        samples = [
            (random_matrix(P5, n, rng, 2), random_matrix(P5, n, rng, 2))
            for _ in range(60)
        ]
        assert leibniz_check(tower, samples).ok


def recursive_tower(delta, n):
    """The doubling tower as the paper builds it, kept as a reference for
    the closed form: pad to M_{2^depth}(R), apply
    [[A, B], [C, E]] -> [[D(A), D(B)+B], [D(C)-C, D(E)]] level by level
    with D the derivation of the half-sized blocks, and keep the top-left
    n x n block."""
    size = 1 << (n - 1).bit_length()

    def block(src, out, r0, c0, h2):
        if h2 == 1:
            out[r0 * size + c0] = delta(src[r0 * size + c0])
            return
        h = h2 // 2
        for dr, dc in ((0, 0), (0, h), (h, 0), (h, h)):
            block(src, out, r0 + dr, c0 + dc, h)
        for i in range(h):
            for j in range(h):
                up = (r0 + i) * size + c0 + h + j
                down = (r0 + h + i) * size + c0 + j
                out[up] = out[up] + src[up]
                out[down] = out[down] - src[down]

    def apply(mat):
        ring = mat.ring
        padded = [ring.zero] * (size * size)
        for i in range(n):
            for j in range(n):
                padded[i * size + j] = mat.entry(i + 1, j + 1)
        out = [ring.zero] * (size * size)
        block(padded, out, 0, 0, size)
        kept = (out[i * size + j].payload for i in range(n) for j in range(n))
        return Matrix(ring, n, tuple(kept))

    return apply


class TestTowerClosedForm:
    """The closed form against the recursion. A sign-flipped tower level is
    still a derivation (the entrywise lift plus ad(-diag(w))) and still
    restricts to delta on e_{1,1}, so above n = 2 this comparison is what
    pins the tower's values."""

    @pytest.mark.parametrize("ring", [P5, P9])
    @pytest.mark.parametrize("kind", ["zero", "d/dt", "t*d/dt"])
    def test_matches_recursive_doubling(self, ring, kind):
        delta = {
            "zero": BaseDerivation.zero(ring),
            "d/dt": BaseDerivation.formal(ring),
            "t*d/dt": BaseDerivation.scaled(ring.t),
        }[kind]
        rng = random.Random(33)
        for n in range(2, 10):
            tower = extend_tower(delta, n)
            reference = recursive_tower(delta, n)
            for _ in range(5):
                m = random_matrix(ring, n, rng)
                assert tower(m) == reference(m), n


class TestTwoGenerator:
    def test_unit_example(self):
        x = matrix_unit(Z5, 2, 1, 2)
        y = matrix_unit(Z5, 2, 2, 1)
        d = matrix_unit(Z5, 2, 1, 1)
        # one split by hand: Delta(xy) = [d,x]y + x[d,y] = e12 e21 - e12 e21 = 0
        assert (commutator(d, x) * y + x * commutator(d, y)).is_zero()
        assert commutator(d, x * y).is_zero()
        report = two_generator_check(x, y, d, max_len=4)
        assert report.ok

    def test_zero_d(self):
        rng = random.Random(31)
        x = random_matrix(Z5, 2, rng)
        y = random_matrix(Z5, 2, rng)
        report = two_generator_check(x, y, Matrix.zero(Z5, 2), max_len=5)
        assert report.ok

    def test_random_triples(self):
        rng = random.Random(32)
        for _ in range(10):
            x = random_matrix(Z5, 2, rng)
            y = random_matrix(Z5, 2, rng)
            d = random_matrix(Z5, 2, rng)
            report = two_generator_check(x, y, d, max_len=6)
            assert report.ok
            assert report.checked == 2 + sum(2 ** L for L in range(2, 7))

    def test_max_len_validation(self):
        x = matrix_unit(Z5, 2, 1, 2)
        with pytest.raises(DomainError):
            two_generator_check(x, x, x, max_len=0)
