"""Inner derivations, Leibniz verification, the 2x2 extension block, the
doubling tower, and the two-generator propagation check."""

import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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

# delta(t) of each derivation, as a coefficient list with the constant first
DELTA_T = {
    "zero": [],
    "d/dt": [1],
    "t*d/dt": [0, 1],
    "3t^2*d/dt": [0, 0, 3],
    "(1+2t+3t^2)*d/dt": [1, 2, 3],
}


def schoolbook_delta(dt):
    """The derivation with delta(t) = dt, as a reference built from
    RingElement operations alone: delta(a) = sum_k k a_k t^(k-1) delta(t),
    each term a product of ring elements."""
    ring = dt.ring

    def delta(a):
        total = ring.zero
        power = ring.one  # t^(k-1)
        for k, coeff in enumerate(a.payload):
            if k:
                total = total + ring.element(k) * ring.element(coeff) * power * dt
                power = power * ring.t
        return total

    return delta


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


class TestClosedForm:
    """`on_payload(a, s)`, the one-entry call of the plane form of
    delta(a) + s a that every lift runs, against the schoolbook delta
    plus s a."""

    @given(
        st.sampled_from([P5, P9]),
        st.sampled_from(list(DELTA_T)),
        st.lists(st.integers(0, 8), max_size=7),
        st.integers(-20, 20),
    )
    # leading terms that vanish mod 9: 3 * 3 t^2 from d/dt of 3 t^3, all of
    # 3 t^2 d/dt (3t + 3t^3), and s = 3 times a top coefficient of 3
    @example(P9, "d/dt", [1, 1, 1, 3], 0)
    @example(P9, "3t^2*d/dt", [0, 3, 0, 3], 0)
    @example(P9, "d/dt", [2, 3], 3)
    @example(P9, "zero", [1, 3], 3)
    @example(P9, "t*d/dt", [1, 3], -6)
    def test_matches_schoolbook(self, ring, kind, coeffs, weight):
        dt = ring.element(DELTA_T[kind])
        delta = BaseDerivation.scaled(dt)
        a = ring.element(coeffs)
        expected = schoolbook_delta(dt)(a) + a * ring.element(weight)
        s = weight % ring.base.modulus
        assert ring.wrap(delta.on_payload(a.payload, s)) == expected
        assert delta(a) == schoolbook_delta(dt)(a)

    def test_zmod_is_multiplication_by_s(self):
        d = BaseDerivation.zero(Z5)
        assert [d.on_payload(a, 3) for a in range(5)] == [0, 3, 1, 4, 2]
        assert d.on_payload(4) == 0


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
    @pytest.mark.parametrize("kind", list(DELTA_T))
    def test_matches_recursive_doubling(self, ring, kind):
        dt = ring.element(DELTA_T[kind])
        delta = BaseDerivation.scaled(dt)
        rng = random.Random(33)
        for n in range(2, 10):
            tower = extend_tower(delta, n)
            reference = recursive_tower(schoolbook_delta(dt), n)
            for _ in range(5):
                m = random_matrix(ring, n, rng)
                assert tower(m) == reference(m), n


def schoolbook_lift(dt, weight):
    """X_ij -> delta(X_ij) + (weight[j] - weight[i]) X_ij, one entry at a
    time through `schoolbook_delta` and RingElement operations."""
    ring, delta = dt.ring, schoolbook_delta(dt)

    def apply(mat):
        n = mat.n
        out = []
        for i in range(n):
            for j in range(n):
                x = mat.entry(i + 1, j + 1)
                out.append((delta(x) + x * ring.element(weight[j] - weight[i])).payload)
        return Matrix(ring, n, tuple(out))

    return apply


def mixed_matrix(ring, n, rng, max_degree):
    """An n x n matrix whose entries have mixed lengths up to
    max_degree + 1 coefficients, about a quarter of them zero."""
    entries = [
        () if rng.random() < 0.25 else ring.draw(rng, 1, rng.randint(0, max_degree))[0]
        for _ in range(n * n)
    ]
    return Matrix(ring, n, tuple(entries))


class TestMatrixLift:
    """Each lift runs one kernel per coefficient plane of the whole matrix
    (`BaseDerivation.on_payloads`); against the per-entry schoolbook
    delta(a) + (w_j - w_i) a."""

    @pytest.mark.parametrize("max_degree", [0, 12])
    @pytest.mark.parametrize("ring", [P5, P9], ids=str)
    @pytest.mark.parametrize("kind", list(DELTA_T))
    def test_matches_schoolbook_per_entry(self, kind, ring, max_degree):
        dt = ring.element(DELTA_T[kind])
        delta = BaseDerivation.scaled(dt)
        rng = random.Random(f"{kind}-{ring}-{max_degree}")
        cases = [(entrywise(delta, n), n, (0,) * n) for n in range(1, 9)]
        cases += [
            (extend_tower(delta, n), n, [k.bit_count() for k in range(n)])
            for n in range(2, 9)
        ]
        for lift, n, weight in cases:
            reference = schoolbook_lift(dt, weight)
            mats = [mixed_matrix(ring, n, rng, max_degree), Matrix.zero(ring, n)]
            top = [(0,) * max_degree + (1,)] + [()] * (n * n - 1)  # one entry, t^max
            mats.append(Matrix(ring, n, tuple(top)))
            for m in mats:
                assert lift(m) == reference(m), (n, weight, m.entries)

    def test_zmod_lift_is_multiplication_by_the_weights(self):
        rng = random.Random(35)
        Z9 = P9.base
        delta = BaseDerivation.zero(Z9)
        for n in range(2, 9):
            weight = [k.bit_count() for k in range(n)]
            m = random_matrix(Z9, n, rng)
            expected = tuple(
                m.entries[i * n + j] * (weight[j] - weight[i]) % 9
                for i in range(n)
                for j in range(n)
            )
            assert extend_tower(delta, n)(m).entries == expected
            assert entrywise(delta, n)(m) == Matrix.zero(Z9, n)

    def test_kernels_are_keyed_by_size_not_length(self):
        # a fresh interpreter: lifting matrices whose entries have 1 to 41
        # coefficients builds one kernel per op at n*n, not one per length
        probe = (
            "from derivring import BaseDerivation, Matrix, PolyRing, Zmod, rings\n"
            "from derivring.derivations import extend_tower\n"
            "info = rings._entrywise.cache_info\n"
            "ring = PolyRing(Zmod(5))\n"
            f"kinds = {list(DELTA_T.values())!r}\n"
            "added = []\n"
            "for n, dt in enumerate(kinds, start=3):\n"
            "    tower = extend_tower(BaseDerivation(ring, dt), n)\n"
            "    before = info().currsize\n"
            "    for length in range(1, 42):\n"
            "        top = (0,) * (length - 1) + (1,)\n"
            "        tower(Matrix(ring, n, (top,) + ((1, 2),) * (n * n - 1)))\n"
            "    added.append(info().currsize - before)\n"
            "print(*added)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        # one kernel for each kind, and a second to chain delta(t)'s lower terms
        assert result.stdout.split() == ["1", "1", "1", "1", "2"]


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
