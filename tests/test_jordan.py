"""Jordan pair-list derivations, their commutator reduction, the
diagonal/corner identities, and the Jordan reconstruction theorem."""

import random

import pytest

from derivring import (
    ContractError,
    DomainError,
    JordanPairDerivation,
    JordanWitnessFamily,
    Matrix,
    PolyRing,
    SkewMatrix,
    SymmetricMatrix,
    TwoLocalOracle,
    Zmod,
    check_corner_consistency,
    check_diag_zero,
    commutator,
    gen_jordan_instance,
    jordan_mul,
    matrix_unit,
    pairs_to_commutator,
    reconstruct_abar_jordan,
    verify_jordan_theorem,
)
from derivring.sampling import (
    random_element,
    random_matrix,
    random_pairs,
    random_symmetric,
)

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)
P3 = PolyRing(Zmod(3))
AGREEMENT_CASES = [(ring, n) for ring in (Z9, P5) for n in (2, 3, 4, 5)]


def random_skew(ring, n, rng, max_degree=3):
    """A random skew matrix: zero diagonal, entries above it drawn row by
    row, each mirrored negated below."""
    ent = [ring.zero.payload] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            v = ring.sample(rng, max_degree)
            ent[i * n + j] = v.payload
            ent[j * n + i] = (-v).payload
    return Matrix(ring, n, tuple(ent))


def corner(a, i, j):
    """Reference: e_{i,i} a e_{j,j}, the matrix keeping only the (i, j)
    entry of a."""
    return matrix_unit(a.ring, a.n, i, j) * a.entry(i, j)


def jordan_unit(ring, n, i, j):
    """Reference: the symmetric unit e_{i,j} + e_{j,i}, for i != j."""
    return SymmetricMatrix.of(matrix_unit(ring, n, i, j) + matrix_unit(ring, n, j, i))


def sym_unit(ring, n, i, j):
    if i == j:
        return SymmetricMatrix.of(matrix_unit(ring, n, i, i))
    return jordan_unit(ring, n, i, j)


def skew_oracle(s):
    """The commutator action of a fixed skew element, symmetric-valued."""
    return TwoLocalOracle(s.ring, s.n, lambda x: commutator(s, x))


def family_from_skew(s, oracle=None):
    """The family of `oracle` (by default [s, .]) with d(ii) = s for all i."""
    diag = {i: s for i in range(1, s.n + 1)}
    return JordanWitnessFamily(skew_oracle(s) if oracle is None else oracle, diag)


def literal_corner_consistency(d_ii, d_jj, i, j):
    """Reference: the corner identities as equalities of corner matrices."""
    if corner(d_ii, i, i) != corner(d_ii, j, j):
        return False
    if corner(d_ii, i, i) != corner(d_jj, j, j):
        return False
    # Delta(e_{i,i}) fixes d(ii) only in row and column i
    shared = [(i, j), (j, i)]
    return all(corner(d_ii, r, c) == corner(d_jj, r, c) for r, c in shared)


def literal_jordan_corner_sum(family):
    """Reference: abar as the sum of the corners e_{i,i} d(ii) e_{j,j}."""
    ring, n = family.ring, family.n
    total = Matrix.zero(ring, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                total = total + corner(family.diag[i], i, j)
    return total


def skew_unit(ring, n, r, c, z):
    """z (e_{r,c} - e_{c,r})."""
    return (matrix_unit(ring, n, r, c) - matrix_unit(ring, n, c, r)) * z


def literal_jordan_mul(a, b):
    """Reference: the Jordan product as (ab + ba)/2, two products."""
    return (a * b + b * a) * a.ring.half


def literal_commutator(a, b):
    """Reference: the commutator as ab - ba, two products."""
    return a * b - b * a


def literal_pair_action(pd, x):
    """Reference: sum(a_k.(b_k.x) - b_k.(a_k.x)), four literal Jordan
    products per pair."""
    total = Matrix.zero(pd.ring, pd.n)
    for a, b in pd.pairs:
        total = total + literal_jordan_mul(a, literal_jordan_mul(b, x))
        total = total - literal_jordan_mul(b, literal_jordan_mul(a, x))
    return total


def nonzero_element(ring, rng):
    z = ring.zero
    while z.is_zero():
        z = random_element(ring, rng)
    return z


class TestPairAction:
    def test_single_pair_on_diagonal_unit(self):
        e11 = sym_unit(Z5, 2, 1, 1)
        eb12 = jordan_unit(Z5, 2, 1, 2)
        pd = JordanPairDerivation(Z5, 2, [(e11, eb12)])
        # with 1/2 = 3 over Z_5 the two terms are 4*eb12 and 3*eb12
        assert jordan_mul(eb12, e11) == eb12 * Z5.element(3)
        assert pd(e11) == eb12

    def test_equal_pairs_act_trivially(self):
        rng = random.Random(60)
        a = random_symmetric(Z9, 3, rng)
        pd = JordanPairDerivation(Z9, 3, [(a, a)])
        x = random_symmetric(Z9, 3, rng)
        assert pd(x).is_zero()

    def test_empty_list_is_zero(self):
        pd = JordanPairDerivation(Z5, 2)
        x = random_symmetric(Z5, 2, random.Random(61))
        assert pd(x).is_zero()

    def test_symmetric_closure(self):
        rng = random.Random(62)
        for _ in range(100):
            pd = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 2))
            x = random_symmetric(Z9, 3, rng)
            out = pd(x)
            assert isinstance(out, SymmetricMatrix)
            assert out.is_symmetric()

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_dimension_below_one(self, n):
        # with no pairs, nothing else would check n
        with pytest.raises(DomainError, match="matrix dimension must be >= 1"):
            JordanPairDerivation(Z5, n, ())

    def test_rejects_asymmetric_pairs(self):
        e12 = matrix_unit(Z5, 2, 1, 2)
        with pytest.raises(DomainError):
            JordanPairDerivation(Z5, 2, [(e12, e12)])

    def test_fields_are_read_only(self):
        # the typed action relies on symmetric pairs: they must not move
        rng = random.Random(63)
        pairs = random_pairs(Z9, 3, rng, 2)
        pd = JordanPairDerivation(Z9, 3, pairs)
        x = random_symmetric(Z9, 3, rng)
        before = pd(x)
        e12 = matrix_unit(Z9, 3, 1, 2)
        with pytest.raises(AttributeError):
            pd.pairs = ((e12, e12),)
        with pytest.raises(AttributeError):
            pd.ring = Z5
        with pytest.raises(AttributeError):
            pd.n = 2
        assert pd.pairs == pairs and (pd.ring, pd.n) == (Z9, 3)
        assert pd(x) == before


class TestReduction:
    def test_frozen_single_pair(self):
        e11 = sym_unit(Z5, 2, 1, 1)
        eb12 = jordan_unit(Z5, 2, 1, 2)
        pd = JordanPairDerivation(Z5, 2, [(e11, eb12)])
        s = pairs_to_commutator(pd)
        # 1/4 = 4 over Z_5, so s = 4(e12 - e21)
        e12 = matrix_unit(Z5, 2, 1, 2)
        e21 = matrix_unit(Z5, 2, 2, 1)
        assert s == (e12 - e21) * Z5.element(4)
        assert commutator(s, e11) == eb12

    def test_equal_pairs_reduce_to_zero(self):
        rng = random.Random(63)
        a = random_symmetric(Z5, 3, rng)
        assert pairs_to_commutator(JordanPairDerivation(Z5, 3, [(a, a)])).is_zero()

    def test_action_equivalence(self):
        rng = random.Random(64)
        for _ in range(200):
            pd = JordanPairDerivation(
                Z9, 3, random_pairs(Z9, 3, rng, rng.randint(1, 3))
            )
            s = pairs_to_commutator(pd)
            x = random_symmetric(Z9, 3, rng)
            assert pd(x) == commutator(s, x)

    def test_action_equivalence_on_full_matrix_ring(self):
        # the same pair formula applied to arbitrary matrices still equals
        # the commutator action of the reduced generator
        rng = random.Random(65)
        from derivring.sampling import random_matrix

        for _ in range(200):
            pd = JordanPairDerivation(
                Z9, 3, random_pairs(Z9, 3, rng, rng.randint(1, 3))
            )
            s = pairs_to_commutator(pd)
            x = random_matrix(Z9, 3, rng)
            assert pd(x) == commutator(s, x)

    def test_reduced_generator_is_skew_zero_diag(self):
        rng = random.Random(66)
        for _ in range(200):
            pd = JordanPairDerivation(Z9, 4, random_pairs(Z9, 4, rng, 2))
            s = pairs_to_commutator(pd)
            assert s.is_skew()
            assert all(s.entry(i, i).is_zero() for i in range(1, 5))


class TestPairListSum:
    """Both pair-list sums start from the first pair's term; only an empty
    list builds a zero matrix."""

    @pytest.mark.parametrize("ring", [Z5, P5], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_list_gives_the_typed_zero(self, ring, n):
        rng = random.Random(n)
        pd = JordanPairDerivation(ring, n)
        zero = Matrix.zero(ring, n)
        for x, kind in (
            (random_symmetric(ring, n, rng), SymmetricMatrix),
            (random_matrix(ring, n, rng), Matrix),
        ):
            out = pd(x)
            assert type(out) is kind and out == zero
        s = pairs_to_commutator(pd)
        assert type(s) is SkewMatrix and s == zero

    @pytest.mark.parametrize("ring", [Z9, Zmod(1000003), P5], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 3])
    def test_pairs_match_literal_without_a_zero_start(
        self, monkeypatch, ring, n, count
    ):
        rng = random.Random(100 * n + count)
        pd = JordanPairDerivation(ring, n, random_pairs(ring, n, rng, count))
        xs = (random_symmetric(ring, n, rng), random_matrix(ring, n, rng))
        want = [literal_pair_action(pd, x) for x in xs]
        total = literal_commutator(*pd.pairs[0])
        for a, b in pd.pairs[1:]:
            total = total + literal_commutator(a, b)

        def no_zero(cls, ring, n):
            raise AssertionError("a non-empty pair list built a zero matrix")

        monkeypatch.setattr(Matrix, "zero", classmethod(no_zero))
        assert [pd(x) for x in xs] == want
        assert pairs_to_commutator(pd) == total * (ring.half * ring.half)


class TestLiteralReference:
    """The pair-list action and its reduction take one symmetrisation per
    sum; the literal formulas, two products per Jordan product or
    commutator, are the reference."""

    @pytest.mark.parametrize("ring", [Z5, Z9, P5], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_action_matches_literal_jordan_products(self, ring, n, count):
        rng = random.Random(10 * n + count)
        pd = JordanPairDerivation(ring, n, random_pairs(ring, n, rng, count))
        for x, kind in (
            (random_symmetric(ring, n, rng), SymmetricMatrix),
            (random_matrix(ring, n, rng), Matrix),
        ):
            out = pd(x)
            assert out == literal_pair_action(pd, x)
            assert type(out) is kind

    @pytest.mark.parametrize("ring", [Z5, Z9, P5], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_reduction_matches_literal_commutators(self, ring, n, count):
        rng = random.Random(10 * n + count)
        pd = JordanPairDerivation(ring, n, random_pairs(ring, n, rng, count))
        total = Matrix.zero(ring, n)
        for a, b in pd.pairs:
            total = total + literal_commutator(a, b)
        s = pairs_to_commutator(pd)
        assert s == total * (ring.half * ring.half)
        assert type(s) is SkewMatrix

    def test_a_symmetric_part_without_the_transpose_is_caught(self, monkeypatch):
        # negative control: (q + q)/2 = q in place of (q + q^T)/2
        import derivring.jordan as jordan

        rng = random.Random(91)
        pd = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 2))
        x = random_symmetric(Z9, 3, rng)
        expected = literal_pair_action(pd, x)
        assert pd(x) == expected

        def untransposed(q, cls):
            ring = q.ring
            doubled = ring.add_all(q.entries, q.entries)
            return cls(ring, q.n, ring.scale_all(ring.half.payload, doubled))

        monkeypatch.setattr(
            jordan, "symmetric_part", lambda q: untransposed(q, SymmetricMatrix)
        )
        with pytest.raises(DomainError):
            pd(x)
        monkeypatch.setattr(jordan, "symmetric_part", lambda q: untransposed(q, Matrix))
        assert pd(x) != expected


class NoncommutativeZmod(Zmod):
    """Z_m with the scalar product a*b replaced by a*(b+1): sums and
    symmetry are as in Z_m, but a*b != b*a whenever a != b."""

    __slots__ = ()

    def mul(self, a, b):
        return a * (b + 1) % self.modulus


class TestDiagZero:
    def test_frozen_example(self):
        eb12 = jordan_unit(Z5, 2, 1, 2)
        e11 = sym_unit(Z5, 2, 1, 1)
        assert commutator(eb12, e11) == matrix_unit(Z5, 2, 2, 1) - matrix_unit(
            Z5, 2, 1, 2
        )
        assert check_diag_zero(JordanPairDerivation(Z5, 2, [(eb12, e11)]))

    def test_identical_pair(self):
        a = random_symmetric(Z9, 3, random.Random(67))
        assert check_diag_zero(JordanPairDerivation(Z9, 3, [(a, a)]))

    def test_random_campaign(self):
        rng = random.Random(68)
        for ring in (Z9, P5):
            for _ in range(500):
                pairs = random_pairs(ring, 4, rng, rng.randint(1, 4))
                assert check_diag_zero(JordanPairDerivation(ring, 4, pairs))

    def test_accepts_pair_derivation(self):
        rng = random.Random(69)
        pd = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 2))
        assert check_diag_zero(pd)
        assert check_diag_zero(JordanPairDerivation(Z9, 3))

    def test_rejects_asymmetric(self):
        e12 = matrix_unit(Z5, 2, 1, 2)
        with pytest.raises(DomainError):
            check_diag_zero(JordanPairDerivation(Z5, 2, [(e12, e12)]))

    def test_symmetric_pairs_are_not_checked_again(self, monkeypatch):
        # the SymmetricMatrix constructor is the one place symmetry is checked
        pairs = random_pairs(Z9, 3, random.Random(72), 3)
        calls = []
        real = Matrix.is_symmetric
        monkeypatch.setattr(
            Matrix, "is_symmetric", lambda self: calls.append(self) or real(self)
        )
        pd = JordanPairDerivation(Z9, 3, pairs)
        assert pd.pairs == pairs
        assert check_diag_zero(pd)
        assert calls == []

    def test_a_noncommutative_scalar_product_is_caught(self):
        # negative control: the diagonal is computed from the pair entries,
        # so a scalar product that does not commute shows there
        ring = NoncommutativeZmod(5)
        e11 = SymmetricMatrix.of(matrix_unit(ring, 2, 1, 1))
        eb12 = jordan_unit(ring, 2, 1, 2)
        assert not check_diag_zero(JordanPairDerivation(ring, 2, [(e11, eb12)]))
        rng = random.Random(73)
        pd = JordanPairDerivation(ring, 3, random_pairs(ring, 3, rng, 2))
        assert not check_diag_zero(pd)


class TestCornerConsistency:
    def test_equal_witnesses(self):
        s = random_skew(Z9, 3, random.Random(70))
        assert check_corner_consistency(s, s, 1, 2)

    def test_generated_witnesses(self):
        rng = random.Random(71)
        for _ in range(20):
            hidden = JordanPairDerivation(
                Z9, 3, random_pairs(Z9, 3, rng, rng.randint(1, 3))
            )
            _, family = gen_jordan_instance(hidden, seed=rng.getrandbits(32))
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    assert check_corner_consistency(
                        family.diag[i], family.diag[j], i, j
                    )

    def test_needs_distinct_indices(self):
        s = random_skew(Z5, 3, random.Random(72))
        with pytest.raises(DomainError):
            check_corner_consistency(s, s, 2, 2)

    def test_indices_out_of_range(self):
        s = random_skew(Z5, 3, random.Random(720))
        with pytest.raises(DomainError):
            check_corner_consistency(s, s, 1, 4)
        with pytest.raises(DomainError):
            check_corner_consistency(s, s, 0, 2)

    def test_equal_diagonals_must_vanish(self):
        # the (1,1) and (2,2) corners of 2I sit at different positions
        two = Matrix.scalar(Z5.element(2), 2)
        assert not check_corner_consistency(two, two, 1, 2)
        assert not literal_corner_consistency(two, two, 1, 2)

    @pytest.mark.parametrize("pos", [(1, 2), (2, 1), (1, 3), (4, 2), (2, 3)])
    def test_skew_witnesses_differing_at_a_shared_position(self, pos):
        # (i,j) and (j,i) are the positions both d(ii) and d(jj) fix
        rng = random.Random(721)
        s = random_skew(Z9, 4, rng)
        t = s + skew_unit(Z9, 4, *pos, nonzero_element(Z9, rng))
        i, j = sorted(pos)
        assert not check_corner_consistency(s, t, i, j)
        assert not literal_corner_consistency(s, t, i, j)

    def test_skew_witnesses_differing_elsewhere(self):
        # (3,4) lies outside rows and columns 1 and 2; each of the others
        # lies outside row and column 1 or outside row and column 2, so
        # validation leaves it free in d(11) or in d(22)
        rng = random.Random(722)
        s = random_skew(Z9, 4, rng)
        for pos in [(3, 4), (1, 3), (4, 2), (2, 3)]:
            t = s + skew_unit(Z9, 4, *pos, nonzero_element(Z9, rng))
            assert check_corner_consistency(s, t, 1, 2)
            assert literal_corner_consistency(s, t, 1, 2)

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_matches_corner_form(self, ring, n):
        rng = random.Random(723 + n)
        outcomes = set()
        for _ in range(6):
            s = random_skew(ring, n, rng)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    # unrelated, one entry off anywhere, or one skew pair off
                    pick = rng.randrange(3)
                    r, c = rng.randint(1, n), rng.randint(1, n)
                    z = nonzero_element(ring, rng)
                    if pick == 0:
                        t = random_matrix(ring, n, rng)
                    elif pick == 1:
                        t = s + matrix_unit(ring, n, r, c) * z
                    elif r != c:
                        t = s + skew_unit(ring, n, r, c, z)
                    else:
                        t = s
                    got = check_corner_consistency(s, t, i, j)
                    assert got is literal_corner_consistency(s, t, i, j)
                    outcomes.add(got)
        assert outcomes == {True, False}


class TestJordanFamily:
    def test_validation_needs_skew_witnesses(self):
        sym = random_symmetric(Z5, 2, random.Random(75))
        oracle = TwoLocalOracle(Z5, 2, lambda x: Matrix.zero(Z5, 2))
        with pytest.raises(ContractError, match=r"d\(11\) must be skew-symmetric"):
            JordanWitnessFamily(oracle, {1: sym, 2: sym})

    def test_refuses_an_oracle_it_does_not_witness(self):
        s = random_skew(Z5, 3, random.Random(76))
        wrong = random_skew(Z5, 3, random.Random(77))
        with pytest.raises(ContractError, match=r"d\(11\) does not witness Delta"):
            family_from_skew(wrong, skew_oracle(s))

    def test_validation_checks_the_probe(self):
        # d(33) alone is wrong: it must be caught at its own probe e_33
        s = random_skew(Z5, 3, random.Random(76))
        bent = s + skew_unit(Z5, 3, 1, 3, Z5.one)
        oracle = skew_oracle(s)
        with pytest.raises(ContractError, match=r"d\(33\) does not witness Delta"):
            JordanWitnessFamily(oracle, {1: s, 2: s, 3: bent})

    def test_needs_every_index(self):
        s = random_skew(Z5, 3, random.Random(78))
        with pytest.raises(DomainError):
            JordanWitnessFamily(skew_oracle(s), {1: s, 2: s})

    def test_witnesses_are_read_only(self):
        s = random_skew(Z5, 2, random.Random(79))
        family = family_from_skew(s)
        oracle = family.oracle
        with pytest.raises(TypeError):
            family.diag[1] = Matrix.zero(Z5, 2)
        with pytest.raises(AttributeError):
            family.diag = {}
        with pytest.raises(AttributeError):
            family.oracle = skew_oracle(Matrix.zero(Z5, 2))
        with pytest.raises(AttributeError):
            family.ring = Z9
        with pytest.raises(AttributeError):
            family.n = 5
        for name in ("_witnesses", "_oracle"):
            with pytest.raises(AttributeError):
                setattr(family, name, {})
        assert family.diag[1] == s
        assert family.oracle is oracle and (family.ring, family.n) == (Z5, 2)


class TestJordanReconstruction:
    def test_zero_family(self):
        zero = Matrix.zero(Z5, 2)
        family = family_from_skew(zero, TwoLocalOracle(Z5, 2, lambda x: zero))
        assert reconstruct_abar_jordan(family).abar.is_zero()

    def test_frozen_two_by_two(self):
        e12 = matrix_unit(Z5, 2, 1, 2)
        e21 = matrix_unit(Z5, 2, 2, 1)
        s = (e12 - e21) * Z5.element(4)
        family = family_from_skew(s)
        assert reconstruct_abar_jordan(family).abar == s

    @pytest.mark.parametrize("n", [2, 3])
    def test_corner_reassembly(self, n):
        rng = random.Random(79)
        s = random_skew(Z9, n, rng)
        family = family_from_skew(s)
        result = reconstruct_abar_jordan(family)
        assert result.abar == s
        assert result.abar.is_skew()
        assert type(result.abar) is SkewMatrix

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_matches_corner_sum(self, ring, n):
        rng = random.Random(800 + n)
        hidden = JordanPairDerivation(ring, n, random_pairs(ring, n, rng, 2))
        _, family = gen_jordan_instance(hidden, seed=rng.getrandbits(32))
        assert reconstruct_abar_jordan(family).abar == literal_jordan_corner_sum(family)

    def _tampered(self, *witnesses):
        # built with validation against the oracle switched off: the
        # constructor's skew check and the reconstruction's corner check
        # must catch these witnesses
        ring, n = witnesses[0].ring, witnesses[0].n
        oracle = TwoLocalOracle(ring, n, lambda x: Matrix.zero(ring, n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(JordanWitnessFamily, "validate", lambda self: None)
            return JordanWitnessFamily(oracle, dict(enumerate(witnesses, 1)))

    def test_witnesses_differing_off_their_probes(self):
        # e_12 - e_21 commutes with e_33, so d(33) may differ from d(11)
        # at (1,2) and (2,1) and the family still validates
        hidden = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, random.Random(5), 2))
        s = pairs_to_commutator(hidden)
        free = skew_unit(Z9, 3, 1, 2, Z9.one)
        oracle = TwoLocalOracle(Z9, 3, hidden)
        family = JordanWitnessFamily(oracle, {1: s, 2: s, 3: s + free})
        assert reconstruct_abar_jordan(family).abar == s

    def test_nonzero_diagonal_summand(self):
        # a witness with a nonzero diagonal is not skew, so no family
        # holding one can be built, even without validation
        zero = Matrix.zero(Z9, 3)
        with pytest.raises(ContractError, match=r"d\(22\) must be skew-symmetric"):
            self._tampered(zero, matrix_unit(Z9, 3, 2, 2), zero)

    def test_inconsistent_corners(self):
        rng = random.Random(801)
        s = random_skew(Z9, 3, rng)
        bent = s + skew_unit(Z9, 3, 1, 3, nonzero_element(Z9, rng))
        family = self._tampered(s, s, bent)
        with pytest.raises(ContractError, match="corner consistency"):
            reconstruct_abar_jordan(family)

    def test_non_skew_reconstruction(self):
        # non-skew witnesses are refused when the family is built, so the
        # reconstruction never sees them
        with pytest.raises(ContractError, match=r"d\(11\) must be skew-symmetric"):
            self._tampered(*[matrix_unit(Z9, 3, 1, 2)] * 3)

    @pytest.mark.parametrize("ring", [Z9, P3], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_skew_check_is_corner_consistency(self, ring, n):
        # skew witnesses, each off a shared base at most at one position:
        # the reconstruction refuses exactly the families with a pair that
        # fails corner consistency, and names the first such pair
        rng = random.Random(900 + n)
        outcomes = set()
        for _ in range(60):
            base = random_skew(ring, n, rng, max_degree=1)
            witnesses = []
            for _ in range(n):
                r, c = sorted(rng.sample(range(1, n + 1), 2))
                z = ring.sample(rng, 1) if rng.random() < 0.5 else ring.zero
                witnesses.append(base + skew_unit(ring, n, r, c, z))
            family = self._tampered(*witnesses)
            failing = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if not check_corner_consistency(family.diag[i], family.diag[j], i, j)
            ]
            outcomes.add(not failing)
            if failing:
                i, j = failing[0]
                with pytest.raises(ContractError, match=rf"fails for \({i},{j}\)"):
                    reconstruct_abar_jordan(family)
            else:
                abar = reconstruct_abar_jordan(family).abar
                assert abar == literal_jordan_corner_sum(family)
        assert outcomes == {True, False}

    def test_success_makes_one_skew_check(self, monkeypatch):
        import derivring.jordan as jordan

        rng = random.Random(802)
        hidden = JordanPairDerivation(Z9, 4, random_pairs(Z9, 4, rng, 2))
        _, family = gen_jordan_instance(hidden, seed=rng.getrandbits(32))
        checks, corners = [], []
        real = Matrix.is_skew
        monkeypatch.setattr(
            Matrix, "is_skew", lambda self: checks.append(self) or real(self)
        )
        monkeypatch.setattr(
            jordan, "check_corner_consistency", lambda *args: corners.append(args)
        )
        abar = reconstruct_abar_jordan(family).abar
        assert checks == [abar] and corners == []


class TestJordanTheorem:
    @pytest.mark.parametrize("ring", [Z5, Z9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_generated_instances(self, ring, n):
        rng = random.Random(81)
        for _ in range(5):
            hidden = JordanPairDerivation(
                ring, n, random_pairs(ring, n, rng, rng.randint(1, 3))
            )
            oracle, family = gen_jordan_instance(hidden, seed=rng.getrandbits(32))
            assert family.oracle is oracle
            samples = [random_symmetric(ring, n, rng) for _ in range(20)]
            assert verify_jordan_theorem(family, samples).ok

    def test_zero_instance(self):
        _, family = gen_jordan_instance(JordanPairDerivation(Z5, 2), seed=9)
        samples = [random_symmetric(Z5, 2, random.Random(82)) for _ in range(5)]
        assert verify_jordan_theorem(family, samples).ok

    def test_every_commutator_has_typed_arguments(self, monkeypatch):
        # each commutator of the witness pipeline takes one product
        import derivring.jordan as jordan

        parities = []
        real = jordan.commutator

        def tallied(a, b):
            parities.append((a.parity, b.parity))
            return real(a, b)

        monkeypatch.setattr(jordan, "commutator", tallied)
        rng = random.Random(85)
        hidden = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 3))
        _, family = gen_jordan_instance(hidden, seed=12)
        samples = [random_symmetric(Z9, 3, rng) for _ in range(4)]
        assert verify_jordan_theorem(family, samples).ok
        assert parities
        assert all(p * q for p, q in parities)

    @pytest.mark.parametrize("count,k", [(3, 0), (3, 1), (3, 2), (1, 0)])
    def test_leibniz_sees_a_bent_product(self, monkeypatch, count, k):
        # bend x.y for pair k = (sample k, sample k+1) alone, the last
        # sample pairing with the first and a single sample with itself;
        # [s, e_11] != 0, so only the Leibniz check of pair k can fire
        import derivring.jordan as jordan

        s = skew_unit(Z9, 3, 1, 2, Z9.one)
        e11 = sym_unit(Z9, 3, 1, 1)
        rng = random.Random(87)
        samples = [random_symmetric(Z9, 3, rng) for _ in range(count)]
        x, y = samples[k], samples[(k + 1) % count]
        real = jordan.jordan_mul

        def bent(a, b):
            out = real(a, b)
            if a is x and b is y:
                out = SymmetricMatrix.of(out + e11)
            return out

        monkeypatch.setattr(jordan, "jordan_mul", bent)
        report = verify_jordan_theorem(family_from_skew(s), samples)
        assert report.checked == count + k
        (v,) = report.violations
        assert (v.kind, v.probe) == ("jordan-leibniz", f"pair {k}")
        assert v.lhs - v.rhs == commutator(s, e11)

    def test_symmetric_unit_probes(self):
        rng = random.Random(83)
        hidden = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 2))
        oracle, family = gen_jordan_instance(hidden, seed=10)
        abar = reconstruct_abar_jordan(family).abar
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    probe = jordan_unit(Z9, 3, i, j)
                    assert oracle(probe) == commutator(abar, probe)

    def test_needs_samples(self):
        _, family = gen_jordan_instance(JordanPairDerivation(Z5, 2), seed=11)
        with pytest.raises(DomainError):
            verify_jordan_theorem(family, [])


class TestJordanGenerator:
    def test_reduction_matches_hidden_generator(self):
        rng = random.Random(84)
        hidden = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 3))
        s = pairs_to_commutator(hidden)
        _, family = gen_jordan_instance(hidden, seed=12)
        # re-expression preserves sum [a_k, b_k] exactly, so every d(ii)
        # reduces to the hidden generator
        for i in range(1, 4):
            assert family.diag[i] == s

    def test_appending_canceling_pairs_changes_nothing(self):
        rng = random.Random(85)
        base = list(random_pairs(Z5, 2, rng, 2))
        r = random_symmetric(Z5, 2, rng)
        extended = base + [(r, r)]
        s1 = pairs_to_commutator(JordanPairDerivation(Z5, 2, base))
        s2 = pairs_to_commutator(JordanPairDerivation(Z5, 2, extended))
        assert s1 == s2

    def test_witnesses_are_typed(self):
        rng = random.Random(87)
        hidden = JordanPairDerivation(Z9, 3, random_pairs(Z9, 3, rng, 2))
        _, generated = gen_jordan_instance(hidden, seed=13)
        plain = random_skew(Z9, 3, rng)
        assert type(plain) is Matrix
        from_plain = family_from_skew(plain)
        for family in (generated, from_plain):
            for i in range(1, 4):
                assert type(family.diag[i]) is SkewMatrix
        assert from_plain.diag[1] == plain

    def test_determinism(self):
        rng = random.Random(86)
        hidden = JordanPairDerivation(Z5, 3, random_pairs(Z5, 3, rng, 2))
        _, fam1 = gen_jordan_instance(hidden, seed=77)
        _, fam2 = gen_jordan_instance(hidden, seed=77)
        assert fam1.diag == fam2.diag
