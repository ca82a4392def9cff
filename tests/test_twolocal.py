"""Witness families, the corner reconstruction of the implementing
element, the supporting identities, and the instance generator."""

import random

import pytest

from derivring import (
    ContractError,
    DomainError,
    InnerDerivation,
    Matrix,
    NoiseSpec,
    PolyRing,
    TwoLocalOracle,
    WitnessFamily,
    Zmod,
    check_cross_corner,
    check_diag_difference,
    check_offdiag_formula,
    commutator,
    gen_witness_family,
    matrix_unit,
    probe_x0,
    reconstruct_abar,
    verify_theorem1,
)
from derivring.sampling import random_element, random_matrix, random_x0_commutant
from derivring.twolocal import offdiag_sides
from test_jordan import corner

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)


def constant_family(hidden, witness=None, c=None):
    """A family of [hidden, .] using one fixed witness for every probe."""
    ring, n = hidden.ring, hidden.n
    w = witness if witness is not None else hidden
    offdiag = {
        (i, j): w
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    oracle = TwoLocalOracle(ring, n, InnerDerivation(hidden))
    return WitnessFamily(oracle, offdiag, c)


def literal_corner_sum(family, diagonal=True):
    """Reference: the sum of the corners e_{i,i} a(j,i) e_{j,j} over all
    i != j, plus the diagonal corners of c when `diagonal` is set."""
    ring, n = family.ring, family.n
    total = Matrix.zero(ring, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                total = total + corner(family.offdiag[(j, i)], i, j)
            elif diagonal:
                total = total + corner(family.c, i, i)
    return total


def literal_cross_corner(a_ij, a_ik, i, j, k, mirror=False):
    """Reference: the cross-corner identity as matrix-unit products."""
    ring, n = a_ij.ring, a_ij.n
    u = matrix_unit(ring, n, i, j)
    p = matrix_unit(ring, n, k, k)
    if mirror:
        return u * a_ij * p == u * a_ik * p
    return p * a_ij * u == p * a_ik * u


def literal_offdiag_rhs(family, i, j):
    """Reference: the off-diagonal expansion S e - e S + e a_ii - e a_jj
    with e = e_{i,j}, a = a(i,j) and S summed from corners."""
    s = literal_corner_sum(family, diagonal=False)
    unit = matrix_unit(family.ring, family.n, i, j)
    a = family.offdiag[(i, j)]
    return s * unit - unit * s + unit * a.entry(i, i) - unit * a.entry(j, j)


def literal_offdiag_formula(family, i, j):
    """Reference: Delta(e_{i,j}) equals its literal off-diagonal expansion."""
    unit = matrix_unit(family.ring, family.n, i, j)
    return family.oracle(unit) == literal_offdiag_rhs(family, i, j)


def perturbed(a, r, c, rng):
    """a plus a random nonzero element at (r, c)."""
    z = a.ring.zero
    while z.is_zero():
        z = random_element(a.ring, rng)
    return a + matrix_unit(a.ring, a.n, r, c) * z


def tampered(family, replace, c=None):
    """A copy of `family` on its oracle with the witnesses in `replace`
    (and c, if given) swapped in, built with validation switched off: the
    controls below read witnesses that the oracle does not vouch for."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WitnessFamily, "validate", lambda self: None)
        return WitnessFamily(
            family.oracle, {**family.offdiag, **replace},
            family.c if c is None else c,
        )


AGREEMENT_CASES = [(ring, n) for ring in (Z9, P5) for n in (2, 3, 4, 5)]


class TestWitnessFamily:
    def test_requires_all_offdiagonal_probes(self):
        oracle = TwoLocalOracle(Z5, 2, lambda x: Matrix.zero(Z5, 2))
        with pytest.raises(DomainError):
            WitnessFamily(oracle, {(1, 2): Matrix.zero(Z5, 2)})

    def test_rejects_n_below_two(self):
        # a family takes its n from its oracle, which refuses n < 2
        with pytest.raises(DomainError):
            TwoLocalOracle(Z5, 1, lambda x: x)

    def test_c_defaults_to_a12(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        family = constant_family(a)
        assert family.c is family.offdiag[(1, 2)]

    def test_validation_succeeds_for_true_witnesses(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        oracle = TwoLocalOracle(Z5, 2, InnerDerivation(a))
        family = WitnessFamily(oracle, {(1, 2): a, (2, 1): a})
        assert family.oracle is oracle
        assert (family.ring, family.n) == (Z5, 2)
        family.validate()

    def test_validation_rejects_corrupted_witness(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        bad = a + matrix_unit(Z5, 2, 1, 1)  # not a central shift
        with pytest.raises(ContractError):
            constant_family(a, witness=bad)

    @pytest.mark.parametrize(
        "shifts,c_shift,message",
        [
            # the witnesses of another map fail at the first probe
            ({(1, 2): matrix_unit(Z9, 3, 2, 1)}, None,
             r"a\(1,2\) does not witness Delta at e\[1,2\]"),
            # e_11 + e_33 commutes with e_13 but not with the shift x0
            ({(1, 3): matrix_unit(Z9, 3, 1, 1) + matrix_unit(Z9, 3, 3, 3)}, None,
             r"a\(1,3\) does not witness Delta at x0"),
            ({}, matrix_unit(Z9, 3, 1, 1), "c does not witness Delta at x0"),
        ],
        ids=["a12-at-e12", "a13-at-x0", "c-at-x0"],
    )
    def test_refuses_an_oracle_it_does_not_witness(self, shifts, c_shift, message):
        hidden = random_matrix(Z9, 3, random.Random(39))
        oracle = TwoLocalOracle(Z9, 3, InnerDerivation(hidden))
        offdiag = {(i, j): hidden for i in range(1, 4) for j in range(1, 4) if i != j}
        for key, shift in shifts.items():
            offdiag[key] = hidden + shift
        c = hidden if c_shift is None else hidden + c_shift
        with pytest.raises(ContractError, match=message):
            WitnessFamily(oracle, offdiag, c)

    def test_central_shift_still_validates(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        family = constant_family(a, witness=a + Matrix.scalar(Z5.element(2), 2))
        family.validate()

    def test_witnesses_are_read_only(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        family = constant_family(a)
        oracle = family.oracle
        with pytest.raises(TypeError):
            family.offdiag[(1, 2)] = Matrix.zero(Z5, 2)
        with pytest.raises(AttributeError):
            family.offdiag = {}
        with pytest.raises(AttributeError):
            family.c = Matrix.zero(Z5, 2)
        with pytest.raises(AttributeError):
            family.oracle = TwoLocalOracle(Z5, 2, lambda x: x)
        with pytest.raises(AttributeError):
            family.ring = Z9
        with pytest.raises(AttributeError):
            family.n = 5
        for name in ("_c", "_witnesses", "_oracle"):
            with pytest.raises(AttributeError):
                setattr(family, name, Matrix.zero(Z5, 2))
        assert family.offdiag[(1, 2)] == a and family.c == a
        assert family.oracle is oracle and (family.ring, family.n) == (Z5, 2)

    def test_oracle_shape_is_read_only(self):
        # a family reads ring and n from its oracle, so these must not move
        oracle, family = gen_witness_family(
            random_matrix(Z5, 2, random.Random(40)), NoiseSpec.NONE, seed=3
        )
        with pytest.raises(AttributeError):
            oracle.n = 3
        with pytest.raises(AttributeError):
            oracle.ring = Z9
        with pytest.raises(AttributeError):
            oracle.evaluate = lambda x: x
        for name, value in (("_n", 3), ("_ring", Z9), ("_evaluate", lambda x: x)):
            with pytest.raises(AttributeError):
                setattr(oracle, name, value)
        assert (family.ring, family.n) == (Z5, 2)
        reconstruct_abar(family)

    def test_caller_dict_is_copied(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        offdiag = {(1, 2): a, (2, 1): a}
        family = WitnessFamily(TwoLocalOracle(Z5, 2, InnerDerivation(a)), offdiag)
        offdiag[(1, 2)] = Matrix.zero(Z5, 2)
        assert family.offdiag[(1, 2)] == a

    @pytest.mark.parametrize("noise", ["x0-commutant", "none", None, 1])
    def test_noise_must_be_a_noise_spec(self, noise):
        # a name or a value is not the spec, and must not be read as
        # "shifted" because it is not NoiseSpec.NONE
        hidden = random_matrix(Z9, 3, random.Random(41))
        with pytest.raises(DomainError, match="noise must be a NoiseSpec"):
            gen_witness_family(hidden, noise, seed=3)


class TestReconstruction:
    def test_zero_witnesses(self):
        family = constant_family(Matrix.zero(Z5, 2))
        assert reconstruct_abar(family).abar.is_zero()

    def test_frozen_example(self):
        # hidden a with a(1,2) = c = a + 2I and a(2,1) = a
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        shifted = a + Matrix.scalar(Z5.element(2), 2)
        oracle = TwoLocalOracle(Z5, 2, InnerDerivation(a))
        family = WitnessFamily(oracle, {(1, 2): shifted, (2, 1): a}, c=shifted)
        result = reconstruct_abar(family)
        assert result.abar == Matrix.from_rows(Z5, [[3, 2], [3, 1]])
        drift = result.abar - a
        assert drift == Matrix.scalar(Z5.element(2), 2)
        for i in range(1, 3):
            for j in range(1, 3):
                assert commutator(drift, matrix_unit(Z5, 2, i, j)).is_zero()

    def test_single_unit_hidden(self):
        e12 = matrix_unit(Z5, 2, 1, 2)
        family = constant_family(e12)
        assert reconstruct_abar(family).abar == e12

    def test_parts_cover_all_corners(self):
        rng = random.Random(40)
        hidden = random_matrix(Z9, 3, rng)
        oracle, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=1)
        assert reconstruct_abar(family).abar == literal_corner_sum(family)

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_matches_corner_sum_on_unrelated_witnesses(self, ring, n):
        # unrelated witnesses built without validation are read as they
        # are: abar must still be the literal corner sum
        rng = random.Random(400 + n)
        for _ in range(5):
            _, family = gen_witness_family(
                random_matrix(ring, n, rng), NoiseSpec.NONE, seed=rng.getrandbits(32)
            )
            replace = {key: random_matrix(ring, n, rng) for key in family.offdiag}
            family = tampered(family, replace, c=random_matrix(ring, n, rng))
            assert reconstruct_abar(family).abar == literal_corner_sum(family)

    def test_idempotent_on_its_own_output(self):
        rng = random.Random(41)
        hidden = random_matrix(Z5, 3, rng)
        _, family = gen_witness_family(hidden, NoiseSpec.CENTRAL_SHIFTS, seed=2)
        abar = reconstruct_abar(family).abar
        family2 = constant_family(hidden, witness=abar, c=abar)
        assert reconstruct_abar(family2).abar == abar


class TestVerifyTheorem1:
    def test_success_on_generated_instances(self):
        rng = random.Random(42)
        for noise in NoiseSpec:
            hidden = random_matrix(Z5, 3, rng)
            oracle, family = gen_witness_family(hidden, noise, seed=rng.getrandbits(32))
            assert family.oracle is oracle
            samples = [random_matrix(Z5, 3, rng) for _ in range(50)]
            report = verify_theorem1(family, samples)
            assert report.ok, noise

    def test_zero_oracle(self):
        family = constant_family(Matrix.zero(Z5, 2))
        report = verify_theorem1(family, [matrix_unit(Z5, 2, 1, 2)])
        assert report.ok

    def test_corrupted_family_raises_before_checking(self):
        # validation runs when the family is built: there is none to check
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        with pytest.raises(ContractError):
            constant_family(a, witness=a + matrix_unit(Z5, 2, 1, 1))

    def test_needs_samples(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        family = constant_family(a)
        with pytest.raises(DomainError):
            verify_theorem1(family, [])


class TestCrossCorner:
    def test_identical_witnesses(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        assert check_cross_corner(a, a, 1, 2, 2)

    def test_central_shift_invisible(self):
        rng = random.Random(43)
        for _ in range(50):
            a = random_matrix(Z9, 3, rng)
            z = Matrix.scalar(random_element(Z9, rng), 3)
            assert check_cross_corner(a, a + z, 1, 2, 3)
            assert check_cross_corner(a + z, a, 1, 2, 3, mirror=True)

    def test_unrelated_matrices_do_not_crash(self):
        rng = random.Random(44)
        a = random_matrix(Z5, 3, rng)
        b = random_matrix(Z5, 3, rng)
        assert check_cross_corner(a, b, 1, 2, 3) in (True, False)
        # entry (3,1) is 1 in a and 4 in b
        assert check_cross_corner(a, b, 1, 2, 3) is False
        assert literal_cross_corner(a, b, 1, 2, 3) is False

    @pytest.mark.parametrize("mirror", [False, True])
    def test_differs_only_at_the_compared_entry(self, mirror):
        rng = random.Random(440)
        n, i, j, k = 4, 2, 3, 1
        r, c = (j, k) if mirror else (k, i)
        a = random_matrix(Z9, n, rng)
        assert not check_cross_corner(a, perturbed(a, r, c, rng), i, j, k, mirror)
        for rr in range(1, n + 1):
            for cc in range(1, n + 1):
                if (rr, cc) != (r, c):
                    b = perturbed(a, rr, cc, rng)
                    assert check_cross_corner(a, b, i, j, k, mirror)

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_matches_matrix_unit_products(self, ring, n):
        rng = random.Random(441 + n)
        outcomes = set()
        for _ in range(4):
            a = random_matrix(ring, n, rng)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        for mirror in (False, True):
                            if k == (j if mirror else i):
                                continue
                            # unrelated, or one entry off: either the
                            # compared entry or a random one
                            pick = rng.randrange(3)
                            if pick == 0:
                                b = random_matrix(ring, n, rng)
                            else:
                                r, c = (j, k) if mirror else (k, i)
                                if pick == 2:
                                    r, c = rng.randint(1, n), rng.randint(1, n)
                                b = perturbed(a, r, c, rng)
                            got = check_cross_corner(a, b, i, j, k, mirror)
                            assert got is literal_cross_corner(a, b, i, j, k, mirror)
                            outcomes.add(got)
        assert outcomes == {True, False}

    def test_k_constraints(self):
        a = Matrix.zero(Z5, 3)
        with pytest.raises(DomainError):
            check_cross_corner(a, a, 1, 2, 1)
        with pytest.raises(DomainError):
            check_cross_corner(a, a, 1, 2, 2, mirror=True)

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("i,j,k", [(1, 4, 2), (4, 1, 2), (1, 2, 4), (0, 2, 3)])
    def test_indices_out_of_range(self, i, j, k, mirror):
        a = Matrix.zero(Z5, 3)
        with pytest.raises(DomainError, match=r"out of range for n=3"):
            check_cross_corner(a, a, i, j, k, mirror)

    def test_ring_mismatch(self):
        with pytest.raises(DomainError):
            check_cross_corner(Matrix.zero(Z5, 3), Matrix.zero(Z9, 3), 1, 2, 3)


class TestOffdiagFormula:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constant_families(self, n):
        rng = random.Random(45)
        hidden = random_matrix(Z9, n, rng)
        _, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=3)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert check_offdiag_formula(family, i, j)

    def test_zero_family(self):
        family = constant_family(Matrix.zero(Z5, 3))
        assert check_offdiag_formula(family, 1, 3)

    def test_central_shifts_cancel(self):
        rng = random.Random(46)
        hidden = random_matrix(Z5, 3, rng)
        _, family = gen_witness_family(hidden, NoiseSpec.CENTRAL_SHIFTS, seed=4)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert check_offdiag_formula(family, i, j)

    def test_needs_distinct_indices(self):
        family = constant_family(Matrix.zero(Z5, 2))
        with pytest.raises(DomainError):
            check_offdiag_formula(family, 1, 1)

    def test_perturbed_witness_is_seen(self):
        # S reads the (3,1) entry of a(1,3); S e_{1,2} moves it to (3,2)
        rng = random.Random(460)
        hidden = random_matrix(Z9, 3, rng)
        _, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=7)
        assert check_offdiag_formula(family, 1, 2)
        replace = {(1, 3): perturbed(family.offdiag[(1, 3)], 3, 1, rng)}
        family = tampered(family, replace)
        assert not check_offdiag_formula(family, 1, 2)
        assert not literal_offdiag_formula(family, 1, 2)

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_matches_corner_sum_form(self, ring, n):
        rng = random.Random(461 + n)
        outcomes = set()
        for _ in range(4):
            _, family = gen_witness_family(
                random_matrix(ring, n, rng), NoiseSpec.CENTRAL_SHIFTS,
                seed=rng.getrandbits(32),
            )
            # perturb about half of the validated witnesses, half of those
            # at the entry S reads from them
            replace = {}
            for (i, j), w in family.offdiag.items():
                if rng.random() < 0.5:
                    r, c = (j, i) if rng.random() < 0.5 else (
                        rng.randint(1, n), rng.randint(1, n)
                    )
                    replace[(i, j)] = perturbed(w, r, c, rng)
            family = tampered(family, replace)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        got = check_offdiag_formula(family, i, j)
                        assert got is literal_offdiag_formula(family, i, j)
                        outcomes.add(got)
        assert outcomes == {True, False}

    @staticmethod
    def scrambled_family(ring, n, rng):
        """A centrally shifted family with every witness perturbed at one
        random entry, so that S and each witness's diagonal differ from
        those of the hidden element and from each other."""
        _, family = gen_witness_family(
            random_matrix(ring, n, rng), NoiseSpec.CENTRAL_SHIFTS,
            seed=rng.getrandbits(32),
        )
        return tampered(family, {
            key: perturbed(w, rng.randint(1, n), rng.randint(1, n), rng)
            for key, w in family.offdiag.items()
        })

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_sides_match_literal_expansion(self, ring, n):
        rng = random.Random(470 + n)
        for _ in range(2):
            family = self.scrambled_family(ring, n, rng)
            for (i, j) in sorted(family.offdiag):
                lhs, rhs = offdiag_sides(family, i, j)
                assert lhs == family.oracle(matrix_unit(ring, n, i, j))
                assert rhs == literal_offdiag_rhs(family, i, j)

    @pytest.mark.parametrize("ring,n", AGREEMENT_CASES)
    def test_each_read_diagonal_entry_moves_the_expansion(self, ring, n):
        # negative control: a shift of the (i,i) or (j,j) entry of a(i,j)
        # moves the right-hand side by a multiple of e_{i,j}; a shift of
        # any other diagonal entry of a(i,j) is not read
        rng = random.Random(480 + n)
        family = self.scrambled_family(ring, n, rng)
        for (i, j), a in sorted(family.offdiag.items()):
            _, rhs = offdiag_sides(family, i, j)
            for k in range(1, n + 1):
                shifted = tampered(family, {(i, j): perturbed(a, k, k, rng)})
                _, moved = offdiag_sides(shifted, i, j)
                assert moved == literal_offdiag_rhs(shifted, i, j)
                assert (moved != rhs) is (k in (i, j))


def literal_diag_difference(b, c, n):
    """c^{k,k} - c^{l,l} == b^{k,k} - b^{l,l} for every pair k < l."""
    return all(
        c.entry(k, k) - c.entry(l, l) == b.entry(k, k) - b.entry(l, l)
        for k in range(1, n + 1)
        for l in range(k + 1, n + 1)
    )


def product_x0_polynomial(ring, n, rng, max_degree=3):
    """c_0 + c_1 x0 + ... + c_{n-1} x0^{n-1} built from powers of x0, with
    the coefficients drawn in order, as a reference for the Toeplitz form."""
    x0 = probe_x0(ring, n)
    acc = Matrix.scalar(ring.sample(rng, max_degree), n)
    power = Matrix.identity(ring, n)
    for _ in range(1, n):
        power = power * x0
        acc = acc + power * ring.sample(rng, max_degree)
    return acc


class TestX0Commutant:
    @pytest.mark.parametrize("ring", [Z9, P5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_product_built_polynomial(self, ring, n):
        x0 = probe_x0(ring, n)
        for seed in range(10):
            got = random_x0_commutant(ring, n, random.Random(seed))
            assert got == product_x0_polynomial(ring, n, random.Random(seed))
            assert commutator(got, x0).is_zero()

    def test_needs_n_at_least_two(self):
        with pytest.raises(DomainError):
            random_x0_commutant(Z9, 1, random.Random(0))


class TestDiagDifference:
    def test_frozen_example(self):
        a = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        oracle = TwoLocalOracle(Z5, 2, InnerDerivation(a))
        c = a + Matrix.scalar(Z5.element(2), 2) + probe_x0(Z5, 2) * Z5.element(3)
        assert c == Matrix.from_rows(Z5, [[3, 0], [3, 1]])
        assert check_diag_difference(a, c, oracle)

    def test_equal_witnesses(self):
        rng = random.Random(47)
        b = random_matrix(Z9, 3, rng)
        oracle = TwoLocalOracle(Z9, 3, InnerDerivation(b))
        assert check_diag_difference(b, b, oracle)

    def test_commutant_shifts_preserved(self):
        rng = random.Random(48)
        for _ in range(25):
            hidden = random_matrix(Z9, 4, rng)
            oracle = TwoLocalOracle(Z9, 4, InnerDerivation(hidden))
            b = hidden + random_x0_commutant(Z9, 4, rng)
            c = hidden + random_x0_commutant(Z9, 4, rng)
            assert check_diag_difference(b, c, oracle)

    @pytest.mark.parametrize("ring", [Z9, P5])
    def test_agrees_with_pairwise_reference(self, ring):
        # [c - b, x0] = 0 makes c - b a polynomial in x0, whose diagonal is
        # constant, so every pair within the contract passes; a diagonal
        # bump breaks the pairwise identity and the contract together
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(2, 4)
            hidden = random_matrix(ring, n, rng)
            oracle = TwoLocalOracle(ring, n, InnerDerivation(hidden))
            b = hidden + random_x0_commutant(ring, n, rng)
            c = hidden + random_x0_commutant(ring, n, rng)
            assert literal_diag_difference(b, c, n)
            assert check_diag_difference(b, c, oracle)
            k = rng.randint(1, n)
            bumped = c + matrix_unit(ring, n, k, k)
            assert not literal_diag_difference(b, bumped, n)
            with pytest.raises(ContractError):
                check_diag_difference(b, bumped, oracle)

    def test_non_witness_rejected(self):
        hidden = Matrix.from_rows(Z5, [[1, 2], [3, 4]])
        oracle = TwoLocalOracle(Z5, 2, InnerDerivation(hidden))
        bad = hidden + matrix_unit(Z5, 2, 2, 1)
        with pytest.raises(ContractError):
            check_diag_difference(bad, hidden, oracle)


class TestGenerator:
    def test_noise_none_returns_hidden_everywhere(self):
        rng = random.Random(49)
        hidden = random_matrix(Z5, 3, rng)
        _, family = gen_witness_family(hidden, NoiseSpec.NONE, seed=5)
        assert all(w == hidden for w in family.offdiag.values())
        assert family.c == hidden

    @pytest.mark.parametrize(
        "ring,n",
        [(Z5, 2), (Z5, 3), (Z9, 2), (Z9, 3), (P5, 2), (P5, 3)],
    )
    @pytest.mark.parametrize("noise", list(NoiseSpec))
    def test_recovery_up_to_center(self, ring, n, noise):
        rng = random.Random(50)
        for _ in range(5):
            hidden = random_matrix(ring, n, rng)
            _, family = gen_witness_family(hidden, noise, seed=rng.getrandbits(32))
            abar = reconstruct_abar(family).abar
            drift = abar - hidden
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    unit = matrix_unit(ring, n, i, j)
                    assert commutator(drift, unit).is_zero()

    def test_x0_commutant_c_still_witnesses(self):
        rng = random.Random(51)
        hidden = random_matrix(Z9, 4, rng)
        oracle, family = gen_witness_family(
            hidden, NoiseSpec.X0_COMMUTANT_SHIFT_ON_C, seed=6
        )
        x0 = probe_x0(Z9, 4)
        assert commutator(family.c, x0) == oracle(x0)

    def test_determinism(self):
        rng = random.Random(52)
        hidden = random_matrix(Z5, 3, rng)
        _, fam1 = gen_witness_family(hidden, NoiseSpec.CENTRAL_SHIFTS, seed=99)
        _, fam2 = gen_witness_family(hidden, NoiseSpec.CENTRAL_SHIFTS, seed=99)
        assert fam1.offdiag == fam2.offdiag
        assert fam1.c == fam2.c
