"""The witness model for 2-local inner derivations on M_n(R): witness
families, each validated against its oracle when built, the corner
reconstruction of abar, the supporting corner/diagonal identities as
executable checks, and a seeded adversarial instance generator.
"""

from __future__ import annotations

import random
from collections import namedtuple
from enum import Enum
from types import MappingProxyType

from .checks import CheckReport, Violation
from .derivations import InnerDerivation
from .errors import ContractError, DomainError
from .matrices import Matrix, _index, commutator, matrix_unit, probe_x0, require_shape
from .sampling import random_central, random_x0_commutant

__all__ = [
    "NoiseSpec",
    "TwoLocalOracle",
    "WitnessFamily",
    "ReconstructionResult",
    "reconstruct_abar",
    "verify_theorem1",
    "check_cross_corner",
    "check_offdiag_formula",
    "offdiag_sides",
    "check_diag_difference",
    "gen_witness_family",
]


class NoiseSpec(Enum):
    """How far generated witnesses stray from the hidden element: not at
    all, by independent central shifts per probe, or additionally by an
    x0-commutant shift on the c witness."""

    NONE = "none"
    CENTRAL_SHIFTS = "central"
    X0_COMMUTANT_SHIFT_ON_C = "x0-commutant"


class TwoLocalOracle(namedtuple("TwoLocalOracle", "ring n evaluate")):
    """Total evaluation access to the map Delta under scrutiny. A record,
    so its ring and n cannot move: a witness family takes both from its
    oracle."""

    __slots__ = ()

    def __new__(cls, ring, n, evaluate):
        if n < 2:
            raise DomainError("2-local analysis needs n >= 2")
        return super().__new__(cls, ring, n, evaluate)

    def __call__(self, x):
        require_shape(x, self.ring, self.n)
        return self.evaluate(x)


def _witnesses(oracle, witnesses, keys, per):
    """One n x n witness over the oracle's ring per expected key, copied
    into a read-only mapping."""
    if set(witnesses) != keys:
        raise DomainError(f"witness family needs exactly one {per} in 1..n")
    witnesses = MappingProxyType(dict(witnesses))
    for mat in witnesses.values():
        require_shape(mat, oracle.ring, oracle.n)
    return witnesses


class WitnessFamily(namedtuple("WitnessFamily", "oracle offdiag c")):
    """Per-probe implementing elements of `oracle`: a(i,j) for every
    ordered pair of distinct indices (each witnessing the probe pair
    e_{i,j}, x0), held by (i, j) in a read-only mapping, and c for the
    shift probe x0 itself. A record, and `__new__` ends in `validate()`,
    so a family that exists witnesses its oracle.

    c defaults to a(1,2): every off-diagonal witness also witnesses x0.
    """

    __slots__ = ()

    def __new__(cls, oracle, offdiag, c=None):
        n = oracle.n
        expected = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        offdiag = _witnesses(
            oracle, offdiag, expected, "a(i,j) per ordered pair of distinct indices"
        )
        c = offdiag[(1, 2)] if c is None else c
        require_shape(c, oracle.ring, n)
        family = super().__new__(cls, oracle, offdiag, c)
        family.validate()
        return family

    @property
    def ring(self):
        return self.oracle.ring

    @property
    def n(self):
        return self.oracle.n

    def validate(self):
        """Check every defining identity against the oracle; raises
        ContractError on the first failure."""
        oracle, ring, n = self.oracle, self.ring, self.n
        x0 = probe_x0(ring, n)
        dx0 = oracle(x0)
        for (i, j) in sorted(self.offdiag):
            a = self.offdiag[(i, j)]
            unit = matrix_unit(ring, n, i, j)
            if oracle(unit) != commutator(a, unit):
                raise ContractError(f"a({i},{j}) does not witness Delta at e[{i},{j}]")
            if dx0 != commutator(a, x0):
                raise ContractError(f"a({i},{j}) does not witness Delta at x0")
        if dx0 != commutator(self.c, x0):
            raise ContractError("c does not witness Delta at x0")


class ReconstructionResult(namedtuple("ReconstructionResult", "abar")):
    """The reassembled implementing element abar."""

    __slots__ = ()


def _swapped_corners(family, diagonal):
    """The matrix whose (i, j) entry is the (i, j) entry of a(j, i) for
    i != j (note the index swap) and diagonal[i - 1] for i == j."""
    n, offdiag = family.n, family.offdiag
    return Matrix(family.ring, n, tuple(
        diagonal[i] if i == j else offdiag[(j + 1, i + 1)].entries[i * n + j]
        for i in range(n)
        for j in range(n)
    ))


def reconstruct_abar(family):
    """Reassemble the implementing element from corner entries: the
    (i, j) entry of abar is the (i, j) entry of a(j, i) for i != j (note
    the index swap), and the diagonal of abar is the diagonal of c."""
    c = family.c
    return ReconstructionResult(_swapped_corners(family, c.entries[:: c.n + 1]))


def verify_theorem1(family, samples):
    """Check Delta(x) = [abar, x] exactly on every sample, for the oracle
    Delta that `family` witnesses; stops at the first violation."""
    samples = list(samples)
    if not samples:
        raise DomainError("verify_theorem1 needs at least one sample")
    oracle = family.oracle
    abar = reconstruct_abar(family).abar
    checked = 0
    for idx, x in enumerate(samples):
        lhs = oracle(x)
        rhs = commutator(abar, x)
        if lhs != rhs:
            return CheckReport(
                checked, (Violation("action", f"sample {idx}", lhs, rhs),)
            )
        checked += 1
    return CheckReport(checked)


def check_cross_corner(a_ij, a_ik, i, j, k, mirror=False):
    """Corner agreement between two witnesses of one Delta.

    Default form: e_{k,k} a(i,j) e_{i,j} == e_{k,k} a(i,k) e_{i,j},
    defined for k != i (the arguments are the witnesses a(i,j), a(i,k));
    each side holds only the (k, i) entry of its witness. With mirror=True
    the arguments are (a(i,j), a(k,j)) and the mirrored identity
    e_{i,j} a(i,j) e_{k,k} == e_{i,j} a(k,j) e_{k,k} is checked, defined
    for k != j; each side holds only the (j, k) entry of its witness.

    The caller is responsible for passing witnesses of the same Delta;
    unrelated inputs simply yield False.
    """
    require_shape(a_ik, a_ij.ring, a_ij.n)
    n = a_ij.n
    if mirror:
        if k == j:
            raise DomainError("the mirrored cross-corner identity needs k != j")
        r, c = j, k
    else:
        if k == i:
            raise DomainError("the cross-corner identity needs k != i")
        r, c = k, i
    # `entry` checks (r, c) by the same rule; with (i, j) that covers i, j, k
    _index(n, i, j)
    return a_ij.entry(r, c) == a_ik.entry(r, c)


def offdiag_sides(family, i, j):
    """Both sides of the off-diagonal expansion for the oracle Delta
    that `family` witnesses: Delta(e_{i,j}), and

        S e_{i,j} - e_{i,j} S + a(i,j)^{i,i} e_{i,j} - e_{i,j} a(i,j)^{j,j}

    where S is the off-diagonal part of abar: its (k, l) entry is the
    (k, l) entry of a(l, k), and its diagonal is zero. Since
    [diag(d), e_{i,j}] = (d_i - d_j) e_{i,j}, the expansion is the one
    commutator [S + diag(a(i,j)), e_{i,j}]."""
    if i == j:
        raise DomainError("the off-diagonal expansion needs i != j")
    n = family.n
    unit = matrix_unit(family.ring, n, i, j)
    a = family.offdiag[(i, j)]
    rhs = commutator(_swapped_corners(family, a.entries[:: n + 1]), unit)
    return family.oracle(unit), rhs


def check_offdiag_formula(family, i, j):
    """Delta(e_{i,j}) equals its off-diagonal expansion (`offdiag_sides`)."""
    lhs, rhs = offdiag_sides(family, i, j)
    return lhs == rhs


def check_diag_difference(b, c, oracle):
    """Both b and c must witness Delta at x0 (ContractError otherwise);
    then their diagonal entries agree up to a common shift, i.e.
    c^{k,k} - c^{l,l} == b^{k,k} - b^{l,l} for every pair k, l, which
    says exactly that the diagonal of c - b is constant.

    It cannot return False on accepted inputs, so `diag-difference`
    cannot fire from the lemma suite: both witnesses agree with Delta at
    x0, so c - b commutes with the shift x0, and entry (k, k+1) of that
    equation is (c - b)^{k,k} == (c - b)^{k+1,k+1}."""
    ring, n = oracle.ring, oracle.n
    x0 = probe_x0(ring, n)
    dx0 = oracle(x0)
    if commutator(b, x0) != dx0 or commutator(c, x0) != dx0:
        raise ContractError("diag-difference inputs must both witness Delta at x0")
    step = n + 1
    shift = ring.sub_all(c.entries[::step], b.entries[::step])
    return shift.count(shift[0]) == n


def gen_witness_family(hidden, noise, seed, max_degree=3):
    """Build (oracle, family) for the hidden inner derivation [hidden, .]
    with the requested witness ambiguity; `family.oracle is oracle`.

    Central shifts die in every identity the witnesses must satisfy, and
    polynomials in x0 commute with x0, so every noise mode yields a valid
    family by construction.
    """
    ring, n = hidden.ring, hidden.n
    rng = random.Random(seed)
    oracle = TwoLocalOracle(ring, n, InnerDerivation(hidden))
    shifted = noise is not NoiseSpec.NONE
    offdiag = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            w = hidden
            if shifted:
                w = w + random_central(ring, n, rng, max_degree)
            offdiag[(i, j)] = w
    c = hidden
    if shifted:
        c = c + random_central(ring, n, rng, max_degree)
    if noise is NoiseSpec.X0_COMMUTANT_SHIFT_ON_C:
        c = c + random_x0_commutant(ring, n, rng, max_degree)
    return oracle, WitnessFamily(oracle, offdiag, c)
