"""Jordan inner derivations on H_n(R): the pair-list action
x -> sum(a_k.(b_k.x) - b_k.(a_k.x)), its reduction to one skew
commutator generator, the diagonal and corner identities as executable
checks, and the Jordan reconstruction of the implementing element.
Witnesses are SkewMatrix values from the reduction onward, and the
reconstruction's one skewness check is the corner consistency condition.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple
from functools import reduce
from types import MappingProxyType

from .checks import CheckReport, Violation
from .errors import ContractError, DomainError
from .matrices import (
    Matrix,
    SkewMatrix,
    SymmetricMatrix,
    _plus_transpose,
    _require_dimension,
    commutator,
    jordan_mul,
    matrix_unit,
    require_shape,
    symmetric_part,
)
from .sampling import random_symmetric
from .twolocal import ReconstructionResult, TwoLocalOracle, _witnesses

__all__ = [
    "JordanPairDerivation",
    "JordanWitnessFamily",
    "pairs_to_commutator",
    "check_diag_zero",
    "check_corner_consistency",
    "reconstruct_abar_jordan",
    "verify_jordan_theorem",
    "gen_jordan_instance",
]


class JordanPairDerivation(namedtuple("JordanPairDerivation", "ring n pairs")):
    """A finite list of symmetric pairs (a_k, b_k) acting through the
    Jordan product: x -> sum(a_k.(b_k.x) - b_k.(a_k.x)). A record whose
    pairs are SymmetricMatrix values, converted once when it is built, so
    the typed action below may rely on their symmetry."""

    __slots__ = ()

    def __new__(cls, ring, n, pairs=()):
        _require_dimension(n)
        pairs = tuple((SymmetricMatrix.of(a), SymmetricMatrix.of(b)) for a, b in pairs)
        for a, b in pairs:
            require_shape(a, ring, n)
            require_shape(b, ring, n)
        return super().__new__(cls, ring, n, pairs)

    def __call__(self, x):
        """Apply the pair-list derivation. On a SymmetricMatrix x, with
        y_k = b_k.x and z_k = a_k.x, the value sum(a_k.y_k - b_k.z_k) is
        the symmetric part of sum(a_k y_k - b_k z_k), because a_k, b_k,
        y_k and z_k are all symmetric: each pair takes two Jordan products
        and two matrix products, and the whole sum one symmetrisation,
        whose SymmetricMatrix constructor checks the result. Any other x
        takes the literal formula, whose value still equals the
        commutator action of the reduced generator. The sum starts from
        the first pair's term; an empty list maps x to the zero matrix of
        x's type (SymmetricMatrix or Matrix)."""
        require_shape(x, self.ring, self.n)
        typed = isinstance(x, SymmetricMatrix)
        if not self.pairs:
            return (SymmetricMatrix if typed else Matrix).zero(self.ring, self.n)
        outer = operator.mul if typed else jordan_mul
        terms = [
            outer(a, jordan_mul(b, x)) - outer(b, jordan_mul(a, x))
            for a, b in self.pairs
        ]
        acc = reduce(operator.add, terms)
        return symmetric_part(acc) if typed else acc


def pairs_to_commutator(pd):
    """The single skew generator with the same action: one quarter of the
    summed commutators sum [a_k, b_k]. The pairs are symmetric, so that
    sum is p - p^T with p = sum a_k b_k: one product per pair, and one
    skew check, by the SkewMatrix constructor, on (p - p^T)/4. The sum
    starts from the first product; an empty list gives the zero
    SkewMatrix."""
    if not pd.pairs:
        return SkewMatrix.zero(pd.ring, pd.n)
    p = reduce(operator.add, [a * b for a, b in pd.pairs])
    return _plus_transpose(p, -1, (pd.ring.half * pd.ring.half).payload)


def check_diag_zero(pd):
    """True iff every diagonal entry of sum [a_k, b_k] over the pairs of
    `pd` vanishes. Entry (i,i) is the sum over k and j of a_k[i,j] b_k[j,i]
    - b_k[i,j] a_k[j,i]. The pairs are SymmetricMatrix values, so that is
    a_k[i,j] b_k[i,j] - b_k[i,j] a_k[i,j], read from the entries without
    a transpose and computed in the ring's scalar ops: each term vanishes
    when the scalar product commutes."""
    ring, n = pd.ring, pd.n
    add, sub, mul = ring.add, ring.sub, ring.mul
    diagonal = [ring.zero.payload] * n
    for a, b in pd.pairs:
        for k, (x, y) in enumerate(zip(a.entries, b.entries)):
            diagonal[k // n] = add(diagonal[k // n], sub(mul(x, y), mul(y, x)))
    # zero payloads are the only falsy ones
    return not any(diagonal)


def check_corner_consistency(d_ii, d_jj, i, j):
    """The corner agreements between the diagonal-probe witnesses d(ii)
    and d(jj). The (i,i) and (j,j) corners of d(ii) and the (j,j) corner
    of d(jj) must coincide; they sit at different positions, so all three
    entries must vanish. The two witnesses must also agree at (i,j) and
    (j,i), the only off-diagonal positions that both of them fix:
    Delta(e_{i,i}) = [d(ii), e_{i,i}] reads d(ii) only in row and column i.

    This is stricter than validation, which checks each witness against
    its own probe alone. Agreement at (j,i) says that Delta(e_{i,i}) +
    Delta(e_{j,j}) vanishes there, which holds when one element implements
    Delta at both probes, as 2-locality provides."""
    if i == j:
        raise DomainError("corner consistency compares distinct indices")
    require_shape(d_jj, d_ii.ring, d_ii.n)
    diagonal = (d_ii.entry(i, i), d_ii.entry(j, j), d_jj.entry(j, j))
    if not all(z.is_zero() for z in diagonal):
        return False
    return all(d_ii.entry(r, c) == d_jj.entry(r, c) for r, c in ((i, j), (j, i)))


class JordanWitnessFamily(namedtuple("JordanWitnessFamily", "oracle diag")):
    """The reduced diagonal-probe witnesses of `oracle`: for each index i
    the matrix d(ii) = (1/4) sum [a_k, b_k] of a pair list witnessing
    Delta at e_{i,i}, held by i in a read-only mapping. `__new__`
    converts each d(ii) with `SkewMatrix.of` once and keeps it, so every
    `diag` value is a SkewMatrix; one that is not skew is a
    ContractError. A record, and `__new__` ends in `validate()`, so a
    family that exists witnesses its oracle."""

    __slots__ = ()

    def __new__(cls, oracle, diag):
        diag = _witnesses(oracle, diag, set(range(1, oracle.n + 1)), "d(ii) per index")
        typed = {}
        for i in range(1, oracle.n + 1):
            try:
                typed[i] = SkewMatrix.of(diag[i])
            except DomainError:
                raise ContractError(f"d({i}{i}) must be skew-symmetric") from None
        family = super().__new__(cls, oracle, MappingProxyType(typed))
        family.validate()
        return family

    @property
    def ring(self):
        return self.oracle.ring

    @property
    def n(self):
        return self.oracle.n

    def validate(self):
        """Check each d(ii) against the oracle at e_{i,i}; raises
        ContractError on the first failure."""
        oracle, ring, n = self.oracle, self.ring, self.n
        for i in range(1, n + 1):
            unit = SymmetricMatrix.of(matrix_unit(ring, n, i, i))
            if oracle(unit) != commutator(self.diag[i], unit):
                raise ContractError(f"d({i}{i}) does not witness Delta at e[{i},{i}]")


def reconstruct_abar_jordan(family):
    """Reassemble the implementing element from the diagonal-probe
    witnesses: row i of abar is row i of d(ii). Each d(ii) is skew, so
    abar has zero diagonal, and abar[i,j] = -abar[j,i] says exactly that
    d(ii) and d(jj) agree at (i,j) and (j,i). So the SkewMatrix
    constructor of abar is the one corner-consistency check; if it fails,
    a ContractError names the first pair that `check_corner_consistency`
    refuses."""
    ring, n, diag = family.ring, family.n, family.diag
    entries = tuple(diag[k // n + 1].entries[k] for k in range(n * n))
    try:
        abar = SkewMatrix(ring, n, entries)
    except DomainError:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if not check_corner_consistency(diag[i], diag[j], i, j):
                    raise ContractError(f"corner consistency fails for ({i},{j})")
        raise
    return ReconstructionResult(abar)


def verify_jordan_theorem(family, samples):
    """Check, exactly, for the oracle Delta that `family` witnesses:
    Delta(x) = [abar, x] on every sample, symmetry of every value, and the
    Jordan Leibniz rule D(x.y) = D(x).y + x.D(y) for D = [abar, .] on
    consecutive samples: pair k is (sample k, sample k+1), and the last
    sample pairs with the first (a single sample pairs with itself). The
    rule reuses the values [abar, x] that the action check computed. Its
    right-hand side is one symmetric part, of D(x) y + x D(y): D(x), D(y),
    x and y are symmetric, so that is D(x).y + x.D(y) (see
    `symmetric_part`).

    `jordan-leibniz` cannot fire for any map a suite passes in: whatever
    abar is reconstructed, D = [abar, .] is an inner derivation of the
    associative product, so D(xy) = D(x) y + x D(y), and D(yx) is the
    transpose of that for symmetric x, y and D-values. The left side,
    D(x.y) = (D(xy) + D(yx))/2, is then the symmetric part of the same
    sum, whatever abar is. Only a non-associative product, or a Jordan
    product computed wrongly, would break it; a wrong map shows up as
    `action` or `closure`."""
    samples = list(samples)
    if not samples:
        raise DomainError("verify_jordan_theorem needs at least one sample")
    oracle = family.oracle
    abar = reconstruct_abar_jordan(family).abar
    images = []
    for idx, x in enumerate(samples):
        lhs = oracle(x)
        rhs = commutator(abar, x)
        if lhs != rhs:
            return CheckReport(idx, (Violation("action", f"sample {idx}", lhs, rhs),))
        if not lhs.is_symmetric():
            return CheckReport(
                idx, (Violation("closure", f"sample {idx}", lhs, lhs.transpose()),)
            )
        images.append(rhs)
    count = len(samples)
    for idx, x in enumerate(samples):
        nxt = (idx + 1) % count
        y = samples[nxt]
        lhs = commutator(abar, jordan_mul(x, y))
        rhs = symmetric_part(images[idx] * y + x * images[nxt])
        if lhs != rhs:
            return CheckReport(
                count + idx, (Violation("jordan-leibniz", f"pair {idx}", lhs, rhs),)
            )
    return CheckReport(2 * count)


def gen_jordan_instance(hidden_pairs, seed, max_degree=3):
    """Build (oracle, family) for the derivation given by hidden_pairs.
    Each d(ii) is reduced from an independently re-expressed pair list
    for the same map: pairs are split by bilinearity in the first slot,
    canceling pairs (r, r) are appended, and the list is shuffled. All of
    these preserve sum [a_k, b_k] exactly. `family.oracle is oracle`."""
    ring, n = hidden_pairs.ring, hidden_pairs.n
    rng = random.Random(seed)
    oracle = TwoLocalOracle(ring, n, hidden_pairs)
    diag = {}
    for i in range(1, n + 1):
        reexpressed = _reexpress(hidden_pairs.pairs, ring, n, rng, max_degree)
        diag[i] = pairs_to_commutator(JordanPairDerivation(ring, n, reexpressed))
    return oracle, JordanWitnessFamily(oracle, diag)


def _reexpress(pairs, ring, n, rng, max_degree):
    out = []
    for a, b in pairs:
        if rng.random() < 0.5:
            r = random_symmetric(ring, n, rng, max_degree)
            out.append((a - r, b))
            out.append((r, b))
        else:
            out.append((a, b))
    r = random_symmetric(ring, n, rng, max_degree)
    out.append((r, r))
    rng.shuffle(out)
    return out
