"""Jordan inner derivations on H_n(R), the boundary of this layer: the
pair-list action x -> sum(a_k.(b_k.x) - b_k.(a_k.x)), its reduction to
one skew commutator generator, the diagonal and corner identities as
executable checks, and the Jordan reconstruction of the implementing
element. An input outside H_n(R) is a DomainError. Witnesses are
SkewMatrix values from the reduction onward, and the reconstruction's
one skewness check is the corner consistency condition.

The pair-list map is R-linear, since x.y is bilinear, so it is fixed by
its values on the n(n+1)/2 symmetric units E_ii and E_ij + E_ji (i < j).
`_tabulated` evaluates the pair list once on each unit and answers every
later call with one `ring.matvec` (the one-column matrix kernel) from
the upper entries of x. The table comes from
`JordanPairDerivation.__call__` alone, never from the reduction that
`pairs_to_commutator` performs and `jordan-diag` checks, so a defect in
the pair list reaches every value. Building it costs one pair-list call
per unit, and a jordan-theorem instance makes 2 * samples + n oracle
calls (n validations, and for each sample its action check and the
Leibniz check of the pair it starts), so `gen_jordan_instance`
tabulates only up to _TABULATED_UP_TO = 4. The other side of those
2 * samples checks, each [abar, x], takes one stacked kernel call for
the whole instance (`matrices.brackets`). Per call, warm, in us (pair
list / table), with the build in us and the break-even number of calls
(build / saving per call); two hidden pairs of degree 3, the least of
15 x 100 calls in each of 4 fresh processes, CPython 3.11.7 on a
2-vCPU x86-64 host:

                      Z_9                              Z_5[t]
    n  units  pair / table  build   even    pair / table   build   even
    2    3    17.7 /   1.6      57    3.5      93 /    9      259    3.1
    3    6    22.4 /   2.5     143    7.2     154 /   25      826    6.4
    4   10    30.0 /   4.2     316   12.2     242 /   55    1,949   10.4
    5   15    39.7 /   7.0     655   20.0     356 /  107    3,876   15.5
    6   21    56.7 /  12.8   1,321   30.1     514 /  193    7,473   23.2
    8   36   101.3 /  33.4   4,016   59.1     918 /  476   22,351   50.6
   10   55   165.8 /  72.0   9,863  105.1   1,470 / 1,024  51,014  114.3

At the default 20 samples an instance makes 42 to 50 calls, and the
hidden list has 1 to 3 pairs; the end-to-end times in
`gen_jordan_instance` put the crossover between n = 6 and n = 8 on both
rings, above the cut-off (see there).
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
    SkewMatrix,
    SymmetricMatrix,
    _mirror,
    _plus_transpose,
    _require_dimension,
    _upper,
    brackets,
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
    """A finite list of symmetric pairs (a_k, b_k) acting on H_n(R)
    through the Jordan product: x -> sum(a_k.(b_k.x) - b_k.(a_k.x)). A
    record whose pairs are SymmetricMatrix values, converted once when it
    is built, so the action below may rely on their symmetry."""

    __slots__ = ()

    def __new__(cls, ring, n, pairs=()):
        _require_dimension(n)
        pairs = tuple((SymmetricMatrix.of(a), SymmetricMatrix.of(b)) for a, b in pairs)
        for a, b in pairs:
            require_shape(a, ring, n)
            require_shape(b, ring, n)
        return super().__new__(cls, ring, n, pairs)

    def __call__(self, x):
        """Apply the pair-list derivation to x in H_n(R) (a non-symmetric
        x is a DomainError). With y_k = b_k.x and z_k = a_k.x, the value
        sum(a_k.y_k - b_k.z_k) is the symmetric part of
        sum(a_k y_k - b_k z_k), because a_k, b_k, y_k and z_k are all
        symmetric: each pair takes two Jordan products and two matrix
        products, and the whole sum one symmetrisation, whose
        SymmetricMatrix constructor checks the result. The sum starts from
        the first pair's term; an empty list gives the zero
        SymmetricMatrix."""
        require_shape(x, self.ring, self.n)
        x = SymmetricMatrix.of(x)
        if not self.pairs:
            return SymmetricMatrix.zero(self.ring, self.n)
        terms = [a * jordan_mul(b, x) - b * jordan_mul(a, x) for a, b in self.pairs]
        return symmetric_part(reduce(operator.add, terms))


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
    """Check, exactly, for the oracle Delta that `family` witnesses, on
    samples in H_n(R) (a non-symmetric sample is a DomainError): that
    Delta(x) is in H_n(R) (`closure`, checked first, so it fires for any
    oracle that leaves H_n(R)), that Delta(x) = [abar, x] (`action`), and
    then the Jordan Leibniz rule for Delta itself on consecutive samples
    (`jordan-leibniz`): pair k is (sample k, sample k+1), and the last
    sample pairs with the first (a single sample pairs with itself). With
    z = x.y, the check is Delta(z) = [abar, z], one Jordan product and
    one oracle call per pair, reported at index count + k. The Jordan
    products are formed first, and the right-hand sides [abar, x] of
    every sample and every product come from one `brackets` call: one
    product of all of them stacked by rows with abar, and one mirrored
    kernel call each. abar is skew and each x symmetric, so each side is
    symmetric by construction and is compared as a plain Matrix. The
    oracle calls, their order and every reported violation are those of
    one commutator per check.

    Once `action` has passed at x and y, that identity is exactly
    Delta(x.y) = Delta(x).y + x.Delta(y), the claim that Delta is a
    derivation: D = [abar, .] is an inner derivation of the associative
    product, so D(xy + yx) = D(x) y + x D(y) + D(y) x + y D(x), that is
    D(x.y) = D(x).y + x.D(y), and D(x) = Delta(x), D(y) = Delta(y). So
    the check fires for an oracle that agrees with an inner map on the
    probes and on the samples but not on their Jordan products. A Jordan
    product computed wrongly reaches both sides alike, so it is not this
    check's to see. The pair list's a.(b.x) - b.(a.x) is one
    `ring.product_sum`, so a product_sum that drops its second term is
    caught before any sample: the oracle no longer agrees with the
    reduced witnesses, and the family's validation raises
    ContractError."""
    samples = [SymmetricMatrix.of(x) for x in samples]
    if not samples:
        raise DomainError("verify_jordan_theorem needs at least one sample")
    oracle = family.oracle
    abar = reconstruct_abar_jordan(family).abar
    count = len(samples)
    products = [jordan_mul(x, samples[(k + 1) % count]) for k, x in enumerate(samples)]
    rhs = brackets(abar, samples + products)
    for idx, x in enumerate(samples):
        lhs = oracle(x)
        if not lhs.is_symmetric():
            return CheckReport(
                idx, (Violation("closure", f"sample {idx}", lhs, lhs.transpose()),)
            )
        if lhs != rhs[idx]:
            return CheckReport(
                idx, (Violation("action", f"sample {idx}", lhs, rhs[idx]),)
            )
    for idx, z in enumerate(products):
        lhs = oracle(z)
        if lhs != rhs[count + idx]:
            violation = Violation("jordan-leibniz", f"pair {idx}", lhs, rhs[count + idx])
            return CheckReport(count + idx, (violation,))
    return CheckReport(2 * count)


def gen_jordan_instance(hidden_pairs, seed, max_degree=3):
    """Build (oracle, family) for the derivation given by hidden_pairs.
    The oracle evaluates the table of the pair list (`_tabulated`) for
    n <= _TABULATED_UP_TO = 4 and the pair list itself above it. The
    rule is measured: a jordan-theorem campaign of 20 samples, seed 7,
    the least of 4 runs in each of 4 fresh processes, in ms (pair list /
    table), CPython 3.11.7 on a 2-vCPU x86-64 host:

        n    Z_9, 10 trials    Z_5[t], 4 trials
        3      12.0 /  6.7       27.6 /  15.9
        4      17.1 / 10.8       43.3 /  28.9
        5      23.3 / 17.5       65.1 /  52.5
        6      32.9 / 29.6       90.8 /  85.6
        8      62.2 / 70.7      160.9 / 205.2

    The cut-off was measured when an instance made samples + n oracle
    calls, and put the crossover at n = 5. With the Leibniz check's
    oracle call per sample the table wins through n = 6 on both rings;
    the cut-off stays at 4 until a change that moves it measures it
    again. The per-call costs are in the module docstring. Each d(ii) is
    reduced from an independently re-expressed pair list for the same
    map: pairs are split by bilinearity in the first slot, canceling
    pairs (r, r) are appended, and the list is shuffled. All of these
    preserve sum [a_k, b_k] exactly. `family.oracle is oracle`."""
    ring, n = hidden_pairs.ring, hidden_pairs.n
    rng = random.Random(seed)
    evaluate = _tabulated(hidden_pairs) if n <= _TABULATED_UP_TO else hidden_pairs
    oracle = TwoLocalOracle(ring, n, evaluate)
    diag = {}
    for i in range(1, n + 1):
        reexpressed = _reexpress(hidden_pairs.pairs, ring, n, rng, max_degree)
        diag[i] = pairs_to_commutator(JordanPairDerivation(ring, n, reexpressed))
    return oracle, JordanWitnessFamily(oracle, diag)


# the largest n at which gen_jordan_instance tabulates the hidden pair
# list: a measured constant, see the module docstring and
# gen_jordan_instance
_TABULATED_UP_TO = 4


def _tabulated(pd):
    """The map of the pair list `pd`, evaluated by linearity. `pd` is
    called once on each symmetric unit, E_ii and E_ij + E_ji for i < j,
    and the upper entries of each image, row by row, are kept as one
    column of a table T. A symmetric x is the sum of its upper entries
    times those units, so the upper entries of pd(x) are T times those of
    x: one `ring.matvec` per call, mirrored and returned through the
    checked SymmetricMatrix constructor. A non-symmetric x is a
    DomainError, as for `pd`; its shape is the oracle's to check."""
    ring, n = pd.ring, pd.n
    mirror, upper, matvec = _mirror(n), _upper(n), ring.matvec
    size = n * (n + 1) // 2
    zero, one = ring.zero.payload, ring.one.payload
    units = [(zero,) * k + (one,) + (zero,) * (size - 1 - k) for k in range(size)]
    columns = [upper(pd(SymmetricMatrix(ring, n, mirror(u))).entries) for u in units]
    table = tuple([column[r] for r in range(size) for column in columns])

    def evaluate(x):
        entries = upper(SymmetricMatrix.of(x).entries)
        return SymmetricMatrix(ring, n, mirror(matvec(table, entries)))

    return evaluate


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
