"""Derivations on associative matrix rings: the inner action x -> [a, x],
Leibniz verification, the lifts of base-ring derivations to M_n(R) (the
entrywise lift, the 2x2 extension block and its doubling tower, which
share one closed form), and the two-generator propagation check.

A lift maps each entry a to delta(a) + s a, s a weight difference mod m,
through one call of `BaseDerivation.on_payloads(entries, shifts)` per
matrix. It splits the entries into coefficient planes, plane k holding
coefficient k of every entry, and runs one Z_m kernel per output plane:
with delta(t) = c t^d, output plane k is (s * P_k + c (k-d+1) P_{k-d+1})
mod m, entry by entry, with no ring product or sum and no call per entry.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .checks import CheckReport, Violation
from .errors import DomainError
from .matrices import Matrix, _require_dimension, commutator, require_shape

__all__ = [
    "InnerDerivation",
    "leibniz_check",
    "entrywise",
    "extend_m2",
    "extend_tower",
    "two_generator_check",
]


class InnerDerivation(namedtuple("InnerDerivation", "generator")):
    """x -> [a, x] = a x - x a for a fixed generator a."""

    __slots__ = ()

    def __call__(self, x):
        return commutator(self.generator, x)


def leibniz_check(deriv, samples):
    """Check additivity and the Leibniz identity of `deriv` on a list of
    (x, y) pairs; stops at the first violated pair."""
    checked = 0
    for x, y in samples:
        dx = deriv(x)
        dy = deriv(y)
        lhs = deriv(x + y)
        rhs = dx + dy
        if lhs != rhs:
            return CheckReport(
                checked, (Violation("additivity", f"pair {checked}", lhs, rhs),)
            )
        lhs = deriv(x * y)
        rhs = dx * y + x * dy
        if lhs != rhs:
            return CheckReport(
                checked, (Violation("leibniz", f"pair {checked}", lhs, rhs),)
            )
        checked += 1
    return CheckReport(checked)


def _lift(delta, n, weight):
    """The map X_ij -> delta(X_ij) + (weight[j] - weight[i]) X_ij on
    M_n(R): the entrywise lift of delta plus the inner derivation of
    -diag(weight), hence a derivation for any integer weights. Each
    weight difference becomes an int mod m here, once, and each matrix
    is one call of the plane form `delta.on_payloads(entries, shifts)`."""
    _require_dimension(n)
    ring, m = delta.ring, delta.modulus
    shifts = tuple((wj - wi) % m for wi in weight for wj in weight)
    closed_form = delta.on_payloads

    def apply(mat):
        require_shape(mat, ring, n)
        return Matrix(ring, n, closed_form(mat.entries, shifts))

    return apply


def entrywise(delta, n):
    """Lift a base derivation to M_n(R) by applying it to every entry.
    Over a commutative base this is itself a derivation."""
    return _lift(delta, n, (0,) * n)


def extend_m2(delta):
    """The 2x2 extension of a base derivation:

        [[l, m], [v, e]] -> [[dl, dm + m], [dv - v, de]]

    i.e. the entrywise lift plus the inner derivation of diag(1/2, -1/2).
    It is the doubling tower at n = 2.
    """
    return extend_tower(delta, 2)


def extend_tower(delta, n):
    """Lift `delta` to M_n(R), n >= 2, through the smallest power-of-two
    tower that covers n: repeated 2x2 doubling up to M_{2^k}(R), k the
    bit length of n - 1, then compression with e = e_{1,1} + ... +
    e_{n,n}.

    It is evaluated as the closed form
    X_ij -> delta(X_ij) + (popcount(j-1) - popcount(i-1)) X_ij, one
    `delta.on_payloads` call per matrix over its coefficient planes (see
    `_lift`): each doubling level adds +X on its upper-right and -X on
    its lower-left block, so the level splitting on bit k adds
    bit_k(j-1) - bit_k(i-1), and padding and compression leave the
    top-left n x n block alone.
    """
    if n < 2:
        raise DomainError("the tower extension needs n >= 2")
    return _lift(delta, n, [k.bit_count() for k in range(n)])


def two_generator_check(x, y, d, max_len):
    """Propagate Delta from Delta(x) = [d, x], Delta(y) = [d, y] to every
    word in x, y of length <= max_len via the Leibniz rule, computing
    every split of every word; checks that all splits of a word agree
    and that each propagated value equals [d, word].

    `split-disagreement` cannot fire for any d a suite passes in: every
    propagated value starts from the inner map [d, .], and
    [d, u] v + u [d, v] = [d, uv] for every split because the matrix
    product is associative. Only a non-associative product would make
    two splits disagree; a wrong map shows up as `inner-mismatch`. Each
    split is one `ring.product_sum` of two unread products and each
    target one `ring.commute`, so `inner-mismatch` also compares two
    kernels: a product_sum that drops its second term gives every split
    Delta(first letter) * rest, so the splits still agree and the
    targets do not."""
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    require_shape(y, x.ring, x.n)
    require_shape(d, x.ring, x.n)
    words = {"x": x, "y": y}
    delta = {"x": commutator(d, x), "y": commutator(d, y)}
    checked = 2  # the generators hold by definition
    violations = []
    for length in range(2, max_len + 1):
        for letters in product("xy", repeat=length):
            w = "".join(letters)
            words[w] = words[w[:-1]] * words[w[-1]]
            first = None
            for cut in range(1, length):
                u, v = w[:cut], w[cut:]
                cand = delta[u] * words[v] + words[u] * delta[v]
                if first is None:
                    first = cand
                elif cand != first:
                    violations.append(
                        Violation("split-disagreement", f"{u}|{v}", cand, first)
                    )
            delta[w] = first
            target = commutator(d, words[w])
            if first != target:
                violations.append(Violation("inner-mismatch", w, first, target))
            checked += 1
    return CheckReport(checked, tuple(violations))
