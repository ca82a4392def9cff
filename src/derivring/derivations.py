"""Derivations on associative matrix rings: the inner action x -> [a, x],
Leibniz verification, entrywise lifts of base-ring derivations, the 2x2
extension block and its doubling tower up to M_n(R), and the
two-generator propagation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .checks import CheckReport, Violation
from .errors import DomainError
from .matrices import Matrix, commutator
from .rings import BaseDerivation, same_ring

__all__ = [
    "InnerDerivation",
    "ExtensionResult",
    "inner_apply",
    "leibniz_check",
    "entrywise",
    "extend_m2",
    "extend_tower",
    "two_generator_check",
]


@dataclass(frozen=True)
class InnerDerivation:
    """x -> a x - x a for a fixed generator a."""

    generator: Matrix

    def __call__(self, x):
        return inner_apply(self.generator, x)


def inner_apply(a, x):
    """The inner derivation action [a, x] = ax - xa."""
    return a * x - x * a


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


def entrywise(delta, n):
    """Lift a base derivation to M_n(R) by applying it to every entry.
    Over a commutative base this is itself a derivation."""

    def apply(mat):
        if mat.n != n:
            raise DomainError(f"expected a {n}x{n} matrix, got {mat.n}x{mat.n}")
        ring = same_ring(delta, mat)
        return Matrix(ring, n, tuple(map(delta.on_payload, mat.entries)))

    return apply


def extend_m2(delta):
    """The 2x2 extension of a base derivation:

        [[l, m], [v, e]] -> [[dl, dm + m], [dv - v, de]]

    i.e. the entrywise lift plus the inner derivation of diag(1/2, -1/2).
    """

    def apply(mat):
        if mat.n != 2:
            raise DomainError(f"extend_m2 acts on 2x2 matrices, got n={mat.n}")
        ring, d = same_ring(delta, mat), delta.on_payload
        lam, mu, nu, eta = mat.entries
        return Matrix(
            ring, 2, (d(lam), ring.add(d(mu), mu), ring.sub(d(nu), nu), d(eta))
        )

    return apply


@dataclass(frozen=True)
class ExtensionResult:
    """A base derivation lifted to M_n(R) by repeated 2x2 doubling up to
    M_{2^depth}(R) and compression with e = e_{1,1} + ... + e_{n,n}.

    It is evaluated entry by entry through the closed form
    X_ij -> delta(X_ij) + (popcount(j-1) - popcount(i-1)) X_ij: each
    doubling level adds +X on its upper-right and -X on its lower-left
    block, so the level splitting on bit k adds bit_k(j-1) - bit_k(i-1),
    and padding and compression leave the top-left n x n block alone.
    """

    delta: BaseDerivation
    n: int
    depth: int

    def __call__(self, mat):
        if mat.n != self.n:
            raise DomainError(f"expected a {self.n}x{self.n} matrix, got n={mat.n}")
        n, ring, d = self.n, same_ring(self.delta, mat), self.delta.on_payload
        weight = [k.bit_count() for k in range(n)]
        out = []
        for k, x in enumerate(mat.entries):
            shift = weight[k % n] - weight[k // n]
            if shift:
                out.append(ring.add(d(x), ring.mul(x, ring.element(shift).payload)))
            else:
                out.append(d(x))
        return Matrix(ring, n, tuple(out))


def extend_tower(delta, n):
    """Lift `delta` to M_n(R), n >= 2, through the smallest power-of-two
    tower that covers n."""
    if n < 2:
        raise DomainError("the tower extension needs n >= 2")
    return ExtensionResult(delta, n, (n - 1).bit_length())


def two_generator_check(x, y, d, max_len):
    """Propagate Delta from Delta(x) = [d, x], Delta(y) = [d, y] to every
    word in x, y of length <= max_len via the Leibniz rule, computing
    every split of every word; checks that all splits of a word agree
    and that each propagated value equals [d, word].

    `split-disagreement` cannot fire for any d a suite passes in: every
    propagated value starts from the inner map [d, .], and
    [d, u] v + u [d, v] = [d, uv] for every split because the matrix
    product is associative. Only a non-associative product would make
    two splits disagree; a wrong map shows up as `inner-mismatch`."""
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    x._require_compatible(y)
    x._require_compatible(d)
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
