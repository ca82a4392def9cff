"""Seeded random generation of ring elements, matrices, and witness
noise. Every sampler takes an explicit random.Random, so a seed pins the
whole stream; the campaign layer derives per-instance seeds from it.

Each matrix takes all its payloads from one `ring.draw`, which draws
them exactly as one `rng.randrange(m)` call per coefficient would (see
`derivring.rings`), in the entry order the samplers have always used:
row by row, only (i, j) with j >= i for a symmetric matrix, and c_0 ..
c_{n-1} for an x0 commutant. So a seed gives the same instances as a
per-entry loop, and no entry becomes a ring element.
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError
from .matrices import Matrix, SymmetricMatrix, _gather, _require_dimension

__all__ = [
    "random_element",
    "random_matrix",
    "random_symmetric",
    "random_pairs",
    "random_central",
    "random_x0_commutant",
]


def random_element(ring, rng, max_degree=3):
    return ring.sample(rng, max_degree)


def random_matrix(ring, n, rng, max_degree=3):
    _require_dimension(n)
    return Matrix(ring, n, ring.draw(rng, n * n, max_degree))


def random_symmetric(ring, n, rng, max_degree=3):
    """Entries drawn for (i, j) with j >= i, row by row, and mirrored."""
    _require_dimension(n)
    upper = ring.draw(rng, n * (n + 1) // 2, max_degree)
    return SymmetricMatrix(ring, n, _mirror(n)(upper))


@cache
def _mirror(n):
    """The map from the n(n+1)/2 entries (i, j), j >= i, of a symmetric
    matrix, row by row, to its n*n row-major entries, built once per n."""
    # (i, j) with i <= j sits after the i earlier rows of n, n-1, ... entries
    start = [i * n - i * (i - 1) // 2 - i for i in range(n)]
    return _gather([start[min(i, j)] + max(i, j) for i in range(n) for j in range(n)])


def random_pairs(ring, n, rng, count, max_degree=3):
    """`count` pairs of random symmetric matrices."""
    _require_dimension(n)
    return tuple(
        (
            random_symmetric(ring, n, rng, max_degree),
            random_symmetric(ring, n, rng, max_degree),
        )
        for _ in range(count)
    )


def random_central(ring, n, rng, max_degree=3):
    """A random scalar matrix z*I."""
    return _upper_toeplitz(ring, n, ring.draw(rng, 1, max_degree))


def random_x0_commutant(ring, n, rng, max_degree=3):
    """A random polynomial c_0 + c_1 x0 + ... + c_{n-1} x0^{n-1} in the
    shift probe x0, i.e. the upper-triangular Toeplitz matrix with c_{j-i}
    at (i, j), j >= i. Such matrices commute with x0, which is exactly the
    ambiguity allowed for the c witness."""
    if n < 2:
        raise DomainError("the shift probe needs n >= 2")
    return _upper_toeplitz(ring, n, ring.draw(rng, n, max_degree))


def _upper_toeplitz(ring, n, c):
    """The matrix with c[j - i] at (i, j) for j >= i, and zero below the
    diagonal and wherever c has no entry: c = (z,) gives z*I."""
    _require_dimension(n)
    zero = ring.zero.payload
    return Matrix(ring, n, _toeplitz(n)(c + (zero,) * (n + 1 - len(c))))


@cache
def _toeplitz(n):
    """The map from (c_0, ..., c_{n-1}, 0) to the row-major entries of the
    upper-triangular Toeplitz matrix of c, built once per n: (i, j) takes
    c_{j-i} for j >= i and the trailing zero below the diagonal."""
    return _gather([j - i if j >= i else n for i in range(n) for j in range(n)])
