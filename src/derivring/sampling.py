"""Seeded random generation of ring elements, matrices, and witness
noise. Every sampler takes an explicit random.Random, so a seed pins the
whole stream; the campaign layer derives per-instance seeds from it.
"""

from __future__ import annotations

from .errors import DomainError
from .matrices import Matrix, SymmetricMatrix

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
    return Matrix(
        ring, n, tuple(ring.sample(rng, max_degree).payload for _ in range(n * n))
    )


def random_symmetric(ring, n, rng, max_degree=3):
    ent = [ring.zero.payload] * (n * n)
    for i in range(n):
        for j in range(i, n):
            v = ring.sample(rng, max_degree).payload
            ent[i * n + j] = v
            ent[j * n + i] = v
    return SymmetricMatrix(ring, n, tuple(ent))


def random_pairs(ring, n, rng, count, max_degree=3):
    """`count` pairs of random symmetric matrices."""
    return tuple(
        (
            random_symmetric(ring, n, rng, max_degree),
            random_symmetric(ring, n, rng, max_degree),
        )
        for _ in range(count)
    )


def random_central(ring, n, rng, max_degree=3):
    """A random scalar matrix z*I."""
    return Matrix.scalar(ring.sample(rng, max_degree), n)


def random_x0_commutant(ring, n, rng, max_degree=3):
    """A random polynomial c_0 + c_1 x0 + ... + c_{n-1} x0^{n-1} in the
    shift probe x0, i.e. the upper-triangular Toeplitz matrix with c_{j-i}
    at (i, j), j >= i. Such matrices commute with x0, which is exactly the
    ambiguity allowed for the c witness."""
    if n < 2:
        raise DomainError("the shift probe needs n >= 2")
    c = [ring.sample(rng, max_degree).payload for _ in range(n)]
    zero = ring.zero.payload
    ent = (c[j - i] if j >= i else zero for i in range(n) for j in range(n))
    return Matrix(ring, n, tuple(ent))
