"""Samplers: each matrix drawn in one `ring.draw` is the matrix that one
`ring.sample` per entry gave, in the same entry order, from the same
stream."""

import random

import pytest

from derivring import Matrix, PolyRing, SymmetricMatrix, Zmod
from derivring.errors import DomainError
from derivring.sampling import (
    random_central,
    random_matrix,
    random_pairs,
    random_symmetric,
    random_x0_commutant,
)

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)
P9 = PolyRing(Z9)
CASES = [
    (ring, n, d)
    for ring, degrees in ((Z5, (0,)), (Z9, (0,)), (P5, (0, 1, 3)), (P9, (2,)))
    for d in degrees
    for n in (1, 2, 3, 4, 5)
]


# Per-entry references: the samplers as they were written before the
# batched draw, one ring.sample per entry.


def ref_matrix(ring, n, rng, max_degree=3):
    return Matrix(
        ring, n, tuple(ring.sample(rng, max_degree).payload for _ in range(n * n))
    )


def ref_symmetric(ring, n, rng, max_degree=3):
    ent = [ring.zero.payload] * (n * n)
    for i in range(n):
        for j in range(i, n):
            v = ring.sample(rng, max_degree).payload
            ent[i * n + j] = v
            ent[j * n + i] = v
    return SymmetricMatrix(ring, n, tuple(ent))


def ref_central(ring, n, rng, max_degree=3):
    z = ring.sample(rng, max_degree).payload
    zero = ring.zero.payload
    ent = (z if i == j else zero for i in range(n) for j in range(n))
    return Matrix(ring, n, tuple(ent))


def ref_x0_commutant(ring, n, rng, max_degree=3):
    c = [ring.sample(rng, max_degree).payload for _ in range(n)]
    zero = ring.zero.payload
    ent = (c[j - i] if j >= i else zero for i in range(n) for j in range(n))
    return Matrix(ring, n, tuple(ent))


def column_symmetric(ring, n, rng, max_degree=3):
    """A planted sampler that draws the upper triangle column by column."""
    ent = [ring.zero.payload] * (n * n)
    for j in range(n):
        for i in range(j + 1):
            v = ring.sample(rng, max_degree).payload
            ent[i * n + j] = v
            ent[j * n + i] = v
    return SymmetricMatrix(ring, n, tuple(ent))


def same_stream(new, ref, ring, n, max_degree, seeds=range(20)):
    """`new` and `ref` give equal matrices of one type, three in a row,
    and leave the generator in the same state, on every seed."""
    for seed in seeds:
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = new(ring, n, got_rng, max_degree)
            want = ref(ring, n, ref_rng, max_degree)
            if type(got) is not type(want) or got != want:
                return False
        if got_rng.getrandbits(64) != ref_rng.getrandbits(64):
            return False
    return True


SAMPLERS = [
    (random_matrix, ref_matrix),
    (random_symmetric, ref_symmetric),
    (random_central, ref_central),
    (random_x0_commutant, ref_x0_commutant),
]


@pytest.mark.parametrize(
    "new,ref,ring,n,max_degree",
    [
        (new, ref, *case)
        for new, ref in SAMPLERS
        for case in CASES
        # the shift probe needs n >= 2
        if new is not random_x0_commutant or case[1] >= 2
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_sampler_matches_per_entry_draws(new, ref, ring, n, max_degree):
    assert same_stream(new, ref, ring, n, max_degree)


@pytest.mark.parametrize("ring", [Z9, P5], ids=str)
def test_entry_order_is_caught(ring):
    # from n = 3 on, column order draws the triangle in another order
    assert same_stream(column_symmetric, ref_symmetric, ring, 2, 3)
    assert not same_stream(column_symmetric, ref_symmetric, ring, 3, 3)
    assert not same_stream(column_symmetric, random_symmetric, ring, 3, 3)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "sample",
    [
        random_matrix,
        random_symmetric,
        lambda ring, n, rng: random_pairs(ring, n, rng, 1),
        # no pair is drawn, so only the dimension rule can refuse n
        lambda ring, n, rng: random_pairs(ring, n, rng, 0),
        random_central,
        random_x0_commutant,
    ],
    ids=["matrix", "symmetric", "pairs", "no-pairs", "central", "x0-commutant"],
)
def test_sampler_refuses_a_dimension_below_one(sample, n):
    # a matrix of n <= 0 has no entries to draw; each sampler refuses it
    # by the one dimension rule instead of building a malformed matrix
    with pytest.raises(DomainError):
        sample(Z5, n, random.Random(0))
