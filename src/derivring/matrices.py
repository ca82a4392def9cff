"""Dense n-by-n matrices over the exact rings: matrix units, corners,
commutators, the Jordan product a.b = (ab + ba)/2, and the symmetric
subspace H_n(R).

Public row/column indices run from 1 to match the e_{i,j} notation;
storage is 0-based row-major. Entries are canonical ring elements, but
arithmetic and equality run on their payloads: once `_require_compatible`
has passed, `+`, `-`, negation, scaling and the product hand the entry
tuples to the ring's payload kernel (`ring.matmul` and friends, see
`derivring.rings`), which sums each dot product as plain ints (Z_m) or
as Kronecker-packed ints (Z_m[t]) and builds one element per entry.
"""

from __future__ import annotations

from .errors import DomainError
from .rings import RingElement

__all__ = [
    "Matrix",
    "SymmetricMatrix",
    "matrix_unit",
    "jordan_unit",
    "probe_x0",
    "commutator",
    "corner",
    "jordan_mul",
]


class Matrix:
    """Immutable square matrix whose entries all share one ring."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring, n, entries):
        # Trusted constructor: `entries` is a row-major tuple of n*n
        # canonical elements of `ring`. External callers use from_rows
        # or the builders below.
        self.ring = ring
        self.n = n
        self.entries = entries

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        if n < 1:
            raise DomainError("matrix dimension must be >= 1")
        entries = []
        for row in rows:
            if len(row) != n:
                raise DomainError(f"expected {n} columns per row, got {len(row)}")
            entries.extend(ring.element(v) for v in row)
        return cls(ring, n, tuple(entries))

    @classmethod
    def zero(cls, ring, n):
        if n < 1:
            raise DomainError("matrix dimension must be >= 1")
        return cls(ring, n, (ring.zero,) * (n * n))

    @classmethod
    def identity(cls, ring, n):
        return cls.scalar(ring.one, n)

    @classmethod
    def scalar(cls, z, n):
        """z * I: the central matrix with z on the diagonal."""
        if n < 1:
            raise DomainError("matrix dimension must be >= 1")
        ring = z.ring
        ent = [ring.zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = z
        return cls(ring, n, tuple(ent))

    def entry(self, i, j):
        """The (i, j) entry, 1-based."""
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise DomainError(f"index ({i},{j}) out of range for n={n}")
        return self.entries[(i - 1) * n + (j - 1)]

    def _require_compatible(self, other):
        if self.n != other.n or (
            self.ring is not other.ring and self.ring != other.ring
        ):
            raise DomainError(
                f"matrix mismatch: {self.n}x{self.n} over {self.ring} vs "
                f"{other.n}x{other.n} over {other.ring}"
            )

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_compatible(other)
        return Matrix(self.ring, self.n, self.ring.matadd(self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_compatible(other)
        return Matrix(self.ring, self.n, self.ring.matsub(self.entries, other.entries))

    def __neg__(self):
        return Matrix(self.ring, self.n, self.ring.matneg(self.entries))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self._scaled(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_compatible(other)
        n = self.n
        return Matrix(self.ring, n, self.ring.matmul(n, self.entries, other.entries))

    def __rmul__(self, other):
        if isinstance(other, RingElement):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, z):
        if z.ring is not self.ring and z.ring != self.ring:
            raise DomainError(f"ring mismatch: {self.ring} vs {z.ring}")
        return Matrix(self.ring, self.n, self.ring.matscale(z, self.entries))

    def transpose(self):
        n = self.n
        ent = self.entries
        return Matrix(
            self.ring, n, tuple(ent[j * n + i] for i in range(n) for j in range(n))
        )

    def is_zero(self):
        return all(not a.payload for a in self.entries)

    def is_symmetric(self):
        n = self.n
        ent = self.entries
        return all(
            ent[i * n + j].payload == ent[j * n + i].payload
            for i in range(n)
            for j in range(i + 1, n)
        )

    def is_skew(self):
        n = self.n
        ent = self.entries
        return all(
            ent[i * n + j] == -ent[j * n + i] for i in range(n) for j in range(i, n)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.n == other.n
            and (self.ring is other.ring or self.ring == other.ring)
            and all(a.payload == b.payload for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.ring, self.n, self.entries))

    def __repr__(self):
        n = self.n
        fmt = self.ring.format_payload
        rows = "; ".join(
            " ".join(fmt(self.entries[i * n + j].payload) for j in range(n))
            for i in range(n)
        )
        return f"M{n}({self.ring})[{rows}]"


class SymmetricMatrix(Matrix):
    """A transpose-invariant matrix, an element of H_n(R). The constructor
    is trusted, like Matrix's; `of` checks symmetry at the boundary."""

    __slots__ = ()

    @classmethod
    def of(cls, mat):
        if not mat.is_symmetric():
            raise DomainError("matrix is not symmetric")
        return cls(mat.ring, mat.n, mat.entries)


def matrix_unit(ring, n, i, j):
    """e_{i,j}: 1 at (i, j) and 0 elsewhere."""
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"unit index ({i},{j}) out of range for n={n}")
    ent = [ring.zero] * (n * n)
    ent[(i - 1) * n + (j - 1)] = ring.one
    return Matrix(ring, n, tuple(ent))


def jordan_unit(ring, n, i, j):
    """The symmetric unit e_{i,j} + e_{j,i}, defined for i != j."""
    if i == j:
        raise DomainError("jordan_unit needs i != j; diagonal probes are e_{i,i}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"unit index ({i},{j}) out of range for n={n}")
    ent = [ring.zero] * (n * n)
    ent[(i - 1) * n + (j - 1)] = ring.one
    ent[(j - 1) * n + (i - 1)] = ring.one
    return SymmetricMatrix(ring, n, tuple(ent))


def probe_x0(ring, n):
    """The superdiagonal shift e_{1,2} + e_{2,3} + ... + e_{n-1,n}."""
    if n < 2:
        raise DomainError("the shift probe needs n >= 2")
    ent = [ring.zero] * (n * n)
    for k in range(n - 1):
        ent[k * n + k + 1] = ring.one
    return Matrix(ring, n, tuple(ent))


def commutator(a, b):
    """[a, b] = ab - ba."""
    return a * b - b * a


def corner(a, i, j):
    """e_{i,i} a e_{j,j}: the matrix keeping only the (i, j) entry of a."""
    n = a.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"corner index ({i},{j}) out of range for n={n}")
    ent = [a.ring.zero] * (n * n)
    ent[(i - 1) * n + (j - 1)] = a.entries[(i - 1) * n + (j - 1)]
    return Matrix(a.ring, n, tuple(ent))


def jordan_mul(a, b):
    """The Jordan product (ab + ba)/2; symmetric inputs give a symmetric
    result, and SymmetricMatrix inputs stay SymmetricMatrix."""
    prod = (a * b + b * a) * a.ring.half
    if isinstance(a, SymmetricMatrix) and isinstance(b, SymmetricMatrix):
        return SymmetricMatrix(prod.ring, prod.n, prod.entries)
    return prod
