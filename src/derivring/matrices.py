"""Dense n-by-n matrices over the exact rings: matrix units, corners,
commutators, the Jordan product a.b = (ab + ba)/2, the symmetric
subspace H_n(R) and the skew matrices.

Public row/column indices run from 1 to match the e_{i,j} notation;
storage is 0-based row-major. Each builder checks its dimension (n >= 1)
and its indices through one rule each, and `require_shape` is the one
check that a map's argument is an n x n matrix over the map's ring. The
ring belongs to the matrix: `entries` holds bare canonical payloads
(ints for Z_m, coefficient tuples for Z_m[t]), and the ring owns the
arithmetic on them (see `derivring.rings`). `+`, `-`, negation and
scaling hand whole entry tuples to the ring's tuple ops (`add_all`,
`sub_all`, `neg_all`, `scale_all`), and equality compares payload
tuples. One transpose order per n, built once, serves `transpose`,
`is_symmetric` (a^T == a), `is_skew` (a^T == -a) and `p + sign p^T`;
both predicates compare the whole tuples. Only `entry` builds a ring
element.

The product ab picks its path from the operands' support. If b has at
most n nonzero entries, each nonzero b_kj adds column k of a, times
b_kj, to column j of ab; otherwise, if a has at most n, each nonzero
a_ik adds a_ik times row k of b to row i of ab; otherwise both matrices
go to the dense kernel `ring.matmul(a, b)`. On Z_m[t] the Kronecker
kernel keeps each matrix's packed entries for each slot width in its
`_packings` slot, set on its first dense product (never in __init__)
and used only while `entries` is the tuple it packed (see
`derivring.rings`). The cut-off is n because there n nonzeros times n
entries per line make n*n entry steps, as many as the dense kernel's
n*n dot products (each summed in one C-level call). The probes e_{i,j},
e_{i,i}, the shift x0 and the Jordan units lie at or below it, a
general matrix above it. A nonzero equal to one adds its line without a
multiplication, which covers every probe.

Symmetry is a checked type, and checked only there: `SymmetricMatrix`
(a^T = a, `parity` 1) and `SkewMatrix` (a^T = -a, `parity` -1) check
their property in their one constructor. For typed a and b,
ba = sign (ab)^T with sign = a.parity * b.parity, so with p = ab the
commutator p - sign p^T and the Jordan product (p + sign p^T)/2 take one
product, through `Matrix.__mul__`, where the literal formulas take two.
The same rule makes a sum of Jordan products of symmetric matrices the
symmetric part (q + q^T)/2 of the sum q of their plain products, so
`symmetric_part` symmetrises a whole sum once.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from operator import itemgetter

from .errors import DomainError
from .rings import RingElement, same_ring

__all__ = [
    "Matrix",
    "SymmetricMatrix",
    "SkewMatrix",
    "require_shape",
    "matrix_unit",
    "jordan_unit",
    "probe_x0",
    "commutator",
    "corner",
    "jordan_mul",
    "symmetric_part",
]


class Matrix:
    """Immutable square matrix whose entries all share one ring."""

    # `_packings` is PolyRing.matmul's memo of the packed entries; it is
    # set on a matrix's first dense Z_m[t] product, never in __init__
    __slots__ = ("ring", "n", "entries", "_packings")
    # a^T = parity * a for every instance of the class; 0 claims nothing
    parity = 0

    def __init__(self, ring, n, entries):
        # Trusted constructor: `entries` is a row-major tuple of n*n
        # canonical payloads of `ring`. External callers use from_rows
        # or the builders below.
        self.ring = ring
        self.n = n
        self.entries = entries

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        n = _require_dimension(len(rows))
        entries = []
        for row in rows:
            if len(row) != n:
                raise DomainError(f"expected {n} columns per row, got {len(row)}")
            entries.extend(ring.element(v).payload for v in row)
        return cls(ring, n, tuple(entries))

    @classmethod
    def zero(cls, ring, n):
        _require_dimension(n)
        return cls(ring, n, (ring.zero.payload,) * (n * n))

    @classmethod
    def identity(cls, ring, n):
        return cls.scalar(ring.one, n)

    @classmethod
    def scalar(cls, z, n):
        """z * I: the central matrix with z on the diagonal."""
        cells = (((i, i), z.payload) for i in range(1, n + 1))
        return cls(z.ring, n, tuple(_placed(z.ring, n, cells)))

    @classmethod
    def of(cls, mat):
        """`mat` as a `cls`: unchanged if it already is one, otherwise its
        entries through the constructor, which checks the property."""
        if isinstance(mat, cls):
            return mat
        return cls(mat.ring, mat.n, mat.entries)

    def entry(self, i, j):
        """The (i, j) entry as a ring element, 1-based."""
        return self.ring.wrap(self.entries[_index(self.n, i, j)])

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
        return Matrix(self.ring, self.n, self.ring.add_all(self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_compatible(other)
        return Matrix(self.ring, self.n, self.ring.sub_all(self.entries, other.entries))

    def __neg__(self):
        return Matrix(self.ring, self.n, self.ring.neg_all(self.entries))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self._scaled(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        self._require_compatible(other)
        ring, n, a, b = self.ring, self.n, self.entries, other.entries
        min_zeros = n * n - n  # so at most n nonzero entries
        zero = ring.zero.payload
        if b.count(zero) >= min_zeros:
            return Matrix(ring, n, _sparse_product(ring, n, b, a, left=False))
        if a.count(zero) >= min_zeros:
            return Matrix(ring, n, _sparse_product(ring, n, a, b, left=True))
        return Matrix(ring, n, ring.matmul(self, other))

    def __rmul__(self, other):
        if isinstance(other, RingElement):
            return self._scaled(other)
        return NotImplemented

    def _scaled(self, z):
        ring = same_ring(self, z)
        return Matrix(ring, self.n, ring.scale_all(z.payload, self.entries))

    def transpose(self):
        return Matrix(self.ring, self.n, _transposer(self.n)(self.entries))

    def is_zero(self):
        return not any(self.entries)

    def is_symmetric(self):
        ent = self.entries
        return ent == _transposer(self.n)(ent)

    def is_skew(self):
        ent = self.entries
        return self.ring.neg_all(ent) == _transposer(self.n)(ent)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.n == other.n
            and (self.ring is other.ring or self.ring == other.ring)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.n, self.entries))

    def __repr__(self):
        n = self.n
        fmt = self.ring.format_payload
        rows = "; ".join(
            " ".join(fmt(self.entries[i * n + j]) for j in range(n))
            for i in range(n)
        )
        return f"M{n}({self.ring})[{rows}]"


def _require_dimension(n):
    """`n`, if it is a matrix dimension (n >= 1); DomainError otherwise."""
    if n < 1:
        raise DomainError("matrix dimension must be >= 1")
    return n


def _index(n, i, j):
    """The row-major position of the 1-based (i, j) in an n x n matrix;
    DomainError if (i, j) lies outside it."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"index ({i},{j}) out of range for n={n}")
    return (i - 1) * n + (j - 1)


def _placed(ring, n, cells=()):
    """The row-major entries, as a list, of the n x n matrix over `ring`
    with each payload of `cells`, pairs ((i, j), payload), at its (i, j)
    and zero elsewhere."""
    out = [ring.zero.payload] * (_require_dimension(n) * n)
    for (i, j), payload in cells:
        out[_index(n, i, j)] = payload
    return out


def require_shape(x, ring, n):
    """DomainError unless `x` is an n x n matrix over `ring`."""
    if x.n != n or (x.ring is not ring and x.ring != ring):
        raise DomainError(
            f"expected a {n}x{n} matrix over {ring}, got {x.n}x{x.n} over {x.ring}"
        )


def _gather(indices):
    """The map from a tuple to the tuple of its entries at `indices` (an
    itemgetter of one index would return the bare entry)."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


@cache
def _transposer(n):
    """The map from the row-major entries of an n x n matrix to those of
    its transpose, built once per n."""
    return _gather([j * n + i for i in range(n) for j in range(n)])


def _sparse_product(ring, n, s, d, left):
    """The payloads of the n x n product s d (left=True) or d s, where s
    has at most n nonzero entries (Gustavson, ACM TOMS 1978). On the
    left, a nonzero s_ik adds s_ik times row k of d to row i of the
    product; on the right, a nonzero s_kj adds column k of d times s_kj
    to column j. A nonzero equal to one adds the line without a
    multiplication, as one slice copy while line i is still empty. Zero
    entries of d are skipped. Zero payloads (0 and ()) are the only
    falsy ones."""
    # a line starts every `span` entries and steps `step` along itself
    span, step = (n, 1) if left else (1, n)
    end = n * step
    one, add, mul = ring.one.payload, ring.add, ring.mul
    out = _placed(ring, n)
    filled = [False] * n
    for idx in compress(range(n * n), s):
        x = s[idx]
        if left:
            i, k = divmod(idx, n)
        else:
            k, i = divmod(idx, n)
        src, dst = k * span, i * span
        if x == one and not filled[i]:
            out[dst : dst + end : step] = d[src : src + end : step]
        else:
            for p in range(0, end, step):
                y = d[src + p]
                if y:
                    if x != one:
                        y = mul(x, y)
                    o = dst + p
                    out[o] = add(out[o], y) if out[o] else y
        filled[i] = True
    return tuple(out)


class SymmetricMatrix(Matrix):
    """A transpose-invariant matrix, an element of H_n(R). The constructor
    checks symmetry, so every SymmetricMatrix is symmetric; `of` converts
    a Matrix, checked the same way."""

    __slots__ = ()
    parity = 1

    def __init__(self, ring, n, entries):
        Matrix.__init__(self, ring, n, entries)
        if not self.is_symmetric():
            raise DomainError("matrix is not symmetric")


class SkewMatrix(Matrix):
    """A matrix with a^T = -a, so with zero diagonal (2 is invertible).
    The constructor checks skewness, so every SkewMatrix is skew; `of`
    converts a Matrix, checked the same way."""

    __slots__ = ()
    parity = -1

    def __init__(self, ring, n, entries):
        Matrix.__init__(self, ring, n, entries)
        if not self.is_skew():
            raise DomainError("matrix is not skew-symmetric")


def matrix_unit(ring, n, i, j):
    """e_{i,j}: 1 at (i, j) and 0 elsewhere."""
    return Matrix(ring, n, tuple(_placed(ring, n, [((i, j), ring.one.payload)])))


def jordan_unit(ring, n, i, j):
    """The symmetric unit e_{i,j} + e_{j,i}, defined for i != j."""
    if i == j:
        raise DomainError("jordan_unit needs i != j; diagonal probes are e_{i,i}")
    cells = [((i, j), ring.one.payload), ((j, i), ring.one.payload)]
    return SymmetricMatrix(ring, n, tuple(_placed(ring, n, cells)))


def probe_x0(ring, n):
    """The superdiagonal shift e_{1,2} + e_{2,3} + ... + e_{n-1,n}."""
    if n < 2:
        raise DomainError("the shift probe needs n >= 2")
    cells = (((k, k + 1), ring.one.payload) for k in range(1, n))
    return Matrix(ring, n, tuple(_placed(ring, n, cells)))


def commutator(a, b):
    """[a, b] = ab - ba. For typed a and b, ba = sign (ab)^T with
    sign = a.parity * b.parity, so [a, b] = p - sign p^T with p = ab: one
    product, and the result has parity -sign."""
    sign = a.parity * b.parity
    if not sign:
        return a * b - b * a
    return _plus_transpose(a * b, -sign)


def symmetric_part(p):
    """(p + p^T)/2, a SymmetricMatrix. For symmetric a and y,
    ya = (ay)^T, so a sum of Jordan products sum(a_k.y_k - b_k.z_k) is
    the symmetric part of sum(a_k y_k - b_k z_k): one symmetrisation for
    the whole sum instead of one per product."""
    return _plus_transpose(p, 1, p.ring.half.payload)


def _plus_transpose(p, sign, scale=None):
    """p + sign p^T, each entry times `scale` if given, as the matrix type
    of parity `sign`, whose constructor checks the property."""
    ring, n, ent = p.ring, p.n, p.entries
    mirror = _transposer(n)(ent)
    out = ring.add_all(ent, mirror) if sign > 0 else ring.sub_all(ent, mirror)
    if scale is not None:
        out = ring.scale_all(scale, out)
    return (SymmetricMatrix if sign > 0 else SkewMatrix)(ring, n, out)


def corner(a, i, j):
    """e_{i,i} a e_{j,j}: the matrix keeping only the (i, j) entry of a."""
    cells = [((i, j), a.entries[_index(a.n, i, j)])]
    return Matrix(a.ring, a.n, tuple(_placed(a.ring, a.n, cells)))


def jordan_mul(a, b):
    """The Jordan product (ab + ba)/2. For typed a and b, ba = sign (ab)^T
    with sign = a.parity * b.parity, so the product is (p + sign p^T)/2
    with p = ab: one product, and the result has parity sign."""
    sign = a.parity * b.parity
    if not sign:
        return (a * b + b * a) * a.ring.half
    return _plus_transpose(a * b, sign, a.ring.half.payload)
