"""Dense n-by-n matrices over the exact rings: matrix units,
commutators, the Jordan product a.b = (ab + ba)/2, the symmetric
subspace H_n(R) and the skew matrices.

Public row/column indices run from 1 to match the e_{i,j} notation;
storage is 0-based row-major. Each builder checks its dimension (n >= 1)
and its indices through one rule each, and `require_shape` is the one
check that a map's argument, or a second operand, is an n x n matrix
over the expected ring. The ring belongs to the matrix: `entries` holds
bare canonical payloads (ints for Z_m, coefficient tuples for Z_m[t]),
and the ring owns the arithmetic on them (see `derivring.rings`). `+`,
`-`, negation and scaling hand whole entry tuples to the ring's tuple
ops (`add_all`, `sub_all`, `neg_all`, `scale_all`; on Z_m one
straight-line kernel per length and op, on Z_m[t] the scalar op
mapped), and equality compares payload tuples. One transpose order per
n, built once, serves `transpose`, `is_symmetric` (a^T == a) and
`is_skew` (a^T == -a); both predicates compare the whole tuples.
`p + sign p^T`, scaled or not, is the ring's `plus_transpose`, which
computes each entry on and above the diagonal once and mirrors it below
(on Z_m one generated kernel per n and sign). Only `entry` builds a ring
element.

Every product ab of two matrices goes to the ring's dense kernel
`ring.matmul(a, b)`, with no scan of its operands. The 0/1 rule lives
in `commutator`, where the probes e_{i,j} and x0 meet the witnesses: a
0/1 operand has at most n nonzero entries, each of them one. Each ring
owns `sparse_from`, the least n at which a commutator takes line
moves: 4 on Z_m, 1 on Z_m[t]. From it on, an untyped [a, b] whose
right operand b is a 0/1 operand is built in one list (Gustavson, ACM
TOMS 1978): each nonzero of b moves one column of a onto a column of
ab, stored, or added with `add_all` if the column is already filled,
and then, for ba, subtracts one row of a from a row of the result
with `sub_all`. That is at most 2n line steps, where ab - ba takes two
dense products and a whole-matrix difference. The test is one `count`
of zeros in b, and one of ones only when the first qualifies. Every
probe commutator that the suites build has its probe on the right, so
a 0/1 a with a general b takes ab - ba. A non-one nonzero would cost a
`scale_all` per line, which lost to the kernel in a product, so such
an operand takes ab - ba like a general one. Measured for a dense a (us, line moves /
kernel ab - ba, whole [a, p], the least of two runs of 20 interleaved
repeats of 300 calls, entries of degree 3 on Z_5[t], CPython 3.11 on a
2-vCPU x86-64 host):

         Z_9                          Z_5[t]
    n    p = e_{1,2}   p = x0         p = e_{1,2}    p = x0
    2    3.12 / 2.98   3.08 / 3.02    5.11 / 10.64   5.26 /  10.72
    3    3.47 / 4.11   4.41 / 4.08    5.72 / 16.12   9.83 /  20.29
    4    3.73 / 5.91   6.01 / 5.86    6.88 / 23.51  16.31 /  32.10
    5    4.31 / 9.21   8.33 / 9.47    7.69 / 32.50  23.10 /  46.58
    6    4.85 / 14.15  9.54 / 13.42   8.37 / 42.34  32.11 /  65.83
    7    5.51 / 20.06 11.20 / 17.96   9.28 / 54.00  45.28 /  91.74
    8    5.76 / 24.78 13.07 / 24.55  10.95 / 73.65  58.99 / 122.11

So on Z_m the kernel wins both probes at n = 2; line moves win e_{1,2}
from n = 3, tie x0 at n = 4 and win it from n = 5, and one cut-off
serves both probes. On Z_m[t] a dense product packs and unpacks every
entry, so line moves win at every n. The Kronecker kernel keeps each
matrix's packed entries for each slot width in its `_packings` slot,
set on its first dense product (never in __init__) and used only while
`entries` is the tuple it packed (see `derivring.rings`).

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
    "probe_x0",
    "commutator",
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

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        require_shape(other, self.ring, self.n)
        return Matrix(self.ring, self.n, self.ring.add_all(self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        require_shape(other, self.ring, self.n)
        return Matrix(self.ring, self.n, self.ring.sub_all(self.entries, other.entries))

    def __neg__(self):
        return Matrix(self.ring, self.n, self.ring.neg_all(self.entries))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self._scaled(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        ring, n = self.ring, self.n
        # `require_shape`'s test, inline on the hot path; it raises there
        if n != other.n or (ring is not other.ring and ring != other.ring):
            require_shape(other, ring, n)
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


def _line_moves(ring, n, s, d, left, out=None):
    """One line move per nonzero of s, a 0/1 operand (Gustavson, ACM
    TOMS 1978): on the left a nonzero s_ik moves row k of d onto row i,
    on the right a nonzero s_kj moves column k of d onto column j, as one
    slice. Without `out` the moves build s d (left=True) or d s in a new
    list, storing a line into an empty target and adding it (`add_all`)
    to a filled one; with `out` they subtract each line from it
    (`sub_all`), leaving out - s d or out - d s. Zero payloads (0 and ())
    are the only falsy ones."""
    # a line starts every `span` entries and steps `step` along itself
    span, step = (n, 1) if left else (1, n)
    end = n * step
    if out is None:
        out, filled, move = _placed(ring, n), [False] * n, ring.add_all
    else:
        filled, move = [True] * n, ring.sub_all
    for idx in compress(range(n * n), s):
        if left:
            i, k = divmod(idx, n)
        else:
            k, i = divmod(idx, n)
        src, dst = k * span, i * span
        line = d[src : src + end : step]
        if filled[i]:
            line = move(out[dst : dst + end : step], line)
        out[dst : dst + end : step] = line
        filled[i] = True
    return out


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


def probe_x0(ring, n):
    """The superdiagonal shift e_{1,2} + e_{2,3} + ... + e_{n-1,n}."""
    if n < 2:
        raise DomainError("the shift probe needs n >= 2")
    cells = (((k, k + 1), ring.one.payload) for k in range(1, n))
    return Matrix(ring, n, tuple(_placed(ring, n, cells)))


def commutator(a, b):
    """[a, b] = ab - ba. For typed a and b, ba = sign (ab)^T with
    sign = a.parity * b.parity, so [a, b] = p - sign p^T with p = ab: one
    product, and the result has parity -sign. From n = `ring.sparse_from`
    on, if b is a 0/1 operand, line moves build ab and then subtract ba
    line by line. Every other pair takes ab - ba."""
    sign = a.parity * b.parity
    if sign:
        return _plus_transpose(a * b, -sign)
    ring, n = a.ring, a.n
    require_shape(b, ring, n)
    if n >= ring.sparse_from:
        size, s = n * n, b.entries
        zeros = s.count(ring.zero.payload)
        if zeros >= size - n and zeros + s.count(ring.one.payload) == size:
            # ab is a s, moved column by column; ba is s a, row by row
            out = _line_moves(ring, n, s, a.entries, False)
            _line_moves(ring, n, s, a.entries, True, out)
            return Matrix(ring, n, tuple(out))
    return a * b - b * a


def symmetric_part(p):
    """(p + p^T)/2, a SymmetricMatrix. For symmetric a and y,
    ya = (ay)^T, so a sum of Jordan products sum(a_k.y_k - b_k.z_k) is
    the symmetric part of sum(a_k y_k - b_k z_k): one symmetrisation for
    the whole sum instead of one per product."""
    return _plus_transpose(p, 1, p.ring.half.payload)


def _plus_transpose(p, sign, scale=None):
    """p + sign p^T, each entry times `scale` if given, as the matrix type
    of parity `sign`. The ring builds the entries mirrored, and the
    type's constructor still checks the property."""
    ring, n = p.ring, p.n
    out = ring.plus_transpose(n, p.entries, sign, scale)
    return (SymmetricMatrix if sign > 0 else SkewMatrix)(ring, n, out)


def jordan_mul(a, b):
    """The Jordan product (ab + ba)/2. For typed a and b, ba = sign (ab)^T
    with sign = a.parity * b.parity, so the product is (p + sign p^T)/2
    with p = ab: one product, and the result has parity sign."""
    sign = a.parity * b.parity
    if not sign:
        return (a * b + b * a) * a.ring.half
    return _plus_transpose(a * b, sign, a.ring.half.payload)
