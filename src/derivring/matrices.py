"""Dense n-by-n matrices over the exact rings: matrix units,
commutators, the Jordan product a.b = (ab + ba)/2, the symmetric
subspace H_n(R) and the skew matrices.

Public row/column indices run from 1 to match the e_{i,j} notation;
storage is 0-based row-major. Each builder checks its dimension (n >= 1)
and its indices through one rule each; z*I, the shift probe x0 and the
sampled x0-commutants are all polynomials in x0, built by the one gather
of `_upper_toeplitz`. `require_shape` is the one check that a map's
argument, or a second operand, is an n x n matrix over the expected
ring. The ring belongs to the matrix: `entries` holds bare canonical
payloads (ints for Z_m, coefficient tuples for Z_m[t]), and the ring
owns the arithmetic on them (see `derivring.rings`): `+`, `-`, negation
and scaling hand whole entry tuples to its tuple ops, and equality
compares payload tuples. One transpose order per n, built once, serves
`transpose`, `is_symmetric` (a^T == a) and `is_skew` (a^T == -a); both
predicates compare the whole tuples. Two more gathers per n, built
once, pass between a symmetric matrix and its n(n+1)/2 entries on and
above the diagonal, row by row: `_upper` reads them and `_mirror`
writes them back to all n*n positions. The symmetric sampler mirrors
its draws, and the tabulated Jordan oracle uses both. The ring's
`plus_transpose` builds (p + sign p^T) * scale mirrored from its upper
triangle. Only `entry` builds a ring element.

`a * b` of two matrices checks their shapes and returns the product
unread (`_Product`). It goes to `ring.matmul(a, b)`, with no scan of its
operands, on the first read of its entries, and its sum or difference
with another unread product cd is one `ring.product_sum(a, b, c, d,
sign)`, which multiplies neither alone: `dx * y + x * dy` is one kernel
call and one unpack per entry. Both, and `ring.commute`, run the ring's
one family of matrix kernels (see `derivring.rings`).
Every product still enters through `Matrix.__mul__`. No commutator forms
a product: `commutator` takes its rule from the shape of its right
operand alone, typed or not. A probe (e_{i,j}, x0) is a partial
permutation, a 0/1 matrix with at most one 1 in each row and each
column. If s has a one at (k, j), column j of a s is column k of a and
row k of s a is row j of a. So on every ring and at every n, [a, s] is
two gathers of `a.entries + (zero,)`, every empty line reading the
appended zero, and one `sub_all`. The gathers are itemgetters built
once per (n, support of s) by `_probe_gathers`. The test is one
`count` of zeros in s, one of ones only when the first qualifies, and,
for the support, the cached check that no two ones share a line.
Every other pair, a probe on the left (which no suite builds) or a
non-one nonzero or two ones in a line (whose product adds or scales
lines, which a gather cannot) included, is one call of the ring's fused
kernel `ring.commute(a, b)`: the entries of ab - ba in one pass.
Measured in us (the least of 40 interleaved repeats of 300 calls,
entries of degree 3 on Z_5[t], CPython 3.11 on a 2-vCPU x86-64 host):
[a, p] for a dense a by gathers / fused kernel, and [s, x] for a dense
skew s and symmetric x by one product and `plus_transpose` / fused
kernel and the SymmetricMatrix check:

         Z_9                                 Z_5[t]
    n    p = e_{1,2} p = x0      [s, x]      p = e_{1,2}  p = x0       [s, x]
    2    1.76/1.29   1.78/1.30   2.02/1.42   3.62/5.56    3.53/5.34    8.10/7.75
    3    2.23/2.18   2.19/2.05   2.62/2.13   4.87/8.99    7.45/9.27   13.89/14.08
    4    2.72/3.50   2.84/3.63   3.62/3.67   6.53/13.33  12.35/13.90  26.51/25.64
    5    3.74/6.42   3.07/5.18   5.18/5.97   7.06/16.93  19.57/20.45  39.91/41.39
    6    4.52/9.09   4.39/8.62   7.04/8.53   9.62/25.52  27.75/29.18  58.35/62.37
    7    5.62/13.54  5.60/13.91  9.16/12.39 12.42/36.17  38.94/40.40  77.06/88.31
    8    7.40/20.54  6.83/19.48 12.32/16.96 14.73/70.08  51.77/65.13 112.57/120.55

For a probe, the fused kernel wins on Z_9 at n = 2 (by about 0.5 us)
and is level with the gathers at n = 3; the gathers win on Z_9 from
n = 4 and on Z_5[t] at every n, so one probe rule serves every ring
and every n. Typed pairs pay for the one shape rule where no workload
looks: the fused kernel wins on Z_9 up to n = 3 and is level on Z_5[t]
up to n = 5, but loses above (59.2 against 32.6 us at n = 12 on Z_9).
The typed brackets of jordan-theorem, all with one skew a, go to
`brackets` instead, one product and `plus_transpose` each. The
Kronecker kernels keep each matrix's packed entries for each slot width
in its `_packings` slot, set on its first kernel call over Z_m[t]
(never in __init__) and used only while `entries` is the tuple it
packed.

Symmetry is a checked type, and checked only there: `SymmetricMatrix`
(a^T = a, `parity` 1) and `SkewMatrix` (a^T = -a, `parity` -1) check
their property in their one constructor; `_TYPE_OF_PARITY` maps each
parity to its type. For typed a and b, ba = sign (ab)^T with
sign = a.parity * b.parity, so [a, b] has the type of parity -sign.
That rule saves a product only in `jordan_mul` ((p + sign p^T)/2 with
p = ab), `symmetric_part`, `jordan.pairs_to_commutator` and `brackets`:
a sum of Jordan products of symmetric matrices is the symmetric part
(q + q^T)/2 of the sum q of their plain products, so `symmetric_part`
symmetrises a whole sum once; and [a, x] = (p - sign p^T) * (-1) with
p = xa, so `brackets` takes every p of one a and many x's from one
product of the x's stacked by rows (`ring.matmul_each`) and mirrors
each, with no type check: the mirrored kernel gives the property.
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
    "brackets",
    "jordan_mul",
    "symmetric_part",
]


class Matrix:
    """Immutable square matrix whose entries all share one ring."""

    # `_packings` is the memo of the packed entries that the PolyRing
    # matrix kernels share; it is set on a matrix's first kernel call,
    # never in __init__
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
        return cls(z.ring, n, _upper_toeplitz(z.ring, n, (z.payload,)))

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
        return _Product(self, other)

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


class _Product(Matrix):
    """The product ab that `Matrix.__mul__` returns, unread: `entries`
    multiplies through `ring.matmul(a, b)` on its first read and keeps
    the payloads. Until then, its sum or difference with another unread
    product cd is one `ring.product_sum(a, b, c, d, sign)`, and neither
    product is multiplied alone; with anything else it reads itself and
    takes the plain `+` or `-`. Copies and pickles are plain matrices."""

    __slots__ = ("_operands", "_entries")

    def __init__(self, a, b):
        # a and b passed `Matrix.__mul__`'s shape check
        self.ring = a.ring
        self.n = a.n
        self._operands = (a, b)
        self._entries = None

    @property
    def entries(self):
        entries = self._entries
        if entries is None:
            a, b = self._operands
            entries = self._entries = self.ring.matmul(a, b)
        return entries

    def __add__(self, other):
        if type(other) is _Product and self._entries is None and other._entries is None:
            return self._product_sum(other, 1)
        return Matrix.__add__(self, other)

    def __sub__(self, other):
        if type(other) is _Product and self._entries is None and other._entries is None:
            return self._product_sum(other, -1)
        return Matrix.__sub__(self, other)

    def _product_sum(self, other, sign):
        ring, n = self.ring, self.n
        require_shape(other, ring, n)
        (a, b), (c, d) = self._operands, other._operands
        return Matrix(ring, n, ring.product_sum(a, b, c, d, sign))

    def __reduce__(self):
        return Matrix, (self.ring, self.n, self.entries)


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


def _upper_toeplitz(ring, n, c):
    """The one builder of R[x0], the centraliser of the shift probe x0:
    the row-major entries of c_0 + c_1 x0 + ..., with c[j - i] at (i, j)
    for j >= i and zero below the diagonal and wherever c has no entry.
    c = (z,) gives z*I, c = (0, 1) gives x0, and the samplers draw c."""
    zero = ring.zero.payload
    return _toeplitz(_require_dimension(n))(c + (zero,) * (n + 1 - len(c)))


@cache
def _mirror(n):
    """The map from the n(n+1)/2 entries (i, j), j >= i, of a symmetric
    matrix, row by row, to its n*n row-major entries, built once per n."""
    # (i, j) with i <= j sits after the i earlier rows of n, n-1, ... entries
    start = [i * n - i * (i - 1) // 2 - i for i in range(n)]
    return _gather([start[min(i, j)] + max(i, j) for i in range(n) for j in range(n)])


@cache
def _upper(n):
    """The map from the n*n row-major entries of a matrix to its n(n+1)/2
    entries (i, j), j >= i, row by row, built once per n: the inverse of
    `_mirror(n)` on a symmetric matrix."""
    return _gather([i * n + j for i in range(n) for j in range(i, n)])


@cache
def _toeplitz(n):
    """The map from (c_0, ..., c_{n-1}, 0) to the row-major entries of the
    upper-triangular Toeplitz matrix of c, built once per n: (i, j) takes
    c_{j-i} for j >= i and the trailing zero below the diagonal."""
    return _gather([j - i if j >= i else n for i in range(n) for j in range(n)])


@cache
def _probe_gathers(n, support):
    """The two maps that give a s and s a from `a.entries + (zero,)`, for
    the n x n 0/1 operand s whose ones sit at the row-major positions
    `support`, built once per (n, support); None unless s is a partial
    permutation (no two ones in one row or one column). A one at (k, j)
    makes column j of a s column k of a, and row k of s a row j of a;
    every other line of either product reads the appended zero, at
    position n*n."""
    size = n * n
    ab, ba = [size] * size, [size] * size
    rows, cols = set(), set()
    for idx in support:
        k, j = divmod(idx, n)
        if k in rows or j in cols:
            return None
        rows.add(k)
        cols.add(j)
        ab[j::n] = range(k, size, n)
        ba[k * n : k * n + n] = range(j * n, j * n + n)
    return _gather(ab), _gather(ba)


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


_TYPE_OF_PARITY = {cls.parity: cls for cls in (Matrix, SymmetricMatrix, SkewMatrix)}


def matrix_unit(ring, n, i, j):
    """e_{i,j}: 1 at (i, j) and 0 elsewhere."""
    out = [ring.zero.payload] * (_require_dimension(n) * n)
    out[_index(n, i, j)] = ring.one.payload
    return Matrix(ring, n, tuple(out))


def probe_x0(ring, n):
    """The superdiagonal shift e_{1,2} + e_{2,3} + ... + e_{n-1,n}."""
    if n < 2:
        raise DomainError("the shift probe needs n >= 2")
    c = (ring.zero.payload, ring.one.payload)
    return Matrix(ring, n, _upper_toeplitz(ring, n, c))


def commutator(a, b):
    """[a, b] = ab - ba, by the shape of b alone, typed or not: two
    gathers of a's entries and one `sub_all` if b is a partial
    permutation (a probe: at most one 1 in each row and each column, 0
    elsewhere; see `_probe_gathers`), one fused `ring.commute` otherwise;
    no product. The result has the checked type of parity
    -a.parity * b.parity; the one-product parity rule serves only
    `jordan_mul`, `symmetric_part`, `brackets` (many x's against one a)
    and `jordan.pairs_to_commutator`."""
    ring, n = a.ring, a.n
    require_shape(b, ring, n)
    kind = _TYPE_OF_PARITY[-a.parity * b.parity]
    size, s = n * n, b.entries
    zeros = s.count(ring.zero.payload)
    if zeros >= size - n and zeros + s.count(ring.one.payload) == size:
        # the ones of b; zero payloads (0 and ()) are the only falsy ones
        gathers = _probe_gathers(n, tuple(compress(range(size), s)))
        if gathers is not None:
            ab, ba = gathers
            ext = a.entries + (ring.zero.payload,)
            return kind(ring, n, ring.sub_all(ab(ext), ba(ext)))
    return kind(ring, n, ring.commute(a, b))


def brackets(a, xs):
    """[a, x] for each x of the sequence xs, as plain matrices, from one
    stacked product: a and every x must be typed (DomainError otherwise).
    With sign = a.parity * x.parity, ax = sign (xa)^T, so
    [a, x] = (p - sign p^T) * (-1) with p = xa. One `ring.matmul_each`
    gives every p, and `ring.plus_transpose` mirrors each (`_mirrored(n,
    -sign)`), so each result r has r^T = -sign r by construction and no
    constructor checks it. Both are kernels that `jordan_mul` and
    `jordan.pairs_to_commutator` build; the Jordan theorem's reference
    side is one call (see `jordan.verify_jordan_theorem`)."""
    ring, n, parity = a.ring, a.n, a.parity
    for x in xs:
        # `require_shape`'s test, inline on the hot path; it raises there
        if x.n != n or (x.ring is not ring and x.ring != ring):
            require_shape(x, ring, n)
    signs = [parity * x.parity for x in xs]
    if not all(signs):
        raise DomainError("brackets needs symmetric or skew operands")
    if not signs:
        return []
    blocks = zip(*[iter(ring.matmul_each(xs, a))] * (n * n))  # one p per x
    mirror, scale = ring.plus_transpose, ring.neg(ring.one.payload)
    return [Matrix(ring, n, mirror(n, p, -sign, scale)) for p, sign in zip(blocks, signs)]


def symmetric_part(p):
    """(p + p^T)/2, a SymmetricMatrix. For symmetric a_k, b_k, y_k and
    z_k it is sum(a_k.y_k - b_k.z_k) when p = sum(a_k y_k - b_k z_k)
    (ya = (ay)^T): one symmetrisation for the whole sum, not one per term."""
    return _plus_transpose(p, 1, p.ring.half.payload)


def _plus_transpose(p, sign, scale):
    """(p + sign p^T) * scale, built mirrored by the ring, as the matrix
    type of parity `sign`, whose constructor still checks the property."""
    ring, n = p.ring, p.n
    out = ring.plus_transpose(n, p.entries, sign, scale)
    return _TYPE_OF_PARITY[sign](ring, n, out)


def jordan_mul(a, b):
    """The Jordan product (ab + ba)/2. For typed a and b, ba = sign (ab)^T
    with sign = a.parity * b.parity, so the product is (p + sign p^T)/2
    with p = ab: one product, and the result has parity sign."""
    sign = a.parity * b.parity
    if not sign:
        return (a * b + b * a) * a.ring.half
    return _plus_transpose(a * b, sign, a.ring.half.payload)
