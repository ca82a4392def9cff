"""Exact arithmetic in commutative unital rings where 2 is invertible.

Two rings are available: Z_m for odd m >= 3, and the polynomial ring
Z_m[t] on top of such a base. A value is a canonical payload (a residue
in [0, m), or a little-endian coefficient tuple with no trailing zeros),
so equality of values is equality of payloads and nothing ever rounds.

The ring owns the arithmetic, written once on payloads: the scalar ops
`add`, `sub`, `neg` and `mul`; their whole-tuple forms `add_all`,
`sub_all`, `neg_all` and `scale_all` over equal-length payload tuples;
and, each returning payloads, `matmul(a, b)`, `commute(a, b)` and
`product_sum(a, b, c, d, sign)` (of ab, of ab - ba and of ab + sign cd
for n x n matrices, row-major, one kernel call each),
`matmul_each(xs, b)` (of xb for every x of xs, concatenated, in one
kernel call on the stacked rows; `derivring.matrices.brackets` makes one
per Jordan instance),
`plus_transpose(n, entries, sign, scale)` (of (p + sign p^T) * scale)
and `matvec(table, v)` (of M v for a payload tuple v and the matrix M of
len(v) columns whose payloads `table` holds flat, row-major; the
tabulated Jordan oracle makes one per call, see `derivring.jordan`).
Matrices store bare payloads and hand whole entry tuples to the tuple
ops: Z_m runs `_entrywise(size, op)` on the residues, and Z_m[t] maps
its scalar ops. Z_m[t] has exactly two kinds of arithmetic:
- the Z_m kernels, coefficient by coefficient: `add`, `sub` and `neg`;
  and plane by plane, where plane k holds coefficient k of every entry
  of a matrix: `plus_transpose` (`_mirrored`) and the derivation lift
  `BaseDerivation.on_payloads`, through the `_ENTRYWISE` rules `weigh`
  (s_k a_k), `lift` (s_k a_k + u b_k) and `add_scaled` (a_k + u b_k);
- Kronecker substitution (below): `mul`, `matmul`, `matmul_each`,
  `commute`, `product_sum` and `matvec`.
A zero operand of `add` or `sub` gives the other back (negated, when it
is the right operand of `sub`); any other sum or difference is one
`_entrywise` call on the coefficient tuples, the shorter padded with
zeros, and `_strip` copies it only when its top coefficient cancelled.
`plus_transpose` sums each pair above the diagonal once and mirrors it,
through `_mirrored(n, sign)`. Its scale is a unit constant, so on
Z_m[t] the map is Z_m-linear: it runs once per coefficient plane, and
each result is stripped. Every matrix product goes to `matmul` on its
first read, and a sum or difference of two unread products to one
`product_sum`; every commutator goes to `commute` or, with a partial
permutation on the right, to two gathers and one `sub_all` (see
`derivring.matrices`). A
`RingElement` pairs a payload with its ring only where the scalar API
hands one out (`ring.element`, `ring.sample`, `Matrix.entry`), and its
operators call the same ring ops behind one ring-mismatch check.
Rings, elements and base derivations are read-only (see `_ReadOnly`).

Random values come from one path, `draw(rng, count, max_degree)`, which
returns a tuple of `count` payloads; `sample` is `draw` of one, wrapped.
Z_m draws exactly what `count` calls of `rng.randrange(m)` draw: the
rejection loop of CPython's `_randbelow` (`getrandbits(k)` with
k = m.bit_length() until the value is below m) over all `count` values
in one C-level iterator chain. Z_m[t] takes count * (max_degree + 1)
coefficients from one base draw and strips each chunk. So a seed gives
the values that one `randrange` per coefficient gives, and the tests
pin that against a literal per-coefficient reference.

Every kernel is Python source generated from its cache key alone and
compiled on first use. It unpacks each operand into locals once and
computes each entry as one straight-line expression over them, with no
call per entry. `_straight_line` writes `_entrywise(size, op)` and
`_mirrored(n, sign)`, each returning one tuple literal. Z_m[t] builds an
`_entrywise` kernel for each coefficient length that its `add`, `sub`
and `neg` meet; the lift's are keyed by the number of entries alone,
whatever their lengths. Every matrix kernel of both rings is one family,
`_product_sums(n, sign, reduced, cols)`, one tuple of cols sums (n
unless given) per row of its operands: ab for sign 0 (`matmul`, and
`matmul_each` with the rows of several a's stacked),
ab + sign cd for sign 1 or -1 (`product_sum`), ab - ba as (a, b, b, a)
with sign -1 (`commute`), and M v as its one-column case, sign 0 and
cols = 1 with n = len(v) (`matvec`).
Z_m runs it reduced, each sum ending in % m, so that it returns the
residues; Z_m[t] runs it raw on packed ints.

Z_m[t] multiplies by Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
polynomial is packed into one int with a `bits`-wide slot per
coefficient (`_pack`), the packed ints are multiplied and summed, and
each result is unpacked once, every slot reduced mod m and trailing
zeros stripped (a leading term can vanish mod a composite m: 3t * 3t = 0
in Z_9[t]). Its `matmul`, `matmul_each`, `commute` and `product_sum`
run one body, `PolyRing._kronecker`; `matmul_each` packs every x at one
plan, for the longest entry of any of them. The kernel's slot plan,
`_slots`, gives the width at which no slot carries into the next
(`_slot_bound`, `_slot_bits`) and the bias that keeps a difference's
slots from borrowing. Each operand is packed at that width once per
matrix (`_packings`), the kernel sums, and
`_unpacked` adds the bias and reads every sum: byte slots through one
`translate` by the table of v % m, two-byte slots (`_two_byte`) all in
one pass of `_planes`, and any other width one shift per slot
(`_unpack`). A negative sum, a slot that borrowed, raises ContractError
on every path. `mul` is the case n = 1, except that a zero operand gives
zero, and `matvec` packs v and the whole table, on every call, at the
width of a len(v)-term dot product and runs the one-column kernel.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, islice, repeat, zip_longest

from .errors import ContractError, DomainError, InvalidRing

__all__ = [
    "Zmod",
    "PolyRing",
    "RingElement",
    "ZmodElement",
    "PolyElement",
    "BaseDerivation",
    "same_ring",
]


def same_ring(a, b):
    """The ring that a and b (elements, matrices, derivations) share;
    DomainError if they are over different rings."""
    ring = a.ring
    if ring is not b.ring and ring != b.ring:
        raise DomainError(f"ring mismatch: {ring} vs {b.ring}")
    return ring


class _ReadOnly:
    """Each slot of a ring, element or base derivation is set once, by its
    constructor (or by copy and pickle, into a new object): a later write
    or delete raises AttributeError, so no value can change under the
    matrices and records that share it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class RingElement(_ReadOnly):
    """A canonical payload of a ring, paired with that ring; the ring
    carries the arithmetic."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        # Trusted constructor: `payload` must already be canonical for
        # `ring`. Callers outside this module go through ring.element(),
        # or ring.wrap() for a payload already known to be canonical. The
        # slots are empty, so they skip the read-only `__setattr__` and its
        # failed lookup (0.5 against 1.4 µs per element, timeit).
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", payload)

    def is_zero(self):
        return not self.payload

    def half(self):
        """The unique h with h + h == self (2 is invertible here)."""
        return self * self.ring.half

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = same_ring(self, other)
        return self.__class__(ring, ring.add(self.payload, other.payload))

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = same_ring(self, other)
        return self.__class__(ring, ring.sub(self.payload, other.payload))

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = same_ring(self, other)
        return self.__class__(ring, ring.mul(self.payload, other.payload))

    def __neg__(self):
        return self.__class__(self.ring, self.ring.neg(self.payload))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.payload == other.payload
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.ring, self.payload))

    def __repr__(self):
        return f"{self.ring.format_payload(self.payload)} in {self.ring}"


# Each ring's element class binds the shared operators in its own
# namespace, so that one ring's scalar ops can be wrapped on their own.
_OPERATORS = (
    RingElement.__add__,
    RingElement.__sub__,
    RingElement.__mul__,
    RingElement.__neg__,
)


class ZmodElement(RingElement):
    __slots__ = ()
    __add__, __sub__, __mul__, __neg__ = _OPERATORS


class PolyElement(RingElement):
    __slots__ = ()
    __add__, __sub__, __mul__, __neg__ = _OPERATORS


def _strip(coeffs):
    """The tuple of `coeffs` without trailing zeros; a tuple whose top
    coefficient is nonzero comes back as it is, uncopied."""
    if coeffs and coeffs[-1]:
        return tuple(coeffs)
    if not any(coeffs):
        return ()
    top = len(coeffs) - 2  # the last coefficient is zero, and some other is not
    while not coeffs[top]:
        top -= 1
    return tuple(coeffs[: top + 1])


def _slot_bound(n, la, lb, m):
    """The largest coefficient that an n-term dot product of polynomials
    with at most la and lb coefficients can reach, n * min(la, lb) *
    (m - 1)**2. An all-zero side (la or lb = 0) counts as one
    coefficient, so that the other side's coefficients still fit their
    slots."""
    return n * max(min(la, lb), 1) * (m - 1) ** 2


def _two_byte(bits, m):
    """Whether slots of width `bits` are reduced mod m a byte plane at a
    time (see `_unpacked`): the width is 16 and the pair rule
    (m - 1) * (1 + 256 % m) < 256 holds, so that a slot's two bytes,
    each reduced mod m, fold into one byte as lo + (256 % m) * hi. Among
    odd m < 256 the rule holds for m <= 25 and for 51 and 85. Both the
    rounding in `_slot_bits` and the choice of path in `_unpacked` ask
    this one function, so they cannot disagree: where the rule fails, an
    exact 16-bit width (Z_61[t] at n = 4 and degree 3) takes the shift
    path."""
    return bits == 16 and (m - 1) * (1 + 256 % m) < 256


def _slot_bits(n, la, lb, m, bias=0):
    """Slot width for such dot products with `bias` added to each slot:
    the bit length of bias + `_slot_bound`, the largest value a slot can
    hold. A width of at most 8 bits (a largest value below 256, so
    m <= 15) is packed in byte slots. A width of 9 to 15 bits is rounded
    up to 16 where `_two_byte` holds at 16, so that its slots unpack by
    byte planes."""
    bits = (bias + _slot_bound(n, la, lb, m)).bit_length()
    return 16 if 8 < bits < 16 and _two_byte(16, m) else bits


@cache
def _residues(m):
    """The 256-byte table of v % m, built on first use for each m."""
    return bytes([v % m for v in range(256)])


def _pack(coeffs, bits):
    """Kronecker substitution: the polynomial evaluated at t = 2**bits,
    or at t = 256 when bits <= 8, one byte per coefficient. `mul` packs
    every nonzero operand, `PolyRing._kronecker` every entry, `_slots` a
    difference's bias, and `matvec` every entry of v and of the table."""
    if bits <= 8:
        return int.from_bytes(bytes(coeffs), "little")
    packed = 0
    for c in reversed(coeffs):
        packed = packed << bits | c
    return packed


def _negative(packed):
    """The error for a negative packed sum. A correct bias keeps every
    sum non-negative, so such a sum is a fault in the packing, and no
    unpacking path may read it (the shift loop would never end)."""
    return ContractError(f"negative packed sum {packed}: a slot borrowed")


def _unpack(packed, bits, m):
    """The canonical payload of a packed sum of products: slot k is
    coefficient k, reduced mod m; trailing zeros are stripped. Byte
    slots (bits <= 8) take one `to_bytes`, one `translate` through the
    table of v % m and one `rstrip`; wider slots one shift per slot,
    two-byte slots included: on one short sum the loop costs less than
    the fixed cost of `_planes`. A negative sum raises ContractError."""
    if packed < 0:
        raise _negative(packed)
    if bits <= 8:
        raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        return tuple(raw.translate(_residues(m)).rstrip(b"\0"))
    mask = (1 << bits) - 1
    coeffs = []
    while packed:
        coeffs.append((packed & mask) % m)
        packed >>= bits
    return _strip(coeffs)


def _planes(sums, m):
    """The payloads of the packed `sums` at two-byte slots, in one pass
    over all of them: each sum is laid out in the same number of bytes,
    two per slot, and the bytes are joined and reduced through the table
    of v % m. The low and the high byte planes, read as ints, fold into
    one, lo + (256 % m) * hi, whose every byte is below 256 by the pair
    rule (so no byte carries) and is congruent to its slot mod m; one
    more reduction through the table makes each byte its slot's
    residue. Each sum's run of bytes is then sliced out and stripped of
    trailing zeros."""
    low = min(sums)
    if low < 0:
        raise _negative(low)
    size = (max(sums).bit_length() + 15) // 16  # slots per sum
    if not size:
        return ((),) * len(sums)
    table = _residues(m)
    raw = b"".join([s.to_bytes(2 * size, "little") for s in sums]).translate(table)
    lo, hi = int.from_bytes(raw[::2], "little"), int.from_bytes(raw[1::2], "little")
    slots = (lo + 256 % m * hi).to_bytes(len(raw) // 2, "little").translate(table)
    return tuple([
        tuple(slots[i : i + size].rstrip(b"\0")) for i in range(0, len(slots), size)
    ])


def _packings(x):
    """The memo of an operand of a `PolyRing` matrix kernel: its entries,
    their longest length and a dict from slot width to the packed
    entries. The matrix holds it in its `_packings` slot, set on its
    first kernel call and valid while `entries` is the tuple it was made
    from (a plain matrix's `entries` is a writable slot, so a reassigned
    matrix gets a new memo)."""
    entries = x.entries
    memo = getattr(x, "_packings", None)
    if memo is None or memo[0] is not entries:
        memo = x._packings = (entries, max(map(len, entries)), {})
    return memo


def _packed(memo, bits):
    """The entries of `memo` packed at slot width `bits`, packed on the
    first request for that width. A list of memos is a row-stacked
    operand (`matmul_each`): the packed entries of each, concatenated."""
    if type(memo) is list:
        return [p for one in memo for p in _packed(one, bits)]
    entries, _, widths = memo
    packed = widths.get(bits)
    if packed is None:
        packed = widths[bits] = [_pack(p, bits) for p in entries]
    return packed


@cache
def _slots(n, sign, la, lb, m):
    """The slot width and the packed bias of a `PolyRing` matrix kernel
    over entries of at most la and lb coefficients: sign 0 for one
    product, 1 for ab + cd and -1 for ab - cd. A product's slots hold at
    most B = `_slot_bound(n, la, lb, m)` and those of ab + cd, a 2n-term
    dot product, at most 2B: only the sum takes that width, and a product
    read alone keeps the width of its own B (at n = 2 and degree 3 on
    Z_5[t], B = 128 packs bytes and 2B = 256 two-byte slots). Those of
    ab - cd lie in [-B, B], and a negative slot would borrow from the
    next, so each of their la + lb - 1 slots takes the bias
    K = m * ceil(B / m), laid out by `_pack` itself and so at the
    packing's real spacing (8 bits on byte slots, whatever the width).
    Each slot then lies in [0, K + B] and is packed at the width of
    K + B; K = 0 mod m, so every slot is reduced as a product's is. The
    bias of the others is 0. Cached: the plan depends on its arguments
    alone, so each bias is packed once."""
    if sign >= 0:
        return _slot_bits(2 * n if sign else n, la, lb, m), 0
    bound = _slot_bound(n, la, lb, m)
    bias = bound + -bound % m
    bits = _slot_bits(n, la, lb, m, bias)
    return bits, _pack((bias,) * (la + lb - 1), bits)


def _unpacked(sums, bits, offset, m):
    """The payloads of the packed `sums` of a matrix kernel, each with
    the packed bias `offset` added: at two-byte slots (`_two_byte`) all
    in one pass of `_planes`, at any other width each by `_unpack`."""
    if offset:
        sums = [s + offset for s in sums]
    if _two_byte(bits, m):
        return _planes(sums, m)
    return tuple([_unpack(s, bits, m) for s in sums])


def _compiled(name, label, source):
    """The function `name` defined by the generated `source`, compiled
    under the file name `<label>` that tracebacks and profiles show."""
    namespace = {}
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace[name]


def _straight_line(name, params, operands, size, outputs):
    """The kernel `def name(params)` as straight-line code: each operand
    named in `operands` is unpacked into `size` locals once (operand a
    into a0, a1, ...; none at size 0), and one tuple literal of the
    `outputs` expressions is returned."""
    lines = [f"def {name}({params}):\n"]
    if size:
        for x in operands:
            lines.append(f"    {', '.join([f'{x}{k}' for k in range(size)])}, = {x}\n")
    # a comma after each output, so one output is a tuple and none is ()
    lines.append(f"    return ({''.join([f'{e}, ' for e in outputs])})\n")
    return _compiled(name, f"{name}, size={size}", "".join(lines))


@cache
def _product_sums(n, sign, reduced=False, cols=None):
    """The matrix kernel of both rings, built once per (n, sign, reduced,
    cols): the map from the row-major entries (tuples or lists of ints)
    of the matrices a and b, and for sign 1 or -1 also c and d, to the
    entries of ab, for sign 0, or of ab + sign cd, row-major, in one
    pass. b and d are n x cols, and a and c have n columns and as many
    rows as they hold; cols defaults to n, the n x n case of every matrix
    op, and cols = 1 is `matvec`. Item i*cols + j is the sum over k of
    x_k b_kj (+ sign z_k d_kj), where x and z are row i of a and of c.
    Its source is O(n cols): b (and d) are unpacked into n*cols locals
    once, b0, b1, ..., and each pass of the loop zips the next row of a
    (and of c) into n locals, x0, ..., x{n-1} (z0, ...), and appends that
    row's cols sums. Raw (`PolyRing`'s packed ints), the kernel returns
    the list of plain sums, which a difference can make negative; reduced
    (`Zmod`), it takes the modulus m as its last argument, ends each sum
    in % m and returns the tuple of residues. The commutator ab - ba is
    the case (a, b, b, a), sign -1."""
    cols = n if cols is None else cols
    # (operand zipped by rows, its row's locals, operand unpacked whole)
    pairs = [("a", "x", "b"), ("c", "z", "d")][: 2 if sign else 1]
    op = "+" if sign > 0 else "-"
    sums = [
        " + ".join([f"x{k} * b{k * cols + j}" for k in range(n)])
        + "".join([f" {op} z{k} * d{k * cols + j}" for k in range(n) if sign])
        for j in range(cols)
    ]
    if reduced:
        sums = [f"({s}) % m" for s in sums]
    params = [x for r, _, w in pairs for x in (r, w)] + (["m"] if reduced else [])
    row = ", ".join([f"{x}{k}" for _, x, _ in pairs for k in range(n)])
    rows_in = ", ".join([f"i{r}" for r, _, _ in pairs for _ in range(n)])
    lines = [f"def product_sums({', '.join(params)}):\n"]
    for _, _, w in pairs:
        lines.append(f"    {', '.join([f'{w}{k}' for k in range(n * cols)])}, = {w}\n")
    lines += [f"    i{r} = iter({r})\n" for r, _, _ in pairs]
    lines += [
        "    out = []\n",
        f"    for {row}, in zip({rows_in}):\n",
        f"        out += ({', '.join(sums)},)\n",
        f"    return {'tuple(out)' if reduced else 'out'}\n",
    ]
    label = f"product_sums, n={n}, sign={sign}"
    if cols != n:
        label += f", cols={cols}"
    return _compiled("product_sums", label, "".join(lines))


# op -> (parameters, operands, entry k): the Z_m tuple ops on residues,
# and the three plane rules of the derivation lift (`on_payloads`)
_ENTRYWISE = {
    "add": ("a, b, m", ("a", "b"), "(a{k} + b{k}) % m"),
    "sub": ("a, b, m", ("a", "b"), "(a{k} - b{k}) % m"),
    "neg": ("a, m", ("a",), "-a{k} % m"),
    "scale": ("s, a, m", ("a",), "s * a{k} % m"),
    "weigh": ("s, a, m", ("s", "a"), "s{k} * a{k} % m"),
    "lift": ("s, a, u, b, m", ("s", "a", "b"), "(s{k} * a{k} + u * b{k}) % m"),
    "add_scaled": ("a, u, b, m", ("a", "b"), "(a{k} + u * b{k}) % m"),
}


@cache
def _entrywise(size, op):
    """The Z_m tuple-op kernel, built once per (size, op): for op "add"
    or "sub" the map (a, b, m) to the residues of a_k + b_k or a_k - b_k,
    for "neg" (a, m) to those of -a_k, for "scale" (s, a, m) to those of
    s a_k, and for the lift's "weigh" (s, a, m), "lift" (s, a, u, b, m)
    and "add_scaled" (a, u, b, m) to those of s_k a_k, s_k a_k + u b_k
    and a_k + u b_k, over operands (tuples or lists) of `size` residues
    each and int scalars u. It passes `_straight_line` the op's
    `_ENTRYWISE` rule at each k as the outputs, so size 0 returns ()."""
    params, operands, rule = _ENTRYWISE[op]
    outputs = [rule.format(k=k) for k in range(size)]
    return _straight_line(f"{op}_all", params, operands, size, outputs)


@cache
def _mirrored(n, sign):
    """The symmetrisation kernel of both rings, built once per (n, sign):
    the map from the row-major residues p of an n x n matrix (on Z_m[t],
    one coefficient plane), a scale s and the modulus m to the residues
    of (p + sign p^T) s. It passes `_straight_line` the n*n entries in
    row-major order: for i < j, (u_ij := (p_ij + sign p_ji) s mod m),
    bound where the order first reaches the pair; its mirror (j, i) comes
    later and reads u_ij, negated mod m when sign is -1. A diagonal entry
    is 2 p_ii s mod m, with (d := 2 s) in entry (0, 0), or 0 when sign is
    -1. No pair is summed twice."""
    op = "+" if sign > 0 else "-"
    outputs = []
    for i in range(n):
        for j in range(n):
            if i < j:
                ij, ji = i * n + j, j * n + i
                outputs.append(f"(u{ij} := (p{ij} {op} p{ji}) * s % m)")
            elif i > j:
                u = f"u{j * n + i}"
                outputs.append(u if sign > 0 else f"-{u} % m")
            elif sign > 0:
                d = "(d := 2 * s)" if i == 0 else "d"
                outputs.append(f"p{i * n + i} * {d} % m")
            else:
                outputs.append("0")
    name = "plus_transpose" if sign > 0 else "minus_transpose"
    return _straight_line(name, "p, s, m", ("p",), n * n, outputs)


class Zmod(_ReadOnly):
    """The ring Z_m with m odd and >= 3, so that 2 has an inverse.
    Payloads are the residues 0..m-1."""

    __slots__ = ("modulus", "zero", "one", "half")

    def __init__(self, modulus):
        if isinstance(modulus, bool) or not isinstance(modulus, int):
            raise InvalidRing(
                f"modulus must be an integer, got {type(modulus).__name__}"
            )
        if modulus < 3 or modulus % 2 == 0:
            raise InvalidRing(
                f"Z_{modulus} is rejected: the modulus must be odd and >= 3 "
                "so that 2 is invertible"
            )
        self.modulus = modulus
        self.zero = ZmodElement(self, 0)
        self.one = ZmodElement(self, 1)
        self.half = ZmodElement(self, pow(2, -1, modulus))

    def element(self, value):
        """Canonicalize an integer (or an element of this ring) into a value."""
        if isinstance(value, ZmodElement) and value.ring == self:
            return value
        return ZmodElement(self, self._residue(value))

    def _residue(self, value):
        """`value` mod m, the one value rule of Z_m and of the coefficients
        of Z_m[t]: DomainError unless `value` is an int and not a bool."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(
                f"Z_{self.modulus} values are integers, got {type(value).__name__}"
            )
        return value % self.modulus

    def wrap(self, payload):
        """The element with the canonical `payload` (trusted)."""
        return ZmodElement(self, payload)

    def draw(self, rng, count, max_degree=0):
        """`count` residues from the random.Random `rng`, drawn exactly
        as `count` calls of `rng.randrange(m)` draw them: each takes
        `getrandbits(k)`, k = m.bit_length(), until a value is below m.
        So the residues are the first `count` values below m in the one
        stream of getrandbits(k) calls, and `islice` stops on the last of
        them without taking another. Residues have no degree;
        `max_degree` is ignored."""
        m = self.modulus
        below = filter(m.__gt__, map(rng.getrandbits, repeat(m.bit_length())))
        return tuple(islice(below, count))

    def sample(self, rng, max_degree=0):
        return ZmodElement(self, self.draw(rng, 1)[0])

    def format_payload(self, payload):
        return str(payload)

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    # the tuple ops run the straight-line kernels of `_entrywise`; a and
    # b have equal length, as `require_shape` guarantees for matrices
    def add_all(self, a, b):
        return _entrywise(len(a), "add")(a, b, self.modulus)

    def sub_all(self, a, b):
        return _entrywise(len(a), "sub")(a, b, self.modulus)

    def neg_all(self, a):
        return _entrywise(len(a), "neg")(a, self.modulus)

    def scale_all(self, s, a):
        return _entrywise(len(a), "scale")(s, a, self.modulus)

    def matmul(self, a, b):
        """The payloads of the product of the n x n matrices a and b: the
        n*n dot products of the reduced `_product_sums(n, 0, True)`,
        summed in plain ints and each reduced mod m once inside the
        kernel."""
        return _product_sums(a.n, 0, True)(a.entries, b.entries, self.modulus)

    def matmul_each(self, xs, b):
        """The payloads of xb for each n x n matrix x of the non-empty
        sequence xs, concatenated in order: one call of the reduced
        `_product_sums(n, 0, True)`, whose row loop takes the rows of
        every x, stacked, as one left operand."""
        stacked = chain.from_iterable([x.entries for x in xs])
        return _product_sums(b.n, 0, True)(stacked, b.entries, self.modulus)

    def commute(self, a, b):
        """The payloads of ab - ba for the n x n matrices a and b: the
        `_product_sums(n, -1, True)` kernel on (a, b, b, a), summed in
        plain ints and each reduced mod m once inside the kernel."""
        ea, eb = a.entries, b.entries
        return _product_sums(a.n, -1, True)(ea, eb, eb, ea, self.modulus)

    def product_sum(self, a, b, c, d, sign):
        """The payloads of ab + sign cd for the n x n matrices a, b, c and
        d, sign 1 or -1: the n*n entries of the reduced
        `_product_sums(n, sign, True)`, summed in plain ints and each
        reduced mod m once inside the kernel."""
        kernel = _product_sums(a.n, sign, True)
        return kernel(a.entries, b.entries, c.entries, d.entries, self.modulus)

    def plus_transpose(self, n, entries, sign, scale):
        """The payloads of (p + sign p^T) * scale for the row-major
        payloads `entries` of an n x n matrix p, sign 1 or -1, summed
        once per pair above the diagonal and mirrored (see `_mirrored`)."""
        return _mirrored(n, sign)(entries, scale, self.modulus)

    def matvec(self, table, v):
        """The payloads of M v for the payload tuple v and the matrix M of
        len(v) columns whose payloads `table` holds flat, row-major: the
        one-column kernel `_product_sums(len(v), 0, True, 1)`, each row's
        dot product with v summed in plain ints and reduced mod m once
        inside the kernel."""
        return _product_sums(len(v), 0, True, 1)(table, v, self.modulus)

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("zmod", self.modulus))

    def __repr__(self):
        return f"Zmod({self.modulus})"

    def __str__(self):
        return f"Z_{self.modulus}"


class PolyRing(_ReadOnly):
    """Z_m[t]: polynomials over a Zmod base, any degree.

    Payloads are coefficient tuples, constant term first, trailing zeros
    stripped; the zero polynomial is the empty tuple.
    """

    __slots__ = ("base", "zero", "one", "half", "t")

    def __init__(self, base):
        if not isinstance(base, Zmod):
            raise InvalidRing(
                f"polynomial rings need a Zmod base, got {type(base).__name__}"
            )
        self.base = base
        self.zero = PolyElement(self, ())
        self.one = PolyElement(self, (1,))
        self.half = PolyElement(self, (base.half.payload,))
        self.t = PolyElement(self, (0, 1))

    def element(self, value):
        """Canonicalize an int (constant) or coefficient sequence into a
        value; each coefficient passes the base's `_residue`."""
        if isinstance(value, PolyElement) and value.ring == self:
            return value
        coeffs = value if isinstance(value, (list, tuple)) else [value]
        return PolyElement(self, _strip(list(map(self.base._residue, coeffs))))

    def wrap(self, payload):
        """The element with the canonical `payload` (trusted)."""
        return PolyElement(self, payload)

    def draw(self, rng, count, max_degree=3):
        """`count` polynomials of degree at most `max_degree`, one call to
        the base's `draw` for all count * (max_degree + 1) coefficients:
        chunk by chunk, constant term first, each stripped of trailing
        zeros. The stream is the one that drawing each coefficient by
        `rng.randrange(m)` would take."""
        if max_degree < 0:
            raise DomainError("max_degree must be >= 0")
        size = max_degree + 1
        flat = self.base.draw(rng, count * size)
        chunks = (flat[i : i + size] for i in range(0, count * size, size))
        return tuple(map(_strip, chunks))

    def sample(self, rng, max_degree=3):
        return PolyElement(self, self.draw(rng, 1, max_degree)[0])

    def add(self, a, b):
        if not b:
            return a
        if not a:
            return b
        la, lb = len(a), len(b)
        if la < lb:
            a += (0,) * (lb - la)
        elif lb < la:
            b += (0,) * (la - lb)
        return _strip(_entrywise(len(a), "add")(a, b, self.base.modulus))

    def sub(self, a, b):
        if not b:
            return a
        if not a:
            return self.neg(b)
        la, lb = len(a), len(b)
        if la < lb:
            a += (0,) * (lb - la)
        elif lb < la:
            b += (0,) * (la - lb)
        return _strip(_entrywise(len(a), "sub")(a, b, self.base.modulus))

    def neg(self, a):
        return _entrywise(len(a), "neg")(a, self.base.modulus)

    def mul(self, a, b):
        """Zero if either side is zero; any other product is Kronecker
        substitution at n = 1."""
        if not a or not b:
            return ()
        m = self.base.modulus
        bits = _slot_bits(1, len(a), len(b), m)
        return _unpack(_pack(a, bits) * _pack(b, bits), bits, m)

    def add_all(self, a, b):
        return tuple(map(self.add, a, b))

    def sub_all(self, a, b):
        return tuple(map(self.sub, a, b))

    def neg_all(self, a):
        return tuple(map(self.neg, a))

    def scale_all(self, s, a):
        """s times each entry of a, each by the Kronecker `mul`."""
        mul = self.mul
        return tuple([mul(s, x) for x in a])

    def plus_transpose(self, n, entries, sign, scale):
        """The payloads of (p + sign p^T) * scale, through the Z_m kernel
        `_mirrored(n, sign)`. `scale` is the payload of a unit constant
        (1/2 or 1/4), so the map is Z_m-linear and keeps each power of t
        apart: the entries are padded to one length, each coefficient
        plane is symmetrised with the scale's one coefficient, and each
        result is stripped (p_ij + sign p_ji can cancel a leading term)."""
        mirrored, m, c = _mirrored(n, sign), self.base.modulus, scale[0]
        planes = [mirrored(q, c, m) for q in zip_longest(*entries, fillvalue=0)]
        if not planes:
            return entries  # every entry is zero
        return tuple(map(_strip, zip(*planes)))

    def _kronecker(self, n, sign, memos, la, lb):
        """The payloads of the raw `_product_sums(n, sign)` kernel by
        Kronecker substitution, over the matrices whose `_packings` are
        `memos` (a and b, or a, b, c and d): each is packed at the width of
        the slot plan `_slots(n, sign, la, lb, m)`, the kernel sums the
        packed ints, and the plan's bias is added as the sums are
        unpacked. la and lb are the entry lengths that the plan bounds.
        A list of memos in place of a's is a row-stacked a (`_packed`)."""
        m = self.base.modulus
        bits, offset = _slots(n, sign, la, lb, m)
        sums = _product_sums(n, sign)(*[_packed(memo, bits) for memo in memos])
        return _unpacked(sums, bits, offset, m)

    def matmul(self, a, b):
        """The payloads of the product of the n x n matrices a and b: the
        sign-0 `_kronecker` body."""
        pa, pb = _packings(a), _packings(b)
        return self._kronecker(a.n, 0, (pa, pb), pa[1], pb[1])

    def matmul_each(self, xs, b):
        """The payloads of xb for each n x n matrix x of the non-empty
        sequence xs, concatenated in order: the sign-0 `_kronecker` body
        on the rows of every x, stacked, planned at the longest entry of
        any x, so that one raw kernel call and one `_unpacked` pass serve
        them all. Each x is packed through its own `_packings` memo."""
        memos, pb = [_packings(x) for x in xs], _packings(b)
        la = max([memo[1] for memo in memos])
        return self._kronecker(b.n, 0, (memos, pb), la, pb[1])

    def commute(self, a, b):
        """The payloads of ab - ba for the n x n matrices a and b: the
        `_kronecker` body on (a, b, b, a) with sign -1, planned at the
        lengths of the two operands alone."""
        pa, pb = _packings(a), _packings(b)
        return self._kronecker(a.n, -1, (pa, pb, pb, pa), pa[1], pb[1])

    def product_sum(self, a, b, c, d, sign):
        """The payloads of ab + sign cd for the n x n matrices a, b, c and
        d, sign 1 or -1: the `_kronecker` body, planned with la the longer
        entry length of a and c and lb that of b and d."""
        memos = pa, pb, pc, pd = _packings(a), _packings(b), _packings(c), _packings(d)
        return self._kronecker(a.n, sign, memos, max(pa[1], pc[1]), max(pb[1], pd[1]))

    def matvec(self, table, v):
        """The payloads of M v for the payload tuple v and the matrix M of
        len(v) columns whose payloads `table` holds flat, row-major, by
        Kronecker substitution: v and the table are packed at the slot
        width of a len(v)-term dot product, the raw one-column kernel
        `_product_sums(len(v), 0, False, 1)` sums each row's packed dot
        product with v, and the sums are unpacked together by
        `_unpacked`."""
        m = self.base.modulus
        bits = _slot_bits(len(v), max(map(len, v)), max(map(len, table)), m)
        kernel = _product_sums(len(v), 0, False, 1)
        sums = kernel([_pack(c, bits) for c in table], [_pack(c, bits) for c in v])
        return _unpacked(sums, bits, 0, m)

    def format_payload(self, payload):
        if not payload:
            return "0"
        terms = []
        for k, c in enumerate(payload):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else f"{c}t")
            else:
                terms.append(f"t^{k}" if c == 1 else f"{c}t^{k}")
        return " + ".join(terms)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base

    def __hash__(self):
        return hash(("poly", self.base))

    def __repr__(self):
        return f"PolyRing({self.base!r})"

    def __str__(self):
        return f"Z_{self.base.modulus}[t]"


def _derivative_terms(scale):
    """The terms c t^j of delta(t) = `scale` that `on_payloads` reads,
    highest j first, as (j - 1, c * (1 - j), c): c t^j moves a's
    coefficient planes up by j - 1, and output plane k takes the
    multiplier c (k - j + 1), which starts at c (1 - j) and steps by c."""
    return tuple(
        (j - 1, c * (1 - j), c) for j, c in reversed(list(enumerate(scale))) if c
    )


class BaseDerivation(_ReadOnly):
    """A derivation of a base ring: p -> scale * dp/dt, with the payload
    `scale` = delta(t).

    A derivation of Z_m[t] is fixed by its value on the generator t, so
    every one is delta(t) * d/dt: `zero` has scale 0, `formal` scale 1
    and `scaled(f)` scale f. On Z_m every derivation is zero (additivity
    plus delta(1) = 0 force it), so the constructor refuses any other
    scale there. The scale passes the ring's value rule, `ring.element`.

    The payload map is `on_payloads(entries, shifts)`, delta(a) + s a for
    each payload a of `entries` and its int s mod m in `shifts` (s = 0
    gives delta alone), on coefficient planes: plane k, P_k, holds
    coefficient k of every entry, 0 past an entry's end. With
    delta(t) = c t^j, coefficient k of delta(a) + s a is
    (s a_k + c (k - j + 1) a_{k-j+1}) mod m, so output plane k is one
    "lift" kernel call, (s * P_k + u_k P_{k-j+1}) mod m with * entry by
    entry and the int u_k = c (k - j + 1) mod m, zero planes standing in
    outside a's. Each further term of delta(t) adds its own u_k P_{k-j+1}
    through "add_scaled" (see `_derivative_terms`). delta = 0 is one
    "weigh" call, s * P_k mod m, per plane, and on Z_m one over the
    residues. Each output entry is stripped of trailing zeros. The
    kernels (`_entrywise`) are keyed by the number of entries, never by
    a coefficient length; `on_payload(a, s)` is the one-entry call.
    """

    __slots__ = ("ring", "scale", "modulus", "_terms")

    def __init__(self, ring, scale):
        scale = ring.element(scale).payload
        if isinstance(ring, Zmod):
            if scale:
                raise DomainError(
                    f"a nonzero derivation needs a polynomial ring; on {ring} "
                    "only the zero derivation exists"
                )
            self.modulus, self._terms = ring.modulus, None
        else:
            self.modulus, self._terms = ring.base.modulus, _derivative_terms(scale)
        self.ring = ring
        self.scale = scale

    @classmethod
    def zero(cls, ring):
        return cls(ring, 0)

    @classmethod
    def formal(cls, ring):
        return cls(ring, 1)

    @classmethod
    def scaled(cls, factor):
        """The map p -> factor * dp/dt."""
        if not isinstance(factor, PolyElement):
            raise DomainError("the scale factor must be a polynomial ring element")
        return cls(factor.ring, factor.payload)

    def __call__(self, p):
        same_ring(self, p)
        return p.__class__(self.ring, self.on_payload(p.payload))

    def on_payload(self, a, s=0):
        """delta(a) + s a on a canonical payload `a` of the ring, for an
        int s in [0, m): `on_payloads` of the one entry."""
        return self.on_payloads((a,), (s,))[0]

    def on_payloads(self, entries, shifts):
        """The payloads of delta(a_e) + s_e a_e for the canonical payloads
        `entries` and the ints `shifts` in [0, m), one s_e per entry: the
        plane form of the class docstring, one `_entrywise(len(entries),
        op)` kernel call per output plane and per term of delta(t)."""
        terms, m, size = self._terms, self.modulus, len(entries)
        if terms is None:  # Z_m: delta = 0
            return _entrywise(size, "weigh")(shifts, entries, m)
        planes = list(zip_longest(*entries, fillvalue=0))
        if not planes:
            return entries  # every entry is zero
        if not terms:
            weigh = _entrywise(size, "weigh")
            out = [weigh(shifts, p, m) for p in planes]
        else:
            (shift, start, c), lower = terms[0], terms[1:]
            top = max(shift, 0)  # the planes that delta adds above a's
            # padded[at + i] is P_i, and a zero plane for each i outside
            # a's that some term reads, from -top to len(planes) + top
            zeros, at = [(0,) * size] * (top + 1), top + 1
            padded = zeros + planes + zeros
            lift = _entrywise(size, "lift")
            out = [
                lift(shifts, padded[at + k], (start + c * k) % m, padded[at + k - shift], m)
                for k in range(len(planes) + top)
            ]
            for shift, start, c in lower:
                add_scaled = _entrywise(size, "add_scaled")
                out = [
                    add_scaled(p, (start + c * k) % m, padded[at + k - shift], m)
                    for k, p in enumerate(out)
                ]
        return tuple(map(_strip, zip(*out)))

    def __repr__(self):
        scale = self.ring.format_payload(self.scale)
        return f"BaseDerivation(({scale}) d/dt on {self.ring})"
