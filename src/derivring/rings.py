"""Exact arithmetic in commutative unital rings where 2 is invertible.

Two rings are available: Z_m for odd m >= 3, and the polynomial ring
Z_m[t] on top of such a base. A value is a canonical payload (a residue
in [0, m), or a little-endian coefficient tuple with no trailing zeros),
so equality of values is equality of payloads and nothing ever rounds.

The ring owns the arithmetic, written once on payloads: the scalar ops
`add`, `sub`, `neg` and `mul`, their whole-tuple forms `add_all`,
`sub_all`, `neg_all` and `scale_all` (entrywise over equal-length
payload tuples), and the dense product `matmul(a, b)` of two n x n
matrices, which returns the row-major payloads of ab. Matrices store
bare payloads and hand whole entry tuples to the tuple ops: Z_m runs
each as one comprehension over ints, Z_m[t] maps its scalar op. A
matrix product goes to `matmul` only when both operands have more than
n nonzero entries; a sparser operand is multiplied by its support with
`add` and `mul` (see `derivring.matrices`). A `RingElement` pairs a
payload with its ring only where the scalar API hands one out
(`ring.element`, `ring.sample`, `Matrix.entry`), and its operators call
the same ring ops behind one ring-mismatch check.

Random values come from one path, `draw(rng, count, max_degree)`, which
returns a tuple of `count` payloads; `sample` is `draw` of one, wrapped.
Z_m draws exactly what `count` calls of `rng.randrange(m)` draw: the
rejection loop of CPython's `_randbelow` (`getrandbits(k)` with
k = m.bit_length() until the value is below m) over all `count` values
in one C-level iterator chain. Z_m[t] takes count * (max_degree + 1)
coefficients from one base draw and strips each chunk. So a seed gives
the values that one `randrange` per coefficient gives, and the tests
pin that against a literal per-coefficient reference.

On Z_m a dot product is summed in plain ints and reduced mod m once. On
Z_m[t], products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
polynomial is packed into one int with a `bits`-wide slot per
coefficient, the dot product is summed as ints, and each result is
unpacked once, every slot reduced mod m and trailing zeros stripped (a
leading term can vanish mod a composite m: 3t * 3t = 0 in Z_9[t]).
Coefficients are residues in [0, m), so a coefficient of an n-term dot
product of polynomials with at most la and lb coefficients is at most
n * min(la, lb) * (m - 1)**2; `_slot_bits` makes each slot that wide,
so no slot carries into the next. When that bound is below 256 (only
possible for m <= 15) each slot is one byte: a polynomial packs with
one `int.from_bytes` and a result unpacks with one `to_bytes`, one
`bytes.translate` through a table of v % m and one `rstrip`. Wider
slots are packed and unpacked one shift per coefficient. A single
product is the case n = 1, except that a zero operand gives zero and a
monomial operand c t^k gives the other operand shifted by k and scaled
by c, with no packing at all.

A matrix keeps, in its `_packings` slot, its longest entry length and
its packed entries for each slot width `PolyRing.matmul` has multiplied
it at, so a matrix multiplied again and again (a generator in each
commutator, a word across its splits) is packed once per width. The
memo is set on the first dense product, never in the constructor, and
serves only while `entries` is the tuple it packed. `Zmod.matmul` reads
the entries alone: a residue needs no packing.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import islice, repeat

from .errors import DomainError, InvalidRing

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


class RingElement:
    """A canonical payload of a ring, paired with that ring; the ring
    carries the arithmetic."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        # Trusted constructor: `payload` must already be canonical for
        # `ring`. Callers outside this module go through ring.element(),
        # or ring.wrap() for a payload already known to be canonical.
        self.ring = ring
        self.payload = payload

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
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _slot_bits(n, la, lb, m):
    """Slot width for an n-term dot product of polynomials with at most
    la and lb coefficients: the bit length of the largest coefficient
    it can reach, n * min(la, lb) * (m - 1)**2. A width of at most 8
    bits (a bound below 256, so m <= 15) is packed in byte slots. An
    all-zero side (la or lb = 0) counts as one coefficient, so that the
    other side's coefficients still fit their slots."""
    return (n * max(min(la, lb), 1) * (m - 1) ** 2).bit_length()


@cache
def _residues(m):
    """The 256-byte table of v % m, built on first use for each m."""
    return bytes([v % m for v in range(256)])


def _pack(coeffs, bits):
    """Kronecker substitution: the polynomial evaluated at t = 2**bits,
    or at t = 256 when bits <= 8, one byte per coefficient. `mul` packs
    neither a zero nor a monomial operand; `matmul` packs every entry."""
    if bits <= 8:
        return int.from_bytes(bytes(coeffs), "little")
    packed = 0
    for c in reversed(coeffs):
        packed = packed << bits | c
    return packed


def _unpack(packed, bits, m):
    """The canonical payload of a packed sum of products: slot k is
    coefficient k, reduced mod m; trailing zeros are stripped. Byte
    slots (bits <= 8) take one `to_bytes`, one `translate` through the
    table of v % m and one `rstrip`; wider slots one shift per slot."""
    if bits <= 8:
        raw = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        return tuple(raw.translate(_residues(m)).rstrip(b"\0"))
    mask = (1 << bits) - 1
    coeffs = []
    while packed:
        coeffs.append((packed & mask) % m)
        packed >>= bits
    return _strip(coeffs)


def _packings(x):
    """The memo of a `PolyRing.matmul` operand: its entries, their longest
    length and a dict from slot width to the packed entries. The matrix
    holds it in its `_packings` slot, set on its first dense product and
    valid while `entries` is the tuple it was made from (`entries` is a
    writable slot, so a reassigned matrix gets a new memo)."""
    entries = x.entries
    memo = getattr(x, "_packings", None)
    if memo is None or memo[0] is not entries:
        memo = x._packings = (entries, max(map(len, entries)), {})
    return memo


def _packed(memo, bits):
    """The entries of `memo` packed at slot width `bits`, packed on the
    first request for that width."""
    entries, _, widths = memo
    packed = widths.get(bits)
    if packed is None:
        packed = widths[bits] = [_pack(p, bits) for p in entries]
    return packed


class Zmod:
    """The ring Z_m with m odd and >= 3, so that 2 has an inverse.
    Payloads are the residues 0..m-1."""

    __slots__ = ("modulus", "inv2", "zero", "one", "half")

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
        self.inv2 = pow(2, -1, modulus)
        self.zero = ZmodElement(self, 0)
        self.one = ZmodElement(self, 1)
        self.half = ZmodElement(self, self.inv2)

    def element(self, value):
        """Canonicalize an integer (or an element of this ring) into a value."""
        if isinstance(value, ZmodElement) and value.ring == self:
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(
                f"Z_{self.modulus} values are integers, got {type(value).__name__}"
            )
        return ZmodElement(self, value % self.modulus)

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

    def add_all(self, a, b):
        m = self.modulus
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def sub_all(self, a, b):
        m = self.modulus
        return tuple([(x - y) % m for x, y in zip(a, b)])

    def neg_all(self, a):
        m = self.modulus
        return tuple([-x % m for x in a])

    def scale_all(self, s, a):
        m = self.modulus
        return tuple([s * x % m for x in a])

    def matmul(self, a, b):
        """The payloads of the product of the n x n matrices a and b: each
        dot product is summed in plain ints and reduced mod m once."""
        m, n, ea, eb = self.modulus, a.n, a.entries, b.entries
        rows = [ea[i : i + n] for i in range(0, n * n, n)]
        cols = [eb[j::n] for j in range(n)]
        return tuple([sum(map(operator.mul, r, c)) % m for r in rows for c in cols])

    def __eq__(self, other):
        return isinstance(other, Zmod) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("zmod", self.modulus))

    def __repr__(self):
        return f"Zmod({self.modulus})"

    def __str__(self):
        return f"Z_{self.modulus}"


class PolyRing:
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
        self.half = PolyElement(self, (base.inv2,))
        self.t = PolyElement(self, (0, 1))

    def element(self, value):
        """Canonicalize an int (constant) or coefficient sequence into a value."""
        if isinstance(value, PolyElement) and value.ring == self:
            return value
        m = self.base.modulus
        if isinstance(value, bool):
            raise DomainError(f"cannot coerce {type(value).__name__} into {self}")
        if isinstance(value, int):
            return PolyElement(self, _strip([value % m]))
        if isinstance(value, (list, tuple)):
            coeffs = []
            for c in value:
                if isinstance(c, bool) or not isinstance(c, int):
                    raise DomainError(
                        "polynomial coefficients are integers, "
                        f"got {type(c).__name__}"
                    )
                coeffs.append(c % m)
            return PolyElement(self, _strip(coeffs))
        raise DomainError(f"cannot coerce {type(value).__name__} into {self}")

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
        return tuple([c if c[-1] else _strip(list(c)) for c in chunks])

    def sample(self, rng, max_degree=3):
        return PolyElement(self, self.draw(rng, 1, max_degree)[0])

    def add(self, a, b):
        if not b:
            return a
        if not a:
            return b
        m = self.base.modulus
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for idx, c in enumerate(b):
            out[idx] = (out[idx] + c) % m
        return _strip(out)

    def sub(self, a, b):
        if not b:
            return a
        if not a:
            return self.neg(b)
        m = self.base.modulus
        out = list(a) + [0] * (len(b) - len(a))
        for idx, c in enumerate(b):
            out[idx] = (out[idx] - c) % m
        return _strip(out)

    def neg(self, a):
        m = self.base.modulus
        return tuple([-c % m for c in a])

    def mul(self, a, b):
        """Zero if either side is zero; a monomial c t^k times p is p
        shifted by k and scaled by c, with no packing; any other product
        is Kronecker substitution at n = 1."""
        if not a or not b:
            return ()
        if b.count(0) == len(b) - 1:
            a, b = b, a
        m = self.base.modulus
        k = len(a) - 1
        if a.count(0) == k:
            # c t^k with c = a[k]; c p can lose its leading term mod m
            c = a[k]
            if c == 1:
                return (0,) * k + b
            return _strip([0] * k + [c * x % m for x in b])
        bits = _slot_bits(1, len(a), len(b), m)
        return _unpack(_pack(a, bits) * _pack(b, bits), bits, m)

    def add_all(self, a, b):
        return tuple(map(self.add, a, b))

    def sub_all(self, a, b):
        return tuple(map(self.sub, a, b))

    def neg_all(self, a):
        return tuple(map(self.neg, a))

    def scale_all(self, s, a):
        mul = self.mul
        return tuple([mul(s, x) for x in a])

    def matmul(self, a, b):
        """The payloads of the product of the n x n matrices a and b by
        Kronecker substitution: one packed int per entry, dot products
        summed as ints, each result unpacked once. Each operand is packed
        at most once per slot width while its entries stay the same tuple
        (see `_packings`)."""
        m, n = self.base.modulus, a.n
        pa, pb = _packings(a), _packings(b)
        bits = _slot_bits(n, pa[1], pb[1], m)
        ka, kb = _packed(pa, bits), _packed(pb, bits)
        rows = [ka[i : i + n] for i in range(0, n * n, n)]
        cols = [kb[j::n] for j in range(n)]
        return tuple(
            [_unpack(sum(map(operator.mul, r, c)), bits, m) for r in rows for c in cols]
        )

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


class BaseDerivation:
    """A derivation of a base ring: p -> scale * dp/dt, with the payload
    `scale` = delta(t).

    A derivation of Z_m[t] is fixed by its value on the generator t, so
    every one is delta(t) * d/dt: `zero` has scale 0, `formal` scale 1
    and `scaled(f)` scale f. On Z_m every derivation is zero (additivity
    plus delta(1) = 0 force it), so only the zero map can be built there.
    """

    __slots__ = ("ring", "scale")

    def __init__(self, ring, scale):
        self.ring = ring
        self.scale = scale

    @classmethod
    def zero(cls, ring):
        return cls(ring, ring.zero.payload)

    @classmethod
    def formal(cls, ring):
        if not isinstance(ring, PolyRing):
            raise DomainError(
                f"the formal derivative needs a polynomial ring; on {ring} "
                "only the zero derivation exists"
            )
        return cls(ring, ring.one.payload)

    @classmethod
    def scaled(cls, factor):
        """The map p -> factor * dp/dt."""
        if not isinstance(factor, PolyElement):
            raise DomainError("the scale factor must be a polynomial ring element")
        return cls(factor.ring, factor.payload)

    def __call__(self, p):
        same_ring(self, p)
        return p.__class__(self.ring, self.on_payload(p.payload))

    def on_payload(self, a):
        """The derivation on a canonical payload of its ring."""
        ring, scale = self.ring, self.scale
        if not scale:
            return ring.zero.payload
        m = ring.base.modulus
        return ring.mul(scale, _strip([(k * a[k]) % m for k in range(1, len(a))]))

    def __repr__(self):
        scale = self.ring.format_payload(self.scale)
        return f"BaseDerivation(({scale}) d/dt on {self.ring})"
