"""Exact arithmetic in commutative unital rings where 2 is invertible.

Two rings are available: Z_m for odd m >= 3, and the polynomial ring
Z_m[t] on top of such a base. Values are immutable and canonical
(residues in [0, m), little-endian coefficient tuples with no trailing
zeros), so equality of values is equality of payloads and nothing ever
rounds.

Each ring also carries the payload kernel behind the matrix layer:
`matmul`, `matadd`, `matsub`, `matneg` and `matscale` take row-major
tuples of canonical elements and return one, computing on payloads
rather than through one element object per partial result. On Z_m a
dot product is summed in plain ints and reduced mod m once. On Z_m[t]
it uses Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): each
polynomial is packed into one int with a `bits`-wide slot per
coefficient, the dot product is summed as ints, and each result is
unpacked once, every slot reduced mod m and trailing zeros stripped (a
leading term can vanish mod a composite m: 3t * 3t = 0 in Z_9[t]).
Coefficients are residues in [0, m), so a coefficient of an n-term dot
product of polynomials with at most la and lb coefficients is at most
n * min(la, lb) * (m - 1)**2; `_slot_bits` makes each slot that wide,
so no slot carries into the next. A single product is the case n = 1.
"""

from __future__ import annotations

from operator import mul

from .errors import DomainError, InvalidRing

__all__ = [
    "Zmod",
    "PolyRing",
    "RingElement",
    "ZmodElement",
    "PolyElement",
    "BaseDerivation",
]


class RingElement:
    """A canonical element of a ring; subclasses carry the arithmetic."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        # Trusted constructor: `payload` must already be canonical for
        # `ring`. Callers outside this module go through ring.element().
        self.ring = ring
        self.payload = payload

    def is_zero(self):
        return not self.payload

    def half(self):
        """The unique h with h + h == self (2 is invertible here)."""
        return self * self.ring.half

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


class ZmodElement(RingElement):
    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise DomainError(f"ring mismatch: {ring} vs {other.ring}")
        return ZmodElement(ring, (self.payload + other.payload) % ring.modulus)

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise DomainError(f"ring mismatch: {ring} vs {other.ring}")
        return ZmodElement(ring, (self.payload - other.payload) % ring.modulus)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise DomainError(f"ring mismatch: {ring} vs {other.ring}")
        return ZmodElement(ring, (self.payload * other.payload) % ring.modulus)

    def __neg__(self):
        return ZmodElement(self.ring, (-self.payload) % self.ring.modulus)


def _strip(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for idx, c in enumerate(b):
        out[idx] = (out[idx] + c) % m
    return _strip(out)


def _poly_sub(a, b, m):
    out = list(a) + [0] * (len(b) - len(a))
    for idx, c in enumerate(b):
        out[idx] = (out[idx] - c) % m
    return _strip(out)


def _poly_neg(a, m):
    return tuple((-c) % m for c in a)


def _slot_bits(n, la, lb, m):
    """Slot width for an n-term dot product of polynomials with at most
    la and lb coefficients: the bit length of the largest coefficient
    it can reach, n * min(la, lb) * (m - 1)**2."""
    return (n * min(la, lb) * (m - 1) ** 2).bit_length()


def _pack(coeffs, bits):
    """Kronecker substitution: the polynomial evaluated at t = 2**bits."""
    packed = 0
    for c in reversed(coeffs):
        packed = packed << bits | c
    return packed


def _unpack(packed, bits, m):
    """The canonical payload of a packed sum of products: slot k is
    coefficient k, reduced mod m; trailing zeros are stripped."""
    mask = (1 << bits) - 1
    coeffs = []
    while packed:
        coeffs.append((packed & mask) % m)
        packed >>= bits
    return _strip(coeffs)


class PolyElement(RingElement):
    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise DomainError(f"ring mismatch: {ring} vs {other.ring}")
        m = ring.base.modulus
        return PolyElement(ring, _poly_add(self.payload, other.payload, m))

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise DomainError(f"ring mismatch: {ring} vs {other.ring}")
        m = ring.base.modulus
        return PolyElement(ring, _poly_sub(self.payload, other.payload, m))

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise DomainError(f"ring mismatch: {ring} vs {other.ring}")
        a, b = self.payload, other.payload
        m = ring.base.modulus
        bits = _slot_bits(1, len(a), len(b), m)
        return PolyElement(ring, _unpack(_pack(a, bits) * _pack(b, bits), bits, m))

    def __neg__(self):
        return PolyElement(self.ring, _poly_neg(self.payload, self.ring.base.modulus))


class Zmod:
    """The ring Z_m with m odd and >= 3, so that 2 has an inverse."""

    kind = "zmod"

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

    def sample(self, rng, max_degree=0):
        return ZmodElement(self, rng.randrange(self.modulus))

    def format_payload(self, payload):
        return str(payload)

    def matmul(self, n, a, b):
        """The entries of the n x n product a b: each dot product is
        summed in plain ints and reduced mod m once."""
        m = self.modulus
        pa = [x.payload for x in a]
        pb = [y.payload for y in b]
        rows = [pa[i : i + n] for i in range(0, n * n, n)]
        cols = [pb[j::n] for j in range(n)]
        return tuple(
            [ZmodElement(self, sum(map(mul, r, c)) % m) for r in rows for c in cols]
        )

    def matadd(self, a, b):
        m = self.modulus
        return tuple(
            ZmodElement(self, (x.payload + y.payload) % m) for x, y in zip(a, b)
        )

    def matsub(self, a, b):
        m = self.modulus
        return tuple(
            ZmodElement(self, (x.payload - y.payload) % m) for x, y in zip(a, b)
        )

    def matneg(self, a):
        m = self.modulus
        return tuple(ZmodElement(self, (-x.payload) % m) for x in a)

    def matscale(self, z, a):
        m, s = self.modulus, z.payload
        return tuple(ZmodElement(self, (s * x.payload) % m) for x in a)

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

    kind = "poly"

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

    def sample(self, rng, max_degree=3):
        m = self.base.modulus
        return PolyElement(
            self, _strip([rng.randrange(m) for _ in range(max_degree + 1)])
        )

    def matmul(self, n, a, b):
        """The entries of the n x n product a b by Kronecker substitution:
        one packed int per entry, dot products summed as ints, each
        result unpacked once."""
        m = self.base.modulus
        pa = [x.payload for x in a]
        pb = [y.payload for y in b]
        bits = _slot_bits(n, max(map(len, pa)), max(map(len, pb)), m)
        ka = [_pack(p, bits) for p in pa]
        kb = [_pack(p, bits) for p in pb]
        rows = [ka[i : i + n] for i in range(0, n * n, n)]
        cols = [kb[j::n] for j in range(n)]
        return tuple(
            [
                PolyElement(self, _unpack(sum(map(mul, r, c)), bits, m))
                for r in rows
                for c in cols
            ]
        )

    def matadd(self, a, b):
        m = self.base.modulus
        return tuple(
            PolyElement(self, _poly_add(x.payload, y.payload, m)) for x, y in zip(a, b)
        )

    def matsub(self, a, b):
        m = self.base.modulus
        return tuple(
            PolyElement(self, _poly_sub(x.payload, y.payload, m)) for x, y in zip(a, b)
        )

    def matneg(self, a):
        m = self.base.modulus
        return tuple(PolyElement(self, _poly_neg(x.payload, m)) for x in a)

    def matscale(self, z, a):
        """z times each entry, by Kronecker substitution with z packed once."""
        m, s = self.base.modulus, z.payload
        bits = _slot_bits(1, len(s), max(len(x.payload) for x in a), m)
        packed = _pack(s, bits)
        return tuple(
            PolyElement(self, _unpack(packed * _pack(x.payload, bits), bits, m))
            for x in a
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
    """A derivation of a base ring: the zero map, d/dt, or f*(d/dt).

    On Z_m every derivation is zero (additivity plus delta(1) = 0 force
    it), so only the zero map can be built there; the formal derivative
    and its scalings live on Z_m[t].
    """

    ZERO = "zero"
    FORMAL = "d/dt"
    SCALED = "scaled"

    __slots__ = ("ring", "kind", "scale")

    def __init__(self, ring, kind, scale=None):
        self.ring = ring
        self.kind = kind
        self.scale = scale

    @classmethod
    def zero(cls, ring):
        return cls(ring, cls.ZERO)

    @classmethod
    def formal(cls, ring):
        if not isinstance(ring, PolyRing):
            raise DomainError(
                f"the formal derivative needs a polynomial ring; on {ring} "
                "only the zero derivation exists"
            )
        return cls(ring, cls.FORMAL)

    @classmethod
    def scaled(cls, factor):
        """The map p -> factor * dp/dt."""
        if not isinstance(factor, PolyElement):
            raise DomainError("the scale factor must be a polynomial ring element")
        return cls(factor.ring, cls.SCALED, factor)

    def __call__(self, p):
        if p.ring is not self.ring and p.ring != self.ring:
            raise DomainError(f"ring mismatch: {self.ring} vs {p.ring}")
        if self.kind == self.ZERO:
            return self.ring.zero
        d = self._formal(p)
        if self.kind == self.SCALED:
            return self.scale * d
        return d

    def _formal(self, p):
        m = self.ring.base.modulus
        coeffs = p.payload
        return PolyElement(
            self.ring, _strip([(k * coeffs[k]) % m for k in range(1, len(coeffs))])
        )

    def __repr__(self):
        if self.kind == self.SCALED:
            return f"BaseDerivation({self.scale!r} * d/dt)"
        return f"BaseDerivation({self.kind} on {self.ring})"
