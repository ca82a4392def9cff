"""A fixed reference kernel that measures how fast this machine runs
derivring-shaped Python right now.

On a shared host, identical campaign runs were seen to differ by up to
a quarter in wall time, in states lasting tens of seconds, with no steal
time visible inside the guest. A small cache-resident loop does not
slow down with them, but code shaped like the campaigns does. So the
timed worker runs a short slice of this kernel after every cell, sized
to a fixed share of the cell's time, and reports throughput at the
kernel's nominal speed.

The kernel is frozen: it is the benchmark's own code, shaped like the
seed commit's dense product over per-entry ring objects and its
polynomial product, and imports nothing from derivring, so no change to
the package can speed it up or slow it down.
"""

from __future__ import annotations

import random
import time

# seconds per rep on an idle 2-vCPU Intel Xeon box running CPython 3.11
NOMINAL_REP_S = 0.0002
# reference time per second of cell time
SHARE = 0.05


class _Elem:
    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        self.ring = ring
        self.payload = payload

    def __add__(self, other):
        if not isinstance(other, _Elem):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")
        return _Elem(self.ring, (self.payload + other.payload) % self.ring)

    def __mul__(self, other):
        if not isinstance(other, _Elem):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")
        return _Elem(self.ring, (self.payload * other.payload) % self.ring)


class _Mat:
    __slots__ = ("n", "entries")

    def __init__(self, n, entries):
        self.n = n
        self.entries = entries

    def __mul__(self, other):
        n, a, b = self.n, self.entries, other.entries
        out = [_Elem(9, 0)] * (n * n)
        for i in range(n):
            ro = i * n
            for k in range(n):
                aik = a[ro + k]
                if not aik.payload:
                    continue
                bo = k * n
                for j in range(n):
                    bkj = b[bo + j]
                    if bkj.payload:
                        out[ro + j] = out[ro + j] + aik * bkj
        return _Mat(n, tuple(out))


def _poly_mul(a, b, m=5):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % m
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class Reference:
    """Runs slices of the kernel and keeps the total reps and seconds."""

    def __init__(self, seed=7):
        rng = random.Random(seed)
        self._mats = [
            _Mat(3, tuple(_Elem(9, rng.randrange(9)) for _ in range(9))) for _ in range(8)
        ]
        self._polys = [tuple(rng.randrange(5) for _ in range(8)) + (1,) for _ in range(8)]
        self.reps = 0
        self.seconds = 0.0

    def _rep(self):
        acc = self._mats[0]
        for mat in self._mats:
            acc = mat * acc
        poly = self._polys[0]
        for other in self._polys:
            poly = _poly_mul(poly, other)[:12]
        return acc, poly

    def slice_after(self, busy_s):
        """Run reps worth SHARE of `busy_s` at nominal speed (at least one)."""
        reps = max(1, round(busy_s * SHARE / NOMINAL_REP_S))
        start = time.perf_counter()
        for _ in range(reps):
            self._rep()
        self.seconds += time.perf_counter() - start
        self.reps += reps

    def mark(self):
        return self.reps, self.seconds

    def slowdown_since(self, mark):
        """Seconds per rep since `mark`, over nominal: 2.0 means this
        machine ran derivring-shaped code at half its nominal speed."""
        reps, seconds = mark
        if self.reps == reps:
            return 1.0
        return (self.seconds - seconds) / ((self.reps - reps) * NOMINAL_REP_S)
