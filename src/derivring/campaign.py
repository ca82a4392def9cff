"""Seeded verification campaigns behind the CLI: suite dispatch,
per-instance seed derivation, and deterministic reports.

`SETTINGS` names, per suite, the optional settings it reads and the
least value of each. `run_campaign` checks a config against that table
once, before any instance: a noise mode, delta, samples or max_len that
the suite does not read is refused unless it is at its default, and so
is an n, samples or max_len below the suite's minimum. So a bad config
fails even with zero trials. `SUITES[suite](config)` is then setup
alone (extend resolves delta and builds the tower) and returns
`check(irng)`: one instance, drawn from `irng`, yielding a `Violation`
per identity that broke. `run_campaign` alone loops over instances and
turns violations into failure records.

The PRNG is Python's Mersenne Twister (random.Random); per-instance
seeds are drawn from the campaign seed, so a config fully determines the
report, and a record's `seed` replays its instance alone as
`SUITES[suite](config)(random.Random(seed))`; the table check draws
nothing. Wall time is measured but kept out of the serialized report:
identical configs must produce identical bytes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields

from .checks import Violation
from .derivations import (
    InnerDerivation,
    extend_tower,
    leibniz_check,
    two_generator_check,
)
from .errors import DomainError
from .jordan import (
    JordanPairDerivation,
    check_diag_zero,
    gen_jordan_instance,
    pairs_to_commutator,
    verify_jordan_theorem,
)
from .matrices import Matrix, commutator, matrix_unit
from .rings import BaseDerivation, PolyRing, Zmod
from .sampling import (
    random_central,
    random_element,
    random_matrix,
    random_pairs,
    random_symmetric,
    random_x0_commutant,
)
from .serialize import dumps_canonical, payload_to_obj, ring_to_obj
from .twolocal import (
    NoiseSpec,
    TwoLocalOracle,
    check_cross_corner,
    check_diag_difference,
    check_offdiag_formula,
    gen_witness_family,
    offdiag_sides,
    reconstruct_abar,
    verify_theorem1,
)

__all__ = ["SUITES", "SETTINGS", "CampaignConfig", "Report", "run_campaign"]

DELTAS = ("zero", "d/dt", "t*d/dt")


@dataclass(frozen=True)
class CampaignConfig:
    suite: str
    ring: object
    n: int = 2
    trials: int = 100
    seed: int = 0
    noise: NoiseSpec = NoiseSpec.NONE
    max_degree: int = 3
    delta: str = "zero"
    max_len: int = 6
    samples: int = 20

    def to_obj(self):
        # keys in field order, which the text report's header keeps
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["ring"] = ring_to_obj(self.ring)
        obj["noise"] = self.noise.value
        return obj


@dataclass
class Report:
    config: CampaignConfig
    instances: int
    failures: tuple = ()
    wall_ms: float = 0.0

    @property
    def ok(self):
        return not self.failures

    @property
    def exit_code(self):
        return 0 if self.ok else 1

    def to_obj(self):
        # wall_ms stays out: identical configs must serialize identically
        return {
            "config": self.config.to_obj(),
            "instances": self.instances,
            "failures": list(self.failures),
        }

    def to_json(self):
        return dumps_canonical(self.to_obj())

    def to_text(self):
        # every field of the JSON config, so that the text replays the run
        cfg = self.config.to_obj()
        cfg["ring"] = self.config.ring
        lines = [
            " ".join(f"{key}={value}" for key, value in cfg.items()),
            f"instances={self.instances} failures={len(self.failures)}",
        ]
        for rec in self.failures:
            lines.append(
                f"  instance={rec['instance']} seed={rec['seed']} "
                f"kind={rec['kind']} probe={rec['probe']}"
            )
        return "\n".join(lines)


def run_campaign(config):
    """Run one suite: the config checks, including those of `SETTINGS`,
    then the suite's setup, then `config.trials` instances, each drawn
    from its own seed."""
    if config.suite not in SUITES:
        raise DomainError(
            f"unknown suite {config.suite!r}; choose one of {tuple(SUITES)}"
        )
    if config.trials < 0:
        raise DomainError("trials must be >= 0")
    if config.max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    if isinstance(config.ring, Zmod):
        # Z_m samples are residues, which have no degree to cap
        _reject_unused(config, "max_degree", owner=config.ring)
    reads = SETTINGS[config.suite]
    _reject_unused(config, *(field for field in _OPTIONAL if field not in reads))
    for field, minimum in reads.items():
        # checked here, not inside an instance, so that zero trials
        # cannot pass a config that every instance would refuse
        if minimum is not None and getattr(config, field) < minimum:
            raise DomainError(f"{config.suite} needs {field} >= {minimum}")
    start = time.perf_counter()
    check = SUITES[config.suite](config)
    rng = random.Random(config.seed)
    failures = []
    for idx in range(config.trials):
        seed = rng.getrandbits(63)
        failures.extend(
            {
                "instance": idx,
                "seed": seed,
                "kind": v.kind,
                "probe": v.probe,
                "lhs": payload_to_obj(v.lhs),
                "rhs": payload_to_obj(v.rhs),
            }
            for v in check(random.Random(seed))
        )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return Report(config, config.trials, tuple(failures), wall_ms)


def _witness_instance(config, irng):
    """The 2-local instance of theorem1 and the witness lemmas: a hidden
    element and a witness family of its inner derivation."""
    hidden = random_matrix(config.ring, config.n, irng, config.max_degree)
    _, family = gen_witness_family(
        hidden, config.noise, irng.getrandbits(63), config.max_degree
    )
    return hidden, family


def _reject_unused(config, *fields, owner=None):
    """Reject a setting that the suite (or `owner`) never reads, so that
    a report cannot name a noise mode, delta, sample count, word length
    or degree cap that had no effect."""
    for field in fields:
        default = getattr(CampaignConfig, field)
        if getattr(config, field) != default:
            shown = getattr(default, "value", default)
            raise DomainError(
                f"{owner or config.suite} takes no {field}; leave it at {shown!r}"
            )


def _theorem1(config):
    ring, n, degree = config.ring, config.n, config.max_degree

    def check(irng):
        hidden, family = _witness_instance(config, irng)
        # abar is recovered up to the centre of M_n(R), which is R*I
        drift = reconstruct_abar(family).abar - hidden
        central = Matrix.scalar(drift.entry(1, 1), n)
        if drift != central:
            yield Violation("recovery-up-to-center", "abar-hidden", drift, central)
        samples = [random_matrix(ring, n, irng, degree) for _ in range(config.samples)]
        yield from verify_theorem1(family, samples).violations

    return check


def _lemma_cross(config):
    n = config.n

    def check(irng):
        _, family = _witness_instance(config, irng)
        a = family.offdiag
        for (i, j) in sorted(a):
            for k in range(1, n + 1):
                # the default form compares a(i,j) with a(i,k) at (k, i),
                # the mirror form with a(k,j) at (j, k); each needs that
                # second witness to exist, and a violation records the two
                # entries compared
                for kind, other, mirror, (r, c) in (
                    ("cross-corner", (i, k), False, (k, i)),
                    ("cross-corner-mirror", (k, j), True, (j, k)),
                ):
                    if other in a and not check_cross_corner(
                        a[(i, j)], a[other], i, j, k, mirror=mirror
                    ):
                        yield Violation(
                            kind, f"i={i} j={j} k={k}",
                            a[(i, j)].entry(r, c), a[other].entry(r, c),
                        )

    return check


def _lemma_offdiag(config):
    def check(irng):
        _, family = _witness_instance(config, irng)
        for (i, j) in sorted(family.offdiag):
            if not check_offdiag_formula(family, i, j):
                lhs, rhs = offdiag_sides(family, i, j)
                yield Violation("offdiag-expansion", f"e[{i},{j}]", lhs, rhs)

    return check


def _lemma_diagdiff(config):
    ring, n, degree = config.ring, config.n, config.max_degree

    def check(irng):
        hidden = random_matrix(ring, n, irng, degree)
        irng.getrandbits(63)  # unused draw that keeps every seed's instance fixed
        oracle = TwoLocalOracle(ring, n, InnerDerivation(hidden))
        b = hidden
        c = hidden
        if config.noise is not NoiseSpec.NONE:
            b = b + random_central(ring, n, irng, degree)
            c = c + random_central(ring, n, irng, degree)
        if config.noise is NoiseSpec.X0_COMMUTANT_SHIFT_ON_C:
            b = b + random_x0_commutant(ring, n, irng, degree)
            c = c + random_x0_commutant(ring, n, irng, degree)
        if not check_diag_difference(b, c, oracle):
            yield Violation("diag-difference", "x0", b, c)

    return check


def _resolve_delta(config):
    ring = config.ring
    if config.delta == "zero":
        return BaseDerivation.zero(ring)
    if config.delta == "d/dt":
        return BaseDerivation.formal(ring)
    if config.delta == "t*d/dt":
        if not isinstance(ring, PolyRing):
            raise DomainError(f"delta t*d/dt needs a polynomial ring, got {ring}")
        return BaseDerivation.scaled(ring.t)
    raise DomainError(f"unknown delta {config.delta!r}; choose one of {DELTAS}")


def _extend(config):
    ring, n, degree = config.ring, config.n, config.max_degree
    delta = _resolve_delta(config)
    ext = extend_tower(delta, n)

    def check(irng):
        x = random_matrix(ring, n, irng, degree)
        y = random_matrix(ring, n, irng, degree)
        yield from leibniz_check(ext, [(x, y)]).violations
        lam = random_element(ring, irng, degree)
        unit = matrix_unit(ring, n, 1, 1)
        lhs = ext(unit * lam)
        rhs = unit * delta(lam)
        if lhs != rhs:
            yield Violation("restriction", "lambda*e[1,1]", lhs, rhs)

    return check


def _two_generator(config):
    ring, n, degree = config.ring, config.n, config.max_degree

    def check(irng):
        x, y, d = (random_matrix(ring, n, irng, degree) for _ in range(3))
        yield from two_generator_check(x, y, d, config.max_len).violations

    return check


def _jordan_diag(config):
    ring, n, degree = config.ring, config.n, config.max_degree

    def check(irng):
        pairs = random_pairs(ring, n, irng, irng.randint(1, 4), degree)
        pd = JordanPairDerivation(ring, n, pairs)
        if not check_diag_zero(pd):
            total = Matrix.zero(ring, n)
            for a, b in pairs:
                total = total + commutator(a, b)
            yield Violation("diag-zero", "sum [a_k,b_k]", total, Matrix.zero(ring, n))
        s = pairs_to_commutator(pd)
        # pairs_to_commutator returns a SkewMatrix, whose constructor raises
        # on a non-skew result first: this fires only if it is replaced
        if not s.is_skew():
            yield Violation("skew", "reduced generator", s, -s.transpose())

    return check


def _jordan_theorem(config):
    ring, n, degree = config.ring, config.n, config.max_degree

    def check(irng):
        hidden = JordanPairDerivation(
            ring, n, random_pairs(ring, n, irng, irng.randint(1, 3), degree)
        )
        _, family = gen_jordan_instance(hidden, irng.getrandbits(63), degree)
        samples = [
            random_symmetric(ring, n, irng, degree) for _ in range(config.samples)
        ]
        yield from verify_jordan_theorem(family, samples).violations

    return check


# suite name -> setup(config), which returns the per-instance check(irng)
SUITES = {
    "theorem1": _theorem1,
    "lemma-cross": _lemma_cross,
    "lemma-offdiag": _lemma_offdiag,
    "lemma-diagdiff": _lemma_diagdiff,
    "extend": _extend,
    "two-generator": _two_generator,
    "jordan-diag": _jordan_diag,
    "jordan-theorem": _jordan_theorem,
}

# the settings a suite may leave unread, which must then keep their default
_OPTIONAL = ("noise", "delta", "samples", "max_len")

# suite name -> {setting it reads: least value, or None for no minimum};
# n is read by every suite, and extend's n >= 2 is checked by extend_tower
SETTINGS = {
    "theorem1": {"noise": None, "n": 2, "samples": 1},
    "lemma-cross": {"noise": None, "n": 2},
    "lemma-offdiag": {"noise": None, "n": 2},
    "lemma-diagdiff": {"noise": None, "n": 2},
    "extend": {"delta": None},
    "two-generator": {"n": 1, "max_len": 1},
    "jordan-diag": {"n": 1},
    "jordan-theorem": {"n": 2, "samples": 1},
}
