"""Seeded verification campaigns behind the CLI: suite dispatch,
per-instance seed derivation, and deterministic reports.

The PRNG is Python's Mersenne Twister (random.Random); per-instance
seeds are drawn from the campaign seed, so a config fully determines the
report. Wall time is measured but kept out of the serialized report:
identical configs must produce identical bytes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .checks import CheckReport
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
from .rings import BaseDerivation, PolyRing
from .sampling import (
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
    reconstruct_abar,
    verify_theorem1,
)

__all__ = ["SUITES", "CampaignConfig", "Report", "run_campaign"]

SUITES = (
    "theorem1",
    "lemma-cross",
    "lemma-offdiag",
    "lemma-diagdiff",
    "extend",
    "two-generator",
    "jordan-diag",
    "jordan-theorem",
)

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
    delta: str = "zero"  # extend suite only
    max_len: int = 6  # two-generator suite only
    samples: int = 20  # per-instance samples for the theorem suites

    def to_obj(self):
        return {
            "suite": self.suite,
            "ring": ring_to_obj(self.ring),
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "noise": self.noise.value,
            "max_degree": self.max_degree,
            "delta": self.delta,
            "max_len": self.max_len,
            "samples": self.samples,
        }


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
        cfg = self.config
        lines = [
            f"suite={cfg.suite} ring={cfg.ring} n={cfg.n} trials={cfg.trials} "
            f"seed={cfg.seed} noise={cfg.noise.value}",
            f"instances={self.instances} failures={len(self.failures)}",
        ]
        for rec in self.failures:
            lines.append(
                f"  instance={rec['instance']} seed={rec['seed']} "
                f"kind={rec['kind']} probe={rec['probe']}"
            )
        return "\n".join(lines)


def run_campaign(config):
    if config.suite not in SUITES:
        raise DomainError(f"unknown suite {config.suite!r}; choose one of {SUITES}")
    if config.trials < 0:
        raise DomainError("trials must be >= 0")
    if config.max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    runner = _RUNNERS[config.suite]
    start = time.perf_counter()
    instances, failures = runner(config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return Report(config, instances, tuple(failures), wall_ms)


def _failure(idx, seed, kind, probe, lhs, rhs):
    return {
        "instance": idx,
        "seed": seed,
        "kind": kind,
        "probe": probe,
        "lhs": payload_to_obj(lhs),
        "rhs": payload_to_obj(rhs),
    }


def _report_failures(idx, seed, report: CheckReport, failures):
    for v in report.violations:
        failures.append(_failure(idx, seed, v.kind, v.probe, v.lhs, v.rhs))


def _instance_seeds(config):
    rng = random.Random(config.seed)
    for idx in range(config.trials):
        yield idx, rng.getrandbits(63)


def _run_theorem1(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        hidden = random_matrix(ring, n, irng, config.max_degree)
        oracle, family = gen_witness_family(
            hidden, config.noise, irng.getrandbits(63), config.max_degree
        )
        # abar is recovered up to the centre of M_n(R), which is R*I
        drift = reconstruct_abar(family).abar - hidden
        central = Matrix.scalar(drift.entry(1, 1), n)
        if drift != central:
            failures.append(
                _failure(
                    idx, iseed, "recovery-up-to-center", "abar-hidden", drift, central
                )
            )
        samples = [
            random_matrix(ring, n, irng, config.max_degree)
            for _ in range(config.samples)
        ]
        _report_failures(idx, iseed, verify_theorem1(oracle, family, samples), failures)
    return config.trials, failures


def _run_lemma_cross(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        hidden = random_matrix(ring, n, irng, config.max_degree)
        _, family = gen_witness_family(
            hidden, config.noise, irng.getrandbits(63), config.max_degree
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for k in range(1, n + 1):
                    if k != i and not check_cross_corner(
                        family.offdiag[(i, j)], family.offdiag[(i, k)], i, j, k
                    ):
                        failures.append(
                            _failure(
                                idx, iseed, "cross-corner", f"i={i} j={j} k={k}",
                                family.offdiag[(i, j)], family.offdiag[(i, k)],
                            )
                        )
                    if k != j and not check_cross_corner(
                        family.offdiag[(i, j)], family.offdiag[(k, j)], i, j, k,
                        mirror=True,
                    ):
                        failures.append(
                            _failure(
                                idx, iseed, "cross-corner-mirror", f"i={i} j={j} k={k}",
                                family.offdiag[(i, j)], family.offdiag[(k, j)],
                            )
                        )
    return config.trials, failures


def _run_lemma_offdiag(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        hidden = random_matrix(ring, n, irng, config.max_degree)
        oracle, family = gen_witness_family(
            hidden, config.noise, irng.getrandbits(63), config.max_degree
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and not check_offdiag_formula(family, oracle, i, j):
                    failures.append(
                        _failure(
                            idx, iseed, "offdiag-expansion", f"e[{i},{j}]",
                            oracle(matrix_unit(ring, n, i, j)), "expansion",
                        )
                    )
    return config.trials, failures


def _run_lemma_diagdiff(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        hidden = random_matrix(ring, n, irng, config.max_degree)
        irng.getrandbits(63)  # unused draw that keeps every seed's instance fixed
        oracle = TwoLocalOracle(ring, n, InnerDerivation(hidden))
        b = hidden
        c = hidden
        if config.noise is not NoiseSpec.NONE:
            b = b + Matrix.scalar(random_element(ring, irng, config.max_degree), n)
            c = c + Matrix.scalar(random_element(ring, irng, config.max_degree), n)
        if config.noise is NoiseSpec.X0_COMMUTANT_SHIFT_ON_C:
            b = b + random_x0_commutant(ring, n, irng, config.max_degree)
            c = c + random_x0_commutant(ring, n, irng, config.max_degree)
        if not check_diag_difference(b, c, oracle):
            failures.append(_failure(idx, iseed, "diag-difference", "x0", b, c))
    return config.trials, failures


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


def _run_extend(config):
    ring, n = config.ring, config.n
    delta = _resolve_delta(config)
    ext = extend_tower(delta, n)
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        x = random_matrix(ring, n, irng, config.max_degree)
        y = random_matrix(ring, n, irng, config.max_degree)
        _report_failures(idx, iseed, leibniz_check(ext, [(x, y)]), failures)
        lam = random_element(ring, irng, config.max_degree)
        unit = matrix_unit(ring, n, 1, 1)
        lhs = ext(unit * lam)
        rhs = unit * delta(lam)
        if lhs != rhs:
            failures.append(_failure(idx, iseed, "restriction", "lambda*e[1,1]", lhs, rhs))
    return config.trials, failures


def _run_two_generator(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        x = random_matrix(ring, n, irng, config.max_degree)
        y = random_matrix(ring, n, irng, config.max_degree)
        d = random_matrix(ring, n, irng, config.max_degree)
        _report_failures(
            idx, iseed, two_generator_check(x, y, d, config.max_len), failures
        )
    return config.trials, failures


def _run_jordan_diag(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        pairs = random_pairs(ring, n, irng, irng.randint(1, 4), config.max_degree)
        if not check_diag_zero(pairs):
            total = Matrix.zero(ring, n)
            for a, b in pairs:
                total = total + commutator(a, b)
            failures.append(
                _failure(
                    idx, iseed, "diag-zero", "sum [a_k,b_k]",
                    total, Matrix.zero(ring, n),
                )
            )
        s = pairs_to_commutator(JordanPairDerivation(ring, n, pairs))
        if not s.is_skew():
            failures.append(
                _failure(idx, iseed, "skew", "reduced generator", s, -s.transpose())
            )
    return config.trials, failures


def _run_jordan_theorem(config):
    ring, n = config.ring, config.n
    failures = []
    for idx, iseed in _instance_seeds(config):
        irng = random.Random(iseed)
        hidden = JordanPairDerivation(
            ring, n, random_pairs(ring, n, irng, irng.randint(1, 3), config.max_degree)
        )
        oracle, family = gen_jordan_instance(
            hidden, irng.getrandbits(63), config.max_degree
        )
        samples = [
            random_symmetric(ring, n, irng, config.max_degree)
            for _ in range(config.samples)
        ]
        pairs = [
            (
                random_symmetric(ring, n, irng, config.max_degree),
                random_symmetric(ring, n, irng, config.max_degree),
            )
            for _ in range(config.samples)
        ]
        _report_failures(
            idx, iseed, verify_jordan_theorem(oracle, family, samples, pairs), failures
        )
    return config.trials, failures


_RUNNERS = {
    "theorem1": _run_theorem1,
    "lemma-cross": _run_lemma_cross,
    "lemma-offdiag": _run_lemma_offdiag,
    "lemma-diagdiff": _run_lemma_diagdiff,
    "extend": _run_extend,
    "two-generator": _run_two_generator,
    "jordan-diag": _run_jordan_diag,
    "jordan-theorem": _run_jordan_theorem,
}
