"""One benchmark process. `run.py` starts it once per measurement, with
the interpreter's -I flag, and reads the JSON object it prints last.

    python3 -I bench/worker.py MODE --workload NAME --seed S [--seconds T]

Modes:
  setup     time `import derivring` plus building the rings and configs
  timed     run rounds of the workload's cells for --seconds, untraced
  untraced  run round 0 once, then time single kernel calls
  spans     run round 0 once with span wrappers on the campaign layer
  counts    run round 0 once with call counters on the kernel layers

Every mode returns the file derivring was imported from; every mode
except setup also returns the golden probe digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import random
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

MIN_ROUNDS = 3


def use_checkout_src():
    """Import derivring from this checkout's src/ and nowhere else."""
    for path in (os.path.join(ROOT, "src"), BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def build_configs(workload, seed, round_index, rings=None):
    from derivring import CampaignConfig, NoiseSpec
    from derivring.cli import parse_ring
    from workloads import WORKLOADS, cell_seed

    rings = {} if rings is None else rings
    configs = []
    for index, cell in enumerate(WORKLOADS[workload]):
        if cell.ring not in rings:
            rings[cell.ring] = parse_ring(cell.ring)
        configs.append(
            CampaignConfig(
                suite=cell.suite,
                ring=rings[cell.ring],
                n=cell.n,
                trials=cell.trials,
                seed=cell_seed(workload, seed, index, round_index),
                noise=NoiseSpec(cell.noise),
                **cell.flags,
            )
        )
    return configs


def run_round(configs, ref, to_json=None):
    """Run each cell once; returns per-cell (seconds, outcome). A cell's
    time is run_campaign plus Report.to_json, as a CLI user waits for.
    A reference slice follows each cell, outside the timed region."""
    from derivring import Report, run_campaign

    to_json = Report.to_json if to_json is None else to_json
    clock = time.perf_counter
    results = []
    for config in configs:
        start = clock()
        report = run_campaign(config)
        text = to_json(report)
        elapsed = clock() - start
        results.append((elapsed, outcome(config, report, text)))
        ref.slice_after(elapsed)
    return results


def outcome(config, report, text):
    failed = {rec["instance"] for rec in report.failures}
    short = max(0, config.trials - report.instances)
    return {
        "trials": config.trials,
        "failed": min(config.trials, len(failed) + short),
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "report_bytes": len(text.encode()),
    }


# ---------------------------------------------------------------- probes

def _delta(ring, name):
    from derivring import BaseDerivation

    if name == "zero":
        return BaseDerivation.zero(ring)
    if name == "d/dt":
        return BaseDerivation.formal(ring)
    return BaseDerivation.scaled(ring.t)


def probe_matrices(cell, rng):
    """A small probe set for one cell, drawn the way its suite draws
    inputs, evaluated through public functions."""
    from derivring import (
        JordanPairDerivation,
        NoiseSpec,
        commutator,
        extend_tower,
        gen_jordan_instance,
        gen_witness_family,
        jordan_mul,
        pairs_to_commutator,
        reconstruct_abar,
        reconstruct_abar_jordan,
    )
    from derivring.cli import parse_ring
    from derivring.sampling import random_matrix, random_pairs, random_symmetric

    ring, n = parse_ring(cell.ring), cell.n
    if cell.suite in ("theorem1", "lemma-cross", "lemma-offdiag", "lemma-diagdiff"):
        hidden = random_matrix(ring, n, rng)
        oracle, family = gen_witness_family(
            hidden, NoiseSpec(cell.noise), rng.getrandbits(63)
        )
        abar = reconstruct_abar(family).abar
        x, y = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
        return [x * y, commutator(abar, x), oracle(y), abar]
    if cell.suite in ("jordan-theorem", "jordan-diag"):
        hidden = JordanPairDerivation(ring, n, random_pairs(ring, n, rng, 2))
        oracle, family = gen_jordan_instance(hidden, rng.getrandbits(63))
        abar = reconstruct_abar_jordan(family).abar
        x, y = random_symmetric(ring, n, rng), random_symmetric(ring, n, rng)
        return [
            x * y,
            jordan_mul(x, y),
            pairs_to_commutator(hidden),
            commutator(abar, x),
            oracle(y),
            abar,
        ]
    if cell.suite == "extend":
        tower = extend_tower(_delta(ring, cell.flags["delta"]), n)
        x, y = random_matrix(ring, n, rng), random_matrix(ring, n, rng)
        return [x * y, tower(x), tower(x * y)]
    if cell.suite == "two-generator":
        x, y, d = (random_matrix(ring, n, rng) for _ in range(3))
        return [x * y, commutator(d, x), commutator(d, x * y * x)]
    raise ValueError(f"no probe set for suite {cell.suite!r}")


def probe_digests(workload):
    """sha256 of each cell's probe set, as canonical matrix JSON."""
    from derivring.serialize import dumps_canonical, matrix_to_obj
    from workloads import WORKLOADS, probe_seed

    digests = []
    for index, cell in enumerate(WORKLOADS[workload]):
        mats = probe_matrices(cell, random.Random(probe_seed(workload, index)))
        text = dumps_canonical([matrix_to_obj(m) for m in mats])
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return digests


# ---------------------------------------------------- timed kernel calls

def _per_call(fn, operands):
    """Median seconds per call over 5 repeats, each long enough to time;
    also returns the seconds spent."""

    def once(loops):
        start = time.perf_counter()
        for _ in range(loops):
            for a, b in operands:
                fn(a, b)
        return time.perf_counter() - start

    loops = 1
    first = once(loops)
    while first < 0.02:
        loops *= 2
        first = once(loops)
    times = [first] + [once(loops) for _ in range(4)]
    return statistics.median(times) / (loops * len(operands)), sum(times)


def kernel_timings(seed, ref):
    """name -> [per-call time in the metric's unit, reference slowdown]."""
    from derivring import PolyRing, Zmod, jordan_mul
    from derivring.sampling import random_matrix, random_symmetric

    rng = random.Random(seed)
    z5, z9 = Zmod(5), Zmod(9)
    p5 = PolyRing(z5)

    def poly(degree):
        coeffs = [rng.randrange(5) for _ in range(degree)] + [rng.randrange(1, 5)]
        return p5.element(coeffs)

    def pairs(draw, count=32):
        return [(draw(), draw()) for _ in range(count)]

    zmod = pairs(lambda: z9.sample(rng))
    poly3 = pairs(lambda: poly(3))
    poly18 = pairs(lambda: poly(18))
    plan = [
        ("rings.zmod_add_ns", operator.add, zmod, 1e9),
        ("rings.zmod_mul_ns", operator.mul, zmod, 1e9),
        ("rings.poly_add_d3_ns", operator.add, poly3, 1e9),
        ("rings.poly_mul_d3_ns", operator.mul, poly3, 1e9),
        ("rings.poly_mul_d18_ns", operator.mul, poly18, 1e9),
    ]
    for n in (2, 3, 4, 8):
        plan.append(
            (f"matrices.matmul_zmod_n{n}_us", operator.mul,
             pairs(lambda: random_matrix(z9, n, rng)), 1e6)
        )
    plan.append(
        ("matrices.matmul_poly_n4_us", operator.mul,
         pairs(lambda: random_matrix(p5, 4, rng), 8), 1e6)
    )
    plan.append(
        ("matrices.jordan_mul_zmod_n3_us", jordan_mul,
         pairs(lambda: random_symmetric(z9, 3, rng)), 1e6)
    )
    timings = {}
    for name, fn, ops, scale in plan:
        mark = ref.mark()
        per_call, spent = _per_call(fn, ops)
        ref.slice_after(spent)
        timings[name] = [per_call * scale, ref.slowdown_since(mark)]
    return timings


# ----------------------------------------------------------------- modes

def mode_setup(args):
    import workloads  # noqa: F401  (the benchmark's own module is not timed)

    start = time.perf_counter()
    import derivring  # noqa: F401  (the import is what is timed)

    build_configs(args.workload, args.seed, 0)
    return {"setup_s": time.perf_counter() - start}


def mode_timed(args):
    from reference import Reference

    ref = Reference()
    rings = {}
    cells = None
    slowdowns = []
    begin = time.perf_counter()
    rounds = 0
    while True:
        configs = build_configs(args.workload, args.seed, rounds, rings)
        mark = ref.mark()
        results = run_round(configs, ref)
        slowdowns.append(ref.slowdown_since(mark))
        if cells is None:
            cells = [{"times": [], "rounds": []} for _ in results]
        for cell, (elapsed, out) in zip(cells, results):
            cell["times"].append(elapsed)
            cell["rounds"].append(out)
        rounds += 1
        spent = time.perf_counter() - begin
        if rounds >= MIN_ROUNDS and spent + spent / rounds > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"cells": cells, "rounds": rounds, "slowdowns": slowdowns, "peak_rss_kb": peak_kb}


def _single_round(args, ref, to_json=None):
    """Round 0 once: wall seconds, reference slowdown, per-cell results."""
    configs = build_configs(args.workload, args.seed, 0)
    mark = ref.mark()
    results = run_round(configs, ref, to_json)
    wall = sum(elapsed for elapsed, _ in results)
    cells = [{"times": [elapsed], "rounds": [out]} for elapsed, out in results]
    return {"wall_s": wall, "slowdown": ref.slowdown_since(mark), "cells": cells}


def mode_untraced(args):
    from reference import Reference
    from workloads import micro_seed

    ref = Reference()
    result = _single_round(args, ref)
    result["kernels"] = kernel_timings(micro_seed(args.workload, args.seed), ref)
    return result


def mode_spans(args):
    from derivring import Report
    from reference import Reference
    from tracing import REPORT_SPAN, Spans, install_spans

    spans = Spans()
    uninstall = install_spans(spans)
    try:
        result = _single_round(args, Reference(), spans.wrap(REPORT_SPAN, Report.to_json))
    finally:
        uninstall()
    result.update(span_total=spans.total, span_own=spans.own, span_top=spans.top)
    return result


def mode_counts(args):
    from reference import Reference
    from tracing import install_counts

    counts = {}
    uninstall = install_counts(counts)
    try:
        result = _single_round(args, Reference())
    finally:
        uninstall()
    result["counts"] = counts
    return result


MODES = {
    "setup": mode_setup,
    "timed": mode_timed,
    "untraced": mode_untraced,
    "spans": mode_spans,
    "counts": mode_counts,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    use_checkout_src()
    result = MODES[args.mode](args)
    import derivring

    result["derivring_file"] = derivring.__file__
    result["python"] = sys.version.split()[0]
    if args.mode != "setup":
        result["probe_sha256"] = probe_digests(args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
