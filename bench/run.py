"""The derivring benchmark: seeded verification campaigns, timed end to
end, with a separate traced run for per-layer numbers.

    python3 bench/run.py --workload twolocal-grid --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0        # every workload in turn

--trace 0 prints the end-to-end metrics from a run of about --seconds;
--trace 1 prints the per-layer ones from round 0 run once per worker.
Each measurement runs in its own single-threaded worker process (see
worker.py); this process only starts them one at a time, checks their
outputs against the golden gate and prints the result. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Exit codes: 0 when every output is correct, 1 when a report lists a
failure, a cell is short of instances, a golden digest mismatches or two
traced runs disagree on a count, 2 when the benchmark cannot measure this
checkout (no src/, or derivring imported from elsewhere).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
PACKAGE_INIT = os.path.join(ROOT, "src", "derivring", "__init__.py")
sys.path.insert(0, BENCH_DIR)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 24
# every worker of one workload's run must end within this many seconds
BUDGET_S = 170


class CannotMeasure(Exception):
    """The checkout cannot be measured; no result is printed."""


# --------------------------------------------------------------- workers

class Workers:
    """Starts worker processes for one workload and seed, one at a time,
    all within one time budget."""

    def __init__(self, workload, seed, budget_s=BUDGET_S):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + budget_s

    def run(self, mode, seconds=None):
        cmd = [sys.executable, "-I", WORKER, mode,
               "--workload", self.workload, "--seed", str(self.seed)]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise CannotMeasure(f"{mode} worker still running after {exc.timeout:.0f}s") from exc
        if proc.returncode != 0:
            raise CannotMeasure(
                f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check_import(result["derivring_file"])
        return result


def check_import(path):
    if os.path.realpath(path) != os.path.realpath(PACKAGE_INIT):
        raise CannotMeasure(
            f"derivring was imported from {path}, not from this checkout's "
            f"{PACKAGE_INIT}"
        )


# ------------------------------------------------------------ provenance

def provenance(python):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "derivring", "*.py"))):
        src.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": python,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "derivring": PACKAGE_INIT,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# ----------------------------------------------------------------- gate

def load_golden():
    with open(os.path.join(BENCH_DIR, "golden.json")) as fh:
        return json.load(fh)


def gate(workload, seed, cells, probe_sha256):
    """Per-cell (attempted, failed, problems). A cell fails whole when its
    probe digest, or at the default seed its round-0 report digest,
    differs from the pinned one."""
    golden = load_golden().get(workload, {})
    verdicts = []
    for cell, result, probe in zip(WORKLOADS[workload], cells, probe_sha256):
        pinned = golden.get(cell.cell_id, {})
        attempted = sum(out["trials"] for out in result["rounds"])
        failed = sum(out["failed"] for out in result["rounds"])
        problems = []
        if failed:
            problems.append(f"{failed} failed instance(s)")
        if probe != pinned.get("probe_sha256"):
            problems.append(f"probe digest {probe} is not the pinned one")
        report = result["rounds"][0]["report_sha256"]
        if seed == DEFAULT_SEED and report != pinned.get("report_sha256"):
            problems.append(f"report digest {report} is not the pinned one")
        if problems:
            failed = attempted
        verdicts.append((cell.cell_id, attempted, failed, problems))
    return verdicts


def tally(verdicts):
    attempted = sum(v[1] for v in verdicts)
    failed = sum(v[2] for v in verdicts)
    for cell_id, _, _, problems in verdicts:
        for problem in problems:
            print(f"# FAIL {cell_id}: {problem}")
    return attempted, failed


# ---------------------------------------------------------- end to end

def measure_end_to_end(workers, seconds):
    # A first set-up run compiles the bytecode caches and is not counted.
    # The counted ones are split around the timed run, so that they sample
    # more than one state of a shared host.
    workload, seed = workers.workload, workers.seed
    workers.run("setup")
    half = SETUP_REPEATS // 2
    setups = [workers.run("setup")["setup_s"] for _ in range(half)]
    timed = workers.run("timed", seconds)
    setups += [workers.run("setup")["setup_s"] for _ in range(SETUP_REPEATS - half)]

    cells = timed["cells"]
    attempted, failed = tally(gate(workload, seed, cells, timed["probe_sha256"]))
    round_trials = sum(c["rounds"][0]["trials"] for c in cells)
    slowdowns = timed["slowdowns"]
    # each cell's median time over rounds, every round's time taken at the
    # reference kernel's nominal speed
    nominal_seconds = sum(
        statistics.median(t / s for t, s in zip(c["times"], slowdowns)) for c in cells
    )
    wall_seconds = sum(statistics.median(c["times"]) for c in cells)
    metrics = {
        "instances_per_s": (round_trials / nominal_seconds, "instances/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (timed["peak_rss_kb"] / 1024.0, "MB"),
    }
    print(
        f"# {workload} seed={seed}: {len(cells)} cells x {timed['rounds']} rounds, "
        f"{attempted} instances; set-up timed in {SETUP_REPEATS} fresh interpreters"
    )
    print(
        f"# wall-clock rate {round_trials / wall_seconds:.6g} instances/s; reference "
        f"slowdown per round: {' '.join(f'{s:.3f}' for s in slowdowns)}"
    )
    return timed, attempted, failed, metrics


# ------------------------------------------------------------- traced

SPAN_METRICS = (
    "sampling.generate_s", "twolocal.witness_s", "twolocal.reconstruct_s",
    "twolocal.verify_s", "twolocal.lemma_s", "campaign.recovery_s",
    "jordan.witness_s", "jordan.verify_s", "jordan.diag_s",
    "derivations.tower_s", "derivations.two_generator_s", "serialize.report_s",
)
COUNT_METRICS = (
    "rings.element_allocs", "rings.zmod_ops", "rings.poly_ops", "rings.delta_calls",
    "matrices.matmul_calls", "matrices.matrix_allocs", "matrices.symmetry_checks",
    "matrices.jordan_mul_calls", "matrices.commutator_calls",
)
KERNEL_METRICS = {
    "rings.zmod_add_ns": "ns", "rings.zmod_mul_ns": "ns", "rings.poly_add_d3_ns": "ns",
    "rings.poly_mul_d3_ns": "ns", "rings.poly_mul_d18_ns": "ns",
    "matrices.matmul_zmod_n2_us": "us", "matrices.matmul_zmod_n3_us": "us",
    "matrices.matmul_zmod_n4_us": "us", "matrices.matmul_zmod_n8_us": "us",
    "matrices.matmul_poly_n4_us": "us", "matrices.jordan_mul_zmod_n3_us": "us",
}


def _report_digests(run):
    return [out["report_sha256"] for cell in run["cells"] for out in cell["rounds"]]


def measure_per_layer(workers):
    """Round 0 in four workers, one after another: untraced (with the
    timed kernel calls), with spans, and twice with counts. Times are
    given at the reference kernel's nominal speed, like instances_per_s."""
    workload, seed = workers.workload, workers.seed
    base = workers.run("untraced")
    spans = workers.run("spans")
    counts = [workers.run("counts") for _ in range(2)]

    attempted, failed = tally(gate(workload, seed, base["cells"], base["probe_sha256"]))
    for name, run in (("spans", spans), ("counts", counts[0]), ("counts", counts[1])):
        if _report_digests(run) != _report_digests(base):
            print(f"# FAIL the {name} run changed report bytes")
            failed = attempted
    first, second = counts[0]["counts"], counts[1]["counts"]
    drift = sorted(k for k in first if first[k] != second.get(k))
    for name in drift:
        print(f"# FAIL count {name} differs between traced runs: {first[name]} vs {second.get(name)}")
    if drift:
        failed = attempted

    def nominal(run, seconds):
        return seconds / run["slowdown"]

    instances = sum(cell["rounds"][0]["trials"] for cell in base["cells"])
    metrics = {name: (first[name], "count") for name in COUNT_METRICS}
    metrics["matrices.symmetry_checks_per_jordan_mul"] = (
        _ratio(first["matrices.symmetry_checks"], first["matrices.jordan_mul_calls"]), "ratio"
    )
    for name, per_instance in (
        ("twolocal.oracle_evals_per_instance", "twolocal.oracle_evals"),
        ("twolocal.validations_per_instance", "twolocal.validations"),
        ("jordan.validations_per_instance", "jordan.validations"),
    ):
        metrics[name] = (_ratio(first[per_instance], instances), "count/instance")
    for name, unit in KERNEL_METRICS.items():
        per_call, slowdown = base["kernels"][name]
        metrics[name] = (per_call / slowdown, unit)
    for name in SPAN_METRICS:
        metrics[name] = (nominal(spans, spans["span_total"].get(name, 0.0)), "s")
    # leibniz_check calls the tower; its own time leaves the tower span out
    metrics["derivations.leibniz_s"] = (
        nominal(spans, spans["span_own"].get("derivations.leibniz_s", 0.0)), "s"
    )
    metrics["campaign.self_s"] = (nominal(spans, spans["wall_s"] - spans["span_top"]), "s")
    metrics["serialize.report_bytes"] = (
        sum(cell["rounds"][0]["report_bytes"] for cell in base["cells"]), "bytes"
    )
    untraced = nominal(base, base["wall_s"])
    metrics["trace.overhead_ratio"] = (nominal(spans, spans["wall_s"]) / untraced, "ratio")
    print(
        f"# {workload} seed={seed}: round 0 ({instances} instances) untraced, with "
        f"spans, and twice with counts ({len(drift)} counts differ); reference "
        f"slowdowns {base['slowdown']:.3f} {spans['slowdown']:.3f} "
        f"{counts[0]['slowdown']:.3f} {counts[1]['slowdown']:.3f}"
    )
    return base, attempted, failed, metrics


def _ratio(num, den):
    return num / den if den else 0.0


# ----------------------------------------------------------------- main

def run_one(workload, seed, seconds, trace):
    workers = Workers(workload, seed)
    if trace:
        first, attempted, failed, metrics = measure_per_layer(workers)
    else:
        first, attempted, failed, metrics = measure_end_to_end(workers, seconds)
    info = provenance(first["python"])
    print("# provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    share = failed / attempted
    print(f"{workload} failure_share {share:.6g} ratio ({failed} of {attempted} instances)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="derivring benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not os.path.isfile(PACKAGE_INIT):
            raise CannotMeasure(f"no package source at {PACKAGE_INIT}")
        results = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except CannotMeasure as exc:
        print(f"bench: cannot measure: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps(dict(zip(names, results))))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
