"""Negative control for the benchmark's golden gate.

A `Matrix.__mul__` that returns the zero matrix leaves every campaign
reporting `ok` with unchanged report bytes, so pass/fail alone cannot
catch it. The gate must: its probe digests cover matrix products. The
defect is planted in this process only, and removed afterwards.

    python3 -m pytest bench/test_gate.py     # or: python3 bench/test_gate.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import worker  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

worker.use_checkout_src()

from derivring import Matrix  # noqa: E402


def _round0(workload):
    """Round 0 at the default seed, shaped like a worker's cell list."""
    configs = worker.build_configs(workload, DEFAULT_SEED, 0)
    results = worker.run_round(configs, Reference())
    return [{"times": [t], "rounds": [out]} for t, out in results]


def _problems(workload, cells, seed):
    verdicts = run.gate(workload, seed, cells, worker.probe_digests(workload))
    return {cell_id: problems for cell_id, _, _, problems in verdicts}


def test_gate_passes_unmodified_code():
    for workload in WORKLOADS:
        problems = _problems(workload, _round0(workload), DEFAULT_SEED)
        assert not any(problems.values()), problems


def test_gate_fails_planted_zero_product():
    original = Matrix.__dict__["__mul__"]
    Matrix.__mul__ = lambda self, other: Matrix.zero(self.ring, self.n)
    try:
        for workload in WORKLOADS:
            cells = _round0(workload)
            # the campaigns alone cannot see the defect
            assert all(c["rounds"][0]["failed"] == 0 for c in cells)
            for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
                problems = _problems(workload, cells, seed)
                assert all(problems.values()), (workload, seed, problems)
    finally:
        Matrix.__mul__ = original


if __name__ == "__main__":
    test_gate_passes_unmodified_code()
    test_gate_fails_planted_zero_product()
    print("golden gate: passes the unmodified code, fails the planted zero product")
