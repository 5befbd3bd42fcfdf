"""The benchmark's deterministic parts: op streams and traced work counts.

    python3 -m pytest bench
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

COUNTS = ("threshold.evals_per_locate", "structures.contains_batch.rows", "montecarlo.samples",
          "known_defects")

# Counts that must be nonzero where the workload exercises the layer.
EXERCISED = {
    "binomial_width": ("binom.upper_tail.calls", "threshold.evals_per_locate",
                       "exact_eval.availability.composed.calls",
                       "construction.build_arbitrary_width.calls"),
    "run_curve": ("exact_eval.availability.dp.calls", "exact_eval.derivative.calls",
                  "threshold.evals_per_locate"),
    "crosscheck": ("structures.contains_batch.rows", "montecarlo.samples",
                   "structures.truth_table.calls", "exact_eval.availability.brute_force.calls",
                   "exact_eval.reliability_polynomial.calls"),
}


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name in COUNTS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["cli.main.calls"] == first["attempted"]
    for name in EXERCISED[workload]:
        assert counts[name] > 0, name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_picks_the_op_list(workload):
    def ops(seed):
        return list(itertools.islice(workloads.op_stream(workload, seed), 48))

    assert ops(3) == ops(3)
    assert [op.argv for op in ops(3)] != [op.argv for op in ops(4)]
    size = workloads.ROUND_LENGTH[workload]
    kinds = [op.check[0] for op in ops(3)]
    assert kinds[:size] == kinds[size:2 * size]  # ROUND_LENGTH matches the pattern
    defects = {op.argv for op in workloads.KNOWN_DEFECTS}
    assert not any(op.known_defect or op.argv in defects for op in ops(3))
