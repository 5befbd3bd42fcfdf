"""thresholdlab benchmark: one client, closed loop, in-process CLI calls.

    python3 bench/run.py --workload binomial_width --seed 1 --seconds 20 --trace 0

Each operation is one ``thresholdlab`` command line, run through
``thresholdlab.cli.main(argv)`` in this process with its output captured,
so the interpreter start-up is paid once and reported on its own as
``setup_s``.  The program is imported from ``src/`` of the checkout that
holds this file.

--trace 0 runs operations back to back for --seconds (and at least 100 of
them, so that ten fall beyond the 90th percentile), then checks every output
against the oracles and prints the end-to-end metrics.

--trace 1 takes a fixed number of operations from the same stream (set by
--seconds), runs them once untraced and once with every layer's entry
points wrapped in spans, and prints per-layer self times and work counts.
The counts depend only on the workload and seed.

Every op of a timed stream must pass; ``correct`` is false if one fails.
Inputs on which the program is known to be wrong (workloads.KNOWN_DEFECTS)
are run once after the measurement instead, and the number that still fail
is reported as ``known_defects``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
the metrics and every failed op go to ``bench/out/`` as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_OPS = 100
SETUP_RUNS = 11
# Operations per second of --seconds that a traced run takes: roughly a
# third of the untraced rate on a 2-core x86 box, so that the untraced and
# the traced pass together fit in --seconds.
TRACE_OPS_PER_S = {"binomial_width": 6, "run_curve": 3.5, "crosscheck": 18}


def _import_program():
    if not (SRC / "thresholdlab" / "__init__.py").is_file():
        sys.exit(f"error: no thresholdlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from thresholdlab import cli

    if Path(cli.__file__).resolve().parent != SRC / "thresholdlab":
        sys.exit(f"error: imported thresholdlab from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    """What a result depends on besides the code: machine, versions, settings."""
    import mpmath
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "THRESHOLDLAB_THREADS": os.environ.get("THRESHOLDLAB_THREADS"),
    }


def measure_setup(runs: int) -> list:
    """Wall times from starting a fresh interpreter until it has imported the CLI.

    The child reads the end time itself: time.perf_counter is the
    system-wide monotonic clock on Linux, and waiting for the child with a
    timeout polls in steps of up to 50 ms, which would round the figure.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import thresholdlab.cli; "
            "print(repr(time.perf_counter()))")
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(child.stdout) - start)
    return times


def call(cli, argv):
    """Run one command line in-process; returns (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback a CLI user would see
            error = f"{type(exc).__name__}: {str(exc)[:100]}"
        elapsed = time.perf_counter() - start
    return elapsed, checks.Outcome(code, out.getvalue(), err.getvalue(), error)


def judge(ops, outcomes):
    """(failed count, failure lines) of the ops against the oracles."""
    lines = []
    for op, outcome in zip(ops, outcomes):
        reason = checks.failure(op, outcome)
        if reason is not None:
            tag = f" [known defect: {op.known_defect}]" if op.known_defect else ""
            lines.append(f"{op.cell}: {reason}{tag} :: {' '.join(op.argv)[:120]}")
    return len(lines), lines


def probe_known_defects(cli):
    """Run each input of workloads.KNOWN_DEFECTS once, untimed: (still failing, lines)."""
    outcomes = [call(cli, op.argv)[1] for op in workloads.KNOWN_DEFECTS]
    return judge(workloads.KNOWN_DEFECTS, outcomes)


def clear_caches():
    """Empty the package's functools caches, so that each pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "thresholdlab" or name.startswith("thresholdlab."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_timed(cli, stream, seconds):
    ops, outcomes, latencies = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= MIN_OPS or elapsed >= 2 * seconds:
            break
        op = next(stream)
        took, outcome = call(cli, op.argv)
        ops.append(op)
        outcomes.append(outcome)
        latencies.append(took)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ops, outcomes, latencies, wall, rss_mb


def end_to_end(cli, args):
    # Half the set-ups run before the timed loop and half after it, so that
    # their median spans the run rather than one moment of the host's speed.
    setups = measure_setup(SETUP_RUNS // 2)
    ops, outcomes, lat, wall, rss_mb = run_timed(
        cli, workloads.op_stream(args.workload, args.seed), args.seconds)
    setups += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    failed, lines = judge(ops, outcomes)
    ms = sorted(1000.0 * t for t in lat)
    metrics = {
        "ops_per_s": (len(ops) / wall, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {"peak_rss_mb": (rss_mb, "MB"), "fail_frac": (failed / len(ops), "1"),
             "ops": (len(ops), "count")}
    return ops, failed, lines, metrics, extra


def per_layer(cli, args):
    stream = workloads.op_stream(args.workload, args.seed)
    rounds = math.ceil(TRACE_OPS_PER_S[args.workload] * args.seconds
                       / workloads.ROUND_LENGTH[args.workload])
    ops = list(itertools.islice(stream, rounds * workloads.ROUND_LENGTH[args.workload]))
    call(cli, ops[0].argv)  # warm the interpreter; the caches are emptied below

    clear_caches()
    start = time.perf_counter()
    for op in ops:
        call(cli, op.argv)
    untraced = len(ops) / (time.perf_counter() - start)

    clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        outcomes = [call(cli, op.argv)[1] for op in ops]
        traced = len(ops) / (time.perf_counter() - start)
    finally:
        tracer.uninstall()
    failed, lines = judge(ops, outcomes)
    metrics = {}
    for name, value in tracer.summarise().items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    extra = {"fail_frac": (failed / len(ops), "1"), "ops": (len(ops), "count"),
             "trace.overhead": (untraced / traced, "x")}
    return ops, failed, lines, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    env = environment()
    measure = per_layer if args.trace else end_to_end
    ops, failed, lines, metrics, extra = measure(cli, args)
    defects, defect_lines = probe_known_defects(cli)
    if args.trace:
        metrics["known_defects"] = (defects, "count")
    else:
        extra["known_defects"] = (defects, "count")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(ops)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for line in lines[:20]:
        print("  FAILED " + line)
    for line in defect_lines:
        print("  KNOWN " + line)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": len(ops), "failed": failed,
        "correct": failed == 0, "failures": lines, "known_defects": defect_lines,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
