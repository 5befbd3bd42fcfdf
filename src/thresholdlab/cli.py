"""Command-line front end.

Subcommands:

* ``eval``       -- mu_p and d mu_p/dp at one p
* ``curve``      -- CSV sweep "p,mu,dmu_dp" over a grid
* ``width``      -- threshold report at a level (``threshold`` is an alias)
* ``verify``     -- run the invariant suite on one structure, PASS/FAIL lines
* ``construct``  -- width-targeted build record
* ``scaling``    -- CSV width-scaling table (--target) or sharpness trend (--family)
* ``mc``         -- Monte Carlo estimate with Wilson interval

Exit status: 0 on success, 1 on bad input, 2 when ``verify`` finds a
failing check.  CSV output uses '.' decimals and '\\n' line endings
regardless of locale.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import construction, montecarlo, structures, threshold
from .exact_eval import (
    EvaluationError,
    availability,
    derivative,
    influences,
    reliability_polynomial,
)
from .grammar import ParseError, format_expr, parse_expr
from .structures import MAX_ENUM_BITS, Product, StructureError

_ROUND_TRIP_LEVELS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
_CHECK_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def _emit(args, payload: dict, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- subcommand handlers ----------------------------------------------------


def _cmd_eval(args) -> int:
    expr = parse_expr(args.expr)
    res = availability(expr, args.p)
    dmu = derivative(expr, args.p) if 0.0 < args.p < 1.0 else math.nan
    payload = {
        "expr": format_expr(expr),
        "p": args.p,
        "mu": res.value,
        "dmu_dp": None if math.isnan(dmu) else dmu,
        "method": res.method,
        "abs_error_bound": res.abs_error_bound,
    }
    _emit(args, payload, [
        f"expr = {payload['expr']}",
        f"mu = {res.value!r}   (method {res.method}, abs error <= {res.abs_error_bound:.2e})",
        f"dmu_dp = {dmu!r}",
    ])
    return 0


def _cmd_curve(args) -> int:
    expr = parse_expr(args.expr)
    if args.grid < 2:
        raise EvaluationError(f"--grid needs at least 2 points, got {args.grid}")
    ps = [i / (args.grid - 1) for i in range(args.grid)]

    print("p,mu,dmu_dp")
    for p in ps:
        mu = availability(expr, p).value
        dmu = derivative(expr, p) if 0.0 < p < 1.0 else math.nan
        print(f"{p!r},{mu!r},{'nan' if math.isnan(dmu) else repr(dmu)}")
    return 0


def _cmd_width(args) -> int:
    expr = parse_expr(args.expr)
    report = threshold.width(expr, args.eps, args.tol)
    payload = {"expr": format_expr(expr), **asdict(report)}
    _emit(args, payload, [
        f"expr = {payload['expr']}",
        f"epsilon = {report.epsilon!r}",
        f"p_lo = {report.p_lo!r}",
        f"p_hi = {report.p_hi!r}",
        f"width = {report.width!r}",
        f"p_half = {report.p_half!r}",
        f"sharpness_ratio = {report.sharpness_ratio!r}",
        f"tol = {report.tol!r}",
    ])
    return 0


def _verify_rows(expr, tol: float):
    """(name, ok, detail) rows for the full invariant suite on one structure."""
    rows = []
    small = expr.n <= MAX_ENUM_BITS

    if small:
        ok = structures.verify_monotone(expr)
        rows.append(("monotone_exhaustive", ok, f"all {1 << expr.n} configurations"))
    else:
        ok = structures.spot_check_monotone(expr)
        rows.append(("monotone_sampled", ok, "randomized spot check (n > 20)"))

    if isinstance(expr, Product) and small:
        poly = reliability_polynomial(expr)
        worst = max(
            abs(poly.evaluate(p) - availability(expr, p).value) for p in _CHECK_GRID
        )
        rows.append(("product_identity", worst <= 1e-12, f"max |flat - composed| = {worst:.3e}"))

    if small:
        worst_sum = 0.0
        worst_fd = 0.0
        h = 1e-6
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            dmu = derivative(expr, p)
            worst_sum = max(worst_sum, abs(math.fsum(influences(expr, p)) - dmu))
            fd = (availability(expr, p + h).value - availability(expr, p - h).value) / (2 * h)
            worst_fd = max(worst_fd, abs(dmu - fd))
        rows.append(("russo_influence_sum", worst_sum <= 1e-10, f"max gap = {worst_sum:.3e}"))
        rows.append(("derivative_vs_finite_diff", worst_fd <= 1e-6, f"max gap = {worst_fd:.3e}"))

    slack_lo = math.inf
    slack_hi = math.inf
    slack_cs = math.inf
    for p in _CHECK_GRID:
        lower, upper = threshold.check_entropy_inequalities(expr, p)
        slack_lo = min(slack_lo, lower.slack)
        slack_hi = min(slack_hi, upper.slack)
        slack_cs = min(slack_cs, threshold.check_cauchy_schwarz_bound(expr, p).slack)
    rows.append(("entropy_lower", slack_lo >= -threshold.SLACK_TOL, f"min slack = {slack_lo:.3e}"))
    rows.append(("entropy_upper", slack_hi >= -threshold.SLACK_TOL, f"min slack = {slack_hi:.3e}"))
    rows.append(("cauchy_schwarz", slack_cs >= -threshold.SLACK_TOL, f"min slack = {slack_cs:.3e}"))

    worst_rt = max(
        abs(availability(expr, threshold.locate(expr, a, min(tol, 1e-13))).value - a)
        for a in _ROUND_TRIP_LEVELS
    )
    rows.append(("inversion_round_trip", worst_rt <= 1e-10, f"max |mu(p(a)) - a| = {worst_rt:.3e}"))
    return rows


def _cmd_verify(args) -> int:
    expr = parse_expr(args.expr)
    rows = _verify_rows(expr, args.tol)
    if args.json:
        payload = {
            "expr": format_expr(expr),
            "checks": [{"name": n, "pass": ok, "detail": d} for n, ok, d in rows],
            "all_pass": all(ok for _, ok, _ in rows),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for name, ok, detail in rows:
            print(f"{'PASS' if ok else 'FAIL'}  {name:<28} {detail}")
    return 0 if all(ok for _, ok, _ in rows) else 2


def _load_target(text: str) -> construction.WidthTarget:
    if text.startswith("file:"):
        path = text[len("file:"):]
        rows = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("n,"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise construction.TargetError(
                        f"{path}:{line_no}: expected 'n,c', got {line!r}"
                    )
                rows[int(parts[0])] = int(parts[1])
        target = construction.WidthTarget.from_table(rows, name=f"file:{path}")
        for n in rows:
            target.c(n)  # envelope validation on the supplied rows
        return target
    return construction.WidthTarget.builtin(text)


def _cmd_construct(args) -> int:
    target = _load_target(args.target)
    record = construction.build_arbitrary_width(target, args.n)
    payload = {
        "target": target.name,
        "n": record.n,
        "a": record.a,
        "k": record.k,
        "m": record.m,
        "r": record.r,
        "ground_size": record.ground_size,
        "nominal_ground_size": record.nominal_ground_size,
        "target_width_inverse": record.target_width_inverse,
        "expr": format_expr(record.expr),
    }
    _emit(args, payload, [f"{key} = {value}" for key, value in payload.items()])
    return 0


_FAMILIES = {
    "majority": structures.majority,
    "series": structures.series,
    "parallel": structures.parallel,
    "parallel_series": construction.parallel_series,
}


def _cmd_scaling(args) -> int:
    sizes = sorted(int(s) for s in args.sizes.split(",") if s)
    if not sizes:
        raise EvaluationError("--sizes needs a comma-separated list of integers")
    # rows first, so a failing run prints nothing but its error
    if args.target:
        header = "n,N,c_N,tau,tau_times_c_N"
        rows = construction.scaling_experiment(
            _load_target(args.target), sizes, args.eps, args.tol
        )
    else:
        header = "n,sharpness_ratio,half_slope_statistic"
        rows = threshold.sharpness_trend(_FAMILIES[args.family], sizes, args.eps, args.tol)
    print(header)
    for row in rows:
        print(",".join(map(repr, row)))
    return 0


def _cmd_mc(args) -> int:
    expr = parse_expr(args.expr)
    if (args.samples is None) == (args.halfwidth is None):
        raise EvaluationError("give exactly one of --samples or --halfwidth")
    if args.samples is not None:
        est = montecarlo.estimate_availability(expr, args.p, args.samples, args.seed)
    else:
        est = montecarlo.estimate_to_halfwidth(expr, args.p, args.halfwidth, args.seed)
    payload = {"expr": format_expr(expr), "p": args.p, **asdict(est)}
    _emit(args, payload, [
        f"expr = {payload['expr']}",
        f"p_hat = {est.p_hat!r}",
        f"ci95 = [{est.ci_lo!r}, {est.ci_hi!r}]",
        f"samples = {est.samples}",
        f"seed = {est.seed}",
        f"capped = {est.capped}",
    ])
    return 0


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thresholdlab",
        description="Monotone failure-set thresholds: exact curves, widths, "
        "constructions, and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expr(p):
        p.add_argument("expr", help="structure expression, e.g. 'prod(parallel(2),series(3))'")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("eval", help="mu and dmu/dp at one p")
    add_expr(p)
    p.add_argument("--p", type=float, required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("curve", help="CSV p,mu,dmu_dp sweep")
    add_expr(p)
    p.add_argument("--grid", type=int, default=101, help="grid points incl. 0 and 1")
    p.set_defaults(fn=_cmd_curve)

    for name in ("width", "threshold"):
        p = sub.add_parser(name, help="threshold report at a level")
        add_expr(p)
        p.add_argument("--eps", type=float, default=0.25)
        p.add_argument("--tol", type=float, default=1e-12)
        add_json(p)
        p.set_defaults(fn=_cmd_width)

    p = sub.add_parser("verify", help="invariant suite with PASS/FAIL lines")
    add_expr(p)
    p.add_argument("--tol", type=float, default=1e-12)
    add_json(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("construct", help="width-targeted build record")
    p.add_argument("--target", required=True,
                   help="ceil_log | ceil_cuberoot | ceil_sqrt | file:PATH")
    p.add_argument("--n", type=int, required=True)
    add_json(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("scaling", help="width-scaling or sharpness-trend CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="width target as in construct")
    group.add_argument("--family", choices=sorted(_FAMILIES))
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("mc", help="Monte Carlo estimate")
    add_expr(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--halfwidth", type=float)
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(fn=_cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (EvaluationError, StructureError, construction.TargetError,
            montecarlo.McError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
