"""Judging one CLI call's output against the oracles.

``failure(op, outcome)`` returns None when the call is right, else a one-line
reason.  A call is wrong when it raises, exits with a code other than the
expected one, prints something that cannot be checked, or disagrees with an oracle by
more than the bound the program reports (plus the oracle's own error).
Runs after the timed loop, so none of this is measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import oracles

# Allowance for the oracles' own rounding on a probability.
ORACLE_SLACK = 1e-14
# Level residual allowed beyond the location tolerance in width checks.
LEVEL_SLACK = 1e-12
# Relative agreement required of slopes, which carry no reported bound.
SLOPE_RTOL = 1e-9
# False-alarm rate of the Monte Carlo check, and the number of stopping
# points a --halfwidth run could have stopped at (union bound over them).
MC_FALSE_ALARM = 1e-7
MC_STOPPING_POINTS = 64


@dataclass
class Outcome:
    """What one CLI call did: exit code (None if it raised), output, exception."""

    code: object
    stdout: str
    stderr: str
    error: str = ""


@lru_cache(maxsize=None)
def _reference(spec):
    return oracles.reference(spec)


@lru_cache(maxsize=None)
def _monotone(spec):
    return oracles.BruteForce(spec).monotone


def _mu(spec):
    ref = _reference(spec)
    return lambda p: ref(p)[0]


def failure(op, out: Outcome):
    kind = op.check[0]
    if out.error:
        return f"raised {out.error}"
    if kind == "malformed":
        if out.code != 1 or not out.stderr.strip() or out.stdout:
            return f"exit {out.code} with stderr {out.stderr.strip()[:60]!r}; want exit 1 and a message"
        return None
    if out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()[:80]}"
    try:
        return _CHECKS[kind](out.stdout, *op.check[1:])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"output could not be checked ({type(exc).__name__}: {exc})"


def _check_eval(stdout, spec, p):
    r = json.loads(stdout)
    mu, dmu = _reference(spec)(p)
    if abs(r["mu"] - mu) > r["abs_error_bound"] + ORACLE_SLACK:
        return f"mu {r['mu']!r} vs oracle {mu!r} exceeds bound {r['abs_error_bound']:.2e}"
    if abs(r["dmu_dp"] - dmu) > SLOPE_RTOL * abs(dmu) + ORACLE_SLACK:
        return f"dmu_dp {r['dmu_dp']!r} vs oracle {dmu!r}"
    return None


def _check_locations(mu, levels, tol):
    """Each (p_hat, alpha): p_hat resolved, and the true crossing within tol of it.

    The crossing lies in [p_hat - tol, p_hat + tol] exactly when the
    increasing oracle curve passes alpha there, which is twice the tol/2
    that bisection promises.
    """
    for p_hat, alpha in levels:
        if not tol < p_hat < 1.0 - tol:
            return f"level {alpha}: location {p_hat!r} is within its tolerance {tol} of 0 or 1"
        lo, hi = max(0.0, p_hat - tol), min(1.0, p_hat + tol)
        if mu(lo) > alpha + LEVEL_SLACK or mu(hi) < alpha - LEVEL_SLACK:
            return f"level {alpha}: true crossing is not within {tol} of {p_hat!r}"
    return None


def _check_width(stdout, spec, eps, tol):
    r = json.loads(stdout)
    levels = ((r["p_lo"], eps), (r["p_half"], 0.5), (r["p_hi"], 1.0 - eps))
    bad = _check_locations(_mu(spec), levels, tol)
    if bad:
        return bad
    w = max(0.0, r["p_hi"] - r["p_lo"])
    ratio = w / (r["p_half"] * (1.0 - r["p_half"]))
    if r["width"] != w or not math.isclose(r["sharpness_ratio"], ratio, rel_tol=1e-12):
        return f"width {r['width']!r} / ratio {r['sharpness_ratio']!r} inconsistent with the locations"
    return None


def _check_curve(stdout, spec, grid):
    lines = stdout.splitlines()
    if lines[0] != "p,mu,dmu_dp" or len(lines) != grid + 1:
        return f"want a header and {grid} rows, got {len(lines)} lines"
    ref = _reference(spec)
    n = oracles.spec_n(spec)
    tol = 8.0 * oracles.EPS * n  # twice the DP's documented bound
    last = -1.0
    for i, line in enumerate(lines[1:]):
        p, mu, dmu = (float(x) for x in line.split(","))
        if p != i / (grid - 1):
            return f"row {i}: p = {p!r}"
        want, dwant = ref(p)
        if abs(mu - want) > tol:
            return f"p = {p!r}: mu {mu!r} vs oracle {want!r}"
        # Both chains sum slopes of up to sqrt(n / (p q)) (Cauchy-Schwarz)
        # over n steps before they cancel, which sets an absolute noise floor.
        if 0.0 < p < 1.0:
            floor = 8.0 * oracles.EPS * n * math.sqrt(n / (p * (1.0 - p)))
            if abs(dmu - dwant) > SLOPE_RTOL * abs(dwant) + floor:
                return f"p = {p!r}: dmu_dp {dmu!r} vs oracle {dwant!r}"
        if (p in (0.0, 1.0)) != math.isnan(dmu):
            return f"p = {p!r}: dmu_dp {dmu!r}"
        if mu < last - tol:
            return f"curve decreases at p = {p!r}"
        last = mu
    return None


def _check_scaling(stdout, target, sizes, eps, tol):
    lines = stdout.splitlines()
    if lines[0] != "n,N,c_N,tau,tau_times_c_N" or len(lines) != len(sizes) + 1:
        return f"want a header and {len(sizes)} rows, got {len(lines)} lines"
    for n, line in zip(sizes, lines[1:]):
        row = line.split(",")
        builds = {ground: spec for spec, ground in oracles.width_target_builds(target, n)}
        ground = int(row[1])
        if int(row[0]) != n or ground not in builds:
            return f"row {line!r}: want n={n} and N in {sorted(builds)}"
        if int(row[2]) != oracles.target_c(target, ground):
            return f"row {line!r}: want c_N={oracles.target_c(target, ground)}"
        mu = _mu(builds[ground])
        tau = oracles.crossing(mu, 1.0 - eps) - oracles.crossing(mu, eps)
        # each end within tol/2 of its crossing, plus evaluation error / slope
        if abs(float(row[3]) - tau) > tol + 1e-13:
            return f"n = {n}: tau {row[3]} vs oracle {tau!r}"
        if not math.isclose(float(row[4]), float(row[3]) * int(row[2]), rel_tol=1e-12):
            return f"n = {n}: tau_times_c_N {row[4]} inconsistent"
    return None


def _check_verify(stdout, spec):
    lines = stdout.splitlines()
    if not _monotone(spec):
        return "oracle finds the structure not monotone"
    names = [line.split()[1] for line in lines]
    if ("product_identity" in names) != (spec[0] == "prod") or len(names) < 7:
        return f"unexpected checks {names}"
    if any(not line.startswith("PASS") for line in lines):
        return "a check failed on a monotone structure"
    return None


def _check_mc(stdout, spec, p, samples, halfwidth):
    r = json.loads(stdout)
    n = r["samples"]
    if samples is not None and n != samples:
        return f"drew {n} samples, asked for {samples}"
    if halfwidth is not None and 0.5 * (r["ci_hi"] - r["ci_lo"]) > halfwidth and not r["capped"]:
        return f"stopped at halfwidth {0.5 * (r['ci_hi'] - r['ci_lo'])!r} > {halfwidth!r}"
    if not r["ci_lo"] <= r["p_hat"] <= r["ci_hi"]:
        return "interval does not bracket the estimate"
    # Hoeffding: a correct sampler misses this margin with probability below
    # MC_FALSE_ALARM, even taking the worst of the possible stopping points.
    points = 1 if samples is not None else MC_STOPPING_POINTS
    margin = math.sqrt(math.log(2.0 * points / MC_FALSE_ALARM) / (2.0 * n))
    mu = _mu(spec)(p)
    if abs(r["p_hat"] - mu) > margin:
        return f"p_hat {r['p_hat']!r} vs exact {mu!r} beyond margin {margin:.3g}"
    return None


_CHECKS = {
    "eval": _check_eval,
    "width": _check_width,
    "curve": _check_curve,
    "scaling": _check_scaling,
    "verify": _check_verify,
    "mc": _check_mc,
}
