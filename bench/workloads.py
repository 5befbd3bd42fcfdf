"""Seeded operation streams for the benchmark workloads.

Every operation is the argv of one ``thresholdlab`` CLI call plus what the
checker needs to judge its output.  A workload is a fixed, repeating
pattern of cells; each cell draws its inputs from its own low-discrepancy
sequence with a seeded offset.  So each seed gives different inputs, every
input is fresh (no two operations share an n unless the workload repeats
structures on purpose), and every run covers each cell's range evenly.
That keeps the cost mix of a run, and with it the end-to-end figures,
nearly the same from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import oracles

TOL = 1e-12  # the CLI's default --tol for width and scaling
EPS_LEVEL = 0.25  # the CLI's default --eps


@dataclass(frozen=True)
class Op:
    """One CLI call.

    ``check`` is ``(kind, *data)`` for the checker.  ``known_defect`` names
    a defect of the program that this input is expected to hit; only the
    ops of ``KNOWN_DEFECTS`` carry one.
    """

    cell: str
    argv: tuple
    check: tuple
    known_defect: str = ""


class Stratum:
    """Points of the Kronecker sequence frac(offset + j * alpha) in [0, 1)^d.

    alpha comes from the generalised golden ratio (the root of
    x^(d+1) = x + 1), which spreads any run of consecutive points evenly.
    """

    def __init__(self, rng: random.Random, dims: int):
        g = 2.0
        for _ in range(60):
            g = (1.0 + g) ** (1.0 / (dims + 1))
        self.alpha = [(1.0 / g) ** (i + 1) % 1.0 for i in range(dims)]
        self.offset = [rng.random() for _ in range(dims)]
        self.j = 0

    def draw(self):
        self.j += 1
        return [(o + self.j * a) % 1.0 for o, a in zip(self.offset, self.alpha)]


def _log_int(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from u in [0, 1)."""
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _width_op(cell, spec, known_defect=""):
    argv = ("width", "--json", oracles.spec_text(spec))
    return Op(cell, argv, ("width", spec, EPS_LEVEL, TOL), known_defect)


# -- binomial_width -------------------------------------------------------------

# series(n) and parallel(n) cross their levels about ln(4/3)/n from 0 or 1.
# Up to n = 10^11 that stays above 2 * TOL, which width can resolve; past
# it lies the known defect unresolved_extreme_location (see KNOWN_DEFECTS).
SERIES_PARALLEL_MAX_N = 1e11


def binomial_width(rng: random.Random):
    """k-out-of-n widths and evaluations, width-targeted builds, series/parallel near 0 and 1."""
    s_maj, s_kofn, s_eval = Stratum(rng, 1), Stratum(rng, 2), Stratum(rng, 3)
    s_scale, s_sp = Stratum(rng, 2), Stratum(rng, 1)
    targets = itertools.cycle(("ceil_log", "ceil_cuberoot", "ceil_sqrt"))
    sp_kinds = itertools.cycle(("series", "parallel"))

    def majority():
        n = _log_int(s_maj.draw()[0], 1e2, 1e7)
        return _width_op("majority_width", ("kofn", n // 2, n))

    def kofn_width():
        u, v = s_kofn.draw()
        n = _log_int(u, 1e2, 1e7)
        k = min(n - 1, max(2, round((0.03 + 0.94 * v) * n)))
        return _width_op("kofn_width", ("kofn", k, n))

    def kofn_eval():
        u, v, w = s_eval.draw()
        n = _log_int(u, 1e2, 1e7)
        theta = 0.03 + 0.94 * v
        k = min(n - 1, max(2, round(theta * n)))
        p = theta + (4.0 * w - 2.0) * math.sqrt(theta * (1.0 - theta) / n)
        spec = ("kofn", k, n)
        return Op("kofn_eval", ("eval", "--json", oracles.spec_text(spec), "--p", repr(p)),
                  ("eval", spec, p))

    def scaling():
        # Sizes at which the build may hit the known defect
        # inner_size_rounding_at_flat_top are drawn again.
        target = next(targets)
        while True:
            u, v = s_scale.draw()
            a, b = sorted((_log_int(u, 2**10, 2**22), _log_int(v, 2**10, 2**22)))
            sizes = (a, b) if a != b else (a, b + 1)
            if not any(oracles.flat_top_tie(target, n) for n in sizes):
                break
        argv = ("scaling", "--target", target, "--sizes", ",".join(map(str, sizes)))
        return Op("scaling", argv, ("scaling", target, sizes, EPS_LEVEL, TOL))

    def series_parallel():
        spec = (next(sp_kinds), _log_int(s_sp.draw()[0], 1e2, SERIES_PARALLEL_MAX_N))
        return _width_op("series_parallel_width", spec)

    # Two thirds of a round are the costly width and scaling ops, so the
    # median and the 90th percentile both fall inside one continuous range
    # of op costs rather than on the gap between cheap and costly ops.
    pattern = (majority, kofn_width, kofn_eval, scaling, majority, kofn_width,
               series_parallel, majority, kofn_width, scaling, kofn_eval, series_parallel)
    while True:
        for make in pattern:
            yield make()


# -- run_curve --------------------------------------------------------------------

CURVE_GRID = 6
# Cost caps, in units of one chain step (k + 4 state updates per unit on a
# line; the circular case runs k chains), that keep each op under ~0.3 s.
CIRCULAR_CURVE_UNITS = 150_000
WIDTH_UNITS = 14_000


def _chain_units(k: int, n: int, topology: str) -> int:
    return n * (k + 4) * (k if topology == "circular" else 1)


def _consec_spec(stratum, topology: str, cap=None):
    """consec(k, n): n log-uniform on [100, 10^4] (lower top end if a cap
    rules out k = 2 there), k uniform on 2..20 within the cap."""
    u, v = stratum.draw()
    n_hi = 1e4 if cap is None else min(1e4, cap / _chain_units(2, 1, topology))
    n = _log_int(u, 1e2, n_hi)
    k_max = 20
    while cap is not None and k_max > 2 and _chain_units(k_max, n, topology) > cap:
        k_max -= 1
    return ("consec", _pick(v, 2, k_max), n, topology)


def run_curve(rng: random.Random):
    """Curves and widths of consecutive-k-out-of-n systems, linear and circular."""
    s_cl, s_cc, s_wl, s_wc = (Stratum(rng, 2) for _ in range(4))

    def curve(cell, spec):
        argv = ("curve", oracles.spec_text(spec), "--grid", str(CURVE_GRID))
        return Op(cell, argv, ("curve", spec, CURVE_GRID))

    def curve_linear():
        return curve("curve_linear", _consec_spec(s_cl, "linear"))

    def curve_circular():
        return curve("curve_circular", _consec_spec(s_cc, "circular", CIRCULAR_CURVE_UNITS))

    def width_linear():
        return _width_op("width_linear", _consec_spec(s_wl, "linear", WIDTH_UNITS))

    def width_circular():
        return _width_op("width_circular", _consec_spec(s_wc, "circular", WIDTH_UNITS))

    pattern = (curve_linear, curve_circular, width_linear,
               curve_linear, curve_circular, width_circular)
    while True:
        for make in pattern:
            yield make()


# -- crosscheck -------------------------------------------------------------------

# A truncated prod( nested this deep is a parse error that the parser must
# report; 1500 deep is the known defect deep_nesting_traceback.
DEEP_NESTING = 400


# Building blocks of nested products, by ground size.
_BLOCKS = {
    2: (("series", 2), ("parallel", 2)),
    3: (("kofn", 2, 3), ("series", 3), ("parallel", 3), ("consec", 2, 3, "linear")),
    4: (("kofn", 2, 4), ("consec", 2, 4, "linear"), ("consec", 2, 4, "circular"), ("parallel", 4)),
}


def _small_pool(rng: random.Random):
    """24 structures reused across operations.

    Sizes are fixed per slot (the cost of ``verify`` doubles with each
    coordinate), and the rest is drawn from the seed.  Three draws per slot
    keep the pool's total cost nearly the same from seed to seed.
    """
    pool = []
    for n, shape, n_explicit in ((12, (2, 2, 3), 8), (16, (2, 2, 4), 10)) * 3:
        pool.append(("kofn", rng.randint(2, n - 1), n))
        pool.append(("consec", rng.randint(2, 4), n, rng.choice(("linear", "circular"))))
        a, b, c = (rng.choice(_BLOCKS[size]) for size in rng.sample(shape, 3))
        pool.append(("prod", a, ("prod", b, c)) if rng.random() < 0.5 else ("prod", ("prod", a, b), c))
        gens = [rng.randrange(1, 1 << n_explicit) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if bin(g).count("1") >= 2] or [(1 << n_explicit) - 1]
        pool.append(("explicit", n_explicit, oracles.upward_closure(n_explicit, gens)))
    return pool


def _deep_prod(depth: int, n: int) -> str:
    """prod( nested depth deep around series(n)."""
    return "prod(" * depth + f"series({n})" + ",series(2))" * depth


def crosscheck(rng: random.Random):
    """Many small ops: verify, point evaluations, Monte Carlo, malformed input."""
    pool = _small_pool(rng)
    large = (("kofn", 51, 101), ("consec", 3, 1000, "circular"))
    mc_specs = []  # a quarter of the Monte Carlo runs go to the two larger structures
    for i, small in enumerate(pool):
        if i % 3 == 0:
            mc_specs.append(large[i // 3 % 2])
        mc_specs.append(small)
    p_half = {}
    for spec in set(mc_specs):
        if spec[0] == "kofn":  # near enough to centre the Monte Carlo p
            p_half[spec] = (spec[1] - 0.5) / spec[2]
        else:
            ref = oracles.reference(spec)
            p_half[spec] = oracles.crossing(lambda p: ref(p)[0], 0.5)
    s_verify, s_eval, s_mc, s_malformed = Stratum(rng, 1), Stratum(rng, 2), Stratum(rng, 4), Stratum(rng, 1)
    verify_i = itertools.cycle(range(len(pool)))
    mc_i = itertools.cycle(range(len(mc_specs)))
    malformed_i = itertools.cycle(range(6))

    def verify():
        s_verify.draw()
        spec = pool[next(verify_i)]
        return Op("verify", ("verify", oracles.spec_text(spec)), ("verify", spec))

    def point_eval():
        u, v = s_eval.draw()
        spec = pool[_pick(u, 0, len(pool) - 1)]
        p = 0.02 + 0.96 * v
        return Op("eval", ("eval", "--json", oracles.spec_text(spec), "--p", repr(p)), ("eval", spec, p))

    def mc():
        u, v, w, mode = s_mc.draw()
        spec = mc_specs[next(mc_i)]
        ph = p_half[spec]
        p = ph + (u - 0.5) * 0.2 * min(ph, 1.0 - ph)
        seed = str(int(v * 2**31))
        # each sample of the 1000-unit ring costs ~10x a 101-unit sample
        scale = 0.1 if oracles.spec_n(spec) > 200 else 1.0
        if mode < 0.5:
            samples = int(scale * (10_000 + 30_000 * w))
            argv = ("mc", "--json", oracles.spec_text(spec), "--p", repr(p),
                    "--samples", str(samples), "--seed", seed)
            return Op("mc_samples", argv, ("mc", spec, p, samples, None))
        halfwidth = 0.015 + 0.015 * w if scale == 1.0 else 0.03
        argv = ("mc", "--json", oracles.spec_text(spec), "--p", repr(p),
                "--halfwidth", repr(halfwidth), "--seed", seed)
        return Op("mc_halfwidth", argv, ("mc", spec, p, None, halfwidth))

    def malformed():
        u = s_malformed.draw()[0]
        n = _pick(u, 3, 99)
        i = next(malformed_i)
        if i == 0:
            argv = ("eval", f"kofn(2,{n}", "--p", "0.5")
        elif i == 1:
            argv = ("eval", f"kofn(2,{n})", "--p", repr(1.0 + u))
        elif i == 2:
            argv = ("width", "--json", f"kofn({n + 1},{n})")
        elif i == 3:
            argv = ("mc", f"series({n})", f"--p={-u - 0.01!r}", "--samples", "1000")
        elif i == 4:
            argv = ("curve", f"consec(2,{n}", "--grid", "5")
        else:
            argv = ("eval", _deep_prod(DEEP_NESTING, n % 7 + 2)[:-1], "--p", "0.5")
        return Op("malformed", argv, ("malformed",))

    # 6 cheap ops (point evaluations, malformed input), 7 Monte Carlo runs and
    # 3 verify suites: the median lands among the Monte Carlo runs and the
    # 90th percentile among the verify suites.
    pattern = (verify, point_eval, mc, mc, point_eval, mc, verify, point_eval,
               mc, mc, point_eval, mc, verify, point_eval, mc, malformed)
    while True:
        for make in pattern:
            yield make()


# Inputs on which the program is known to be wrong.  They are left out of
# the timed streams, whose every op must pass, and are run once per
# benchmark run instead; the result reports how many still fail.
KNOWN_DEFECTS = (
    # bisection stops on an absolute 1e-12 bracket: p_half 4.55e-13, true 6.93e-13
    _width_op("series_1e12_width", ("series", 10**12), "unresolved_extreme_location"),
    _width_op("parallel_1e12_width", ("parallel", 10**12), "unresolved_extreme_location"),
    # invert_phi misses n/e^2 on phi's flat top: N = 259760 where the definition gives 259764
    Op("scaling", ("scaling", "--target", "ceil_sqrt", "--sizes", "479849"),
       ("scaling", "ceil_sqrt", (479849,), EPS_LEVEL, TOL), "inner_size_rounding_at_flat_top"),
    # RecursionError instead of exit 1 with a message
    Op("malformed", ("eval", _deep_prod(1500, 3), "--p", "0.5"), ("malformed",),
       "deep_nesting_traceback"),
)


WORKLOADS = {
    "binomial_width": binomial_width,
    "run_curve": run_curve,
    "crosscheck": crosscheck,
}

ROUND_LENGTH = {"binomial_width": 12, "run_curve": 6, "crosscheck": 16}


def op_stream(workload: str, seed: int):
    """The workload's endless operation stream for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
