"""Independent reference values for checking thresholdlab's answers.

Nothing here imports thresholdlab.  Each oracle is derived from the
definition of the structure by a different route than the program takes:

* k-out-of-n      -- scipy.stats.binom (incomplete beta), and its pmf for
                     the slope n * P(Bin(n-1, p) = k-1);
* series/parallel -- the closed forms 1-(1-p)^n and p^n via expm1/log1p;
* consecutive runs -- the renewal recursion on the position where the first
                     run of k failures ends (linear), and a split on the
                     runs touching the wrap point (circular), both summed
                     with positive terms only and differentiated in
                     forward mode;
* anything with n <= 20 -- brute force over all 2^n states, membership
                     computed with bit masks from the structure's spec.

A structure spec is a tuple: ("kofn", k, n), ("series", n), ("parallel", n),
("consec", k, n, topology), ("prod", inner, outer) or ("explicit", n,
members) with members a sorted tuple of ints whose bit i is coordinate i.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 2.0**-52


# -- spec helpers ------------------------------------------------------------


def spec_n(spec) -> int:
    if spec[0] == "prod":
        return spec_n(spec[1]) * spec_n(spec[2])
    return spec[2] if spec[0] in ("kofn", "consec") else spec[1]


def spec_text(spec) -> str:
    """The structure in thresholdlab's expression grammar."""
    kind = spec[0]
    if kind in ("series", "parallel"):
        return f"{kind}({spec[1]})"
    if kind == "kofn":
        return f"kofn({spec[1]},{spec[2]})"
    if kind == "consec":
        return f"consec({spec[1]},{spec[2]},{spec[3]})"
    if kind == "prod":
        return f"prod({spec_text(spec[1])},{spec_text(spec[2])})"
    n, members = spec[1], spec[2]
    bits = ",".join("".join(str((m >> i) & 1) for i in range(n)) for m in members)
    return f"explicit({n};{bits})"


# -- k-out-of-n, series, parallel --------------------------------------------


def kofn_mu_dmu(k: int, n: int, p: float):
    # scipy is imported here, after the timed loop, so that the workload
    # process's peak memory does not include it.
    from scipy.stats import binom

    return float(binom.sf(k - 1, n, p)), n * float(binom.pmf(k - 1, n - 1, p))


def series_mu(n: int, p: float) -> float:
    return -math.expm1(n * math.log1p(-p)) if p < 1.0 else 1.0


def parallel_mu(n: int, p: float) -> float:
    return math.exp(n * math.log(p)) if p > 0.0 else 0.0


# -- consecutive runs ----------------------------------------------------------


def _linear_fail_table(k: int, n: int, p: float):
    """F[m], dF[m]: P(some run of k failures among m linear components).

    The first run of k failures ends at position m > k exactly when
    positions m-k+1..m fail, position m-k works and the first m-k-1
    positions hold no run: F(m) = F(m-1) + q p^k (1 - F(m-k-1)).
    """
    q = 1.0 - p
    pk = p**k
    c = q * pk
    dc = k * p ** (k - 1) * q - pk
    F = [0.0] * (n + 1)
    dF = [0.0] * (n + 1)
    F[k] = pk
    dF[k] = k * p ** (k - 1)
    for m in range(k + 1, n + 1):
        w = 1.0 - F[m - k - 1]
        F[m] = F[m - 1] + c * w
        dF[m] = dF[m - 1] + dc * w - c * dF[m - k - 1]
    return F, dF


def consec_mu_dmu(k: int, n: int, topology: str, p: float):
    """Failure probability of a consecutive-k-out-of-n system and its slope."""
    if p <= 0.0 or p >= 1.0:
        return p, math.nan
    if k == n:  # one run covers everything, on a line or a cycle
        return p**n, n * p ** (n - 1)
    F, dF = _linear_fail_table(k, n, p)
    if topology == "linear":
        return F[n], dF[n]
    # Condition on s = i + j, the failures wrapping round the cut point:
    # i failures open the cycle, j close it, a working unit bounds each side
    # and the n-s-2 units in between form a linear chain.  With s >= k the
    # wrap run fails the system; summing those cases in closed form gives
    # p^k (k+1 - k p).
    q = 1.0 - p
    mu = [p**k * (k + 1 - k * p)]
    dmu = [k * (k + 1) * p ** (k - 1) * q]
    for s in range(k):
        ps = p**s
        f, df = F[n - s - 2], dF[n - s - 2]
        mu.append((s + 1) * q * q * ps * f)
        dps = s * p ** (s - 1) if s else 0.0
        dmu.append((s + 1) * ((dps * q * q - 2.0 * q * ps) * f + q * q * ps * df))
    return math.fsum(mu), math.fsum(dmu)


# -- brute force over {0,1}^n ----------------------------------------------------


def truth_table(spec) -> np.ndarray:
    """Membership of every state, indexed by the packed integer (bit i = unit i)."""
    kind = spec[0]
    n = spec_n(spec)
    if n > 20:
        raise ValueError("brute force needs n <= 20")
    x = np.arange(1 << n, dtype=np.int64)
    if kind in ("kofn", "series", "parallel"):
        k = {"kofn": spec[1], "series": 1, "parallel": n}[kind]
        return np.bitwise_count(x) >= k
    if kind == "consec":
        k = spec[1]
        mask = (1 << n) - 1
        y = x | (x << n) if spec[3] == "circular" else x
        run = y.copy()
        for j in range(1, k):
            run &= y >> j
        return (run & mask) != 0 if spec[3] == "circular" else run != 0
    if kind == "prod":
        inner, outer = truth_table(spec[1]), truth_table(spec[2])
        r, m = spec_n(spec[1]), spec_n(spec[2])
        indicator = np.zeros_like(x)
        for j in range(m):
            indicator |= inner[(x >> (j * r)) & ((1 << r) - 1)].astype(np.int64) << j
        return outer[indicator]
    table = np.zeros(1 << n, dtype=bool)
    table[list(spec[2])] = True
    return table


class BruteForce:
    """Reliability polynomial of a small structure, counted state by state."""

    def __init__(self, spec):
        self.n = spec_n(spec)
        table = truth_table(spec)
        x = np.arange(table.size, dtype=np.int64)
        weight = np.bitwise_count(x)
        self.counts = [int(c) for c in np.bincount(weight[table], minlength=self.n + 1)]
        self.monotone = True  # no member leaves the set when a unit fails
        for i in range(self.n):
            below = x[(x >> i) & 1 == 0]
            self.monotone &= not np.any(table[below] & ~table[below | (1 << i)])

    def mu(self, p: float) -> float:
        n = self.n
        return math.fsum(c * p**w * (1.0 - p) ** (n - w) for w, c in enumerate(self.counts) if c)

    def dmu(self, p: float) -> float:
        n, q = self.n, 1.0 - p
        return math.fsum(
            c * ((w * p ** (w - 1) * q ** (n - w) if w else 0.0)
                 - ((n - w) * p**w * q ** (n - w - 1) if w < n else 0.0))
            for w, c in enumerate(self.counts) if c
        )


def upward_closure(n: int, generators) -> tuple:
    """All states containing some generator, as sorted ints."""
    x = np.arange(1 << n, dtype=np.int64)
    member = np.zeros(x.size, dtype=bool)
    for g in generators:
        member |= (x & g) == g
    return tuple(int(v) for v in np.flatnonzero(member))


# -- width-targeted builds --------------------------------------------------------

PHI_REL_TOL = 1e-9  # the accuracy thresholdlab documents for inverting phi


def target_c(target: str, n: int) -> int:
    """The builtin width profiles c(n)."""
    if target == "ceil_log":
        return math.ceil(math.log(n))
    if target == "ceil_cuberoot":
        return math.ceil(n ** (1.0 / 3.0))
    return math.ceil(math.sqrt(n))


def _inner_size(target: str, n: int):
    """(x, capped): x = phi^-1(c~^2), where phi(x) = x ln(n/x)^2 on [1, n/e^2]
    and c~ = min(c(n), 2 sqrt(n)/e).  A capped c puts x at n/e^2."""
    c = float(target_c(target, n))
    cap = 2.0 * math.sqrt(n) / math.e
    if c >= cap:
        return n / math.exp(2.0), True
    return bisect(lambda x: x * math.log(n / x) ** 2 - c * c, 1.0, n / math.exp(2.0)), False


def width_target_builds(target: str, n: int):
    """(spec, ground size) of the width-targeted build, from its documented definition.

    Inner majority size a = round(x) for the x of ``_inner_size``; then
    k = n // a sets the parallel-series factor: blocks of floor(log2 k)
    units in parallel, floor(k / log2 k) blocks in series.  When x lies
    within the documented inversion tolerance of a half-integer, both
    roundings are correct.
    """
    x, _ = _inner_size(target, n)
    slack = PHI_REL_TOL * x
    out = []
    for a in sorted({max(2, round(x - slack)), max(2, round(x + slack))}):
        k = n // a
        m = k.bit_length() - 1
        r = int(k / math.log2(k))
        out.append((("prod", ("kofn", a // 2, a), ("prod", ("parallel", m), ("series", r))), a * m * r))
    return out


def flat_top_tie(target: str, n: int) -> bool:
    """Whether thresholdlab's inner size may round the wrong way at this n.

    A capped profile puts x at n/e^2, the maximum of phi, where phi is flat
    and bisection on it misses x by up to ~sqrt(eps * x * phi(x)), far more
    than the documented relative 1e-9.  When n/e^2 is that close to a
    half-integer the rounding can go either way.
    """
    x, capped = _inner_size(target, n)
    return capped and abs(x % 1.0 - 0.5) <= 1e-7 * x


# -- inversion -------------------------------------------------------------------


def bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi], to the last representable bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def crossing(mu, alpha: float) -> float:
    """The p in [0, 1] with mu(p) = alpha for an increasing curve mu."""
    return bisect(lambda p: mu(p) - alpha, 0.0, 1.0)


def reference(spec):
    """A function p -> (mu_p, d mu_p / dp) for the structure, from the oracles above."""
    kind = spec[0]
    if kind == "series":
        n = spec[1]
        return lambda p: (series_mu(n, p), n * math.exp((n - 1) * math.log1p(-p)) if p < 1 else 0.0)
    if kind == "parallel":
        n = spec[1]
        return lambda p: (parallel_mu(n, p), n * math.exp((n - 1) * math.log(p)) if p > 0 else 0.0)
    if kind == "kofn":
        return lambda p: kofn_mu_dmu(spec[1], spec[2], p)
    if spec_n(spec) <= 20:
        bf = BruteForce(spec)
        return lambda p: (bf.mu(p), bf.dmu(p))
    if kind == "consec":
        return lambda p: consec_mu_dmu(spec[1], spec[2], spec[3], p)
    if kind == "prod":
        inner, outer = reference(spec[1]), reference(spec[2])

        def composed(p):
            q, dq = inner(p)
            mu, dmu = outer(q)
            return mu, dmu * dq

        return composed
    raise ValueError(f"no oracle for {spec!r}")
