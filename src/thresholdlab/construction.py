"""Building symmetric structures with a prescribed threshold width.

Widths of symmetric monotone structures range between the 1/sqrt(n) of a
majority vote and the 1/log(n) of a log-sized-block parallel-series
system.  Composing the two interpolates: an inner majority on ``a``
components contributes 1/sqrt(a), the outer parallel-series factor
contributes 1/log(n/a), and their product realizes width ~ 1/c(n) for any
sufficiently smooth integer profile c between log(n) and sqrt(n).

The inner size is chosen by inverting the profile map
``phi(n, x) = x ln(n/x)^2``, a bijection from [1, n/e^2] onto
[ln(n)^2, 4n/e^2]: picking a = phi^{-1}(c(n)^2) makes
sqrt(a) * ln(n/a) = c(n) up to the (capped) constant c~(n) = min(c(n),
2 sqrt(n)/e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal
from typing import Callable, Mapping, Sequence

from .exact_eval import EvaluationError
from .structures import StructureExpr, majority, parallel, product, series
from .threshold import width

_E2 = math.exp(2.0)
_PHI_CONTEXT = Context(prec=30)
# Relative error bound of x ln(n/x)^2 in doubles for x <= n/e^2, with room
# to spare: there ln(n/x) >= 2, and the division, the log (within 1 ulp),
# the square and the product add up to about 8e-16.
_PHI_DOUBLE_ERROR = 2e-15


class TargetError(ValueError):
    """Width-target profile outside the admissible envelope."""


def parallel_series(k: int) -> StructureExpr:
    """Parallel-series block system for scale k >= 2.

    floor(k / log2 k) blocks of m = floor(log2 k) components each; the
    system is down when some block is fully failed, so
    mu_p = 1 - (1 - p^m)^r.  Threshold located at 1/2 with width ~ 1/ln K
    on its K = m*r coordinates.
    """
    if k < 2:
        raise TargetError(f"parallel-series scale needs k >= 2, got {k}")
    m = k.bit_length() - 1  # floor(log2 k), exact
    r = int(k / math.log2(k))
    return product(parallel(m), series(r))


@dataclass(frozen=True)
class WidthTarget:
    """Integer width profile c(n), constrained to ln(n) <= c(n) <= sqrt(n).

    Builtins: ``ceil_log``, ``ceil_cuberoot``, ``ceil_sqrt``.  Explicit
    tables come from ``from_table``.  The envelope is validated pointwise
    at every size actually used; the upper edge allows the integer ceiling
    of sqrt(n) so that ceil-style profiles validate at non-squares.
    """

    name: str
    _fn: Callable[[int], int]

    BUILTINS = ("ceil_log", "ceil_cuberoot", "ceil_sqrt")

    @classmethod
    def builtin(cls, name: str) -> "WidthTarget":
        fns = {
            "ceil_log": lambda n: math.ceil(math.log(n)),
            "ceil_cuberoot": lambda n: math.ceil(n ** (1.0 / 3.0)),
            "ceil_sqrt": lambda n: math.ceil(math.sqrt(n)),
        }
        if name not in fns:
            raise TargetError(f"unknown builtin target {name!r}; have {cls.BUILTINS}")
        return cls(name, fns[name])

    @classmethod
    def from_table(cls, rows: Mapping[int, int], name: str = "table") -> "WidthTarget":
        table = {int(n): int(c) for n, c in rows.items()}
        if not table:
            raise TargetError("empty width-target table")
        last = None
        for n in sorted(table):
            if table[n] <= 0:
                raise TargetError(f"c({n}) = {table[n]} must be positive")
            if last is not None and table[n] < last:
                raise TargetError(f"table is not nondecreasing at n = {n}")
            last = table[n]

        def lookup(n: int) -> int:
            if n in table:
                return table[n]
            below = [m for m in table if m <= n]
            if not below:
                raise TargetError(f"table has no entry at or below n = {n}")
            return table[max(below)]

        return cls(name, lookup)

    def c(self, n: int) -> int:
        """Validated profile value at n."""
        if n < 2:
            raise TargetError(f"width targets need n >= 2, got {n}")
        value = int(self._fn(n))
        if value < math.log(n) or value > math.ceil(math.sqrt(n)):
            raise TargetError(
                f"c({n}) = {value} leaves the envelope "
                f"[ln n, ceil(sqrt n)] = [{math.log(n):.3f}, {math.ceil(math.sqrt(n))}]"
            )
        return value


@dataclass(frozen=True)
class ConstructionRecord:
    """Outcome of a width-targeted build.

    ``ground_size`` is the realized coordinate count a*m*r of the built
    expression; ``nominal_ground_size`` is the pre-flooring bookkeeping
    value floor(n/a)*a.  The two differ because the parallel-series factor
    floors its own block counts, so no single "true" size is asserted.
    """

    n: int
    a: int
    k: int
    m: int
    r: int
    ground_size: int
    nominal_ground_size: int
    target_width_inverse: float
    expr: StructureExpr


def phi(n: int, x: float) -> float:
    """Profile map x * ln(n/x)^2 on [1, n], rounded once from 30 digits."""
    if n < 2:
        raise EvaluationError(f"profile map needs n >= 2, got {n}")
    if not 1.0 <= x <= n:
        raise EvaluationError(f"profile map needs 1 <= x <= n, got x = {x!r}")
    ctx = _PHI_CONTEXT
    log = ctx.ln(ctx.divide(Decimal(n), Decimal(x)))
    return float(ctx.multiply(Decimal(x), ctx.multiply(log, log)))


def invert_phi(n: int, y: float) -> float:
    """Inverse of the profile map on [1, n/e^2], where it increases.

    (The derivative ln(n/x) * ln(n e^-2 / x) stays positive there.)
    Bisects until lo and hi are adjacent doubles.  Each step compares
    x ln(n/x)^2 in doubles with y, and falls back on ``phi`` when the two
    lie within _PHI_DOUBLE_ERROR of each other.  So every step goes the
    way the exact map would, and near the flat top at n/e^2, where phi
    changes in its last few bits, the double rounding noise of phi cannot
    send the bisection astray.
    """
    if n < 8:
        raise EvaluationError(
            f"inversion needs n >= 8: below e^2 the increasing branch "
            f"[1, n/e^2] is empty (got n = {n})"
        )
    lo_y, hi_y = phi(n, 1.0), phi(n, n / _E2)
    if not lo_y * (1.0 - 1e-12) <= y <= hi_y * (1.0 + 1e-12):
        raise EvaluationError(
            f"target {y!r} outside the invertible range [{lo_y!r}, {hi_y!r}]"
        )
    y = min(max(y, lo_y), hi_y)
    lo, hi = 1.0, n / _E2
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        value = mid * math.log(n / mid) ** 2
        if abs(value - y) <= _PHI_DOUBLE_ERROR * y:
            value = phi(n, mid)
        if value < y:
            lo = mid
        else:
            hi = mid


def build_arbitrary_width(target: WidthTarget, n: int) -> ConstructionRecord:
    """Inner majority composed with a parallel-series factor, width ~ 1/c(n).

    The capped profile c~(n) = min(c(n), 2 sqrt(n)/e) picks the inner
    majority size a = round(phi^{-1}(c~(n)^2)) clamped to >= 2 (a real-
    valued a is only meaningful as a k-out-of-n size, and a = 1 would
    degenerate).  A capped profile puts the inner size at phi's maximum
    x = n/e^2, which is taken directly: phi is flat there, so bisecting on
    it would miss x by far more than the inversion tolerance.  The
    remaining budget k = floor(n/a) drives the parallel-series factor.
    """
    if n < 8:
        raise TargetError(f"construction needs n >= 8, got {n}")
    c = float(target.c(n))
    cap = 2.0 * math.sqrt(n) / math.e
    if c >= cap:
        ctilde, x = cap, n / _E2
    else:
        ctilde, x = c, invert_phi(n, c * c)
    a = max(2, round(x))
    k = n // a
    if k < 4:
        raise TargetError(
            f"n = {n} too small for inner size a = {a}: need floor(n/a) >= 4, "
            f"so n >= {4 * a}"
        )
    bk = parallel_series(k)
    m, r = (stage.n for stage in bk.stages)
    expr = product(majority(a), bk)
    return ConstructionRecord(
        n=n,
        a=a,
        k=k,
        m=m,
        r=r,
        ground_size=a * m * r,
        nominal_ground_size=(n // a) * a,
        target_width_inverse=ctilde,
        expr=expr,
    )


def scaling_experiment(
    target: WidthTarget,
    sizes: Sequence[int],
    epsilon: float,
    tol: float = 1e-12,
) -> list:
    """Measured width per size: rows (n, N, c(N), tau, tau * c(N)).

    N is the realized ground size; a bounded tau * c(N) column across
    sizes is the evidence that the construction hits its width order.
    """
    if list(sizes) != sorted(sizes):
        raise EvaluationError("sizes must be increasing")
    rows = []
    for n in sizes:
        record = build_arbitrary_width(target, n)
        report = width(record.expr, epsilon, tol)
        c_n = target.c(record.ground_size)
        rows.append((n, record.ground_size, c_n, report.width, report.width * c_n))
    return rows
