"""Sampling-based estimation of the failure probability.

The estimator draws component states coordinatewise Bernoulli(p) with a
counter-based generator (Philox keyed by seed and batch index), so the
same seed reproduces the same bits no matter how batches are scheduled
across workers, and batch merges are order-independent integer sums.
Intervals are Wilson score intervals, which stay honest next to 0 and 1
-- exactly where threshold tails live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact_eval import _check_prob
from .structures import _BATCH_VALUES, StructureExpr

Z95 = 1.959963984540054  # standard normal quantile at 0.975

SAMPLE_CAP = 10**8


class McError(ValueError):
    """Invalid Monte Carlo request."""


@dataclass(frozen=True)
class McEstimate:
    """Estimate with a 95% Wilson score interval.

    ``capped`` marks a halfwidth request that hit the sample cap before
    reaching its goal.  Same seed and inputs give bit-identical results.
    """

    p_hat: float
    ci_lo: float
    ci_hi: float
    samples: int
    seed: int
    capped: bool = False

    def __post_init__(self):
        if not self.ci_lo <= self.p_hat <= self.ci_hi:
            raise McError(f"interval does not bracket the estimate: {self}")

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.ci_hi - self.ci_lo)


def wilson_interval(successes: int, samples: int, z: float = Z95):
    """Wilson score interval for a binomial proportion."""
    if samples <= 0:
        raise McError("need at least one sample")
    phat = successes / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2.0 * samples)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples))
        / denom
    )
    # the score equation has an exact root at the boundary when phat is 0 or 1
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == samples else min(1.0, center + half)
    return lo, hi


def _batches(expr: StructureExpr, p: float, seed: int, limit: int, first: int):
    """Yield (members, rows) per batch until ``limit`` samples are drawn.

    Batch b draws min(first * 2^b, memory cap, samples left) rows from a
    Philox stream keyed by (seed, b), so a batch's bits depend on the
    inputs alone.  A row must fit in one batch of _BATCH_VALUES values.
    """
    if expr.n > _BATCH_VALUES:
        raise McError(f"sampling needs n <= {_BATCH_VALUES}, got {expr.n}")
    cap = _BATCH_VALUES // expr.n
    done = batch = 0
    while done < limit:
        rows = min(first << min(batch, 40), cap, limit - done)
        key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | (batch << 64)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = (rng.random((rows, expr.n)) < p).astype(np.uint8)
        yield int(np.count_nonzero(expr._contains_batch(x))), rows
        done += rows
        batch += 1


def estimate_availability(
    expr: StructureExpr, p: float, samples: int, seed: int = 0
) -> McEstimate:
    """Fraction of `samples` (100 to SAMPLE_CAP) Bernoulli(p) draws in the failure set."""
    p = _check_prob(p)
    samples = int(samples)
    if not 100 <= samples <= SAMPLE_CAP:
        raise McError(f"need 100 to {SAMPLE_CAP} samples, got {samples}")
    successes = sum(hits for hits, _ in _batches(expr, p, seed, samples, samples))
    lo, hi = wilson_interval(successes, samples)
    return McEstimate(successes / samples, lo, hi, samples, seed)


def estimate_to_halfwidth(
    expr: StructureExpr, p: float, halfwidth: float, seed: int = 0
) -> McEstimate:
    """Add sample batches until the Wilson interval halfwidth fits.

    Batch b draws min(1024 * 2^b, memory cap) samples, a schedule fixed by
    the inputs alone, so results stay reproducible while loose targets
    stop within a few thousand samples.  Stops at SAMPLE_CAP samples;
    hitting the cap is reported on the result (``capped``), not raised.
    """
    p = _check_prob(p)
    halfwidth = float(halfwidth)
    if not 0.0 < halfwidth < 0.5:
        raise McError(f"halfwidth must lie in (0, 0.5), got {halfwidth!r}")
    successes = done = 0
    for hits, rows in _batches(expr, p, seed, SAMPLE_CAP, 1024):
        successes += hits
        done += rows
        lo, hi = wilson_interval(successes, done)
        if 0.5 * (hi - lo) <= halfwidth:
            return McEstimate(successes / done, lo, hi, done, seed)
    return McEstimate(successes / done, lo, hi, done, seed, capped=True)
