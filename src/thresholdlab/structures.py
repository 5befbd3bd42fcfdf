"""Monotone failure sets on the hypercube {0,1}^n.

A structure describes which component-state vectors (1 = failed) bring a
system down.  All structures here are monotone ("coherent" in reliability
jargon): failing one more component never repairs the system.  Supported
variants:

* ``KOutOfN(k, n)``   -- down when at least k of n components are failed;
                         k=1 is a series system, k=n a parallel system.
* ``Consecutive``     -- down when k consecutive components (on a cycle or
                         a line) are failed.
* ``Product``         -- replace every component of an outer system by an
                         independent copy of an inner system; stored as a
                         flat chain of stages, innermost first.
* ``Explicit``        -- an arbitrary up-closed member set, n <= 20.

Structures are immutable value objects; every operation in this module is
a pure function and safe to call concurrently.  For n <= 20 a structure
builds its truth table once, on first use, and keeps it read-only; every
exhaustive check reads that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# Exhaustive verification walks all 2^n configurations; 2^20 (~1M) keeps
# brute force under a second and caps memory near 20 MB.
MAX_ENUM_BITS = 20

# Sampling draws at most this many values (16 MB of doubles) per batch.
_BATCH_VALUES = 1 << 21


class StructureError(ValueError):
    """Invalid structure definition or operand."""


def _as_bit_tuple(bits) -> tuple:
    if isinstance(bits, Configuration):
        return bits.bits
    if isinstance(bits, str):
        bits = tuple(int(c) for c in bits)
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise StructureError(f"configuration entries must be 0 or 1, got {bits}")
    return bits


@dataclass(frozen=True)
class Configuration:
    """A point of {0,1}^n; entry 1 marks a failed component."""

    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "bits", _as_bit_tuple(self.bits))

    @property
    def n(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


class StructureExpr:
    """Base class for monotone failure-set expressions.

    Subclasses provide ``n`` (ground size), scalar membership via
    ``_contains``, and vectorized membership via ``_contains_batch``.
    """

    n: int

    # -- membership ------------------------------------------------------

    def _contains(self, bits: tuple) -> bool:
        raise NotImplementedError

    def _contains_batch(self, x: np.ndarray) -> np.ndarray:
        """Membership of each row of an (B, n) 0/1 array."""
        raise NotImplementedError

    def __contains__(self, cfg) -> bool:
        return membership(self, cfg)

    # -- truth table -----------------------------------------------------

    @cached_property
    def _table(self) -> np.ndarray:
        if self.n > MAX_ENUM_BITS:
            raise StructureError(
                f"truth table needs n <= {MAX_ENUM_BITS}, got n = {self.n}; "
                "use sampled spot checks for larger structures"
            )
        table = self._build_table()
        table.flags.writeable = False
        return table

    def _build_table(self) -> np.ndarray:
        return self._contains_batch(enumerate_bits(self.n))


@dataclass(frozen=True)
class KOutOfN(StructureExpr):
    """Down when the number of failed components reaches ``k``."""

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise StructureError(
                f"k-out-of-n requires 1 <= k <= n, got k={self.k}, n={self.n}"
            )

    def _contains(self, bits):
        return sum(bits) >= self.k

    def _contains_batch(self, x):
        return x.sum(axis=1, dtype=np.int64) >= self.k


@dataclass(frozen=True)
class Consecutive(StructureExpr):
    """Down when ``k`` consecutive components are failed.

    ``topology`` is ``"circular"`` (components around a cycle, the default)
    or ``"linear"`` (a line, no wrap-around).
    """

    k: int
    n: int
    topology: str = "circular"

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise StructureError(
                f"consecutive-k-out-of-n requires 1 <= k <= n, got k={self.k}, n={self.n}"
            )
        if self.topology not in ("circular", "linear"):
            raise StructureError(f"unknown topology {self.topology!r}")

    def _contains(self, bits):
        k, n = self.k, self.n
        run = 0
        seq = bits + bits[: k - 1] if self.topology == "circular" else bits
        for b in seq:
            run = run + 1 if b else 0
            if run >= k:
                return True
        return False

    def _contains_batch(self, x):
        k = self.k
        if self.topology == "circular" and k > 1:
            x = np.concatenate([x, x[:, : k - 1]], axis=1)
        cs = np.zeros((x.shape[0], x.shape[1] + 1), dtype=np.int64)
        np.cumsum(x, axis=1, out=cs[:, 1:])
        win = cs[:, k:] - cs[:, :-k]
        return (win == k).any(axis=1)


@dataclass(frozen=True, init=False)
class Product(StructureExpr):
    """Plug an inner system into every component slot of an outer system.

    A product is a flat chain of non-product ``stages``, innermost first:
    ``Product(a, Product(b, c))`` and ``Product(Product(a, b), c)`` are the
    same chain (a, b, c).  Coordinates are laid out block-major: with stage
    sizes n_a, n_b, n_c the coordinate i_a of block (j_b, j_c) sits at flat
    position (j_c n_b + j_b) n_a + i_a.  Each stage maps every block of its
    size to its membership bit, and the last stage's bit decides.
    """

    stages: tuple
    n: int

    def __init__(self, inner: StructureExpr, outer: StructureExpr):
        stages = []
        for side, operand in (("inner", inner), ("outer", outer)):
            if not isinstance(operand, StructureExpr):
                raise StructureError(f"{side} operand is not a structure: {operand!r}")
            stages.extend(operand.stages if isinstance(operand, Product) else (operand,))
        object.__setattr__(self, "stages", tuple(stages))
        object.__setattr__(self, "n", math.prod(stage.n for stage in stages))

    def _contains(self, bits):
        for stage in self.stages:
            r = stage.n
            bits = tuple(int(stage._contains(bits[j : j + r])) for j in range(0, len(bits), r))
        return bool(bits[0])

    def _contains_batch(self, x):
        for stage in self.stages:
            x = stage._contains_batch(np.ascontiguousarray(x).reshape(-1, stage.n))
            x = x.view(np.uint8)
        return x.view(bool)

    def _build_table(self):
        # the table covers the stages so far; the next stage reads its block
        # indicator, whose bit j is that table at block j of the index
        first, *outer = self.stages
        table = truth_table(first)
        for stage in outer:
            indicator = np.zeros(1, dtype=np.int64)
            for j in range(stage.n):
                indicator = np.add.outer(table.astype(np.int64) << j, indicator).ravel()
            table = truth_table(stage)[indicator]
        return table


@dataclass(frozen=True)
class Explicit(StructureExpr):
    """An explicit up-closed member set on n <= 20 coordinates.

    The member list must already be closed upward under the coordinatewise
    order and must be neither empty nor all of {0,1}^n; both conditions are
    checked at construction.
    """

    n: int
    members: frozenset

    def __post_init__(self):
        if self.n > MAX_ENUM_BITS:
            raise StructureError(
                f"explicit sets are capped at n = {MAX_ENUM_BITS}, got n = {self.n}"
            )
        if self.n < 1:
            raise StructureError("explicit set needs n >= 1")
        members = frozenset(_as_bit_tuple(m) for m in self.members)
        if any(len(m) != self.n for m in members):
            raise StructureError("member length differs from n")
        object.__setattr__(self, "members", members)
        if not members:
            raise StructureError("empty failure set is trivial; rejected")
        if len(members) == 1 << self.n:
            raise StructureError("full failure set is trivial; rejected")
        bad = _monotone_violation(self._table)
        if bad is not None:
            member, outside = (f"{v:0{self.n}b}"[::-1] for v in bad)
            raise StructureError(
                f"member set is not up-closed: {member} is a member but {outside} is not"
            )

    def _build_table(self):
        table = np.zeros(1 << self.n, dtype=bool)
        table[_pack(np.array(list(self.members), dtype=np.uint8))] = True
        return table

    def _contains(self, bits):
        return bits in self.members

    def _contains_batch(self, x):
        return self._table[_pack(x)]


@dataclass(frozen=True)
class PermutationPair:
    """Permutations g of inner coordinates and h of outer blocks.

    Acting on grid coordinate (i, j) as (g(i), h(j)), both 0-based.
    """

    g: tuple
    h: tuple

    def __post_init__(self):
        for name, perm in (("g", self.g), ("h", self.h)):
            perm = tuple(int(v) for v in perm)
            object.__setattr__(self, name, perm)
            if sorted(perm) != list(range(len(perm))):
                raise StructureError(f"{name} is not a permutation of 0..{len(perm) - 1}")

    def flat_source_order(self, r: int, m: int) -> list:
        """Flat index q = j*r + i of the source coordinate for each target slot."""
        if len(self.g) != r or len(self.h) != m:
            raise StructureError(
                f"permutation sizes ({len(self.g)}, {len(self.h)}) do not match "
                f"product shape ({r}, {m})"
            )
        return [self.h[j] * r + self.g[i] for j in range(m) for i in range(r)]


# -- constructors ---------------------------------------------------------


def series(n: int) -> KOutOfN:
    """Series system: down as soon as one component fails."""
    return KOutOfN(1, n)


def parallel(n: int) -> KOutOfN:
    """Parallel system: down only when every component fails."""
    return KOutOfN(n, n)


def majority(n: int) -> KOutOfN:
    """Down when at least floor(n/2) components fail (n >= 2)."""
    return KOutOfN(n // 2, n)


def product(a: StructureExpr, b: StructureExpr) -> Product:
    """Compose: replace each component of ``b`` by an independent copy of ``a``."""
    return Product(a, b)


def upward_closure(n: int, generators: Iterable) -> frozenset:
    """All configurations coordinatewise >= some generator; n <= MAX_ENUM_BITS."""
    generators = [_as_bit_tuple(g) for g in generators]
    if any(len(g) != n for g in generators):
        raise StructureError(f"generator length differs from n = {n}")
    bits = enumerate_bits(n)
    table = np.zeros(len(bits), dtype=bool)
    table[_pack(np.array(generators, dtype=np.uint8).reshape(len(generators), n))] = True
    for i in range(n):
        view = _flip(table, i)
        view[:, 1] |= view[:, 0]
    return frozenset(map(tuple, bits[table].tolist()))


def explicit_from_generators(n: int, generators: Iterable) -> Explicit:
    """Explicit structure holding the upward closure of the generators."""
    return Explicit(n, upward_closure(n, generators))


# -- operations -----------------------------------------------------------


def membership(expr: StructureExpr, cfg) -> bool:
    """Whether the configuration is a member of the failure set."""
    bits = _as_bit_tuple(cfg)
    if len(bits) != expr.n:
        raise StructureError(
            f"configuration length {len(bits)} does not match ground size {expr.n}"
        )
    return expr._contains(bits)


def truth_table(expr: StructureExpr) -> np.ndarray:
    """Membership of every configuration, indexed by the packed integer.

    Coordinate i maps to bit i of the index.  The table is built on the
    structure's first call and cached on it; the array is read-only.
    Requires n <= MAX_ENUM_BITS.
    """
    return expr._table


def enumerate_bits(n: int) -> np.ndarray:
    """(2^n, n) matrix of all configurations; row index packs the bits."""
    if n > MAX_ENUM_BITS:
        raise StructureError(f"refusing to enumerate 2^{n} configurations")
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.empty((1 << n, n), dtype=np.uint8)
    for i in range(n):
        out[:, i] = (idx >> i) & 1
    return out


def verify_monotone(expr: StructureExpr) -> bool:
    """Exhaustively check up-closure: no member gains a failure and leaves.

    Requires n <= MAX_ENUM_BITS; see spot_check_monotone for larger sizes.
    """
    return _monotone_violation(truth_table(expr)) is None


def spot_check_monotone(expr: StructureExpr, samples: int = 2000, seed: int = 0) -> bool:
    """Randomized up-closure check for structures too large to enumerate.

    Samples configurations at several densities and verifies that single
    0 -> 1 flips never leave the set.  A True result is evidence, not proof.
    Rows are drawn in batches of at most _BATCH_VALUES values.
    """
    n = expr.n
    if n > _BATCH_VALUES:
        raise StructureError(f"sampled monotone check needs n <= {_BATCH_VALUES}, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    for p in (0.2, 0.5, 0.8):
        left = max(1, samples // 3)
        while left:
            batch = min(left, _BATCH_VALUES // n)
            left -= batch
            x = (rng.random((batch, n)) < p).astype(np.uint8)
            rows = np.flatnonzero(expr._contains_batch(x))
            if rows.size == 0:
                continue
            cols = rng.integers(0, n, size=rows.size)
            flipped = x[rows].copy()
            flipped[np.arange(rows.size), cols] = 1
            if not expr._contains_batch(flipped).all():
                return False
    return True


def verify_invariance(expr: Product, pair: PermutationPair) -> bool:
    """Exhaustively check invariance under a block/within-block permutation pair.

    Coordinate i ranges over the first stage and block j over the rest of
    the chain.  The permuted configuration zeta is zeta[i, j] = eta[g(i),
    h(j)]; the check passes when every member maps to a member.  Requires
    n <= MAX_ENUM_BITS.
    """
    if not isinstance(expr, Product):
        raise StructureError("invariance check is defined for product structures")
    n, r, t = expr.n, expr.stages[0].n, truth_table(expr)
    src = pair.flat_source_order(r, n // r)
    # axis k of the (2,)*n view is coordinate n-1-k; the transpose applies the
    # inverse of eta -> zeta, which fixes the member set exactly when it does
    moved = t.reshape((2,) * n).transpose([n - 1 - src[n - 1 - k] for k in range(n)])
    return bool(np.array_equal(t, moved.ravel()))


# -- per-coordinate reads of a truth table ----------------------------------


def _flip(table: np.ndarray, i: int) -> np.ndarray:
    """View of a 2^n table whose [:, 0] holds the entries with bit i clear
    and [:, 1], in the same order, those with bit i set."""
    return table.reshape(-1, 2, 1 << i)


def _monotone_violation(table: np.ndarray):
    """First (member, non-member) index pair one 0 -> 1 flip apart, or None."""
    for i in range(table.size.bit_length() - 1):
        view = _flip(table, i)
        bad = np.flatnonzero(view[:, 0] & ~view[:, 1])
        if bad.size:
            member = int(_flip(np.arange(table.size), i)[:, 0].flat[bad[0]])
            return member, member | 1 << i
    return None


def _member_weights(expr: StructureExpr) -> np.ndarray:
    """Number of members with each failure count 0..n."""
    t = truth_table(expr)
    return np.bincount(np.bitwise_count(np.arange(t.size))[t], minlength=expr.n + 1)


def _pivotal_weights(expr: StructureExpr) -> np.ndarray:
    """(n, n) counts: row i holds, by the failure count of the other n - 1
    coordinates, the configurations in which failing coordinate i brings
    the system down."""
    n, t = expr.n, truth_table(expr)
    pop = np.bitwise_count(np.arange(t.size))
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        view, weight = _flip(t, i), _flip(pop, i)
        out[i] = np.bincount(weight[:, 0][view[:, 1] & ~view[:, 0]], minlength=n)
    return out


def _pack(x: np.ndarray) -> np.ndarray:
    """Truth-table index of each row of an (B, n) 0/1 array."""
    return x.astype(np.int64) @ (np.int64(1) << np.arange(x.shape[1], dtype=np.int64))
