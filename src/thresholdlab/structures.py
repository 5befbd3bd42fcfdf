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
a pure function and safe to call concurrently.
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
        bad = self._up_closure_violation()
        if bad is not None:
            raise StructureError(
                f"member set is not up-closed: {''.join(map(str, bad[0]))} is a member "
                f"but {''.join(map(str, bad[1]))} is not"
            )

    def _up_closure_violation(self):
        ints = self._member_ints
        arr = np.fromiter(ints, dtype=np.int64, count=len(ints))
        for i in range(self.n):
            zero_bit = arr[(arr >> i) & 1 == 0]
            flipped = zero_bit | (1 << i)
            missing = flipped[~np.isin(flipped, arr)]
            if missing.size:
                src = int(missing[0]) & ~(1 << i)
                return _int_to_bits(src, self.n), _int_to_bits(int(missing[0]), self.n)
        return None

    @cached_property
    def _member_ints(self) -> frozenset:
        return frozenset(_bits_to_int(m) for m in self.members)

    @cached_property
    def _table(self) -> np.ndarray:
        t = np.zeros(1 << self.n, dtype=bool)
        t[list(self._member_ints)] = True
        return t

    def _contains(self, bits):
        return _bits_to_int(bits) in self._member_ints

    def _contains_batch(self, x):
        packed = x.astype(np.int64) @ (np.int64(1) << np.arange(self.n, dtype=np.int64))
        return self._table[packed]


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
    """All configurations coordinatewise >= some generator."""
    seeds = {_bits_to_int(_as_bit_tuple(g)) for g in generators}
    closed = set()
    stack = list(seeds)
    while stack:
        v = stack.pop()
        if v in closed:
            continue
        closed.add(v)
        for i in range(n):
            up = v | (1 << i)
            if up != v and up not in closed:
                stack.append(up)
    return frozenset(_int_to_bits(v, n) for v in closed)


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

    Coordinate i maps to bit i of the index.  Requires n <= MAX_ENUM_BITS.
    """
    n = expr.n
    if n > MAX_ENUM_BITS:
        raise StructureError(
            f"truth table needs n <= {MAX_ENUM_BITS}, got n = {n}; "
            "use sampled spot checks for larger structures"
        )
    if isinstance(expr, Explicit):
        return expr._table.copy()
    if isinstance(expr, Product):
        # table covers the stages so far; the next one reads m blocks of r bits
        first, *outer = expr.stages
        table, r = truth_table(first), first.n
        for stage in outer:
            m = stage.n
            idx = np.arange(1 << (r * m), dtype=np.int64)
            indicator = np.zeros_like(idx)
            for j in range(m):
                indicator |= table[(idx >> (j * r)) & ((1 << r) - 1)].astype(np.int64) << j
            table, r = truth_table(stage)[indicator], r * m
        return table
    return expr._contains_batch(enumerate_bits(n))


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
    t = truth_table(expr)
    idx = np.arange(t.size, dtype=np.int64)
    for i in range(expr.n):
        lower = idx[(idx >> i) & 1 == 0]
        if np.any(t[lower] & ~t[lower | (1 << i)]):
            return False
    return True


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
    n = expr.n
    if n > MAX_ENUM_BITS:
        raise StructureError(f"invariance check needs n <= {MAX_ENUM_BITS}, got {n}")
    r = expr.stages[0].n
    src = pair.flat_source_order(r, n // r)
    t = truth_table(expr)
    bits = enumerate_bits(n)
    permuted = bits[:, src]
    packed = permuted.astype(np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))
    return bool(np.all(~t | t[packed]))


def _bits_to_int(bits) -> int:
    v = 0
    for i, b in enumerate(bits):
        if b:
            v |= 1 << i
    return v


def _int_to_bits(v: int, n: int) -> tuple:
    return tuple((v >> i) & 1 for i in range(n))
