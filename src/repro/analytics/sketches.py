"""From-scratch mergeable sketches for streaming farm analytics.

Four summaries cover the aggregate tables the batch :class:`AnalysisContext`
computes from a frozen store:

* :class:`HyperLogLog` — unique client IPs / unique file hashes.
* :class:`CountMinSketch` — per-key occurrence estimates (hash occurrence
  counts) with a one-sided overestimate guarantee.
* :class:`SpaceSaving` — top-k heavy hitters (hashes, clients, ASNs),
  implemented as the mergeable Misra–Gries summary (the space-saving and
  Misra–Gries summaries are isomorphic: a space-saving counter equals the
  Misra–Gries counter plus the accumulated decrement).
* :class:`ExactCounter` — exact online accumulator for low-cardinality
  keys (category mix, sessions per day) where no approximation is needed.

Merge algebra
-------------
Per-shard sketches fold with the same shard-ordered discipline as
``Metrics.merge`` / ``Tracer.fold``:

* HyperLogLog merge is a register-wise ``max`` — commutative, associative
  and idempotent, so the fold result is independent of worker count and
  arrival order.
* Count-min merge is a cell-wise sum — commutative and associative (not
  idempotent: merging a sketch with itself doubles counts, as it must).
* ``SpaceSaving.merge`` sums counters key-wise, then performs one
  Misra–Gries reduction (subtract the (capacity+1)-th largest counter,
  drop non-positive).  The reduction depends only on the *multiset* of
  counter values, so the merge is commutative; it is exactly associative
  whenever capacity covers the distinct keys (no reduction fires), and
  otherwise the documented error envelope below still holds for any fold
  shape.
* ``ExactCounter`` merge is a key-wise sum — commutative and associative.

Error bounds (documented, pinned by tests)
------------------------------------------
* HyperLogLog with ``m = 2**p`` registers: relative standard error
  ``1.04 / sqrt(m)`` (``rel_error``); small cardinalities fall back to
  linear counting, which is far tighter.
* Count-min with width ``w`` and depth ``d``: for every key,
  ``true <= estimate`` always, and ``estimate <= true + epsilon * total``
  with probability at least ``1 - delta`` per query, where
  ``epsilon = e / w`` and ``delta = exp(-d)``.
* SpaceSaving with capacity ``k``: every stored counter is a lower bound
  on the true frequency, ``count <= true <= count + error()``; a key
  whose true frequency exceeds ``error()`` is always present.  ``error()``
  (the accumulated decrement) never exceeds ``n / (k + 1)``.

Determinism
-----------
All hashing is seeded through :func:`derive_stream_seed` (the exact
derivation used by the simulator's named RNG streams), so two sketches
built with the same ``(seed, name)`` from the same inputs are equal, and
no global RNG or wall clock is touched anywhere in this module.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.simulation.rng import derive_stream_seed

Key = TypeVar("Key", int, str)
KeyLike = Union[int, str]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_1_INT = 0xBF58476D1CE4E5B9
_MIX_2_INT = 0x94D049BB133111EB
_GOLDEN_INT = 0x9E3779B97F4A7C15

_U64 = np.uint64
_MIX_1 = _U64(_MIX_1_INT)
_MIX_2 = _U64(_MIX_2_INT)
_GOLDEN = _U64(_GOLDEN_INT)


def _mix64(values: np.ndarray, seed: int) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array, offset by ``seed``.

    Vectorised and branch-free; numpy uint64 arithmetic wraps modulo
    2**64, which is exactly the splitmix semantics.
    """
    x = np.asarray(values, dtype=_U64) + (_U64(seed & _MASK64) ^ _GOLDEN)
    x = (x ^ (x >> _U64(30))) * _MIX_1
    x = (x ^ (x >> _U64(27))) * _MIX_2
    return x ^ (x >> _U64(31))


def _hash_str(value: str, seed: int) -> int:
    """Seeded 64-bit hash of a string (blake2b, deterministic)."""
    digest = hashlib.blake2b(
        f"{seed}:{value}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _mix64_int(value: int, seed: int) -> int:
    """Scalar :func:`_mix64` in plain Python ints, masked to 64 bits."""
    if not 0 <= value <= _MASK64:
        raise OverflowError(f"Python integer {value} out of bounds for uint64")
    x = (value + ((seed & _MASK64) ^ _GOLDEN_INT)) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_1_INT) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_2_INT) & _MASK64
    return x ^ (x >> 31)


def hash_key(value: KeyLike, seed: int) -> int:
    """Seeded 64-bit hash of an int or str key (same bits as
    :func:`hash_keys`, without a numpy round trip)."""
    if isinstance(value, str):
        return _hash_str(value, seed)
    return _mix64_int(int(value), seed)


def hash_keys(values: Sequence[KeyLike], seed: int) -> np.ndarray:
    """Seeded 64-bit hashes for a sequence of keys (uint64 array)."""
    if len(values) == 0:
        return np.empty(0, dtype=_U64)
    if isinstance(values[0], str):
        return np.asarray(
            [_hash_str(v, seed) for v in values], dtype=_U64
        )
    return _mix64(np.asarray(values, dtype=_U64), seed)


def _leading_zeros64(x: np.ndarray) -> np.ndarray:
    """Exact count of leading zero bits in 64-bit values, vectorised."""
    x = np.asarray(x, dtype=_U64)
    zero = x == 0
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        small = x < (_U64(1) << _U64(64 - shift))
        n[small] += shift
        x = np.where(small, x << _U64(shift), x)
    n[zero] = 64
    return n


def _require_compatible(a, b) -> None:
    if type(a) is not type(b) or a.signature() != b.signature():
        raise ValueError(
            f"cannot merge incompatible sketches: "
            f"{type(a).__name__}{a.signature()} vs "
            f"{type(b).__name__}{b.signature()}"
        )


class HyperLogLog:
    """HyperLogLog cardinality sketch over a seeded 64-bit hash space.

    ``p`` index bits select one of ``m = 2**p`` registers; each register
    keeps the maximum rank (leading-zero run + 1) seen in the remaining
    ``64 - p`` hash bits.  Relative standard error is ``1.04 / sqrt(m)``;
    the estimator switches to linear counting below ``2.5 * m`` where it
    is essentially exact.
    """

    def __init__(self, seed: int, name: str, p: int = 12):
        if not 4 <= p <= 18:
            raise ValueError(f"HyperLogLog p must be in [4, 18], got {p}")
        self.name = name
        self.p = p
        self.m = 1 << p
        self.seed = derive_stream_seed(seed, name)
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def signature(self) -> Tuple:
        return (self.name, self.p, self.seed)

    @property
    def rel_error(self) -> float:
        """Documented relative standard error: ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self.m)

    def add(self, value: KeyLike) -> None:
        h = hash_key(value, self.seed)
        idx = h >> (64 - self.p)
        # Rank = leading zeros of the 64-p tail bits + 1, as in add_hashes.
        tail = (h << self.p) & _MASK64
        rank = min(65 - tail.bit_length(), 65 - self.p)
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def add_many(self, values: Sequence[KeyLike]) -> None:
        self.add_hashes(hash_keys(values, self.seed))

    def add_hashes(self, hashes: np.ndarray) -> None:
        """Fold pre-hashed uint64 values (from :func:`hash_keys`) in."""
        if len(hashes) == 0:
            return
        h = np.asarray(hashes, dtype=_U64)
        idx = (h >> _U64(64 - self.p)).astype(np.int64)
        tail = h << _U64(self.p)
        rank = np.minimum(_leading_zeros64(tail) + 1, 64 - self.p + 1)
        np.maximum.at(self.registers, idx, rank.astype(np.uint8))

    def _alpha(self) -> float:
        if self.m == 16:
            return 0.673
        if self.m == 32:
            return 0.697
        if self.m == 64:
            return 0.709
        return 0.7213 / (1.0 + 1.079 / self.m)

    def estimate(self) -> float:
        """Estimated cardinality (small-range linear counting applied)."""
        regs = self.registers.astype(np.float64)
        raw = self._alpha() * self.m * self.m / np.power(2.0, -regs).sum()
        zeros = int((self.registers == 0).sum())
        if raw <= 2.5 * self.m and zeros > 0:
            return self.m * math.log(self.m / zeros)
        return float(raw)

    def interval(self, sigmas: float = 3.0) -> Tuple[float, float]:
        """(low, high) bounds at ``sigmas`` standard errors."""
        est = self.estimate()
        spread = sigmas * self.rel_error * est
        return (max(0.0, est - spread), est + spread)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Fold ``other`` in (register-wise max).  Returns ``self``."""
        _require_compatible(self, other)
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def copy(self) -> "HyperLogLog":
        clone = HyperLogLog.__new__(HyperLogLog)
        clone.name = self.name
        clone.p = self.p
        clone.m = self.m
        clone.seed = self.seed
        clone.registers = self.registers.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        return self.signature() == other.signature() and bool(
            np.array_equal(self.registers, other.registers)
        )

    __hash__ = None  # type: ignore[assignment]


class CountMinSketch:
    """Count-min sketch: ``depth`` rows of ``width`` counters.

    Each row hashes keys with an independently derived seed; a point
    query is the minimum over rows, so estimates are one-sided:
    ``true <= estimate`` always, and ``estimate <= true + epsilon * total``
    with probability ``>= 1 - delta``, where ``epsilon = e / width`` and
    ``delta = exp(-depth)``.
    """

    def __init__(self, seed: int, name: str, width: int = 2048, depth: int = 4):
        if width < 1 or depth < 1:
            raise ValueError("CountMinSketch width and depth must be >= 1")
        self.name = name
        self.width = width
        self.depth = depth
        self.seed = derive_stream_seed(seed, name)
        self.row_seeds = tuple(
            derive_stream_seed(self.seed, f"row.{row}") for row in range(depth)
        )
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def signature(self) -> Tuple:
        return (self.name, self.width, self.depth, self.seed)

    @property
    def epsilon(self) -> float:
        """Documented additive-error factor: ``e / width``."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Documented per-query failure probability: ``exp(-depth)``."""
        return math.exp(-self.depth)

    def add(self, value: KeyLike, count: int = 1) -> None:
        count = int(count)
        for row, row_seed in enumerate(self.row_seeds):
            self.table[row, hash_key(value, row_seed) % self.width] += count
        self.total += count

    def add_many(
        self, values: Sequence[KeyLike], counts: Optional[Sequence[int]] = None
    ) -> None:
        if len(values) == 0:
            return
        weights = (
            np.ones(len(values), dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)
        )
        for row, row_seed in enumerate(self.row_seeds):
            idx = (hash_keys(values, row_seed) % _U64(self.width)).astype(np.int64)
            np.add.at(self.table[row], idx, weights)
        self.total += int(weights.sum())

    def estimate(self, value: KeyLike) -> int:
        """Point estimate for one key (min over rows; overestimate)."""
        return int(min(
            self.table[row, hash_key(value, row_seed) % self.width]
            for row, row_seed in enumerate(self.row_seeds)
        ))

    def error_bound(self) -> float:
        """``epsilon * total``: the additive slack at confidence 1-delta."""
        return self.epsilon * self.total

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Fold ``other`` in (cell-wise sum).  Returns ``self``."""
        _require_compatible(self, other)
        self.table += other.table
        self.total += other.total
        return self

    def copy(self) -> "CountMinSketch":
        clone = CountMinSketch.__new__(CountMinSketch)
        clone.name = self.name
        clone.width = self.width
        clone.depth = self.depth
        clone.seed = self.seed
        clone.row_seeds = self.row_seeds
        clone.table = self.table.copy()
        clone.total = self.total
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountMinSketch):
            return NotImplemented
        return (
            self.signature() == other.signature()
            and self.total == other.total
            and bool(np.array_equal(self.table, other.table))
        )

    __hash__ = None  # type: ignore[assignment]


class SpaceSaving:
    """Top-k heavy-hitter summary (mergeable Misra–Gries form).

    Keeps at most ``capacity`` counters.  When an insert would exceed
    capacity, the (capacity+1)-th largest counter value is subtracted
    from every counter and non-positive counters are dropped — the
    classic Misra–Gries reduction, applied lazily so each stored count
    is a *lower bound* on the key's true frequency:

        ``count(key) <= true(key) <= count(key) + error()``

    ``error()`` is the accumulated decrement; keys with true frequency
    above it can never have been evicted.  Because the reduction depends
    only on the multiset of counter values, ``merge`` (key-wise sum, one
    reduction) is commutative; it is exactly associative while capacity
    covers all distinct keys.  Ties in ``top()`` break on the key, so
    rendered tables are deterministic.
    """

    def __init__(self, capacity: int, name: str = "spacesaving"):
        if capacity < 1:
            raise ValueError("SpaceSaving capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.counts: Dict[KeyLike, int] = {}
        self.n = 0
        self.decremented = 0

    def signature(self) -> Tuple:
        return (self.name, self.capacity)

    def add(self, key: KeyLike, count: int = 1) -> None:
        if count <= 0:
            return
        self.n += count
        self.counts[key] = self.counts.get(key, 0) + count
        if len(self.counts) > self.capacity:
            self._reduce()

    def add_many(self, keys: Iterable[KeyLike]) -> None:
        for key in keys:
            self.add(key)

    def _reduce(self) -> None:
        # Subtract the (capacity+1)-th largest counter from everything;
        # at most ``capacity`` strictly larger counters can survive.
        ranked = sorted(self.counts.values(), reverse=True)
        pivot = ranked[self.capacity]
        self.counts = {
            key: count - pivot
            for key, count in self.counts.items()
            if count > pivot
        }
        self.decremented += pivot

    def error(self) -> int:
        """Upper bound on how far any stored count undershoots the truth."""
        return self.decremented

    def estimate(self, key: KeyLike) -> Tuple[int, int]:
        """(lower, upper) frequency bounds for ``key`` (0-based if absent)."""
        lower = self.counts.get(key, 0)
        return (lower, lower + self.decremented)

    def top(self, k: Optional[int] = None) -> List[Tuple[KeyLike, int, int]]:
        """The ``k`` heaviest keys as ``(key, lower, upper)`` tuples.

        Ordered by descending lower bound, then ascending key — a total
        order, so output is independent of insertion order.
        """
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if k is not None:
            ranked = ranked[:k]
        return [(key, count, count + self.decremented) for key, count in ranked]

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Fold ``other`` in (key-wise sum + one reduction).  Returns self."""
        _require_compatible(self, other)
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count
        self.n += other.n
        self.decremented += other.decremented
        if len(self.counts) > self.capacity:
            self._reduce()
        return self

    def copy(self) -> "SpaceSaving":
        clone = SpaceSaving(self.capacity, self.name)
        clone.counts = dict(self.counts)
        clone.n = self.n
        clone.decremented = self.decremented
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpaceSaving):
            return NotImplemented
        return (
            self.signature() == other.signature()
            and self.n == other.n
            and self.decremented == other.decremented
            and self.counts == other.counts
        )

    __hash__ = None  # type: ignore[assignment]


class ExactCounter:
    """Exact online accumulator for low-cardinality keyed counts.

    Used where approximation buys nothing: the five-way category mix and
    sessions-per-day table.  ``merge`` is a key-wise sum, so the fold is
    commutative and associative and streaming answers equal the batch
    group-by exactly.
    """

    def __init__(self, name: str = "exact"):
        self.name = name
        self.counts: Dict[KeyLike, int] = {}
        self.total = 0

    def signature(self) -> Tuple:
        return (self.name,)

    def add(self, key: KeyLike, count: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + count
        self.total += count

    def get(self, key: KeyLike) -> int:
        return self.counts.get(key, 0)

    def items(self) -> List[Tuple[KeyLike, int]]:
        """Key-sorted (key, count) pairs — deterministic output order."""
        return sorted(self.counts.items())

    def merge(self, other: "ExactCounter") -> "ExactCounter":
        """Fold ``other`` in (key-wise sum).  Returns ``self``."""
        _require_compatible(self, other)
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count
        self.total += other.total
        return self

    def copy(self) -> "ExactCounter":
        clone = ExactCounter(self.name)
        clone.counts = dict(self.counts)
        clone.total = self.total
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactCounter):
            return NotImplemented
        return (
            self.signature() == other.signature()
            and self.total == other.total
            and self.counts == other.counts
        )

    __hash__ = None  # type: ignore[assignment]
