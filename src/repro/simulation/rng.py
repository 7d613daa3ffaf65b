"""Deterministic named RNG streams.

Every stochastic decision in the simulator draws from an :class:`RngStream`.
Streams are derived from a master seed and a dotted name
(``"workload.scanners"``, ``"campaign.H1.arrivals"`` ...), so adding a new
consumer of randomness never perturbs the draws of existing consumers — a
property that keeps calibrated traces stable as the codebase grows.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.obs import inc as _metric_inc
from repro.obs import metrics as _obs_metrics

T = TypeVar("T")


def derive_stream_seed(master_seed: int, name: str) -> int:
    """The 64-bit seed a named stream derives from ``master_seed``.

    Public so that non-``Generator`` consumers of determinism (the
    ``repro.analytics`` sketches seed their hash functions this way) share
    the exact same derivation as the simulator's named streams.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# Backwards-compatible alias (predates the public spelling).
_derive_seed = derive_stream_seed


# numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """``(2, n, 1)`` xor / multiply constants of ``n`` successive hash
    steps.  SeedSequence's running hash constant evolves independently of
    the data, so every step's constants are fixed up front."""
    out = np.empty((2, n, 1), np.uint32)
    h = init
    for i in range(n):
        out[0, i, 0] = h
        h = (h * mult) & _MASK32
        out[1, i, 0] = h
    return out


# 4 pool fills, then 3 cross-mixes per source word; 8 output words.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16)
_OUT_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    value ^= value >> np.uint32(16)
    return value


def stream_seed_words(master_seed: int, names: Sequence[str]) -> np.ndarray:
    """PCG64 seed words of many named streams, in one vectorised pass.

    Row ``i`` equals ``SeedSequence(derive_stream_seed(master_seed,
    names[i])).generate_state(4, np.uint64)``: the sha256 derivation runs
    per name, then SeedSequence's entropy mixing and state generation run
    once over all seeds as uint32 array arithmetic (which wraps mod 2**32
    exactly like numpy's C loop).  A seed below 2**32 is one entropy word
    and numpy pads the pool with hashed zeros, which is what a zero high
    word gives -- so every 64-bit seed takes the same two-word path.

    With stream construction, a batch costs a fixed ~50 us plus ~3 us
    per name, against ~12 us per scalar-seeded stream (2-core Xeon
    host): batch per shard, not per unit.
    """
    _check_seed_words()
    seeds = np.fromiter((_derive_seed(master_seed, name) for name in names),
                        np.uint64, count=len(names))
    return _seed_words(seeds)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _MIX_CONSTS[:, :4])
    for src in range(4):
        # Mixing source ``src`` into the other three words reads only
        # ``pool[src]``, so its three steps run as one array step.
        dst = [i for i in range(4) if i != src]
        steps = _MIX_CONSTS[:, 4 + 3 * src:7 + 3 * src]
        mixed = (np.uint32(_MIX_L) * pool[dst]
                 - np.uint32(_MIX_R) * _hashmix(pool[src], steps))
        mixed ^= mixed >> np.uint32(16)
        pool[dst] = mixed
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_CONSTS).T
    # SeedSequence pairs words little-endian first, then converts.
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _check_seed_words() -> bool:
    """Once per process: the vectorised words must match numpy's own
    ``SeedSequence`` (a numpy that changed its seeding would otherwise
    silently re-deal every stream).  There is no fallback path.

    Also registers :class:`_SeedWords` as numpy's seed-sequence type here
    rather than at import: ``numpy.random`` loads lazily, and importing
    it would add ~9 ms to every ``import repro``.
    """
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    probe = _derive_seed(0, "rng.seed-words.check")
    want = np.random.SeedSequence(probe).generate_state(4, np.uint64)
    got = _seed_words(np.array([probe], np.uint64))[0]
    if not np.array_equal(got, want):
        raise RuntimeError(
            "vectorised SeedSequence words diverge from numpy's: "
            f"{got.tolist()} != {want.tolist()}"
        )
    return True


class _SeedWords:
    """Precomputed ``generate_state(4, np.uint64)`` words for PCG64 (an
    ``ISeedSequence`` once :func:`_check_seed_words` has run)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def weight_cdf(p) -> np.ndarray:
    """Normalised cumulative distribution over weight vector ``p``.

    This is exactly the array :meth:`RngStream.choice_indices` builds
    internally for weighted draws with replacement; precomputing it once
    and passing it back via the ``cdf=`` parameter skips the per-call
    cumsum without changing a single drawn value.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot build a cdf over an empty weight vector")
    cdf = np.cumsum(p, dtype=np.float64)
    if cdf[-1] <= 0.0:
        raise ValueError("choice weights must sum to a positive value")
    cdf /= cdf[-1]
    return cdf


class RngStream:
    """A named, deterministic random stream backed by numpy's PCG64."""

    def __init__(self, master_seed: int, name: str = "root",
                 seed_words: Optional[np.ndarray] = None):
        """``seed_words`` is this stream's row of
        :func:`stream_seed_words`; with it, PCG64 seeds from the
        precomputed words instead of running ``SeedSequence``."""
        self.master_seed = int(master_seed)
        self.name = name
        if seed_words is None:
            seed = _derive_seed(master_seed, name)
        else:
            _check_seed_words()
            seed = _SeedWords(seed_words)
        self._gen = np.random.Generator(np.random.PCG64(seed))
        _metric_inc("rng.streams_created")

    @property
    def _rng(self) -> np.random.Generator:
        """The underlying generator; every draw method reads it exactly once
        per call, so this property doubles as the per-draw counter.  The
        increment is inlined (no function call) — this sits under every
        draw in the generation hot path."""
        c = _obs_metrics._CURRENT.counters
        try:
            c["rng.draws"] += 1
        except KeyError:
            c["rng.draws"] = 1
        return self._gen

    def child(self, suffix: str) -> "RngStream":
        """Derive an independent child stream named ``<name>.<suffix>``."""
        return RngStream(self.master_seed, f"{self.name}.{suffix}")

    def children(self, suffixes: Iterable[str]) -> Iterator["RngStream"]:
        """``child(s)`` for each of ``suffixes``, seeded in one batch.

        The seed words of every child come from one
        :func:`stream_seed_words` call at the first ``next``; each
        stream's generator is built only when iteration reaches it, so a
        kernel walking its days holds one live generator at a time.
        """
        names = [f"{self.name}.{suffix}" for suffix in suffixes]
        words = stream_seed_words(self.master_seed, names)
        for name, row in zip(names, words):
            yield RngStream(self.master_seed, name, seed_words=row)

    # -- scalar draws -----------------------------------------------------

    def random(self) -> float:
        return float(self._rng.random())

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._rng.integers(low, high))

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._rng.lognormal(mean, sigma))

    def pareto(self, alpha: float, scale: float = 1.0) -> float:
        """Pareto draw with minimum ``scale`` and tail exponent ``alpha``."""
        return float(scale * (1.0 + self._rng.pareto(alpha)))

    def poisson(self, lam: float) -> int:
        if lam <= 0:
            return 0
        return int(self._rng.poisson(lam))

    def binomial(self, n: int, p: float) -> int:
        if n <= 0 or p <= 0:
            return 0
        return int(self._rng.binomial(n, min(p, 1.0)))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self._rng.normal(mean, std))

    def zipf(self, alpha: float, max_value: Optional[int] = None) -> int:
        """Zipf draw (>= 1), optionally truncated at ``max_value``."""
        while True:
            value = int(self._rng.zipf(alpha))
            if max_value is None or value <= max_value:
                return value

    def geometric(self, p: float) -> int:
        return int(self._rng.geometric(p))

    def bernoulli(self, p: float) -> bool:
        return bool(self._rng.random() < p)

    # -- vector draws -----------------------------------------------------

    def poisson_array(self, lam, size: int) -> np.ndarray:
        return self._rng.poisson(lam, size=size)

    def multinomial(self, n: int, pvals) -> np.ndarray:
        """Multinomial counts for ``n`` trials over ``pvals`` (normalised)."""
        p = np.asarray(pvals, dtype=np.float64)
        total = p.sum()
        if total <= 0:
            raise ValueError("multinomial weights must sum to a positive value")
        return self._rng.multinomial(n, p / total)

    def lognormal_array(self, mean: float, sigma: float, size: int) -> np.ndarray:
        return self._rng.lognormal(mean, sigma, size=size)

    def exponential_array(self, mean: float, size: int) -> np.ndarray:
        return self._rng.exponential(mean, size=size)

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        return self._rng.uniform(low, high, size=size)

    def random_array(self, size: int) -> np.ndarray:
        return self._rng.random(size)

    def randint_array(self, low, high) -> np.ndarray:
        """Uniform integers in ``[low, high)``; ``high`` may be an array.

        numpy's bounded-integer sampler consumes the bit stream element by
        element exactly as a loop of scalar :meth:`randint` calls with the
        same per-element bounds would, so replacing such a loop with one
        batched call is draw-for-draw identical — the property the block
        emission path's vectorised locality redirects rely on.
        """
        return self._rng.integers(low, high)

    def choice(self, seq: Sequence[T], p: Optional[Sequence[float]] = None) -> T:
        idx = int(self._rng.choice(len(seq), p=p))
        return seq[idx]

    def choice_index(self, n: int, p: Optional[Sequence[float]] = None) -> int:
        return int(self._rng.choice(n, p=p))

    def choice_indices(
        self,
        n: int,
        size: int,
        p=None,
        replace: bool = True,
        cdf: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Index draws, optionally weighted / without replacement.

        The ``replace=True`` paths inline what ``Generator.choice`` does
        internally — plain ``integers`` without weights, an inverse-CDF
        lookup over ``random(size)`` with them — skipping its per-call
        argument validation.  The draw sequence is identical; this wrapper
        sits under every emitted session block.

        ``cdf`` is the precomputed normalised cumulative of ``p`` (see
        :func:`weight_cdf`); passing it skips the per-call cumsum while
        drawing the exact same values.  ``size=0`` returns an empty array
        without touching generator state, matching what numpy's size-0
        draws do.
        """
        if size == 0:
            # numpy's own size-0 draws leave the bit generator untouched,
            # so skipping the call entirely is byte-identical.
            return np.empty(0, dtype=np.int64)
        if n <= 0:
            raise ValueError(f"cannot draw {size} indices from an empty pool (n={n})")
        gen = self._rng
        if replace:
            if cdf is not None:
                return cdf.searchsorted(gen.random(size), side="right")
            if p is None:
                return gen.integers(0, n, size=size)
            return weight_cdf(p).searchsorted(gen.random(size), side="right")
        if p is None:
            return gen.choice(n, size=size, replace=False)
        p = np.array(p, dtype=np.float64)
        if p.size != n:
            raise ValueError(f"weight vector has {p.size} entries for pool of {n}")
        total = p.sum()
        if total <= 0.0:
            raise ValueError("choice weights must sum to a positive value")
        # Generator.choice(replace=False) rejects weight sums more than
        # sqrt(eps) from 1.0.  Renormalise only those (previously a
        # crash): an unconditional divide would change the bits of every
        # already-normalised caller.
        if abs(total - 1.0) > float(np.sqrt(np.finfo(np.float64).eps)):
            p /= total
        if (p < 0).any():
            raise ValueError("choice weights must be non-negative")
        if size > n or np.count_nonzero(p > 0) < size:
            raise ValueError(
                f"cannot draw {size} distinct indices from "
                f"{np.count_nonzero(p > 0)} non-zero weights")
        # Generator.choice's weighted no-replacement loop, inlined: draw
        # the missing count, zero the weights already found, keep each
        # new index's first hit in draw order.
        found = np.empty(size, dtype=np.int64)
        n_found = 0
        while n_found < size:
            u = gen.random(size - n_found)
            if n_found:
                p[found[:n_found]] = 0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            new = cdf.searchsorted(u, side="right")
            if new.size > 1:
                # numpy keeps each value's first hit, in draw order
                # (unique + sorted first indices); dict order is the same.
                new = np.fromiter(dict.fromkeys(new.tolist()), np.int64)
            found[n_found:n_found + new.size] = new
            n_found += new.size
        return found

    def sample(self, seq: Sequence[T], k: int) -> list:
        """Sample ``k`` distinct elements (k is clamped to ``len(seq)``)."""
        k = min(k, len(seq))
        idx = self._rng.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    def shuffled(self, seq: Sequence[T]) -> list:
        out = list(seq)
        self._rng.shuffle(out)
        return out

    def weighted_indices(self, weights: Sequence[float], size: int) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        p = w / w.sum()
        return self._rng.choice(len(w), size=size, p=p)

    def iter_uniform(self, low: float, high: float) -> Iterator[float]:
        while True:
            yield self.uniform(low, high)
