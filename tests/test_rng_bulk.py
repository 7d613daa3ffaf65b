"""Bulk stream seeding, the inline weighted no-replacement choice, and the
singleton-writer kernel's draw counts.

``RngStream.children`` seeds a whole shard's streams from one vectorised
pass over numpy's SeedSequence algorithm; these properties pin that pass
to numpy's own words, the bulk-built streams to scalar-built ones, and
the inlined ``choice(replace=False, p=...)`` loop to ``Generator.choice``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace as _trace
from repro.obs import use_metrics
from repro.simulation import rng as rng_module
from repro.simulation.rng import (
    RngStream,
    derive_stream_seed,
    stream_seed_words,
)
from repro.workload import ScenarioConfig
from repro.workload.generator import TraceGenerator

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def numpy_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


# -- seed words ----------------------------------------------------------------


@given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                      min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_seed_words_match_numpy_seedsequence(seeds):
    got = rng_module._seed_words(np.array(seeds, dtype=np.uint64))
    assert got.shape == (len(seeds), 4) and got.dtype == np.uint64
    for seed, row in zip(seeds, got):
        assert np.array_equal(row, numpy_words(seed)), seed


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_seed_words_edge_seeds(seed):
    # One-word (< 2**32), two-word and all-ones entropy alike.
    got = rng_module._seed_words(np.array([seed] * 3, dtype=np.uint64))
    for row in got:
        assert np.array_equal(row, numpy_words(seed))


def test_stream_seed_words_follow_named_derivation():
    names = [f"workload.no_cred.d{day}" for day in range(50)]
    words = stream_seed_words(3, names)
    for name, row in zip(names, words):
        assert np.array_equal(row, numpy_words(derive_stream_seed(3, name)))


def test_empty_batch():
    assert stream_seed_words(5, []).shape == (0, 4)
    assert list(RngStream(5, "root").children([])) == []


def test_mismatch_check_raises(monkeypatch):
    monkeypatch.setattr(rng_module, "_seed_words",
                        lambda seeds: np.zeros((len(seeds), 4), np.uint64))
    rng_module._check_seed_words.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="SeedSequence"):
            stream_seed_words(1, ["x"])
    finally:
        monkeypatch.undo()
        rng_module._check_seed_words.cache_clear()


# -- bulk-built streams draw like scalar-built ones ----------------------------

DRAWS = {
    "random": lambda r: r.random(),
    "uniform": lambda r: r.uniform(2.0, 9.0),
    "randint": lambda r: r.randint(0, 1000),
    "exponential": lambda r: r.exponential(3.0),
    "lognormal": lambda r: r.lognormal(0.0, 1.0),
    "pareto": lambda r: r.pareto(0.85),
    "poisson": lambda r: r.poisson(4.0),
    "binomial": lambda r: r.binomial(10, 0.3),
    "normal": lambda r: r.normal(1.0, 2.0),
    "zipf": lambda r: r.zipf(2.0, 50),
    "geometric": lambda r: r.geometric(0.45),
    "bernoulli": lambda r: r.bernoulli(0.5),
    "poisson_array": lambda r: r.poisson_array(3.0, 7).tolist(),
    "multinomial": lambda r: r.multinomial(20, [1, 2, 3]).tolist(),
    "lognormal_array": lambda r: r.lognormal_array(0.0, 0.35, 5).tolist(),
    "exponential_array": lambda r: r.exponential_array(9.0, 5).tolist(),
    "uniform_array": lambda r: r.uniform_array(0, 86400, 5).tolist(),
    "random_array": lambda r: r.random_array(6).tolist(),
    "randint_array": lambda r: r.randint_array(0, np.arange(1, 9)).tolist(),
    "choice": lambda r: r.choice("abcde", p=[0.1, 0.2, 0.3, 0.2, 0.2]),
    "choice_index": lambda r: r.choice_index(9),
    "choice_indices": lambda r: r.choice_indices(
        30, 5, p=np.linspace(1, 2, 30) / np.linspace(1, 2, 30).sum()).tolist(),
    "choice_indices_no_replace": lambda r: r.choice_indices(
        30, 5, p=np.full(30, 1 / 30), replace=False).tolist(),
    "sample": lambda r: r.sample(list(range(20)), 4),
    "shuffled": lambda r: r.shuffled(list(range(10))),
    "weighted_indices": lambda r: r.weighted_indices([1, 2, 3], 4).tolist(),
    "child": lambda r: r.child("sub").random(),
}


@pytest.mark.parametrize("method", sorted(DRAWS))
def test_bulk_streams_draw_like_scalar_streams(method):
    draw = DRAWS[method]
    suffixes = [f"d{day}" for day in (0, 1, 17, 404)]
    root = RngStream(11, "workload.no_cred")
    for bulk, suffix in zip(root.children(suffixes), suffixes):
        scalar = RngStream(11, f"workload.no_cred.{suffix}")
        assert bulk.name == scalar.name
        for _ in range(3):
            assert draw(bulk) == draw(scalar)


def test_bulk_streams_count_like_scalar_streams():
    with use_metrics() as metrics:
        streams = list(RngStream(2, "r").children(["a", "b", "c"]))
    assert metrics.to_dict()["counters"]["rng.streams_created"] == 4
    assert [s.name for s in streams] == ["r.a", "r.b", "r.c"]


# -- inline weighted no-replacement choice -------------------------------------


@st.composite
def sparse_weights(draw):
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=10.0),
                            min_size=1, max_size=120))
    if not any(w > 0 for w in weights):
        weights[0] = 1.0
    p = np.asarray(weights) / np.sum(weights)
    # Count after normalising: a subnormal weight can divide down to 0.
    size = draw(st.integers(min_value=1, max_value=int(np.count_nonzero(p))))
    return p, size


@given(case=sparse_weights(), seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_no_replace_choice_matches_numpy(case, seed):
    p, size = case
    ours = RngStream(seed, "choice")
    theirs = np.random.Generator(np.random.PCG64(derive_stream_seed(seed, "choice")))
    got = ours.choice_indices(len(p), size=size, p=p, replace=False)
    want = theirs.choice(len(p), size=size, p=p, replace=False)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # Same number of draws consumed: the streams stay in step.
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("size", [1, 2, 60, 119, 120])
def test_no_replace_choice_sizes_up_to_all_nonzero(size):
    p = np.zeros(200)
    p[::5] = np.linspace(1.0, 3.0, 40)
    p[1::5] = np.linspace(0.5, 1.0, 40)
    p[2::5] = 0.25
    p /= p.sum()
    ours = RngStream(size, "sizes")
    theirs = np.random.Generator(np.random.PCG64(derive_stream_seed(size, "sizes")))
    got = ours.choice_indices(200, size=size, p=p, replace=False)
    assert np.array_equal(got, theirs.choice(200, size=size, p=p, replace=False))
    assert not (p[got] == 0).any()


def test_no_replace_choice_rejects_too_few_nonzero():
    with pytest.raises(ValueError):
        RngStream(1).choice_indices(4, size=3, p=[0.5, 0.5, 0.0, 0.0],
                                    replace=False)


# -- the singleton-writer kernel ----------------------------------------------


def test_singleton_kernel_keeps_per_writer_draw_calls():
    config = ScenarioConfig.from_denominator(80000, seed=7, hash_scale=0.004)
    gen = TraceGenerator(config)
    writers = gen._singleton_writers()[:12]
    sessions = []
    for w, wrng in gen._singleton_writer_streams(writers):
        sessions.append(gen._singleton_writer_plan(wrng, w)[1])
    for (w, wrng), n_sessions in zip(gen._singleton_writer_streams(writers),
                                     sessions):
        with use_metrics() as metrics:
            with _trace.use_tracer(_trace.Tracer()) as tracer:
                assert gen._singleton_writer_days([(w, wrng)]) == n_sessions
        counters = metrics.to_dict()["counters"]
        # Pot and session count, then per session: day, start, four
        # field draws, protocol and password -- each a scalar draw call.
        assert counters["rng.draws"] == 2 + 8 * n_sessions
        blocks = Counter(event["data"]["category"] for event in tracer.to_list()
                         if event["kind"] == "generator.block")
        assert blocks == {"singletons": 1}
