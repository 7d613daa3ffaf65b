"""Tests for client target sets and campaign pot subsets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.continents import Continent
from repro.simulation.rng import RngStream
from repro.workload.targets import (
    PackedTargets,
    TargetIndex,
    build_subset,
    subset_selector,
)


@pytest.fixture
def index():
    rng = RngStream(31, "targets")
    weights = rng.random_array(50) + 0.1
    session_w = rng.random_array(50) + 0.1
    countries = (["US"] * 20) + (["DE"] * 15) + (["SG"] * 15)
    return TargetIndex(rng, weights, session_w, countries)


class TestTargetIndex:
    def test_build_respects_breadth(self, index):
        sets = index.build_for(np.array([1, 5, 50, 200]))
        assert len(sets[0].pots) == 1
        assert len(sets[1].pots) == 5
        assert len(sets[2].pots) == 50
        assert len(sets[3].pots) == 50  # clamped to farm size

    def test_pots_distinct(self, index):
        sets = index.build_for(np.array([20]))
        assert len(set(sets[0].pots.tolist())) == 20

    def test_choose_within_set(self, index):
        target = index.build_for(np.array([7]))[0]
        for u in (0.0, 0.3, 0.6, 0.999):
            assert target.choose(u) in set(target.pots.tolist())

    def test_cumulative_monotone(self, index):
        target = index.build_for(np.array([10]))[0]
        assert np.all(np.diff(target.cumulative) >= 0)
        assert target.cumulative[-1] == 1.0

    def test_pots_on_continent(self, index):
        na = index.pots_on_continent(Continent.NORTH_AMERICA)
        eu = index.pots_on_continent(Continent.EUROPE)
        asia = index.pots_on_continent(Continent.ASIA)
        assert len(na) == 20
        assert len(eu) == 15
        assert len(asia) == 15
        assert len(index.pots_on_continent(Continent.AFRICA)) == 0


class TestSubsets:
    def test_build_subset_size(self):
        rng = RngStream(32, "subset")
        weights = rng.random_array(100) + 0.1
        subset = build_subset(rng, 100, 30, weights)
        assert len(subset) == 30
        assert len(set(subset.tolist())) == 30

    def test_build_subset_full(self):
        rng = RngStream(33, "subset")
        subset = build_subset(rng, 20, 20, np.ones(20))
        assert np.array_equal(subset, np.arange(20))

    def test_build_subset_clamps(self):
        rng = RngStream(34, "subset")
        assert len(build_subset(rng, 10, 500, np.ones(10))) == 10

    def test_subset_selector(self):
        rng = RngStream(35, "subset")
        session_w = rng.random_array(100) + 0.1
        pots = build_subset(rng, 100, 10, np.ones(100))
        selector = subset_selector(pots, session_w)
        for u in (0.0, 0.5, 0.99):
            assert selector.choose(u) in set(pots.tolist())

    def test_weighted_sampling_prefers_heavy(self):
        rng = RngStream(36, "subset")
        weights = np.ones(50)
        weights[7] = 500.0
        hits = sum(7 in build_subset(rng, 50, 5, weights) for _ in range(50))
        assert hits > 40


@st.composite
def target_sets_and_queries(draw):
    """Random target sets (zero-weight pots included) plus lookups that hit
    the edges: u = 0, u = nextafter(1, 0) and u equal to a cumulative
    value (repeated ones included)."""
    n_pots = draw(st.integers(1, 24))
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, 1e-300, 0.1, 1.0, 3.0, 7.5]),
        min_size=n_pots, max_size=n_pots,
    )))
    weights[draw(st.integers(0, n_pots - 1))] = 1.0  # every set can choose
    positive = np.flatnonzero(weights > 0)
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        breadth = draw(st.sampled_from([1, n_pots, draw(st.integers(1, n_pots))]))
        order = draw(st.permutations(range(n_pots)))
        pots = np.array(order[:breadth], dtype=np.int32)
        if not (weights[pots] > 0).any():
            pots[0] = positive[0]
        sets.append(subset_selector(pots, weights))
    owners, us = [], []
    for _ in range(draw(st.integers(1, 40))):
        owner = draw(st.integers(0, len(sets) - 1))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            u = draw(st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]))
        elif kind == 1:
            # Draws lie in [0, 1): an overshooting partial sum is not one.
            inside = [c for c in sets[owner].cumulative.tolist() if c < 1.0]
            u = draw(st.sampled_from(inside or [0.0]))
        else:
            u = draw(st.floats(0.0, 1.0, exclude_max=True))
        owners.append(owner)
        us.append(u)
    return sets, np.array(owners, dtype=np.int64), np.array(us)


class TestPackedTargets:
    @settings(max_examples=300, deadline=None)
    @given(target_sets_and_queries())
    def test_equals_per_row_choose_many(self, case):
        sets, owners, us = case
        want = [int(sets[o].choose_many(np.array([u]))[0])
                for o, u in zip(owners, us)]
        got = PackedTargets(sets).choose(owners, us)
        assert got.tolist() == want

    def test_population_sized_index(self, index):
        """Every client id up to the population size, one lookup per set."""
        breadths = RngStream(5, "breadth").randint_array(1, np.full(5000, 51))
        sets = index.build_for(breadths)
        owners = np.arange(len(sets))
        us = RngStream(6, "u").random_array(len(sets))
        want = np.array([s.choose(u) for s, u in zip(sets, us)])
        assert np.array_equal(PackedTargets(sets).choose(owners, us), want)
        assert np.array_equal(PackedTargets(sets).choose(owners[::-1], us),
                              [sets[o].choose(u) for o, u in zip(owners[::-1], us)])

    def test_empty_lookup(self, index):
        packed = PackedTargets(index.build_for(np.array([3, 4])))
        assert packed.choose(np.zeros(0, np.int64), np.zeros(0)).size == 0
