"""Client target sets: which honeypots each client contacts.

A client's *target set* is fixed over its lifetime (size = the client's
breadth attribute), sampled by honeypot client-attractiveness; individual
sessions then choose within the target set by session-attractiveness.
Using two different weight vectors is what decorrelates "most sessions"
from "most clients" per honeypot (paper Figs 2 vs 14).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.continents import Continent, continent_of
from repro.simulation.rng import RngStream


@dataclass
class TargetSet:
    """One client's honeypot targets and in-set selection distribution."""

    pots: np.ndarray  # honeypot indices
    cumulative: np.ndarray  # cumulative probability for in-set choice

    def choose(self, u: float) -> int:
        """Pick a pot index for one session given uniform draw ``u``."""
        return int(self.pots[bisect.bisect_left(self.cumulative, u)])

    def choose_many(self, u: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`choose` for a batch of uniform draws.

        ``searchsorted(side="left")`` is exactly ``bisect_left``, so this
        returns the same pots the scalar path would, draw for draw.  An
        empty draw batch returns an empty array; an empty target set is an
        error rather than an out-of-bounds read.
        """
        u = np.asarray(u)
        if u.size == 0:
            return self.pots[:0]
        if self.pots.size == 0:
            raise ValueError("cannot choose from an empty target set")
        return self.pots[np.searchsorted(self.cumulative, u, side="left")]


def _complex_keys(owner, value) -> np.ndarray:
    keys = np.empty(len(value), dtype=np.complex128)
    keys.real = owner
    keys.imag = value
    return keys


class PackedTargets:
    """Many target sets packed for one vectorised choice.

    Set ``k``'s cumulative vector becomes the complex keys
    ``k + 1j*cumulative``, all sets concatenated in owner order.  numpy
    orders complex numbers lexicographically, so
    ``searchsorted(keys, k + 1j*u, side="left")`` lands on the first key of
    owner ``k`` whose cumulative value is ``>= u`` -- exactly
    ``bisect_left(cumulative, u)`` within set ``k`` (``u < 1`` never
    passes the set's final 1.0).  The keys are built by assignment, not
    arithmetic, so no ``u`` or cumulative value is rounded.
    """

    def __init__(self, sets: Sequence[TargetSet]):
        lengths = np.fromiter((len(s.pots) for s in sets), np.int64,
                              count=len(sets))
        owners = np.repeat(np.arange(len(sets), dtype=np.float64), lengths)
        self.keys = _complex_keys(
            owners, np.concatenate([s.cumulative for s in sets])
        )
        self.pots = np.concatenate([s.pots for s in sets])

    def choose(self, owner: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row ``i``'s pot: ``sets[owner[i]].choose(u[i])``, vectorised."""
        at = self.keys.searchsorted(_complex_keys(owner, u), side="left")
        return self.pots[at]


#: Locality pot pools per population country index, CSR-packed:
#: ``(flat, c_off, c_len, k_off, k_len)`` -- country ``i``'s pots are
#: ``flat[c_off[i]:c_off[i]+c_len[i]]``, its continent's
#: ``flat[k_off[i]:k_off[i]+k_len[i]]``.
LocalityPools = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class LocalityIndex:
    """Country and continent keys of every pot and client country.

    :meth:`pools` packs the locality pools of any pot subset from one
    stable argsort of the subset's keys, so each pool lists its pots in
    subset order -- the order a per-country list built by walking the
    subset would have.
    """

    def __init__(self, pot_countries: Sequence[str],
                 client_country_codes: Sequence[str]):
        n = len(client_country_codes)
        country_key = {cc: i for i, cc in enumerate(client_country_codes)}
        # Key n collects pots in a country no client comes from; the
        # continents follow it.
        continent_key: Dict[Continent, int] = {}
        for cc in list(client_country_codes) + list(pot_countries):
            continent_key.setdefault(continent_of(cc), n + 1 + len(continent_key))
        self.n_countries = n
        self.n_keys = n + 1 + len(continent_key)
        self.pot_country = np.array(
            [country_key.get(cc, n) for cc in pot_countries], np.int64)
        self.pot_continent = np.array(
            [continent_key[continent_of(cc)] for cc in pot_countries], np.int64)
        self.client_continent = np.array(
            [continent_key[continent_of(cc)] for cc in client_country_codes],
            np.int64)

    def pools(self, pots: np.ndarray) -> LocalityPools:
        """Each client country's same-country and same-continent pots
        among ``pots``, CSR-packed."""
        pots = np.asarray(pots, dtype=np.int32)
        keys = np.concatenate([self.pot_country[pots], self.pot_continent[pots]])
        flat = np.concatenate([pots, pots])[np.argsort(keys, kind="stable")]
        lengths = np.bincount(keys, minlength=self.n_keys)
        offsets = np.cumsum(lengths) - lengths
        n = self.n_countries
        k = self.client_continent
        return flat, offsets[:n], lengths[:n], offsets[k], lengths[k]


def locality_redirects(
    rng: RngStream,
    u: np.ndarray,
    bias: float,
    clients: np.ndarray,
    client_country: np.ndarray,
    pools: LocalityPools,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One day's locality-biased target redirects (CMD+URI, paper Fig 16b).

    URI attackers pick closer targets: a session with ``u < bias`` moves
    to a pot in its client's own country when the pool has one and
    ``u < 0.4 * bias``, else to one on the client's continent.  One
    varying-bound ``randint_array`` draws every pick, bit-identical to a
    scalar per-session ``randint`` loop.  Returns ``(rows, pots)``, or
    None when no session moves (and nothing was drawn).
    """
    hit = np.flatnonzero(u < bias)
    if hit.size == 0:
        return None
    flat, c_off, c_len, k_off, k_len = pools
    ci = client_country[clients[hit]].astype(np.int64)
    use_country = (u[hit] < 0.4 * bias) & (c_len[ci] > 0)
    bounds = np.where(use_country, c_len[ci], k_len[ci])
    offs = np.where(use_country, c_off[ci], k_off[ci])
    drawable = bounds > 0
    if not drawable.any():
        return None
    picks = rng.randint_array(0, bounds[drawable])
    return hit[drawable], flat[offs[drawable] + picks]


class TargetIndex:
    """Builds and caches target sets for the whole population."""

    def __init__(
        self,
        rng: RngStream,
        client_weights: np.ndarray,
        session_weights: np.ndarray,
        pot_countries: Sequence[str],
    ):
        self.rng = rng
        self.client_weights = client_weights / client_weights.sum()
        self.session_weights = session_weights
        self.n_pots = len(client_weights)
        self.pot_countries = list(pot_countries)
        self.pot_continents = [continent_of(cc) for cc in pot_countries]
        self._by_continent: Dict[Continent, np.ndarray] = {}
        # dict.fromkeys dedups in first-occurrence order — set iteration
        # order here would leak the hash seed into dict insertion order.
        for continent in dict.fromkeys(self.pot_continents):
            self._by_continent[continent] = np.array(
                [i for i, c in enumerate(self.pot_continents) if c is continent],
                dtype=np.int32,
            )
        self._sets: List[Optional[TargetSet]] = []

    def pots_on_continent(self, continent: Continent) -> np.ndarray:
        return self._by_continent.get(continent, np.zeros(0, dtype=np.int32))

    def build_for(self, breadths: np.ndarray) -> List[TargetSet]:
        """Build a target set per client (indexed like ``breadths``)."""
        sets: List[TargetSet] = []
        for breadth in breadths:
            sets.append(self._sample_set(int(breadth)))
        self._sets = sets
        return sets

    def _sample_set(self, breadth: int) -> TargetSet:
        breadth = max(1, min(breadth, self.n_pots))
        if breadth == self.n_pots:
            pots = np.arange(self.n_pots, dtype=np.int32)
        else:
            picked = self.rng.choice_indices(
                self.n_pots, size=breadth, p=self.client_weights, replace=False
            )
            pots = np.asarray(picked, dtype=np.int32)
        weights = self.session_weights[pots].astype(np.float64)
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        return TargetSet(pots=pots, cumulative=cumulative)


def build_subset(
    rng: RngStream,
    n_pots_total: int,
    size: int,
    weights: np.ndarray,
) -> np.ndarray:
    """A weighted, replacement-free honeypot subset (for campaigns)."""
    size = max(1, min(size, n_pots_total))
    if size == n_pots_total:
        return np.arange(n_pots_total, dtype=np.int32)
    p = weights / weights.sum()
    picked = rng.choice_indices(n_pots_total, size=size, p=p, replace=False)
    return np.sort(np.asarray(picked, dtype=np.int32))


def subset_selector(pots: np.ndarray, session_weights: np.ndarray) -> TargetSet:
    """Session-choice structure over a fixed pot subset."""
    weights = session_weights[pots].astype(np.float64)
    cumulative = np.cumsum(weights / weights.sum())
    cumulative[-1] = 1.0
    return TargetSet(pots=pots, cumulative=cumulative)
