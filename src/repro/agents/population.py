"""The client-IP population model.

Every session in the dataset originates from one of ~2.1 M client IPv4
addresses in ~17.7 k ASes.  This module synthesises that population with the
paper's structure:

* geographic mix led by China (31%), India (9%), the US (8%), Russia,
  Brazil, Taiwan, Mexico and Iran, with a long country tail;
* role profiles — scanning, scouting, intrusion — with a large
  scanning-only majority and a substantial multi-role share;
* per-category geographic tilts (e.g. NO_CMD is Russia/Germany-heavy,
  CMD+URI is US/EU-heavy), matching Section 7.3;
* heavy-tailed activity lifetimes (most IPs seen a single day, a handful
  active almost every day) and targeting breadth (>40% contact exactly one
  honeypot, 2% contact more than half the farm).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.continents import COUNTRY_CONTINENT
from repro.geo.registry import GeoRegistry, NetworkType
from repro.net.pools import AddressPool
from repro.simulation.clock import OBSERVATION_DAYS
from repro.simulation.rng import RngStream


class ClientRole(enum.IntFlag):
    """Session categories a client participates in (bitmask)."""

    SCAN = 1  # NO_CRED sessions
    SCOUT = 2  # FAIL_LOG sessions
    NOCMD = 4  # NO_CMD sessions
    CMD = 8  # CMD sessions
    CMDURI = 16  # CMD+URI sessions


#: Role-combination mix (normalised at build time). Chosen so that the
#: per-category unique-IP totals land near the paper's (NO_CRED 81%,
#: FAIL_LOG 20%, CMD 21%, NO_CMD 7.6%, CMD+URI 0.8% of all IPs) with a
#: scanning-only majority and a large multi-role share.
ROLE_MIX: List[Tuple[int, float]] = [
    (ClientRole.SCAN, 0.450),
    (ClientRole.SCOUT, 0.025),
    (ClientRole.CMD, 0.035),
    (ClientRole.NOCMD, 0.025),
    (ClientRole.CMDURI | ClientRole.CMD, 0.0015),
    (ClientRole.SCAN | ClientRole.SCOUT, 0.095),
    (ClientRole.SCAN | ClientRole.CMD, 0.105),
    (ClientRole.SCAN | ClientRole.NOCMD, 0.040),
    (ClientRole.SCAN | ClientRole.SCOUT | ClientRole.CMD, 0.115),
    (ClientRole.SCOUT | ClientRole.CMD, 0.022),
    (ClientRole.SCAN | ClientRole.SCOUT | ClientRole.NOCMD, 0.006),
    (ClientRole.SCAN | ClientRole.CMD | ClientRole.CMDURI, 0.004),
    (ClientRole.SCOUT | ClientRole.CMD | ClientRole.CMDURI, 0.0012),
    (ClientRole.SCAN | ClientRole.SCOUT | ClientRole.CMD | ClientRole.CMDURI, 0.0018),
]

#: Overall country mix (Figure 10a): share of all client IPs.
OVERALL_COUNTRY_MIX: List[Tuple[str, float]] = [
    ("CN", 0.36), ("IN", 0.09), ("US", 0.065), ("RU", 0.05), ("BR", 0.05),
    ("TW", 0.05), ("MX", 0.03), ("IR", 0.03), ("VN", 0.025), ("JP", 0.02),
    ("KR", 0.02), ("ID", 0.018), ("TH", 0.015), ("AR", 0.013), ("DE", 0.013),
    ("SG", 0.012), ("FR", 0.011), ("GB", 0.010), ("NL", 0.010), ("TR", 0.010),
    ("UA", 0.009), ("PK", 0.009), ("EG", 0.008), ("IT", 0.008), ("PL", 0.008),
    ("CO", 0.007), ("PH", 0.007), ("BD", 0.007), ("MY", 0.006), ("RO", 0.006),
    ("BG", 0.006), ("CL", 0.006), ("ZA", 0.006), ("SA", 0.005), ("HK", 0.005),
    ("CA", 0.005), ("AU", 0.005), ("ES", 0.005), ("SE", 0.004), ("CZ", 0.004),
    ("PE", 0.004), ("EC", 0.004), ("MA", 0.004), ("NG", 0.004), ("KE", 0.003),
    ("DZ", 0.003), ("TN", 0.003), ("GR", 0.003), ("HU", 0.003), ("AT", 0.003),
    ("CH", 0.002), ("BE", 0.002), ("PT", 0.002), ("DK", 0.002), ("FI", 0.002),
    ("NO", 0.002), ("IE", 0.002), ("IL", 0.002), ("AE", 0.002), ("KZ", 0.002),
    ("LT", 0.002), ("LV", 0.001), ("EE", 0.001), ("MD", 0.001), ("RS", 0.001),
    ("HR", 0.001), ("SK", 0.001), ("SI", 0.001), ("UY", 0.001), ("VE", 0.001),
    ("BO", 0.001), ("PY", 0.001), ("DO", 0.001), ("GT", 0.001), ("CR", 0.001),
    ("PA", 0.001), ("LK", 0.001), ("NP", 0.001), ("KH", 0.001), ("MN", 0.001),
    ("GH", 0.001), ("SN", 0.001), ("TZ", 0.001), ("UG", 0.001), ("MU", 0.001),
    ("NZ", 0.001), ("FJ", 0.001),
]

#: Per-role country tilts (Section 7.3 / Figure 23). Multiplied into the
#: overall mix for clients holding that role.
ROLE_COUNTRY_TILT: Dict[int, Dict[str, float]] = {
    int(ClientRole.SCAN): {"US": 1.1, "TW": 1.4, "RU": 1.3, "IR": 1.4},
    int(ClientRole.SCOUT): {"US": 2.6, "JP": 2.6, "VN": 2.2, "SG": 3.0, "IN": 1.2},
    int(ClientRole.CMD): {"US": 1.3, "JP": 1.9, "IN": 1.1, "BR": 1.2, "SA": 1.8},
    int(ClientRole.NOCMD): {"RU": 6.0, "DE": 5.0, "US": 1.3, "VN": 2.0, "SE": 6.0},
    int(ClientRole.CMDURI): {
        "US": 4.0, "NL": 9.0, "FR": 7.0, "BG": 12.0, "RO": 9.0, "CN": 0.2,
    },
}

#: Client-AS network-type mix (scanning infrastructure is datacenter-heavy,
#: botnets are residential).
_CLIENT_AS_TYPES = [
    (NetworkType.RESIDENTIAL, 0.45),
    (NetworkType.DATACENTER, 0.20),
    (NetworkType.CLOUD, 0.12),
    (NetworkType.MOBILE, 0.13),
    (NetworkType.BUSINESS, 0.07),
    (NetworkType.ACADEMIC, 0.03),
]


@dataclass
class PopulationConfig:
    """Sizing knobs for the client population."""

    n_clients: int = 10_000
    #: Target clients-per-AS ratio (paper: 2.1 M IPs over 17.7 k ASes ~ 120).
    clients_per_as: int = 120
    #: Number of clients active nearly every day (paper: >100 of 2.1 M).
    n_always_on: int = 8
    #: Probability an IP is seen on a single day only. Set above the
    #: paper's >50% because campaign membership adds extra active days on
    #: top of a client's own calendar.
    single_day_share: float = 0.75


@dataclass
class ClientPopulation:
    """Column-oriented client population."""

    ip: np.ndarray  # uint32
    country: np.ndarray  # int16 index into `country_codes`
    asn: np.ndarray  # int32
    roles: np.ndarray  # uint8 bitmask of ClientRole
    first_day: np.ndarray  # int16
    n_days: np.ndarray  # int16 active-day count
    rate: np.ndarray  # float32 relative session-rate weight
    breadth: np.ndarray  # int16 number of distinct honeypots targeted
    country_codes: List[str]
    registry: GeoRegistry
    config: PopulationConfig

    def __len__(self) -> int:
        return len(self.ip)

    def with_role(self, role: ClientRole) -> np.ndarray:
        """Indices of clients holding ``role``."""
        return np.nonzero((self.roles & int(role)) != 0)[0]

    def country_code(self, client_index: int) -> str:
        return self.country_codes[int(self.country[client_index])]

    def role_count(self, role: ClientRole) -> int:
        return int(((self.roles & int(role)) != 0).sum())

    def sample_intruders(
        self,
        rng: RngStream,
        count: int,
        role: ClientRole = ClientRole.CMD,
        countries: Optional[Sequence[Tuple[str, float]]] = None,
    ) -> np.ndarray:
        """Sample ``count`` clients holding ``role``, tilted by country.

        Campaigns use this to recruit their client pools; a Mirai campaign
        passes its IoT-heavy country mix so its bots mostly sit in the
        matching regions.
        """
        candidates = self.with_role(role)
        if len(candidates) == 0:
            raise RuntimeError(f"population has no clients with role {role!r}")
        count = min(count, len(candidates))
        if countries is None:
            picked = rng.choice_indices(len(candidates), size=count, replace=False)
            return candidates[np.asarray(picked)]
        # One weight per country code, gathered per candidate.
        code_index = {cc: i for i, cc in enumerate(self.country_codes)}
        by_country = np.full(len(self.country_codes), 0.05, dtype=float)
        for cc, w in countries:
            if cc in code_index:
                by_country[code_index[cc]] = w + 0.05
        weights = by_country[self.country[candidates]]
        weights /= weights.sum()
        picked = rng.choice_indices(len(candidates), size=count, p=weights, replace=False)
        return candidates[np.asarray(picked)]


def _normalised_mix(pairs: Sequence[Tuple[str, float]]) -> Tuple[List[str], np.ndarray]:
    codes = [cc for cc, _ in pairs]
    weights = np.array([w for _, w in pairs], dtype=float)
    return codes, weights / weights.sum()


def build_client_ases(
    registry: GeoRegistry,
    rng: RngStream,
    n_clients: int,
    clients_per_as: int,
) -> Dict[str, List]:
    """Register client ASes per country, proportional to the country mix."""
    codes, weights = _normalised_mix(OVERALL_COUNTRY_MIX)
    n_ases = max(len(codes), n_clients // max(clients_per_as, 1))
    type_values = [t for t, _ in _CLIENT_AS_TYPES]
    type_weights = [w for _, w in _CLIENT_AS_TYPES]
    per_country: Dict[str, List] = {}
    for code, weight in zip(codes, weights):
        count = max(1, int(round(weight * n_ases)))
        records = []
        for _ in range(count):
            ntype = rng.choice(type_values, p=type_weights)
            records.append(
                registry.register_as(country=code, network_type=ntype,
                                     name=f"CLIENT-{code}")
            )
        per_country[code] = records
    return per_country


def build_population(
    config: PopulationConfig,
    registry: GeoRegistry,
    rng: RngStream,
) -> ClientPopulation:
    """Synthesise the full client population."""
    n = config.n_clients
    combo_values = [int(c) for c, _ in ROLE_MIX]
    combo_weights = np.array([w for _, w in ROLE_MIX], dtype=float)
    combo_weights /= combo_weights.sum()
    roles = np.array(
        [combo_values[i] for i in rng.choice_indices(len(combo_values), size=n,
                                                     p=combo_weights)],
        dtype=np.uint8,
    )

    # Countries: overall mix modulated by per-role tilts.
    codes, base_weights = _normalised_mix(OVERALL_COUNTRY_MIX)
    code_index = {cc: i for i, cc in enumerate(codes)}
    country = np.zeros(n, dtype=np.int16)
    tilt_cache: Dict[int, np.ndarray] = {}
    for i in range(n):
        mask = int(roles[i])
        weights = tilt_cache.get(mask)
        if weights is None:
            weights = base_weights.copy()
            for role_bit, tilt in ROLE_COUNTRY_TILT.items():
                if mask & role_bit:
                    for cc, factor in tilt.items():
                        if cc in code_index:
                            weights[code_index[cc]] *= factor
            weights = weights / weights.sum()
            tilt_cache[mask] = weights
        country[i] = rng.choice_index(len(codes), p=weights)

    # ASes and IPs.
    per_country_ases = build_client_ases(registry, rng, n, config.clients_per_as)
    pools: Dict[int, AddressPool] = {}
    ip = np.zeros(n, dtype=np.uint32)
    asn = np.zeros(n, dtype=np.int32)
    ip_rng = rng.child("ips")
    for i in range(n):
        code = codes[int(country[i])]
        records = per_country_ases[code]
        record = records[ip_rng.randint(0, len(records))]
        pool = pools.get(record.asn)
        if pool is None:
            pool = record.pool()
            pools[record.asn] = pool
        ip[i] = pool.sample(ip_rng)
        asn[i] = record.asn

    # Activity lifetimes: most IPs are seen once; a heavy tail lingers.
    life_rng = rng.child("lifetimes")
    first_day = np.zeros(n, dtype=np.int16)
    n_days = np.ones(n, dtype=np.int16)
    for i in range(n):
        # Arrival skewed later (it takes scanners ~2 months to discover the
        # farm, and the IP population keeps growing).
        u = life_rng.random()
        first_day[i] = int((u ** 0.8) * (OBSERVATION_DAYS - 1))
        if life_rng.bernoulli(config.single_day_share):
            n_days[i] = 1
        else:
            span = OBSERVATION_DAYS - first_day[i]
            k = 1 + int(life_rng.pareto(0.85, scale=1.0))
            n_days[i] = max(1, min(k, span))
    # Always-on clients: active from (nearly) day one, >90% of all days.
    always = life_rng.child("always")
    for i in range(min(config.n_always_on, n)):
        first_day[i] = always.randint(0, 8)
        n_days[i] = int(OBSERVATION_DAYS * always.uniform(0.92, 1.0)) - first_day[i]

    # Session-rate weights: heavy-tailed, so a few IPs dominate volume.
    rate = np.zeros(n, dtype=np.float32)
    rate_rng = rng.child("rate-values")
    for i in range(n):
        rate[i] = rate_rng.lognormal(0.0, 1.3)

    # Targeting breadth (Figure 12): >40% one pot, 18% >10, 2% >110.
    # The heaviest-rate clients sweep broadly (mass scanners touch most of
    # the farm), which keeps the per-pot session distribution governed by
    # pot session-attractiveness rather than by target-set membership.
    breadth = np.ones(n, dtype=np.int16)
    b_rng = rng.child("breadth")
    rate_cut = float(np.quantile(rate, 0.93)) if n else 0.0
    for i in range(n):
        breadth[i] = _sample_breadth(b_rng, int(roles[i]))
        # Heavy-rate clients and long-lived clients are sweep scanners:
        # their volume spreads over much of the farm instead of hammering
        # a single pot.
        if (rate[i] >= rate_cut or n_days[i] > 30) and breadth[i] < 60:
            breadth[i] = b_rng.randint(60, 222)

    return ClientPopulation(
        ip=ip,
        country=country,
        asn=asn,
        roles=roles,
        first_day=first_day,
        n_days=n_days,
        rate=rate,
        breadth=breadth,
        country_codes=codes,
        registry=registry,
        config=config,
    )


def _sample_breadth(rng: RngStream, role_mask: int) -> int:
    """Distinct honeypots a client will contact over its lifetime."""
    # Scouting (FAIL_LOG) clients sweep the farm — the paper's Figure 12
    # exception; multi-role clients also reach further than single-role.
    scout = bool(role_mask & int(ClientRole.SCOUT))
    p_single = 0.34 if scout else 0.52
    u = rng.random()
    if u < p_single:
        return 1
    if u < p_single + 0.36:
        return rng.randint(2, 11)
    if u < p_single + 0.36 + (0.27 if scout else 0.175):
        return rng.randint(11, 111)
    return rng.randint(111, 222)
