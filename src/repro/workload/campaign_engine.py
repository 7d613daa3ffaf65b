"""Campaign realisation and session emission.

Takes full-scale :class:`~repro.agents.campaigns.CampaignSpec`s, scales them
to the scenario, recruits client pools from the population, profiles each
campaign's script through the real honeypot shell, registers hashes with
the threat-intel database, and emits the campaign's sessions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.campaigns import CampaignSpec
from repro.agents.population import ClientPopulation, ClientRole
from repro.agents.scripts import ScriptKind, build_script
from repro.intel.database import IntelDatabase
from repro.obs import inc as _metric_inc
from repro.obs.trace import emit_block as _trace_block
from repro.simulation.rng import RngStream
from repro.workload.config import ScenarioConfig
from repro.workload.emit import (
    SECONDS_PER_DAY,
    DayDraws,
    SessionEmitter,
    client_columns,
    gather_hash_rows,
)
from repro.workload.samplers import cmd_derive, cmd_draws, protocol_from
from repro.workload.script_runner import ScriptProfile, ScriptRunner
from repro.workload.targets import (
    LocalityIndex,
    LocalityPools,
    PackedTargets,
    TargetSet,
    build_subset,
    locality_redirects,
    subset_selector,
)

#: Script kinds that produce CMD+URI sessions (remote fetches).
URI_KINDS = (ScriptKind.DROPPER, ScriptKind.MINER)


@dataclass
class RealizedCampaign:
    """A campaign scaled to the scenario and ready to emit."""

    spec: CampaignSpec
    profile: ScriptProfile
    script_id: int
    hash_ids: Tuple[int, ...]
    pool: np.ndarray  # population client indices
    pool_weights: np.ndarray
    selector: TargetSet
    pot_subset: np.ndarray
    schedule: Dict[int, int] = field(default_factory=dict)
    password_id: int = -1
    #: day -> indices into `pool` of the members active that day. Bots
    #: rotate: most members participate in a short burst of the campaign,
    #: which keeps per-IP active-day counts low (paper Fig 13).
    members_by_day: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def category(self) -> str:
        return "CMD_URI" if self.spec.kind in URI_KINDS else "CMD"

    @property
    def total_sessions(self) -> int:
        return sum(self.schedule.values())


#: ``(campaign, day, sessions, stream)``: one campaign day for the kernel.
CampaignDay = Tuple[RealizedCampaign, int, int, RngStream]


class CampaignEngine:
    """Realises and emits campaigns against the shared builder."""

    def __init__(
        self,
        config: ScenarioConfig,
        rng: RngStream,
        population: ClientPopulation,
        emitter: SessionEmitter,
        runner: ScriptRunner,
        intel: IntelDatabase,
        hash_weights: np.ndarray,
        session_weights: np.ndarray,
        pot_countries: List[str],
    ):
        self.config = config
        self.rng = rng
        self.population = population
        self.emitter = emitter
        self.runner = runner
        self.intel = intel
        self.hash_weights = hash_weights
        self.session_weights = session_weights
        self.pot_countries = pot_countries
        self.n_pots = len(pot_countries)
        self._group_subsets: Dict[str, np.ndarray] = {}
        self._shared_pools: Dict[str, np.ndarray] = {}
        self.locality = LocalityIndex(pot_countries, population.country_codes)
        self._locality_csr: Dict[str, LocalityPools] = {}

    # -- realisation ------------------------------------------------------------

    def realize(self, spec: CampaignSpec) -> Optional[RealizedCampaign]:
        """Scale and materialise one campaign; None if it rounds to nothing."""
        rng = self.rng.child(f"campaign.{spec.campaign_id}")
        active_days = self._active_days(spec, rng)
        if not active_days:
            return None
        # Floor the scaled session count so a campaign can plausibly cover
        # its honeypot subset even at small scales (without the floor,
        # broad campaigns collapse to single-pot hashes and the Figure 18
        # pot-coverage distribution loses its head).
        subset_floor = 0 if spec.n_honeypots <= 0 else spec.n_honeypots // 2
        n_sessions = max(
            len(active_days),
            subset_floor,
            int(round(spec.sessions * self.config.scale)),
        )
        n_clients = self._scaled_clients(spec)

        pool = self._recruit_pool(spec, rng, n_clients)
        if len(pool) == 0:
            return None
        pool_weights = np.array(
            [rng.lognormal(0.0, 1.0) for _ in range(len(pool))], dtype=float
        )

        pot_subset = self._pot_subset(spec, rng)
        selector = subset_selector(pot_subset, self.session_weights)

        host_octet = (zlib.crc32(spec.campaign_id.encode()) % 200) + 10
        profile = self.runner.profile(
            build_script(
                spec.kind,
                token=spec.campaign_id,
                dropper_host=f"198.51.100.{host_octet}",
            )
        )
        script_id = self.emitter.builder.intern_script(profile.commands, profile.uris)
        hash_ids = tuple(self.emitter.builder.hashes.intern(h) for h in profile.hashes)

        if spec.in_intel_db:
            for h in profile.hashes:
                self.intel.register(
                    h, spec.tag, family=spec.campaign_id,
                    first_submission_day=active_days[0],
                    detections=5 + (zlib.crc32(h.encode()) % 40),
                )

        schedule = self._schedule(rng, active_days, n_sessions)
        if self.config.rotate_campaign_members:
            members_by_day = self._rotate_members(
                rng.child("rotation"), sorted(schedule), len(pool)
            )
        else:
            everyone = np.arange(len(pool))
            members_by_day = {day: everyone for day in schedule}
        password_id = (
            self.emitter.builder.passwords.intern(spec.password)
            if spec.password
            else -1
        )
        _metric_inc("generator.campaigns_realized")
        return RealizedCampaign(
            spec=spec,
            profile=profile,
            script_id=script_id,
            hash_ids=hash_ids,
            pool=pool,
            pool_weights=pool_weights,
            selector=selector,
            pot_subset=pot_subset,
            schedule=schedule,
            password_id=password_id,
            members_by_day=members_by_day,
        )

    @staticmethod
    def _rotate_members(
        rng: RngStream, days: List[int], pool_size: int
    ) -> Dict[int, np.ndarray]:
        """Assign each pool member a short consecutive burst of days.

        Small pools (or short campaigns) keep every member active every
        day — the few-IP long-lived campaigns of Table 6 really do use the
        same addresses for months.
        """
        if pool_size <= 6 or len(days) <= 3:
            everyone = np.arange(pool_size)
            return {day: everyone for day in days}
        members_by_day: Dict[int, List[int]] = {day: [] for day in days}
        for member in range(pool_size):
            burst = min(len(days), rng.geometric(0.45))
            start = rng.randint(0, len(days) - burst + 1)
            for offset in range(burst):
                members_by_day[days[start + offset]].append(member)
        everyone = np.arange(pool_size)
        return {
            day: (np.asarray(members, dtype=np.int64) if members else everyone)
            for day, members in members_by_day.items()
        }

    def _active_days(self, spec: CampaignSpec, rng: RngStream) -> List[int]:
        n_days_window = self.config.n_days
        start = min(max(spec.start_day, 0), n_days_window - 1)
        span = min(spec.span_days, n_days_window - start)
        n_active = min(spec.n_active_days, span)
        if n_active <= 0:
            return []
        if not spec.intermittent or n_active >= span:
            return list(range(start, start + n_active))
        # Intermittent campaigns run in bursts separated by long pauses
        # ("some attacks are active for some time, then pause and
        # restart") — the pauses are what the 7/30-day freshness windows
        # of Figure 17 react to.
        n_bursts = max(2, min(5, 1 + rng.randint(1, 5)))
        n_bursts = min(n_bursts, n_active)
        burst_sizes = np.ones(n_bursts, dtype=np.int64)
        burst_sizes += rng.multinomial(n_active - n_bursts, np.ones(n_bursts))
        slack = span - n_active
        gaps = rng.multinomial(max(slack, 0), np.ones(n_bursts))
        days: List[int] = []
        cursor = start
        for size, gap in zip(burst_sizes, gaps):
            days.extend(range(cursor, cursor + int(size)))
            cursor += int(size) + int(gap)
        days = [d for d in days if d < n_days_window]
        return sorted(set(days))

    def _scaled_clients(self, spec: CampaignSpec) -> int:
        if spec.n_clients <= 10:
            return spec.n_clients
        scaled = int(round(spec.n_clients * self.config.ip_scale))
        return max(3, scaled)

    def _recruit_pool(
        self, spec: CampaignSpec, rng: RngStream, n_clients: int
    ) -> np.ndarray:
        # Marquee URI campaigns draw from the small dedicated CMD+URI
        # population; the URI mid-tail recruits from the broad intruder
        # pool so no single client accumulates hundreds of active days.
        role = (
            ClientRole.CMDURI
            if spec.kind in URI_KINDS and spec.dedicated_uri_pool
            else ClientRole.CMD
        )
        if spec.client_pool:
            shared = self._shared_pools.get(spec.client_pool)
            if shared is None or len(shared) < n_clients:
                shared = self.population.sample_intruders(
                    rng.child("pool"),
                    max(n_clients, len(shared) if shared is not None else 0),
                    role=role,
                    countries=spec.countries,
                )
                self._shared_pools[spec.client_pool] = shared
            return shared[:n_clients]
        return self.population.sample_intruders(
            rng.child("pool"), n_clients, role=role, countries=spec.countries
        )

    def _pot_subset(self, spec: CampaignSpec, rng: RngStream) -> np.ndarray:
        size = spec.n_honeypots if spec.n_honeypots > 0 else self.n_pots
        size = min(size, self.n_pots)
        if spec.pot_group:
            group = self._group_subsets.get(spec.pot_group)
            if group is None or len(group) < size:
                group = build_subset(
                    rng.child("pots"), self.n_pots,
                    max(size, len(group) if group is not None else 0),
                    self.hash_weights,
                )
                self._group_subsets[spec.pot_group] = group
            return group[:size]
        return build_subset(rng.child("pots"), self.n_pots, size, self.hash_weights)

    def _schedule(
        self, rng: RngStream, active_days: List[int], n_sessions: int
    ) -> Dict[int, int]:
        n_days = len(active_days)
        if n_sessions < n_days:
            active_days = active_days[:n_sessions]
            n_days = n_sessions
        counts = np.ones(n_days, dtype=np.int64)
        remainder = n_sessions - n_days
        if remainder > 0:
            weights = np.array(
                [rng.lognormal(0.0, 0.8) for _ in range(n_days)], dtype=float
            )
            counts += rng.multinomial(remainder, weights)
        return {day: int(count) for day, count in zip(active_days, counts)}

    # -- emission ----------------------------------------------------------------

    def emit(self, campaign: RealizedCampaign) -> int:
        """Emit all sessions for one realised campaign, its days sharing one
        stream (the serial family). Returns the count."""
        rng = self.rng.child(f"emit.{campaign.spec.campaign_id}")
        return self.emit_days(
            (campaign, day, n, rng) for day, n in sorted(campaign.schedule.items())
        )

    def day_streams(
        self, days: Sequence[Tuple[RealizedCampaign, int]]
    ) -> Iterator[CampaignDay]:
        """Kernel input for the sharded family: each ``(campaign, day)``
        draws from its own stream ``emit.<campaign>.d<day>``, the whole
        shard's streams seeded in one batch."""
        streams = self.rng.children(
            f"emit.{campaign.spec.campaign_id}.d{day}" for campaign, day in days
        )
        for (campaign, day), rng in zip(days, streams):
            yield campaign, day, campaign.schedule[day], rng

    def emit_days(self, units: Iterable[CampaignDay]) -> int:
        """Emit campaign days as one block. Returns the session count.

        The day kernel of campaign traffic (see the generator's background
        kernels): per day only the draws -- member multinomial, start,
        protocol, fields, pot, locality redirect, password, versions --
        then one derivation over the shard, with each row's campaign
        attributes gathered by its block's campaign.
        """
        pop = self.population
        emitter = self.emitter
        bias = self.config.uri_locality_bias
        d = DayDraws()
        campaigns: List[RealizedCampaign] = []
        slots: Dict[str, int] = {}
        sessions: Dict[str, int] = {}
        for campaign, day, n, rng in units:
            cid = campaign.spec.campaign_id
            slot = slots.get(cid)
            if slot is None:
                slot = slots[cid] = len(campaigns)
                campaigns.append(campaign)
            members = campaign.members_by_day.get(day)
            if members is None or len(members) == 0:
                members = np.arange(len(campaign.pool))
            weights = campaign.pool_weights[members]
            counts = rng.multinomial(n, weights / weights.sum())
            if n <= 0:
                continue
            active = np.nonzero(counts)[0]
            clients = np.repeat(campaign.pool[members[active]], counts[active])
            first = d.unit(day, n, slot)
            d.put("clients", clients)
            d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n))
            u = rng.random_array(n)
            d.put("proto", u)
            d.put("fields", cmd_draws(rng, n))
            d.put("pot", rng.random_array(n))
            if bias > 0 and campaign.spec.kind in URI_KINDS:
                moved = locality_redirects(
                    rng, rng.random_array(n), bias, clients, pop.country,
                    self._locality_pools(campaign),
                )
                if moved is not None:
                    d.put("moved_rows", first + moved[0])
                    d.put("moved_pots", moved[1])
            if campaign.password_id < 0:
                d.put("pw", rng.random_array(n))
            emitter.draw_versions(rng, d, u < campaign.spec.ssh_share)
            category = campaign.category
            sessions[category] = sessions.get(category, 0) + n
            _trace_block(f"emit.{cid}", day, n, campaign=cid,
                         session_kind=category)
        if not d.n:
            return 0

        slot_rows = d.rows(d.tags)

        def per_row(values, dtype) -> np.ndarray:
            return np.array(values, dtype=dtype)[slot_rows]

        exec_seconds = per_row([c.profile.exec_seconds for c in campaigns], None)
        duration, close, attempts = cmd_derive(exec_seconds, *d.cat("fields"))
        pots = PackedTargets([c.selector for c in campaigns]).choose(
            slot_rows, d.cat("pot")
        ).astype(np.int32)
        pots[d.cat("moved_rows", np.int64)] = d.cat("moved_pots", np.int32)
        password = per_row([c.password_id for c in campaigns], np.int32)
        password[password < 0] = emitter.success_from(d.cat("pw"))
        emitter.append_draws(
            d,
            protocol_from(d.cat("proto"),
                          per_row([c.spec.ssh_share for c in campaigns], None)),
            duration=duration,
            honeypot=pots,
            **client_columns(pop, d.cat("clients")),
            n_attempts=attempts,
            login_success=np.ones(d.n, dtype=bool),
            script_id=per_row([c.script_id for c in campaigns], np.int32),
            password_id=password,
            username_id=np.full(d.n, emitter.root_id, dtype=np.int32),
            hash_ids=gather_hash_rows([c.hash_ids for c in campaigns], slot_rows),
            close_reason=close,
        )
        for category, count in sessions.items():
            _metric_inc(f"generator.sessions.{category}", count)
        _metric_inc("generator.campaign_days", len(d.sizes))
        _metric_inc("generator.campaign_sessions", d.n)
        return d.n

    def _locality_pools(self, campaign: RealizedCampaign) -> LocalityPools:
        """The campaign subset's locality pools per population country
        (cached per campaign; a pure function of the fixed subset, no RNG)."""
        cached = self._locality_csr.get(campaign.spec.campaign_id)
        if cached is None:
            cached = self.locality.pools(campaign.pot_subset)
            self._locality_csr[campaign.spec.campaign_id] = cached
        return cached
