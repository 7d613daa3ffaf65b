"""The 15-month trace generator.

Orchestrates deployment, population, campaigns and background traffic into
one :class:`~repro.workload.dataset.HoneyfarmDataset`:

1. build the farm (221 pots / 55 countries / 65 ASes) and the synthetic geo
   registry;
2. build the client population (roles, lifetimes, breadth, country mix) and
   per-client honeypot target sets;
3. realise the attack campaigns (marquee + mid-tail), profiling each script
   through the real honeypot shell, and emit their sessions;
4. emit background traffic per category (scanning, scouting, NO_CMD
   including the Russian-datacenter prefix, recon-only CMD, uncatalogued
   CMD+URI droppers and singleton file writers) following the calibrated
   daily envelopes;
5. freeze the columnar store.

Emission runs through day kernels, one per traffic kind (``_no_cred_days``,
``_fail_log_days``, ``_no_cmd_days``, ``_bg_cmd_days``, ``_bg_uri_days``
here, ``CampaignEngine.emit_days`` for campaigns).  A kernel takes
``(day, sessions, stream)`` triples -- each day's own named stream in the
sharded family, one shared stream in the serial family -- and does only
the draws per day, in the order and sizes of emitting that day alone.  It
then derives every column in one vectorised pass over the concatenated
draws and appends one block.  Background target choice is one
``searchsorted`` over all clients' packed target sets
(:class:`~repro.workload.targets.PackedTargets`), and the activity
calendar is a CSR array per category.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.agents.campaigns import marquee_campaigns, midtail_campaigns
from repro.agents.population import (
    ClientPopulation,
    ClientRole,
    PopulationConfig,
    build_population,
)
from repro.agents.scripts import ScriptKind, build_script
from repro.farm.deployment import DeploymentPlan, build_default_deployment
from repro.geo.registry import GeoRegistry, NetworkType
from repro.intel.database import IntelDatabase
from repro.obs import get_metrics, inc as _metric_inc
from repro.obs import trace as _trace
from repro.obs.trace import emit_block as _trace_block
from repro.simulation.rng import RngStream
from repro.store.store import StoreBuilder
from repro.workload.blocks import make_emitter
from repro.workload.campaign_engine import CampaignEngine, RealizedCampaign, URI_KINDS
from repro.workload.config import SSH_SHARE, ScenarioConfig
from repro.workload.dataset import CampaignRuntime, HoneyfarmDataset
from repro.workload.emit import (
    SECONDS_PER_DAY,
    DayDraws,
    client_columns,
    gather_hash_rows,
)
from repro.workload.samplers import (
    cmd_derive,
    cmd_draws,
    fail_log_derive,
    fail_log_draws,
    no_cmd_derive,
    no_cmd_draws,
    no_cred_derive,
    no_cred_draws,
    protocol_from,
)
from repro.workload.script_runner import ScriptRunner
from repro.workload.targets import (
    LocalityPools,
    PackedTargets,
    TargetIndex,
    TargetSet,
    locality_redirects,
)
from repro.workload.temporal import (
    build_envelopes,
    honeypot_weight_vectors,
    ru_edge_weight,
    sample_active_days,
)

_ROLE_CATEGORY = [
    (ClientRole.SCAN, "NO_CRED"),
    (ClientRole.SCOUT, "FAIL_LOG"),
    (ClientRole.NOCMD, "NO_CMD"),
    (ClientRole.CMD, "CMD"),
    (ClientRole.CMDURI, "CMD_URI"),
]


def _rescale_schedule(schedule: Dict[int, int], factor: float) -> Dict[int, int]:
    """Scale a campaign's per-day session counts by ``factor``.

    Days that round to zero are dropped, but the campaign keeps at least
    its start day with one session, so realised campaigns never vanish.
    """
    if factor >= 1.0:
        return schedule
    new_total = max(1, int(round(sum(schedule.values()) * factor)))
    days = sorted(schedule)
    if new_total <= len(days):
        return {day: 1 for day in days[:new_total]}
    scaled = {day: int(schedule[day] * factor) for day in days}
    out = {day: max(1, count) for day, count in scaled.items()}
    # Trim rounding surplus from the largest days.
    surplus = sum(out.values()) - new_total
    for day in sorted(out, key=lambda d: -out[d]):
        if surplus <= 0:
            break
        removable = min(surplus, out[day] - 1)
        out[day] -= removable
        surplus -= removable
    return out


#: ``(day, sessions, stream)``: one day of work for a day kernel.
DayStream = Tuple[int, int, RngStream]

#: DayDraws tag of a day's fixed-source block: a FAIL_LOG spike burst or
#: the NO_CMD Russian-prefix share (both precede the day's regular rows).
_BURST = 1


def day_streams(
    base: RngStream, budgets: np.ndarray, days: Iterable[int], per_day: bool = False
) -> Iterator[DayStream]:
    """Kernel input for each of ``days`` with a positive budget.

    ``per_day`` draws every day from its own stream ``<base>.d<day>`` (the
    sharded family), all seeded in one batch; otherwise all days share
    ``base`` (the serial family).
    """
    live = [(day, int(budgets[day])) for day in days if budgets[day] > 0]
    streams = (base.children(f"d{day}" for day, _ in live) if per_day
               else itertools.repeat(base))
    for (day, n), rng in zip(live, streams):
        yield day, n, rng


def _inc_nonzero(name: str, n: int) -> None:
    if n:
        _metric_inc(name, n)


def _daily_budgets(total: int, envelope: np.ndarray) -> np.ndarray:
    """Integer daily budgets summing exactly to ``total`` (largest remainder)."""
    raw = envelope * total
    floors = np.floor(raw).astype(np.int64)
    remainder = int(total - floors.sum())
    if remainder > 0:
        order = np.argsort(-(raw - floors))
        floors[order[:remainder]] += 1
    return floors


class _RuPrefixClients:
    """The Russian-datacenter prefix behind most edge-period NO_CMD traffic."""

    def __init__(self, registry: GeoRegistry, rng: RngStream, count: int,
                 country_index: int):
        record = registry.register_as(
            country="RU", network_type=NetworkType.DATACENTER, name="RU-DC-NOCMD"
        )
        pool = record.pool()
        self.ips = np.array([pool.sample(rng) for _ in range(count)], dtype=np.uint32)
        self.asn = record.asn
        self.country_index = country_index
        self.rates = np.array([rng.lognormal(0.0, 0.6) for _ in range(count)])
        self.rates /= self.rates.sum()


class TraceGenerator:
    """Stateful generator for one scenario run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = RngStream(config.seed, "workload")
        self.registry = GeoRegistry()
        self.deployment: DeploymentPlan = build_default_deployment(
            self.rng.child("deployment"), self.registry
        )
        self.pot_countries = [site.country for site in self.deployment.sites]
        self.n_pots = len(self.deployment.sites)

        self.builder = StoreBuilder()
        # Intern honeypots in site order so store index == deployment index.
        for site in self.deployment.sites:
            self.builder.honeypots.intern(site.honeypot_id)

        self.envelopes = build_envelopes(self.rng.child("envelopes"), config.n_days)
        self.population = build_population(
            PopulationConfig(n_clients=config.n_clients,
                             n_always_on=max(4, int(120 * config.ip_scale))),
            self.registry,
            self.rng.child("population"),
        )
        # Intern client countries so store ids == population country indices.
        for code in self.population.country_codes:
            self.builder.countries.intern(code)

        self.emitter = make_emitter(self.builder, self.rng.child("emitter"))
        session_w, client_w, hash_w = honeypot_weight_vectors(
            self.rng.child("potweights"), self.n_pots
        )
        if not config.decorrelate_pot_weights:
            # Ablation: one attractiveness vector drives everything, so
            # the "top pots differ per metric" findings disappear.
            client_w = session_w
            hash_w = session_w
        self.session_weights = session_w
        self.client_weights = client_w
        self.hash_weights = hash_w
        self.target_index = TargetIndex(
            self.rng.child("targets"), client_w, session_w, self.pot_countries
        )
        self.targets: List[TargetSet] = self.target_index.build_for(
            self.population.breadth
        )
        self.packed_targets = PackedTargets(self.targets)

        self.runner = ScriptRunner()
        self.intel = IntelDatabase()
        self.campaign_hash_weights = hash_w / hash_w.sum()
        self.engine = CampaignEngine(
            config=config,
            rng=self.rng.child("campaigns"),
            population=self.population,
            emitter=self.emitter,
            runner=self.runner,
            intel=self.intel,
            hash_weights=self.campaign_hash_weights,
            session_weights=session_w,
            pot_countries=self.pot_countries,
        )

        self._day_buckets: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._campaign_sessions = {"CMD": 0, "CMD_URI": 0}
        self.realized: List[RealizedCampaign] = []
        self._locality_cache: Optional[LocalityPools] = None

    # -- client activity calendar --------------------------------------------

    def _build_day_buckets(self) -> None:
        """Per-category CSR day buckets: ``(clients, offsets)`` with day
        ``d``'s active clients at ``clients[offsets[d]:offsets[d + 1]]``,
        in population order."""
        n_days = self.config.n_days
        rng = self.rng.child("calendar")
        pop = self.population
        scan_env = self.envelopes["NO_CRED"]
        active = [
            sample_active_days(rng, int(pop.first_day[i]), int(pop.n_days[i]),
                               scan_env)
            for i in range(len(pop))
        ]
        counts = np.fromiter(map(len, active), np.int64, count=len(active))
        days = (np.concatenate(active).astype(np.int64) if active
                else np.zeros(0, np.int64))
        owners = np.repeat(np.arange(len(pop), dtype=np.int64), counts)
        keep = days < n_days
        days, owners = days[keep], owners[keep]
        roles = pop.roles[owners].astype(np.int64)
        buckets: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for role, cat in _ROLE_CATEGORY:
            has = (roles & int(role)) != 0
            cat_days = days[has]
            offsets = np.zeros(n_days + 1, np.int64)
            np.cumsum(np.bincount(cat_days, minlength=n_days), out=offsets[1:])
            # A stable sort by day keeps each day's clients in population order.
            order = np.argsort(cat_days, kind="stable")
            buckets[cat] = (owners[has][order], offsets)
        self._day_buckets = buckets

    def _active_clients(self, category: str, day: int, rng: RngStream) -> np.ndarray:
        clients, offsets = self._day_buckets[category]
        lo, hi = offsets[day], offsets[day + 1]
        if hi > lo:
            return clients[lo:hi]
        role = next(r for r, cat in _ROLE_CATEGORY if cat == category)
        candidates = self.population.with_role(role)
        if len(candidates) == 0:
            return np.zeros(0, dtype=np.int64)
        k = min(5, len(candidates))
        picked = rng.choice_indices(len(candidates), size=k, replace=False)
        return candidates[np.asarray(picked)]

    # -- day kernels ---------------------------------------------------------------
    #
    # Each kernel takes ``(day, sessions, stream)`` triples (``day_streams``)
    # and works in two steps.  Per day it only draws: every draw from that
    # day's stream, in the same order and sizes as emitting the day alone,
    # buffered in a DayDraws; draws sized by earlier draws (multinomial
    # counts, offered client versions, locality bounds) are sized per day.
    # Then one vectorised pass derives every column over the concatenated
    # draws and one append_block writes the rows.  Elementwise numpy
    # commutes with concatenation, so the rows equal day-by-day emission
    # bit for bit.

    def _expand_day(
        self, rng: RngStream, clients: np.ndarray, n_sessions: int
    ) -> np.ndarray:
        """Distribute a day's sessions over its active clients by rate."""
        rates = self.population.rate[clients].astype(np.float64)
        counts = rng.multinomial(n_sessions, rates)
        nz = np.nonzero(counts)[0]
        return np.repeat(clients[nz], counts[nz])

    def _emit_no_cred(self) -> None:
        budgets = _daily_budgets(self.config.sessions_for("NO_CRED"),
                                 self.envelopes["NO_CRED"])
        self._no_cred_days(day_streams(self.rng.child("no_cred"), budgets,
                                       range(self.config.n_days)))

    def _no_cred_days(self, days: Iterable[DayStream]) -> None:
        share = SSH_SHARE["NO_CRED"]
        d = DayDraws()
        for day, n, rng in days:
            clients = self._active_clients("NO_CRED", day, rng)
            if len(clients) == 0:
                continue
            d.unit(day, n)
            d.put("idx", self._expand_day(rng, clients, n))
            d.put("fields", no_cred_draws(rng, n))
            u = rng.random_array(n)
            d.put("proto", u)
            d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n))
            d.put("pot", rng.random_array(n))
            self.emitter.draw_versions(rng, d, u < share)
            _trace_block("no_cred", day, n)
        if not d.n:
            return
        idx = d.cat("idx")
        duration, close = no_cred_derive(*d.cat("fields"))
        neg = np.full(d.n, -1, dtype=np.int32)
        self.emitter.append_draws(
            d, protocol_from(d.cat("proto"), share),
            duration=duration,
            honeypot=self.packed_targets.choose(idx, d.cat("pot")),
            **client_columns(self.population, idx),
            n_attempts=np.zeros(d.n, dtype=np.uint16),
            login_success=np.zeros(d.n, dtype=bool),
            script_id=neg,
            password_id=neg,
            username_id=neg,
            hash_ids=None,
            close_reason=close,
        )
        _metric_inc("generator.sessions.NO_CRED", d.n)
        _metric_inc("generator.days.NO_CRED", len(d.sizes))

    def _fail_log_setup(
        self, rng: RngStream
    ) -> Tuple[set, np.ndarray, np.ndarray]:
        """Fixed spike configuration: days, source clients, target pots.

        The big FAIL_LOG spikes (2022-09-05, 2022-11-05) are driven by a
        handful of source IPs hammering a small pot subset — the paper
        notes spikes are "often due to activity seen by only a small
        subset of the honeypots" (Fig 9).
        """
        from repro.workload.temporal import DAY_SPIKE_NOV5, DAY_SPIKE_SEP5
        spike_days = {DAY_SPIKE_SEP5, DAY_SPIKE_SEP5 + 1, DAY_SPIKE_NOV5}
        scout_clients = self.population.with_role(ClientRole.SCOUT)
        spike_rng = rng.child("spikes")
        if len(scout_clients):
            picked = spike_rng.choice_indices(
                len(scout_clients), size=min(3, len(scout_clients)),
                replace=False)
            spike_client_idx = scout_clients[np.asarray(picked)]
        else:
            spike_client_idx = np.zeros(0, dtype=np.int64)
        spike_pots = np.argsort(self.session_weights)[::-1][:3].astype(np.int64)
        return spike_days, spike_client_idx, spike_pots

    def _emit_fail_log(self) -> None:
        budgets = _daily_budgets(self.config.sessions_for("FAIL_LOG"),
                                 self.envelopes["FAIL_LOG"])
        # Explicit sequential handoff: this stream is passed to the
        # sampler/emit helpers, which draw on its behalf in one fixed
        # order inside one task — not shared cross-module state.
        rng = self.rng.child("fail_log")  # repro: lint-ok[rng-lineage]
        baseline = float(np.median(budgets[budgets > 0])) if (budgets > 0).any() else 0.0
        spike = self._fail_log_setup(rng)
        self._fail_log_days(
            day_streams(rng, budgets, range(self.config.n_days)), baseline, spike
        )

    def _fail_log_days(
        self,
        days: Iterable[DayStream],
        baseline: float,
        spike: Tuple[set, np.ndarray, np.ndarray],
    ) -> None:
        """FAIL_LOG days; on a spike day, a burst from few clients against
        few pots precedes the day's regular rows."""
        spike_days, spike_clients, spike_pots = spike
        share = SSH_SHARE["FAIL_LOG"]
        emitter = self.emitter
        d = DayDraws()

        def draw_sessions(rng: RngStream, day: int, m: int, tag: int) -> np.ndarray:
            d.unit(day, m, tag)
            u = rng.random_array(m)
            d.put("proto", u)
            d.put("fields", fail_log_draws(rng, m))
            d.put("creds", emitter.fail_credential_draws(rng, m))
            return u < share

        for day, n, rng in days:
            if day in spike_days and len(spike_clients) and n > baseline:
                surplus = int(n - baseline)
                counts = rng.multinomial(surplus, np.ones(len(spike_clients)))
                if surplus:
                    nz = np.nonzero(counts)[0]
                    is_ssh = draw_sessions(rng, day, surplus, _BURST)
                    d.put("idx", np.repeat(spike_clients[nz], counts[nz]))
                    d.put("burst_pot",
                          rng.choice_indices(len(spike_pots), size=surplus))
                    d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, surplus))
                    emitter.draw_versions(rng, d, is_ssh)
                    _trace_block("fail_log", day, surplus, spike=True)
                n -= surplus
                if n <= 0:
                    continue
            clients = self._active_clients("FAIL_LOG", day, rng)
            if len(clients) == 0:
                continue
            idx = self._expand_day(rng, clients, n)
            is_ssh = draw_sessions(rng, day, n, 0)
            d.put("idx", idx)
            d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n))
            d.put("pot", rng.random_array(n))
            emitter.draw_versions(rng, d, is_ssh)
            _trace_block("fail_log", day, n)
        if not d.n:
            return
        idx = d.cat("idx")
        burst = d.rows(d.tags) == _BURST
        protocol = protocol_from(d.cat("proto"), share)
        duration, close, attempts = fail_log_derive(protocol == 0, *d.cat("fields"))
        users, passwords = emitter.fail_credentials_from(*d.cat("creds"))
        pots = np.empty(d.n, dtype=np.int32)
        pots[burst] = spike_pots[d.cat("burst_pot", np.int64)]
        pots[~burst] = self.packed_targets.choose(idx[~burst], d.cat("pot"))
        emitter.append_draws(
            d, protocol,
            duration=duration,
            honeypot=pots,
            **client_columns(self.population, idx),
            n_attempts=attempts,
            login_success=np.zeros(d.n, dtype=bool),
            script_id=np.full(d.n, -1, dtype=np.int32),
            password_id=passwords,
            username_id=users,
            hash_ids=None,
            close_reason=close,
        )
        _metric_inc("generator.sessions.FAIL_LOG", d.n)
        _inc_nonzero("generator.spike_sessions.FAIL_LOG", int(burst.sum()))
        _inc_nonzero("generator.days.FAIL_LOG", d.tags.count(0))

    def _no_cmd_setup(self, rng: RngStream) -> Tuple[_RuPrefixClients, np.ndarray]:
        ru_count = max(8, int(48 * self.config.ip_scale * 10))
        ru_index = self.population.country_codes.index("RU")
        ru = _RuPrefixClients(self.registry, rng.child("ru"), ru_count, ru_index)
        # The RU prefix targets a broad, fixed slice of the farm.
        ru_pots = np.arange(self.n_pots, dtype=np.int32)
        return ru, ru_pots

    def _emit_no_cmd(self) -> None:
        budgets = _daily_budgets(self.config.sessions_for("NO_CMD"),
                                 self.envelopes["NO_CMD"])
        # Explicit sequential handoff, as in _emit_fail_log above.
        rng = self.rng.child("no_cmd")  # repro: lint-ok[rng-lineage]
        ru, ru_pots = self._no_cmd_setup(rng)
        self._no_cmd_days(day_streams(rng, budgets, range(self.config.n_days)),
                          ru, ru_pots)

    def _no_cmd_days(
        self,
        days: Iterable[DayStream],
        ru: _RuPrefixClients,
        ru_pots: np.ndarray,
    ) -> None:
        """NO_CMD days; the Russian-prefix share of a day precedes its
        regular rows."""
        share = SSH_SHARE["NO_CMD"]
        emitter = self.emitter
        d = DayDraws()
        n_days = 0
        for day, n, rng in days:
            n_ru = int(round(n * ru_edge_weight(day)))
            n_regular = n - n_ru
            if n_ru > 0:
                counts = rng.multinomial(n_ru, ru.rates)
                nz = np.nonzero(counts)[0]
                d.unit(day, n_ru, _BURST)
                d.put("ru_ip", np.repeat(ru.ips[nz], counts[nz]))
                d.put("fields", no_cmd_draws(rng, n_ru))
                u = rng.random_array(n_ru)
                d.put("proto", u)
                d.put("burst_pot", rng.choice_indices(len(ru_pots), size=n_ru))
                d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n_ru))
                d.put("pw", rng.random_array(n_ru))
                emitter.draw_versions(rng, d, u < share)
                _trace_block("no_cmd", day, n_ru, ru=True)
            if n_regular > 0:
                clients = self._active_clients("NO_CMD", day, rng)
                if len(clients) == 0:
                    continue
                d.unit(day, n_regular)
                d.put("idx", self._expand_day(rng, clients, n_regular))
                d.put("fields", no_cmd_draws(rng, n_regular))
                u = rng.random_array(n_regular)
                d.put("proto", u)
                d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n_regular))
                d.put("pot", rng.random_array(n_regular))
                d.put("pw", rng.random_array(n_regular))
                emitter.draw_versions(rng, d, u < share)
                _trace_block("no_cmd", day, n_regular)
            n_days += 1
        if not d.n:
            return
        pop = self.population
        idx = d.cat("idx", np.int64)
        ru_rows = d.rows(d.tags) == _BURST
        regular = ~ru_rows
        duration, close, attempts = no_cmd_derive(*d.cat("fields"))
        ip = np.empty(d.n, dtype=pop.ip.dtype)
        ip[ru_rows] = d.cat("ru_ip")
        ip[regular] = pop.ip[idx]
        asn = np.full(d.n, ru.asn, dtype=np.int32)
        asn[regular] = pop.asn[idx]
        country = np.full(d.n, ru.country_index, dtype=np.int32)
        country[regular] = pop.country[idx]
        pots = np.empty(d.n, dtype=np.int32)
        pots[ru_rows] = ru_pots[d.cat("burst_pot", np.int64)]
        pots[regular] = self.packed_targets.choose(idx, d.cat("pot"))
        emitter.append_draws(
            d, protocol_from(d.cat("proto"), share),
            duration=duration,
            honeypot=pots,
            client_ip=ip,
            client_asn=asn,
            client_country=country,
            n_attempts=attempts,
            login_success=np.ones(d.n, dtype=bool),
            script_id=np.full(d.n, -1, dtype=np.int32),
            password_id=emitter.success_from(d.cat("pw")),
            username_id=np.full(d.n, emitter.root_id, dtype=np.int32),
            hash_ids=None,
            close_reason=close,
        )
        _metric_inc("generator.sessions.NO_CMD", d.n)
        _inc_nonzero("generator.days.NO_CMD", n_days)

    def _realize_campaigns(self) -> None:
        """Realise and rescale all campaigns without emitting any sessions."""
        rng = self.rng.child("midtail")
        specs = marquee_campaigns() + midtail_campaigns(
            self.config.n_midtail_campaigns, rng, self.config.intel_coverage
        )
        realized = [self.engine.realize(spec) for spec in specs]
        self.realized = [r for r in realized if r is not None]

        # Clamp total campaign volume per category so background traffic
        # retains its budget share. Rescaling trims a campaign's schedule
        # (dropping active days when necessary) instead of flooring every
        # day at one session, which would blow the budget at small scales.
        for category, cap_share in (("CMD", 0.72), ("CMD_URI", 0.70)):
            cap = int(self.config.sessions_for(category) * cap_share)
            total = sum(
                r.total_sessions for r in self.realized if r.category == category
            )
            if total > cap > 0:
                factor = cap / total
                for r in self.realized:
                    if r.category == category:
                        r.schedule = _rescale_schedule(r.schedule, factor)

    def _emit_campaigns(self) -> None:
        self._realize_campaigns()
        for r in self.realized:
            emitted = self.engine.emit(r)
            self._campaign_sessions[r.category] += emitted

    def _emit_singleton_writers(self) -> None:
        """Background intruders whose one-off files give singleton hashes
        (serial family: selection and every writer share one stream)."""
        rng = self.rng.child("singletons")
        writers = self._pick_writers(rng)
        # Counts against the CMD budget.
        self._campaign_sessions["CMD"] += self._singleton_writer_days(
            (int(w), rng) for w in writers
        )

    # -- singleton writers, sharded path --------------------------------------
    #
    # The sharded pipeline gives every writer its own named rng stream so a
    # writer's sessions are identical no matter which worker emits them.
    # Selection reuses the first draw of the serial path's stream, so both
    # paths pick the same writers.

    def _singleton_writers(self) -> np.ndarray:
        """Deterministic singleton-writer selection (population indices)."""
        return self._pick_writers(self.rng.child("singletons"))

    def _pick_writers(self, rng: RngStream) -> np.ndarray:
        cmd_clients = self.population.with_role(ClientRole.CMD)
        n_writers = min(self.config.n_singleton_hashes, len(cmd_clients))
        if n_writers == 0:
            return np.zeros(0, dtype=np.int64)
        picked = rng.choice_indices(len(cmd_clients), size=n_writers, replace=False)
        return cmd_clients[np.asarray(picked)]

    def _singleton_writer_streams(
        self, writers: np.ndarray
    ) -> Iterator[Tuple[int, RngStream]]:
        """``(writer, stream)`` per writer, each on its own stream
        ``singletons.w<writer>``, all seeded in one batch."""
        writers = [int(w) for w in writers]
        return zip(writers, self.rng.children(f"singletons.w{w}" for w in writers))

    def _singleton_writer_plan(self, wrng: RngStream, w: int) -> Tuple[int, int]:
        """(target pot, session count) for one writer — first draws on its stream."""
        target_pots = self.targets[w].pots
        pot = int(target_pots[wrng.randint(0, len(target_pots))])
        n_sessions = 1 + wrng.randint(0, 3)
        return pot, n_sessions

    def _singleton_session_total(self, writers: np.ndarray) -> int:
        """Total sessions the writers will emit (re-derivable in any worker)."""
        return sum(self._singleton_writer_plan(wrng, w)[1]
                   for w, wrng in self._singleton_writer_streams(writers))

    def _singleton_writer_days(self, units: Iterable[Tuple[int, RngStream]]) -> int:
        """Singleton-writer kernel; returns the session count.

        Each writer runs a personal FILE_TOKEN script against one pot of
        its target set -- these are the >60% of all hashes the paper finds
        at exactly one honeypot.  Spreading them uniformly over the
        writer's targets keeps the top pots' unique-hash coverage small
        (the best pot sees <5%).  Per writer it makes the same scalar
        draws, in the same order, as emitting its rows one by one (pot and
        session count, then per session day, start, fields, protocol and
        password) and buffers them; one derivation and one block follow.
        """
        pop = self.population
        last_day = self.config.n_days - 1
        d = DayDraws()
        starts: List[float] = []
        writers: List[int] = []
        pots: List[int] = []
        script_ids: List[int] = []
        hash_tuples: List[Tuple[int, ...]] = []
        exec_seconds: List[float] = []
        for w, rng in units:
            pot, n_sessions = self._singleton_writer_plan(rng, w)
            profile = self.runner.profile(build_script(
                ScriptKind.FILE_TOKEN, token=f"bg-{w}-{int(pop.ip[w])}"))
            slot = len(writers)
            writers.append(w)
            pots.append(pot)
            script_ids.append(self.builder.intern_script(profile.commands,
                                                         profile.uris))
            hash_tuples.append(tuple(self.builder.hashes.intern(h)
                                     for h in profile.hashes))
            exec_seconds.append(profile.exec_seconds)
            day0 = int(pop.first_day[w])
            span = max(1, int(pop.n_days[w]))
            for _s in range(n_sessions):
                d.unit(min(day0 + rng.randint(0, span), last_day), 1, slot)
                starts.append(rng.uniform(0, SECONDS_PER_DAY))
                d.put("fields", cmd_draws(rng, 1))
                d.put("proto", rng.random_array(1))
                d.put("pw", rng.random_array(1))
            _trace.emit("generator.block", trace_id=f"singletons.w{w}",
                        sim_time=day0 * 86400.0, category="singletons",
                        writer=w, sessions=n_sessions)
        if not d.n:
            return 0
        slot_rows = np.asarray(d.tags)
        idx = np.asarray(writers, dtype=np.int64)[slot_rows]
        duration, close, attempts = cmd_derive(
            np.asarray(exec_seconds)[slot_rows], *d.cat("fields"))
        emitter = self.emitter
        emitter.append_block(
            start_time=d.rows(d.days) * SECONDS_PER_DAY + np.asarray(starts),
            duration=duration,
            honeypot=np.asarray(pots, dtype=np.int32)[slot_rows],
            protocol=protocol_from(d.cat("proto"), SSH_SHARE["CMD"]),
            **client_columns(pop, idx),
            n_attempts=attempts,
            login_success=np.ones(d.n, dtype=bool),
            script_id=np.asarray(script_ids, dtype=np.int32)[slot_rows],
            password_id=emitter.success_from(d.cat("pw")),
            username_id=np.full(d.n, emitter.root_id, dtype=np.int32),
            hash_ids=gather_hash_rows(hash_tuples, slot_rows),
            close_reason=close,
            version_id=np.full(d.n, -1, dtype=np.int32),
        )
        _metric_inc("generator.sessions.singletons", d.n)
        return d.n

    def _bg_cmd_profiles(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """Intern the fixed recon/fileless script set into ``self.builder``."""
        profiles = []
        for i in range(16):
            kind = ScriptKind.RECON if i % 3 else ScriptKind.FILELESS
            profiles.append(self.runner.profile(build_script(kind, token=f"recon{i}")))
        script_ids = np.array(
            [self.builder.intern_script(p.commands, p.uris) for p in profiles],
            dtype=np.int64,
        )
        exec_secs = np.array([p.exec_seconds for p in profiles])
        return len(profiles), script_ids, exec_secs

    def _emit_background_cmd(self) -> None:
        """Recon-only CMD sessions (no file writes, no URIs)."""
        budget = self.config.sessions_for("CMD") - self._campaign_sessions["CMD"]
        if budget <= 0:
            return
        rng = self.rng.child("bg_cmd")
        pack = self._bg_cmd_profiles()
        budgets = _daily_budgets(budget, self.envelopes["CMD"])
        self._bg_cmd_days(day_streams(rng, budgets, range(self.config.n_days)), pack)

    def _bg_cmd_days(
        self,
        days: Iterable[DayStream],
        pack: Tuple[int, np.ndarray, np.ndarray],
    ) -> None:
        n_profiles, script_ids, exec_secs = pack
        share = SSH_SHARE["CMD"]
        d = DayDraws()
        for day, n, rng in days:
            clients = self._active_clients("CMD", day, rng)
            if len(clients) == 0:
                continue
            d.unit(day, n)
            d.put("idx", self._expand_day(rng, clients, n))
            d.put("fields", cmd_draws(rng, n))
            u = rng.random_array(n)
            d.put("proto", u)
            d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n))
            d.put("pot", rng.random_array(n))
            d.put("pw", rng.random_array(n))
            self.emitter.draw_versions(rng, d, u < share)
            _trace_block("bg_cmd", day, n)
        if not d.n:
            return
        idx = d.cat("idx")
        # Clients keep using the same tooling: script choice is stable
        # in the client index.
        prof_idx = idx % n_profiles
        duration, close, attempts = cmd_derive(exec_secs[prof_idx], *d.cat("fields"))
        self._append_intrusions(
            d, share, idx, self.packed_targets.choose(idx, d.cat("pot")),
            duration=duration,
            n_attempts=attempts,
            script_id=script_ids[prof_idx],
            hash_ids=None,
            close_reason=close,
        )
        _metric_inc("generator.sessions.CMD", d.n)
        _metric_inc("generator.days.CMD", len(d.sizes))

    def _append_intrusions(self, d: DayDraws, share: float, idx: np.ndarray,
                           pots: np.ndarray, **columns) -> None:
        """Append logged-in root sessions (bg_cmd / bg_uri rows)."""
        emitter = self.emitter
        emitter.append_draws(
            d, protocol_from(d.cat("proto"), share),
            honeypot=pots,
            **client_columns(self.population, idx),
            login_success=np.ones(d.n, dtype=bool),
            password_id=emitter.success_from(d.cat("pw")),
            username_id=np.full(d.n, emitter.root_id, dtype=np.int32),
            **columns,
        )

    def _bg_uri_profiles(self) -> Tuple[int, np.ndarray, List[Tuple[int, ...]], np.ndarray]:
        """Intern the uncatalogued dropper script set into ``self.builder``."""
        n_profiles = max(12, int(self.config.n_hashes_target * 0.03))
        profiles = [
            self.runner.profile(
                build_script(
                    ScriptKind.DROPPER,
                    token=f"bgdrop{i}",
                    dropper_host=f"203.0.113.{(i % 200) + 10}",
                )
            )
            for i in range(n_profiles)
        ]
        script_ids = np.array(
            [self.builder.intern_script(p.commands, p.uris) for p in profiles],
            dtype=np.int64,
        )
        hash_tuples = [
            tuple(self.builder.hashes.intern(h) for h in p.hashes) for p in profiles
        ]
        exec_secs = np.array([p.exec_seconds for p in profiles])
        return len(profiles), script_ids, hash_tuples, exec_secs

    def _bg_uri_budgets(self, budget: int) -> np.ndarray:
        # Concentrate the URI budget on days where URI-capable clients are
        # naturally active: the paper's CMD+URI activity is bursty and its
        # client IPs are short-lived (Figs 11/13).
        bucket_sizes = np.diff(self._day_buckets["CMD_URI"][1]).astype(float)
        envelope = self.envelopes["CMD_URI"] * np.where(bucket_sizes > 0, 1.0, 0.02)
        envelope = envelope / envelope.sum()
        return _daily_budgets(budget, envelope)

    def _emit_background_uri(self) -> None:
        """Uncatalogued dropper sessions filling the CMD+URI budget."""
        budget = self.config.sessions_for("CMD_URI") - self._campaign_sessions["CMD_URI"]
        if budget <= 0:
            return
        rng = self.rng.child("bg_uri")
        pack = self._bg_uri_profiles()
        budgets = self._bg_uri_budgets(budget)
        self._bg_uri_days(day_streams(rng, budgets, range(self.config.n_days)), pack)

    def _bg_uri_days(
        self,
        days: Iterable[DayStream],
        pack: Tuple[int, np.ndarray, List[Tuple[int, ...]], np.ndarray],
    ) -> None:
        """Uncatalogued droppers, with the CMD+URI locality bias (Fig 16b)."""
        n_profiles, script_ids, hash_tuples, exec_secs = pack
        share = SSH_SHARE["CMD_URI"]
        bias = self.config.uri_locality_bias
        d = DayDraws()
        for day, n, rng in days:
            clients = self._active_clients("CMD_URI", day, rng)
            if len(clients) == 0:
                continue
            idx = self._expand_day(rng, clients, n)
            first = d.unit(day, n)
            d.put("idx", idx)
            d.put("fields", cmd_draws(rng, n))
            u = rng.random_array(n)
            d.put("proto", u)
            d.put("pot", rng.random_array(n))
            if bias > 0:
                moved = locality_redirects(
                    rng, rng.random_array(n), bias, idx,
                    self.population.country, self._locality_tables(),
                )
                if moved is not None:
                    d.put("moved_rows", first + moved[0])
                    d.put("moved_pots", moved[1])
            d.put("start", rng.uniform_array(0, SECONDS_PER_DAY, n))
            d.put("pw", rng.random_array(n))
            self.emitter.draw_versions(rng, d, u < share)
            _trace_block("bg_uri", day, n)
        if not d.n:
            return
        idx = d.cat("idx")
        prof_idx = idx % n_profiles
        duration, close, attempts = cmd_derive(exec_secs[prof_idx], *d.cat("fields"))
        pots = self.packed_targets.choose(idx, d.cat("pot"))
        pots[d.cat("moved_rows", np.int64)] = d.cat("moved_pots", np.int32)
        self._append_intrusions(
            d, share, idx, pots,
            duration=duration,
            n_attempts=attempts,
            script_id=script_ids[prof_idx],
            hash_ids=gather_hash_rows(hash_tuples, prof_idx),
            close_reason=close,
        )
        _metric_inc("generator.sessions.CMD_URI", d.n)
        _metric_inc("generator.days.CMD_URI", len(d.sizes))

    def _locality_tables(self) -> LocalityPools:
        """Farm-wide locality pools per population country index (cached;
        a pure function of the deployment and population, no RNG)."""
        if self._locality_cache is None:
            self._locality_cache = self.engine.locality.pools(
                np.arange(self.n_pots))
        return self._locality_cache

    # -- orchestration ---------------------------------------------------------------

    def _campaign_runtimes(self) -> List[CampaignRuntime]:
        return [
            CampaignRuntime(
                campaign_id=r.spec.campaign_id,
                tag=r.spec.tag.value,
                primary_hash=r.profile.primary_hash or "",
                hashes=list(r.profile.hashes),
                sessions_planned=r.total_sessions,
                n_clients=len(r.pool),
                active_days=sorted(r.schedule),
                honeypot_indices=[int(p) for p in r.pot_subset],
            )
            for r in self.realized
        ]

    def _finalize(self, store) -> HoneyfarmDataset:
        return HoneyfarmDataset(
            config=self.config,
            store=store,
            deployment=self.deployment,
            registry=self.registry,
            intel=self.intel,
            campaigns=self._campaign_runtimes(),
            envelopes=self.envelopes,
        )

    def run(self) -> HoneyfarmDataset:
        metrics = get_metrics()
        with metrics.span("generate"):
            with metrics.span("day_buckets"):
                self._build_day_buckets()
            with metrics.span("campaigns"):
                self._emit_campaigns()
            with metrics.span("singletons"):
                self._emit_singleton_writers()
            with metrics.span("background"):
                self._emit_background_cmd()
                self._emit_background_uri()
                self._emit_no_cred()
                self._emit_fail_log()
                self._emit_no_cmd()
            with metrics.span("freeze"):
                self.emitter.flush()
                store = self.builder.build()
        return self._finalize(store)


def generate_dataset(
    config: Optional[ScenarioConfig] = None,
    workers: Optional[int] = None,
    cache=None,
) -> HoneyfarmDataset:
    """Deprecated shim over :func:`repro.api.generate`.

    ``workers=None`` runs the original single-pass generator (the
    ``serial`` backend — a distinct, equally valid trace whose draw order
    predates sharding); any integer ``workers >= 1`` selects the sharded
    pipeline, whose output is identical for every worker count.  ``cache``
    memoises the result on disk exactly as before.

    New code should call :func:`repro.generate`, which exposes the
    scheduler's backend seam (``inline`` / ``pool`` / ``queue``) instead
    of a bare process count.
    """
    import warnings

    warnings.warn(
        "generate_dataset() is deprecated; use repro.generate(config, "
        "backend=..., workers=...) (see repro.api)",
        DeprecationWarning, stacklevel=2,
    )
    from repro.api import generate

    if workers is None:
        backend = "serial"
        workers_opt = None
    else:
        backend = "inline" if int(workers) == 1 else "pool"
        workers_opt = max(1, int(workers))
    return generate(config, backend=backend, workers=workers_opt,
                    cache=cache)
