"""Sharded, multiprocess trace generation.

The scenario is partitioned into shards keyed by (traffic unit, day-range):
each realised campaign, the singleton-writer pool, and every background
category is cut into fixed-size day (or writer) chunks. Every per-day and
per-writer draw comes from a named child :class:`~repro.simulation.rng.RngStream`
(``no_cred.d17``, ``emit.<campaign>.d42``, ``singletons.w1031``), each
shard seeding all of its streams in one batch
(:meth:`~repro.simulation.rng.RngStream.children`), so a
shard's output depends only on its key — never on which worker runs it or
in what order. Workers emit into builders forked from the plan's base
tables (:meth:`StoreBuilder.fork_tables`) and return frozen stores; the
parent adopts them back in shard order (:meth:`StoreBuilder.adopt_store`),
remapping any ids a shard interned beyond the shared prefix. The merged
store is therefore bit-identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_metrics, use_metrics
from repro.obs import trace as _trace
from repro.store.store import SessionStore
from repro.workload.blocks import make_emitter
from repro.workload.config import ScenarioConfig
from repro.workload.dataset import HoneyfarmDataset
from repro.workload.generator import TraceGenerator, _daily_budgets, day_streams

#: Days per background/campaign shard. Fixed — never derived from the
#: worker count — so the shard list is a pure function of the config.
DAY_CHUNK = 32

#: Singleton writers per shard.
WRITER_CHUNK = 64

#: Bounds for the adaptive per-shard session target: coarse enough that
#: per-shard fork/merge overhead stays invisible, fine enough that a pool
#: still has shards to balance.  The target itself is derived from the
#: *planned* session total only — never from the worker count — so the
#: shard list remains a pure function of the config.
_MIN_SHARD_SESSIONS = 256
_MAX_SHARD_SESSIONS = 1 << 18
_TARGET_SHARDS = 48

#: Background categories in their serial emission order; values are the
#: rng-stream names (which double as shard keys).
_BACKGROUND = ("bg_cmd", "bg_uri", "no_cred", "fail_log", "no_cmd")


@dataclass(frozen=True)
class Shard:
    """One independently emittable slice of the scenario.

    ``kind`` is ``"campaign"``, ``"singletons"`` or a background category
    key; ``key`` carries the campaign id for campaign shards. ``start`` /
    ``stop`` bound a half-open range of schedule positions (campaigns),
    writer slots (singletons) or absolute days (background).
    """

    kind: str
    key: str
    start: int
    stop: int


class ShardPlan:
    """Everything shared by all shards: realised campaigns, budgets, rng roots.

    Built once per config in the parent process; under a fork start method
    workers inherit it copy-on-write, under spawn each worker rebuilds it
    (identically — construction only uses named rng streams).
    """

    def __init__(self, gen: TraceGenerator):
        self.gen = gen
        gen._build_day_buckets()
        gen._realize_campaigns()
        self.campaigns_by_id = {r.spec.campaign_id: r for r in gen.realized}

        self.writers = gen._singleton_writers()
        singleton_total = gen._singleton_session_total(self.writers)
        campaign_totals = {"CMD": 0, "CMD_URI": 0}
        for r in gen.realized:
            campaign_totals[r.category] += r.total_sessions

        cfg = gen.config
        bg_cmd_budget = max(
            0, cfg.sessions_for("CMD") - campaign_totals["CMD"] - singleton_total
        )
        bg_uri_budget = max(
            0, cfg.sessions_for("CMD_URI") - campaign_totals["CMD_URI"]
        )
        self.budgets: Dict[str, np.ndarray] = {
            "bg_cmd": _daily_budgets(bg_cmd_budget, gen.envelopes["CMD"]),
            "bg_uri": gen._bg_uri_budgets(bg_uri_budget),
            "no_cred": _daily_budgets(
                cfg.sessions_for("NO_CRED"), gen.envelopes["NO_CRED"]
            ),
            "fail_log": _daily_budgets(
                cfg.sessions_for("FAIL_LOG"), gen.envelopes["FAIL_LOG"]
            ),
            "no_cmd": _daily_budgets(
                cfg.sessions_for("NO_CMD"), gen.envelopes["NO_CMD"]
            ),
        }
        fl = self.budgets["fail_log"]
        self.fail_log_baseline = (
            float(np.median(fl[fl > 0])) if (fl > 0).any() else 0.0
        )
        self.fail_log_spike = gen._fail_log_setup(gen.rng.child("fail_log"))
        self.ru, self.ru_pots = gen._no_cmd_setup(gen.rng.child("no_cmd"))
        self.shards = self._enumerate()

    def _shard_target(self) -> int:
        """Adaptive per-shard session target (see module constants).

        Derived from the planned totals only, so it is identical in every
        process for a given config.
        """
        total = sum(r.total_sessions for r in self.gen.realized)
        total += len(self.writers)  # one-session floor per writer
        total += int(sum(int(b.sum()) for b in self.budgets.values()))
        return min(max(total // _TARGET_SHARDS, _MIN_SHARD_SESSIONS),
                   _MAX_SHARD_SESSIONS)

    def _enumerate(self) -> List[Shard]:
        """Shards in serial emission order, coarsened to ``_shard_target``.

        Every per-day / per-writer draw already comes from its own named
        rng stream, so shard boundaries never change drawn values — only
        how much fork/merge bookkeeping the run pays.  Consecutive small
        campaigns collapse into ``campaign_group`` shards (a realized-list
        index range); large campaigns split at day positions where the
        accumulated schedule crosses the target; background categories use
        greedy day ranges over their daily budgets.  Merge order equals
        enumeration order equals the serial emission order, so the merged
        store is byte-identical at any granularity.
        """
        target = self._shard_target()
        shards: List[Shard] = []

        realized = self.gen.realized
        group_start: Optional[int] = None
        group_sessions = 0

        def close_group(stop: int) -> None:
            nonlocal group_start, group_sessions
            if group_start is not None:
                shards.append(Shard(
                    "campaign_group", f"{group_start}:{stop}",
                    group_start, stop,
                ))
                group_start = None
                group_sessions = 0

        for pos, r in enumerate(realized):
            if r.total_sessions >= target:
                close_group(pos)
                days = sorted(r.schedule)
                lo = 0
                acc = 0
                for j, day in enumerate(days):
                    acc += r.schedule[day]
                    if acc >= target and j + 1 < len(days):
                        shards.append(Shard(
                            "campaign", r.spec.campaign_id, lo, j + 1
                        ))
                        lo = j + 1
                        acc = 0
                if lo < len(days):
                    shards.append(Shard(
                        "campaign", r.spec.campaign_id, lo, len(days)
                    ))
                continue
            if group_start is None:
                group_start = pos
            group_sessions += r.total_sessions
            if group_sessions >= target:
                close_group(pos + 1)
        close_group(len(realized))

        writer_chunk = max(1, min(len(self.writers), target))
        for lo in range(0, len(self.writers), writer_chunk):
            shards.append(Shard(
                "singletons", "singletons",
                lo, min(lo + writer_chunk, len(self.writers)),
            ))

        n_days = self.gen.config.n_days
        for cat in _BACKGROUND:
            budgets = self.budgets[cat]
            lo = None
            acc = 0
            for day in range(n_days):
                n = int(budgets[day])
                if n <= 0 and lo is None:
                    continue
                if lo is None:
                    lo = day
                acc += n
                if acc >= target:
                    shards.append(Shard(cat, cat, lo, day + 1))
                    lo = None
                    acc = 0
            if lo is not None and acc > 0:
                shards.append(Shard(cat, cat, lo, n_days))
        return shards

    def shard_cost(self, shard: Shard) -> float:
        """Planned session count for one shard — the scheduler's relative
        cost signal (estimated, not authoritative: emission may dedupe)."""
        if shard.kind == "campaign":
            campaign = self.campaigns_by_id[shard.key]
            days = sorted(campaign.schedule)
            return float(sum(
                campaign.schedule[day]
                for day in days[shard.start:shard.stop]
            ))
        if shard.kind == "campaign_group":
            return float(sum(
                r.total_sessions
                for r in self.gen.realized[shard.start:shard.stop]
            ))
        if shard.kind == "singletons":
            # One session per writer is the plan's floor; close enough to
            # rank singleton shards against each other.
            return float(shard.stop - shard.start)
        return float(self.budgets[shard.kind][shard.start:shard.stop].sum())


def emit_shard(plan: ShardPlan, shard: Shard) -> SessionStore:
    """Emit one shard into a frozen store with tables forked from the plan."""
    metrics = get_metrics()
    with metrics.span(f"shard/{shard.kind}"):
        store = _emit_shard_body(plan, shard)
    metrics.inc("shards.emitted")
    metrics.inc(f"shards.sessions.{shard.kind}", len(store))
    metrics.observe("shards.sessions_per_shard", len(store))
    return store


def _emit_shard_body(plan: ShardPlan, shard: Shard) -> SessionStore:
    gen = plan.gen
    fork = gen.builder.fork_tables()
    emitter = make_emitter(fork, gen.rng.child("emitter"))
    saved = (gen.builder, gen.emitter, gen.engine.emitter)
    gen.builder = fork
    gen.emitter = emitter
    gen.engine.emitter = emitter
    try:
        kind = shard.kind
        engine = gen.engine
        if kind == "campaign":
            campaign = plan.campaigns_by_id[shard.key]
            days = sorted(campaign.schedule)[shard.start:shard.stop]
            engine.emit_days(engine.day_streams(
                [(campaign, day) for day in days]))
        elif kind == "campaign_group":
            engine.emit_days(engine.day_streams([
                (r, day)
                for r in gen.realized[shard.start:shard.stop]
                for day in sorted(r.schedule)
            ]))
        elif kind == "singletons":
            gen._singleton_writer_days(gen._singleton_writer_streams(
                plan.writers[shard.start:shard.stop]))
        else:
            if kind not in _BACKGROUND:
                raise ValueError(f"unknown shard kind: {kind}")
            days = day_streams(gen.rng.child(kind), plan.budgets[kind],
                               range(shard.start, shard.stop), per_day=True)
            if kind == "no_cred":
                gen._no_cred_days(days)
            elif kind == "fail_log":
                gen._fail_log_days(days, plan.fail_log_baseline,
                                   plan.fail_log_spike)
            elif kind == "no_cmd":
                gen._no_cmd_days(days, plan.ru, plan.ru_pots)
            elif kind == "bg_cmd":
                gen._bg_cmd_days(days, gen._bg_cmd_profiles())
            else:
                gen._bg_uri_days(days, gen._bg_uri_profiles())
    finally:
        gen.builder, gen.emitter, gen.engine.emitter = saved
    emitter.flush()
    return fork.build()


# One plan per process, keyed by config. Set in the parent before the pool
# is created so fork-started workers inherit it; spawn-started workers
# rebuild it on their first shard.
_PLAN: Optional[ShardPlan] = None


def _plan_for(config: ScenarioConfig) -> ShardPlan:
    global _PLAN
    if _PLAN is None or _PLAN.gen.config != config:
        _PLAN = ShardPlan(TraceGenerator(config))
    return _PLAN


def _emit_indexed(task: Tuple[ScenarioConfig, int, bool]):
    """Worker entry: emit one shard plus the metrics/trace it recorded.

    The shard is emitted under a fresh registry (plan construction, which a
    spawn-started worker redoes once, stays outside it), whose dict form
    travels back with the store so the parent can merge worker-side
    counters and stage timings in shard order.  With ``want_trace`` the
    shard also records under a fresh flight recorder whose event list
    travels back the same way — the ``want_trace`` flag rides in the task
    (not process state) so spawn-started workers honour it too.
    """
    config, index, want_trace = task
    plan = _plan_for(config)
    shard = plan.shards[index]
    with use_metrics() as metrics:
        if want_trace:
            with _trace.use_tracer(_trace.Tracer()) as tracer:
                tracer.emit(
                    "shard.emit",
                    trace_id=f"shard:{shard.kind}:{shard.key}:{shard.start}",
                    shard_kind=shard.kind, key=shard.key,
                    start=shard.start, stop=shard.stop,
                )
                store = emit_shard(plan, shard)
            events = tracer.to_list()
        else:
            store = emit_shard(plan, shard)
            events = None
    return store, metrics.to_dict(), events


def generate_sharded(
    config: Optional[ScenarioConfig] = None, workers: int = 1
) -> HoneyfarmDataset:
    """Generate the sharded trace with ``workers`` processes.

    The output is bit-identical for every ``workers`` value: shards are
    emitted from named rng streams and merged in enumeration order, so
    scheduling cannot influence the result.

    Since the :mod:`repro.sched` redesign this is a thin wrapper over
    :func:`repro.sched.scheduler.generate_scheduled` — ``workers == 1``
    runs the in-process :class:`~repro.sched.backends.InlineBackend`,
    anything larger the multiprocess pool (the pool this module used to
    hard-wire).  Pick other backends through :func:`repro.api.generate`.
    """
    from repro.sched.scheduler import generate_scheduled

    config = config or ScenarioConfig()
    workers = max(1, int(workers))
    backend = "inline" if workers == 1 else "pool"
    return generate_scheduled(config, backend=backend, workers=workers)
