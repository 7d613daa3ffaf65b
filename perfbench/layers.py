"""Per-layer timers the benchmark wraps around the program's public calls.

Nothing here is imported by the program: a traced run patches the named
functions from outside (:func:`install`), so every layer's time comes from
the benchmark's own clock, not from the program's ``repro.obs`` registry.

Timing model.  Each wrapped call opens a *span* on a per-process stack.
A layer's time is the inclusive duration of its outermost span (a layer
re-entered inside itself, such as ``RngStream`` built inside
``RngStream.child``, counts calls but not time twice).  A span opened with
an empty stack is a *root*; the run's coverage is the summed duration of
root spans over the run's wall time, so nothing is counted twice.

Pool workers inherit the patched functions through ``fork``.  A worker
appends one JSON line per finished root span to ``<spool>/w<pid>.jsonl``
(flushed at once, because pool workers leave through ``os._exit``), and
the parent folds those files in afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic


class Layers:
    """Span stack, per-layer totals and counts for one process."""

    def __init__(self, spool: Optional[str] = None):
        self.pid = os.getpid()
        self.spool = spool
        self._reset()
        # A forked worker starts empty: the parent's totals stay the
        # parent's, and the spans open at fork time are not the worker's.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        #: (layer, start, end, pid, detail) for spans callers asked to keep.
        self.spans: List[Tuple[str, float, float, int, object]] = []
        self._stack: List[str] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs,
             keep: Optional[Callable] = None,
             unless_inside: Tuple[str, ...] = ()):
        """Run ``fn(*args, **kwargs)`` as one span of layer ``name``."""
        self.calls[name] += 1
        stack = self._stack
        if name in stack or any(n in stack for n in unless_inside):
            return fn(*args, **kwargs)
        root = not stack
        stack.append(name)
        start = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            self.total[name] += end - start
            if root:
                self.root_s += end - start
            if keep is not None:
                self.spans.append((name, start, end, os.getpid(),
                                   keep(result, *args, **kwargs)))
            if root and os.getpid() != self.pid:
                self._flush_worker()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def _flush_worker(self) -> None:
        """Ship this worker's totals since the last flush to the spool."""
        record = {
            "pid": os.getpid(),
            "total": dict(self.total), "calls": dict(self.calls),
            "counts": dict(self.counts), "root_s": self.root_s,
            "spans": self.spans,
        }
        self._reset()
        if self.spool is None:
            return
        path = os.path.join(self.spool, f"w{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, **options) -> bool:
        """Replace ``owner.attr`` by a timed wrapper; False if absent."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if raw is None and not hasattr(owner, attr):
            return False
        layers = self
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__

            @functools.wraps(fn)
            def inner(*args, **kwargs):
                return layers.call(name, fn, args, kwargs, **options)

            setattr(owner, attr, type(raw)(inner))
            return True
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return layers.call(name, fn, args, kwargs, **options)

        setattr(owner, attr, wrapper)
        return True

    # -- folding -------------------------------------------------------------

    def fold_workers(self) -> None:
        """Merge every worker's spooled records into this (parent) object."""
        if self.spool is None or not os.path.isdir(self.spool):
            return
        for entry in sorted(os.listdir(self.spool)):
            with open(os.path.join(self.spool, entry), encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    for key, value in record["total"].items():
                        self.total[key] += value
                    for key, value in record["calls"].items():
                        self.calls[key] += value
                    for key, value in record["counts"].items():
                        self.counts[key] += value
                    self.spans.extend(tuple(s) for s in record["spans"])

    def to_dict(self) -> dict:
        return {
            "total": dict(self.total), "calls": dict(self.calls),
            "counts": dict(self.counts), "root_s": self.root_s,
            "spans": self.spans,
        }


# -- the hooks for each program layer ------------------------------------------


def _shard_id(result, plan, shard):
    return [shard.kind, shard.key, shard.start]


def _task_submit(result, backend, task, attempt=1):
    return [task.kind, task.key, task.start, attempt]


def _task_collect(result, backend, *args, **kwargs):
    return [[o.task.kind, o.task.key, o.task.start] for o in result or ()
            if o.ok]


def install(layers: Layers) -> List[str]:
    """Wrap every layer the benchmark times; returns hooks not found.

    A hook whose target a later refactor renamed is reported (and its
    metric reads 0) instead of failing the run.
    """
    from repro.analytics import streaming
    from repro.core import context, report
    from repro.sched import backends, scheduler
    from repro.simulation import rng
    from repro.store import npz, store
    from repro.workload import campaign_engine, script_runner, shards

    missing = []

    def hook(owner, attr, name, **options):
        if not layers.wrap(owner, attr, name, **options):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    hook(shards, "_plan_for", "workload.plan")
    hook(campaign_engine.CampaignEngine, "realize", "workload.plan.realize")
    hook(rng.RngStream, "__init__", "simulation.rng.construct")
    _hook_profile(layers, script_runner.ScriptRunner, missing)
    hook(shards, "emit_shard", "workload.emit", keep=_shard_id)
    hook(scheduler.Scheduler, "run", "sched.emit_wall")
    for cls in (backends.InlineBackend, backends.PoolBackend):
        hook(cls, "submit", "sched.submit", keep=_task_submit)
        hook(cls, "collect", "sched.collect", keep=_task_collect)
    hook(store.StoreBuilder, "adopt_store", "store.merge")
    hook(store.StoreBuilder, "build", "store.merge",
         unless_inside=("workload.emit", "farm.harvest"))
    hook(npz, "save_npz", "store.save_npz")
    hook(npz, "load_npz", "store.load_npz")
    hook(context.AnalysisContext, "from_dataset", "core.context")
    hook(report, "full_report", "core.report")
    hook(report, "print_summary", "core.summary")
    hook(streaming.StreamingAnalytics, "ingest_store", "analytics.ingest")
    hook(streaming.StreamingAnalytics, "on_event", "analytics.on_event")
    return missing


def _hook_profile(layers: Layers, runner_cls, missing: List[str]) -> None:
    """``ScriptRunner.profile`` with a hit count: a call whose template
    this runner has profiled before is a hit (the memoisation target)."""
    fn = runner_cls.__dict__.get("profile")
    if fn is None:
        missing.append("ScriptRunner.profile")
        return
    seen = set()

    @functools.wraps(fn)
    def profile(self, template, *args, **kwargs):
        key = (id(self), template.kind, template.token, tuple(template.lines))
        if key in seen:
            layers.add("honeypot.shell.profile_hits")
        else:
            seen.add(key)
        return layers.call("honeypot.shell.profile", fn,
                           (self, template) + args, kwargs)

    runner_cls.profile = profile
