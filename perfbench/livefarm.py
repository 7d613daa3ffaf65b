"""The ``live-farm`` workload: seeded sessions against live honeypots.

One client drives sessions one after another (a closed loop) through the
public session API of the default 221-pot deployment:
``Honeypot.accept`` -> ``HoneypotSession.try_login`` ->
``HoneypotSession.input_line`` -> ``client_disconnect`` -> ``Honeypot.reap``,
on a virtual clock.  Every event goes to the three live sinks
(``FarmCollector``, ``FarmHealthMonitor``, ``StreamingAnalytics.on_event``).

Inputs come from ``random.Random(seed)`` only.  Each kind of session
stands for one of the paper's categories (:data:`KIND_CATEGORY`): scans
that never log in, failed-login scouts, logins without commands, and
intrusions typing calibrated ``agents.scripts`` templates; a small share
of intrusions type lines from the hostile grammar (:mod:`hostile`).  The
lines the shell is known to raise on are served apart, once per run
(:func:`crasher_sessions`).  The
typing shares are the benchmark's choice; the three other kinds split
the rest in the ratios of ``repro.workload.config.CATEGORY_MIX``, and
each kind's SSH share is ``SSH_SHARE`` of its category (paper Table 1).  Each session runs under its own ``try``: an exception
escaping a honeypot call, or a refused connection, fails that session and
is tallied by type, and the loop goes on.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from typing import Dict, List, Optional

from hostile import (LINES_PER_SESSION, crasher_lines, hostile_script,
                     production_deck)

#: The paper category (``CATEGORY_MIX`` / ``SSH_SHARE`` key) of each kind.
KIND_CATEGORY = {"scan": "NO_CRED", "scout": "FAIL_LOG", "nocmd": "NO_CMD",
                 "script": "CMD", "hostile": "CMD"}
#: Shares of the kinds that log in and type: most sessions run a template,
#: a small share runs hostile lines.
TYPED_SHARE = {"script": 0.50, "hostile": 0.05}

FAILING = (("admin", "admin"), ("root", "root"), ("user", "1234"),
           ("root", ""), ("ubnt", "ubnt"), ("pi", "raspberry"),
           ("oracle", "oracle"), ("test", "test"))
PASSWORDS = ("123456", "admin", "password", "1234", "12345", "qwerty",
             "raspberry", "default", "xc3511", "vizxv")
TOKENS = 240


def session_mix() -> Dict[str, float]:
    """Share of each session kind; the untyped kinds split what the typed
    ones leave in the paper's category ratios."""
    from repro.workload.config import CATEGORY_MIX

    untyped = [kind for kind in KIND_CATEGORY if kind not in TYPED_SHARE]
    rest = 1.0 - sum(TYPED_SHARE.values())
    weight = sum(CATEGORY_MIX[KIND_CATEGORY[kind]] for kind in untyped)
    mix = {kind: rest * CATEGORY_MIX[KIND_CATEGORY[kind]] / weight
           for kind in untyped}
    mix.update(TYPED_SHARE)
    return mix


def make_sessions(seed: int, count: int) -> List[dict]:
    """The seeded session plan (benchmark input, built before timing).

    Every kind of session, its SSH share, every script template and
    hostile production comes in its exact share, and only the order and
    the details depend on the seed, so every seed asks the farm for about
    the same work.
    """
    from repro.agents.scripts import ScriptKind, build_script
    from repro.workload.config import SSH_SHARE

    rng = random.Random(seed)
    kinds = [kind for kind, share in session_mix().items()
             for _ in range(round(share * count))]
    kinds = (kinds + ["script"] * count)[:count]
    rng.shuffle(kinds)
    ports = {}
    for kind, category in KIND_CATEGORY.items():
        n = kinds.count(kind)
        ssh = round(SSH_SHARE[category] * n)
        ports[kind] = [22] * ssh + [23] * (n - ssh)
        rng.shuffle(ports[kind])
    n_typed = sum(kind in ("script", "hostile") for kind in kinds)
    templates = [k for _, k in zip(range(n_typed), itertools.cycle(ScriptKind))]
    rng.shuffle(templates)
    deck = production_deck(rng, kinds.count("hostile"))
    plan = []
    for kind in kinds:
        spec = {
            "kind": kind,
            "pot": rng.randrange(1 << 30),
            "ip": 0x0A000000 + rng.randrange(1 << 24),
            "port": 1024 + rng.randrange(60000),
            "dst": ports[kind].pop(),
            "failures": [rng.choice(FAILING)
                         for _ in range(rng.randint(1, 3) if kind == "scout"
                                        else rng.randint(0, 1))],
            "password": rng.choice(PASSWORDS),
            "lines": [],
            "think": [rng.uniform(0.5, 4.0) for _ in range(8)],
        }
        if kind in ("script", "hostile"):
            template = build_script(
                templates.pop(), token=f"t{rng.randrange(TOKENS)}",
                dropper_host=f"198.51.100.{rng.randrange(1, 250)}",
            )
            spec["template"] = template
            spec["lines"] = list(template.lines)
            if kind == "hostile":
                spec["lines"] = hostile_script(
                    rng, template.lines,
                    [deck.pop() for _ in range(LINES_PER_SESSION)])
        plan.append(spec)
    return plan


def crasher_sessions() -> List[dict]:
    """One telnet login per :func:`hostile.crasher_lines` line, which it
    types alone; the same plan on every seed."""
    return [{"kind": "hostile", "pot": i, "ip": 0x0A000000 + i,
             "port": 40000 + i, "dst": 23, "failures": [],
             "password": "admin", "lines": [line], "think": [1.0] * 8}
            for i, line in enumerate(crasher_lines())]


class LiveFarmRun:
    """Deployment, sinks and the session loop for one run."""

    def __init__(self, layers=None):
        from repro.analytics import StreamingAnalytics
        from repro.farm.collector import FarmCollector
        from repro.farm.deployment import build_default_deployment
        from repro.farm.health import FarmHealthMonitor
        from repro.geo.registry import GeoRegistry
        from repro.honeypot.shell.resolver import StaticPayloadResolver

        self.layers = layers
        if layers is not None:
            layers.wrap(FarmCollector, "on_event", "farm.collector")
            layers.wrap(FarmCollector, "on_summary", "farm.collector")
            layers.wrap(FarmHealthMonitor, "on_event", "farm.health")
            layers.wrap(FarmHealthMonitor, "advance", "farm.health")
        self._span = layers.call if layers is not None else _untimed

        def deploy():
            registry = GeoRegistry()
            plan = build_default_deployment(registry=registry)
            self.collector = FarmCollector(registry=registry)
            self.health = FarmHealthMonitor()
            self.analytics = StreamingAnalytics()
            collector, health, analytics = \
                self.collector, self.health, self.analytics

            def sink(event):
                collector.on_event(event)
                health.on_event(event)
                analytics.on_event(event)

            self.pots = plan.build_honeypots(
                event_sink=sink, summary_sink=collector.on_summary)
            health.watch(pot.honeypot_id for pot in self.pots)
            self.resolver = StaticPayloadResolver()

        self._span("farm.deploy", deploy, (), {})

    def register_payloads(self, sessions: List[dict]) -> None:
        for spec in sessions:
            template = spec.get("template")
            if template is not None and template.payload is not None:
                self.resolver.register(template.dropper_uri, template.payload)

    def run(self, sessions: List[dict]) -> dict:
        """Serve every session; returns latencies, failures and the check."""
        span = self._span
        errors: Counter = Counter()
        latencies: List[float] = []
        accepted = refused = failed = 0
        self.lines = 0
        now = 0.0
        for spec in sessions:
            pot = self.pots[spec["pot"] % len(self.pots)]
            start = time.perf_counter()
            session = None
            error: Optional[BaseException] = None
            try:
                session = span("honeypot.accept", pot.accept,
                               (spec["ip"], spec["port"], spec["dst"], now,
                                self.resolver), {})
                accepted += 1
                now = self._drive(session, spec, now)
            except ConnectionRefusedError as exc:
                refused += 1
                error = exc
            except Exception as exc:  # the failure this workload counts
                error = exc
            finally:
                now += 1.0
                if session is not None:
                    try:
                        span("honeypot.disconnect", session.client_disconnect,
                             (now,), {})
                        span("farm.harvest", pot.reap, (now,), {})
                    except Exception as exc:
                        error = error or exc
            latencies.append(time.perf_counter() - start)
            if error is not None:
                failed += 1
                errors[type(error).__name__] += 1
            now += 5.0
        store = span("farm.harvest", self._harvest, (now,), {})
        return {
            "sessions": len(sessions), "accepted": accepted,
            "refused": refused, "failed": failed, "lines": self.lines,
            "errors": dict(errors), "latencies": latencies,
            "rows": len(store),
        }

    def _drive(self, session, spec: dict, now: float):
        span = self._span
        think = spec["think"]
        if spec["kind"] == "scan":
            return now + think[0]
        for i, (user, password) in enumerate(spec["failures"]):
            if session.is_closed:
                return now
            now += think[i % len(think)]
            span("honeypot.login", session.try_login,
                 (user, password, now), {})
        if spec["kind"] == "scout" or session.is_closed:
            return now
        now += think[1]
        span("honeypot.login", session.try_login,
             ("root", spec["password"], now), {})
        for i, line in enumerate(spec["lines"]):
            if session.is_closed:
                break
            now += think[i % len(think)]
            self.lines += 1
            span("honeypot.input_line", session.input_line, (line, now), {})
        return now

    def _harvest(self, now: float):
        for pot in self.pots:
            pot.reap(now + 10_000.0)
        self.health.advance(now)
        return self.collector.build_store()


def _untimed(name, fn, args, kwargs):
    return fn(*args, **kwargs)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]

