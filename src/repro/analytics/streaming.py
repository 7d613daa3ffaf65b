"""Streaming analytics over the live event stream or a frozen store.

:class:`StreamingAnalytics` ingests the same per-session events as
:class:`repro.farm.health.FarmHealthMonitor` — attach :meth:`on_event` as a
``LiveFarm`` event tap, or :meth:`feed` recorded flight-recorder dicts —
and answers the headline aggregate queries of the batch
:class:`~repro.core.context.AnalysisContext` without ever freezing a
dataset:

* **exact** (``ExactCounter``): session counts, the five-way category
  mix, and sessions per day — streaming answers equal the batch
  group-bys bit for bit;
* **approximate** (sketches, documented error bounds): unique client
  IPs and unique file hashes (:class:`HyperLogLog`), per-hash occurrence
  estimates (:class:`CountMinSketch`), and top-k hash / client / ASN
  tables (:class:`SpaceSaving`).

Two intakes reach the same state.  The event path (:meth:`on_event`,
:meth:`feed`) folds each session in as it closes, through
:meth:`observe_session`.  The frozen-store path (:meth:`ingest_store`)
works column by column: exact counts in bulk, each distinct hash hashed
once, and only the order-dependent top-k tables fed key by key in row
order.  Replaying a store as events and ingesting it directly must give
``==`` analytics, which the differential tests pin.

Shard discipline mirrors ``Metrics.merge`` / ``Tracer.fold``: run one
consumer per shard, then fold with :meth:`merge` in shard order; the
HyperLogLog / count-min / exact answers are identical for any worker
count and arrival order, and the top-k tables stay within their
documented error envelope (exact while capacity covers the distinct
keys).

Per-session semantics match the batch path: repeated hashes within one
session count once (``HashOccurrences.build`` dedups the same way), and
ASNs below zero (unknown) are excluded like ``unique_as_count``.  Bulk
``generator.block`` events carry no client/hash detail, so they update
only the exact session/category/day accumulators — the same degradation
the health monitor applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.sketches import (
    CountMinSketch,
    ExactCounter,
    HyperLogLog,
    SpaceSaving,
)
from repro.farm.health import BLOCK_CATEGORY
from repro.honeypot.events import HoneypotEvent
from repro.obs import get_metrics
from repro.store.store import SessionStore

#: Category order matches ``classify.CATEGORIES`` (codes 0..4).
CATEGORY_NAMES = ("NO_CRED", "FAIL_LOG", "NO_CMD", "CMD", "CMD_URI")


@dataclass(frozen=True)
class AnalyticsConfig:
    """Sketch sizing and the determinism seed.

    Defaults target the paper-scale aggregates: ``hll_p=12`` gives a
    1.6 % relative standard error on cardinalities, ``cms_width=2048`` /
    ``cms_depth=4`` bound occurrence overestimates by ``e/2048`` of the
    stream (98.2 % confidence), and ``topk_capacity=512`` keeps top-k
    tables exact until a shard sees more than 512 distinct keys.
    """

    seed: int = 2023
    hll_p: int = 12
    cms_width: int = 2048
    cms_depth: int = 4
    topk_capacity: int = 512


@dataclass
class _StreamScratch:
    """Per-open-session state, finalised into the sketches at close."""

    day: int
    client_ip: Optional[int] = None
    asn: Optional[int] = None
    attempted: bool = False
    success: bool = False
    commands: int = 0
    uris: int = 0
    hashes: List[str] = field(default_factory=list)

    def category(self) -> str:
        if not self.attempted:
            return "NO_CRED"
        if not self.success:
            return "FAIL_LOG"
        if not self.commands:
            return "NO_CMD"
        return "CMD_URI" if self.uris else "CMD"


class StreamingAnalytics:
    """Mergeable streaming counterpart of the batch aggregate queries."""

    def __init__(self, config: Optional[AnalyticsConfig] = None):
        cfg = config or AnalyticsConfig()
        self.config = cfg
        self.hll_clients = HyperLogLog(cfg.seed, "analytics.hll.clients", cfg.hll_p)
        self.hll_hashes = HyperLogLog(cfg.seed, "analytics.hll.hashes", cfg.hll_p)
        self.cms_hashes = CountMinSketch(
            cfg.seed, "analytics.cms.hashes", cfg.cms_width, cfg.cms_depth
        )
        self.topk_hashes = SpaceSaving(cfg.topk_capacity, "analytics.topk.hashes")
        self.topk_clients = SpaceSaving(cfg.topk_capacity, "analytics.topk.clients")
        self.topk_asns = SpaceSaving(cfg.topk_capacity, "analytics.topk.asns")
        self.mix = ExactCounter("analytics.mix")
        self.days = ExactCounter("analytics.days")
        self.events_seen = 0
        self._sessions: Dict[str, _StreamScratch] = {}

    # -- canonical per-session intake -------------------------------------

    def observe_session(
        self,
        *,
        category: str,
        day: int,
        client_ip: Optional[int] = None,
        asn: Optional[int] = None,
        hashes: Sequence[str] = (),
    ) -> None:
        """Fold one finished session in (the canonical intake).

        ``hashes`` are deduplicated here, matching the batch
        ``HashOccurrences.build`` per-session dedup.
        """
        get_metrics().inc("sketch.sessions_observed")
        self.mix.add(category)
        self.days.add(int(day))
        if client_ip is not None:
            ip = int(client_ip)
            self.hll_clients.add(ip)
            self.topk_clients.add(ip)
        if asn is not None and int(asn) >= 0:
            self.topk_asns.add(int(asn))
        for sha in dict.fromkeys(hashes):
            self.hll_hashes.add(sha)
            self.cms_hashes.add(sha)
            self.topk_hashes.add(sha)

    def observe_record(self, record) -> None:
        """Fold one row-shaped :class:`SessionRecord` in."""
        if record.n_login_attempts == 0:
            category = "NO_CRED"
        elif not record.login_success:
            category = "FAIL_LOG"
        elif not record.commands:
            category = "NO_CMD"
        elif record.uris:
            category = "CMD_URI"
        else:
            category = "CMD"
        self.observe_session(
            category=category,
            day=record.day,
            client_ip=record.client_ip,
            asn=record.client_asn,
            hashes=record.file_hashes,
        )

    # -- event-stream intake (health-monitor shaped) -----------------------

    def on_event(self, event: HoneypotEvent) -> None:
        """Honeypot event-sink entry (``LiveFarm(event_tap=...)``)."""
        self._consume(
            event.event_type.value, event.timestamp, event.session_id, event.data
        )

    def feed(self, event: Dict[str, Any]) -> None:
        """One flight-recorder event dict (tailed JSONL or Tracer buffer)."""
        data = event.get("data") or {}
        kind = event.get("kind", "")
        ts = event.get("ts")
        if kind == "generator.block":
            self._consume_block(ts, data)
            return
        session = data.get("session", "")
        if ts is not None:
            self._consume(kind, float(ts), session, data)

    def feed_many(self, events: Iterable[Dict[str, Any]]) -> int:
        count = 0
        for event in events:
            self.feed(event)
            count += 1
        return count

    def ingest_events(self, events: Iterable[Dict[str, Any]]) -> int:
        """:meth:`feed_many` under the ``sketch/ingest`` span (throughput
        accounting — the benchmark/trajectory entry point)."""
        with get_metrics().span("sketch/ingest"):
            return self.feed_many(events)

    def _consume(
        self, kind: str, ts: float, session: str, data: Dict[str, Any]
    ) -> None:
        self.events_seen += 1
        get_metrics().inc("sketch.events_consumed")
        if kind == "honeypot.session.connect":
            if session:
                src_ip = data.get("src_ip")
                src_asn = data.get("src_asn")
                self._sessions[session] = _StreamScratch(
                    day=int(ts // 86_400),
                    client_ip=None if src_ip is None else int(src_ip),
                    asn=None if src_asn is None else int(src_asn),
                )
            return
        scratch = self._sessions.get(session)
        if scratch is None:
            return
        if kind in ("honeypot.login.success", "honeypot.login.failed"):
            scratch.attempted = True
            if kind == "honeypot.login.success":
                scratch.success = True
        elif kind == "honeypot.command.input":
            scratch.commands += 1
        elif kind == "honeypot.session.file_download":
            scratch.uris += 1
            sha = data.get("shasum")
            if sha:
                scratch.hashes.append(str(sha))
        elif kind in (
            "honeypot.session.file_created",
            "honeypot.session.file_modified",
        ):
            sha = data.get("shasum")
            if sha:
                scratch.hashes.append(str(sha))
        elif kind == "honeypot.session.closed":
            self._sessions.pop(session, None)
            self.observe_session(
                category=scratch.category(),
                day=scratch.day,
                client_ip=scratch.client_ip,
                asn=scratch.asn,
                hashes=scratch.hashes,
            )

    def _consume_block(self, ts: Optional[float], data: Dict[str, Any]) -> None:
        """Bulk-path block: exact counts only (no client/hash detail)."""
        self.events_seen += 1
        get_metrics().inc("sketch.events_consumed")
        sessions = int(data.get("sessions", 0))
        if sessions <= 0 or ts is None:
            return
        category = BLOCK_CATEGORY.get(str(data.get("category", "")))
        if category is None and data.get("campaign"):
            category = str(data.get("session_kind", "CMD"))
        if category not in CATEGORY_NAMES:
            category = "CMD"
        self.mix.add(category, sessions)
        self.days.add(int(float(ts) // 86_400), sessions)
        get_metrics().inc("sketch.sessions_observed", sessions)

    # -- frozen-store intake ----------------------------------------------

    def ingest_store(self, store: SessionStore) -> int:
        """Fold a frozen store in, column by column.

        Ends in exactly the state the per-row event path reaches.  Exact
        counts go in bulk; client IPs and each distinct sha are hashed
        once (HLL register max and count-min cell sums do not depend on
        order); the top-k tables take their keys in row order, because
        the Misra–Gries reduction does.  Session hashes are deduplicated
        in first-seen order, like :meth:`observe_session`.
        """
        metrics = get_metrics()
        with metrics.span("sketch/ingest"):
            n = len(store)
            if n:
                metrics.inc("sketch.sessions_observed", n)
            # Codes index CATEGORY_NAMES; each later rule overrides the
            # earlier ones, as the early returns of _StreamScratch.category.
            codes = np.full(n, 3, dtype=np.int64)  # CMD
            codes[store.has_uri] = 4  # CMD_URI
            codes[store.n_commands == 0] = 2  # NO_CMD
            codes[~store.login_success] = 1  # FAIL_LOG
            codes[store.n_attempts == 0] = 0  # NO_CRED
            counts = np.bincount(codes, minlength=len(CATEGORY_NAMES))
            for name, count in zip(CATEGORY_NAMES, counts.tolist()):
                if count:
                    self.mix.add(name, count)
            days, counts = np.unique(
                (store.start_time // 86_400).astype(np.int64), return_counts=True
            )
            for day, count in zip(days.tolist(), counts.tolist()):
                self.days.add(day, count)
            self.hll_clients.add_many(store.client_ip)
            self.topk_clients.add_many(store.client_ip.tolist())
            asns = store.client_asn
            self.topk_asns.add_many(asns[asns >= 0].tolist())
            self._ingest_hashes(store)
            metrics.inc("sketch.store_sessions_ingested", n)
        return n

    def _ingest_hashes(self, store: SessionStore) -> None:
        """The per-session-deduplicated hash column into the hash sketches."""
        values = store.hash_ids.values
        if len(values) == 0:
            return
        n_ids = len(store.hashes)
        rows = np.repeat(np.arange(len(store), dtype=np.int64),
                         np.diff(store.hash_ids.offsets))
        # First occurrence of each (session, hash) pair, in stream order.
        _, first = np.unique(rows * n_ids + values, return_index=True)
        first.sort()
        ids = values[first]
        sessions = np.bincount(ids, minlength=n_ids)
        present = np.flatnonzero(sessions)
        sha_of = store.hashes.values()
        shas = [sha_of[i] for i in present.tolist()]
        self.hll_hashes.add_many(shas)
        self.cms_hashes.add_many(shas, sessions[present])
        self.topk_hashes.add_many(sha_of[i] for i in ids.tolist())

    # -- merge -------------------------------------------------------------

    def merge(self, other: "StreamingAnalytics") -> "StreamingAnalytics":
        """Fold another shard's consumer in (call in shard order).

        Exact accumulators, HLLs and the count-min fold exactly (any
        order); top-k tables fold within their error envelope.  Open
        sessions still in flight on either side are carried over.
        """
        if self.config != other.config:
            raise ValueError(
                f"cannot merge analytics with different configs: "
                f"{self.config} vs {other.config}"
            )
        get_metrics().inc("sketch.merges")
        self.hll_clients.merge(other.hll_clients)
        self.hll_hashes.merge(other.hll_hashes)
        self.cms_hashes.merge(other.cms_hashes)
        self.topk_hashes.merge(other.topk_hashes)
        self.topk_clients.merge(other.topk_clients)
        self.topk_asns.merge(other.topk_asns)
        self.mix.merge(other.mix)
        self.days.merge(other.days)
        self.events_seen += other.events_seen
        self._sessions.update(other._sessions)
        return self

    # -- query surface (the batch AnalysisContext counterparts) ------------

    def session_count(self) -> int:
        """Total closed sessions (exact; == ``len(store)``)."""
        return self.mix.total

    def category_counts(self) -> Dict[str, int]:
        """Exact sessions per category (== batch ``classify_store`` bincount)."""
        return {cat: self.mix.get(cat) for cat in CATEGORY_NAMES}

    def category_shares(self) -> Dict[str, float]:
        """Exact category mix (== batch ``classify.category_shares``)."""
        n = self.mix.total
        if n == 0:
            return {cat: 0.0 for cat in CATEGORY_NAMES}
        return {cat: self.mix.get(cat) / n for cat in CATEGORY_NAMES}

    def sessions_per_day(self, n_days: Optional[int] = None) -> np.ndarray:
        """Exact farm-wide daily totals (== ``timeseries.daily_totals``)."""
        if not self.days.counts:
            return np.zeros(n_days or 0, dtype=np.int64)
        size = max(max(self.days.counts) + 1, n_days or 0)
        out = np.zeros(size, dtype=np.int64)
        for day, count in self.days.items():
            out[day] = count
        return out

    def unique_clients(self) -> float:
        """Estimated unique client IPs (HLL; ``rel_error`` documented)."""
        return self.hll_clients.estimate()

    def unique_hashes(self) -> float:
        """Estimated unique file hashes observed (HLL)."""
        return self.hll_hashes.estimate()

    def hash_sessions_estimate(self, sha: str) -> int:
        """Count-min estimate of sessions that downloaded ``sha``.

        One-sided: ``true <= estimate <= true + cms.error_bound()`` with
        probability ``1 - cms.delta``.
        """
        return self.cms_hashes.estimate(sha)

    def top_hashes(self, k: int = 10) -> List[Tuple[str, int, int]]:
        """Top-k hashes by session count as ``(sha, lower, upper)``."""
        return self.topk_hashes.top(k)

    def top_clients(self, k: int = 10) -> List[Tuple[int, int, int]]:
        """Top-k client IPs by session count as ``(ip, lower, upper)``."""
        return self.topk_clients.top(k)

    def top_asns(self, k: int = 10) -> List[Tuple[int, int, int]]:
        """Top-k ASNs by session count (unknown ASNs excluded)."""
        return self.topk_asns.top(k)

    # -- export ------------------------------------------------------------

    def export_gauges(self) -> None:
        """Publish the headline cardinalities to the metrics registry."""
        metrics = get_metrics()
        metrics.gauge_set("sketch.unique.clients", round(self.unique_clients()))
        metrics.gauge_set("sketch.unique.hashes", round(self.unique_hashes()))

    def render_panels(self, k: int = 8) -> str:
        """Human-readable uniques / mix / top-k panels (CLI surface)."""
        lines = [
            f"streaming analytics — {self.session_count():,} sessions, "
            f"{self.events_seen:,} events"
        ]
        c_lo, c_hi = self.hll_clients.interval()
        h_lo, h_hi = self.hll_hashes.interval()
        lines.append(
            f"  unique clients ~ {self.unique_clients():,.0f} "
            f"(3σ {c_lo:,.0f}..{c_hi:,.0f})   "
            f"unique hashes ~ {self.unique_hashes():,.0f} "
            f"(3σ {h_lo:,.0f}..{h_hi:,.0f})"
        )
        shares = self.category_shares()
        mix = "  ".join(f"{cat} {shares[cat] * 100:5.1f}%" for cat in CATEGORY_NAMES)
        lines.append(f"  category mix: {mix}")
        for title, table in (
            ("top hashes", self.top_hashes(k)),
            ("top clients", self.top_clients(k)),
            ("top ASNs", self.top_asns(k)),
        ):
            if not table:
                continue
            err = table[0][2] - table[0][1]
            lines.append(f"  {title} (sessions, lower bound; +err <= {err}):")
            for key, lower, _upper in table:
                lines.append(f"    {key!s:>44}  {lower:>8,}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingAnalytics):
            return NotImplemented
        return (
            self.config == other.config
            and self.hll_clients == other.hll_clients
            and self.hll_hashes == other.hll_hashes
            and self.cms_hashes == other.cms_hashes
            and self.topk_hashes == other.topk_hashes
            and self.topk_clients == other.topk_clients
            and self.topk_asns == other.topk_asns
            and self.mix == other.mix
            and self.days == other.days
        )

    __hash__ = None  # type: ignore[assignment]


def iter_session_events(store: SessionStore) -> Iterator[Dict[str, Any]]:
    """Replay a frozen store as flight-recorder-shaped event dicts.

    Yields the per-session lifecycle (connect, logins, commands, file
    events, close) each row implies, suitable for :meth:`.feed` — the
    event-path and store-path intakes then produce identical analytics.
    Command events are capped at 8 per session (category only needs the
    count to be nonzero); timestamps interpolate across the session
    duration, so replay is fully deterministic.
    """
    n = len(store)
    starts = store.start_time.tolist()
    durations = store.duration.tolist()
    pots = store.honeypot.tolist()
    pot_names = [store.honeypots.value_of(i) for i in range(len(store.honeypots))]
    ips = store.client_ip.tolist()
    asns = store.client_asn.tolist()
    attempts = store.n_attempts.tolist()
    success = store.login_success.tolist()
    commands = store.n_commands.tolist()
    has_uri = store.has_uri.tolist()
    offsets = store.hash_ids.offsets.tolist()
    values = store.hash_ids.values.tolist()
    sha_of = [store.hashes.value_of(i) for i in range(len(store.hashes))]
    seq = 0
    for i in range(n):
        session = f"session:{i}"
        sensor = pot_names[pots[i]]
        base = {"sensor": sensor, "session": session}
        start = starts[i]
        steps: List[Tuple[str, Dict[str, Any]]] = [
            (
                "honeypot.session.connect",
                {**base, "src_ip": ips[i], "src_asn": asns[i]},
            )
        ]
        n_attempts = attempts[i]
        if n_attempts > 0:
            last = "honeypot.login.success" if success[i] else "honeypot.login.failed"
            steps.extend(
                ("honeypot.login.failed", dict(base)) for _ in range(n_attempts - 1)
            )
            steps.append((last, dict(base)))
        if success[i]:
            steps.extend(
                ("honeypot.command.input", dict(base))
                for _ in range(min(commands[i], 8))
            )
        shas = [sha_of[h] for h in values[offsets[i] : offsets[i + 1]]]
        if has_uri[i]:
            if shas:
                steps.extend(
                    (
                        "honeypot.session.file_download",
                        {**base, "shasum": sha, "url": f"http://drop/{sha[:12]}"},
                    )
                    for sha in shas
                )
            else:
                steps.append(("honeypot.session.file_download", dict(base)))
        else:
            steps.extend(
                ("honeypot.session.file_created", {**base, "shasum": sha})
                for sha in shas
            )
        steps.append(("honeypot.session.closed", {**base, "duration": durations[i]}))
        span = max(float(durations[i]), 0.0)
        denom = len(steps)
        for j, (kind, data) in enumerate(steps):
            yield {
                "seq": seq,
                "wall": 0.0,
                "kind": kind,
                "trace_id": session,
                "ts": start + span * j / denom,
                "data": data,
            }
            seq += 1


def replay_store_events(store: SessionStore) -> List[Dict[str, Any]]:
    """Materialised :func:`iter_session_events` (testing/benchmark helper)."""
    return list(iter_session_events(store))
