"""Golden store digests and observability totals, pinned in a table.

The scalar-vs-block differential compares two emitters that share one
set of day kernels, so it cannot notice a kernel that draws or derives
differently.  These tests can: every generated store must hash to the
sha256 pinned in ``golden_digests.json`` (the same table the CI
golden-digest stage reads), and a traced run must count the same draws,
streams, sessions, days and ``generator.block`` events as the pinned
totals.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.obs import trace as _trace
from repro.obs import use_metrics
from repro.workload import ScenarioConfig, shards

GOLDEN = json.loads(
    Path(__file__).with_name("golden_digests.json").read_text(encoding="utf-8")
)
STORES = {entry["name"]: entry for entry in GOLDEN["stores"]}

#: Counter names the observability parity check compares.
_EXACT = ("rng.draws", "rng.streams_created", "generator.campaign_days",
          "generator.campaign_sessions")
_PREFIXES = ("generator.sessions.", "generator.days.")


def golden_config(entry) -> ScenarioConfig:
    kwargs = {"seed": entry["seed"]}
    if "hash_scale" in entry:
        kwargs["hash_scale"] = entry["hash_scale"]
    return ScenarioConfig.from_denominator(entry["denominator"], **kwargs)


def generate(entry):
    return repro.generate(golden_config(entry), backend=entry["backend"],
                          workers=entry["workers"])


def tracked(counters):
    return {name: value for name, value in counters.items()
            if name in _EXACT or name.startswith(_PREFIXES)}


@pytest.mark.parametrize("entry", [
    pytest.param(entry, id=entry["name"],
                 marks=[pytest.mark.slow] if entry.get("slow") else [])
    for entry in GOLDEN["stores"]
])
def test_store_digest_is_pinned(entry):
    store = generate(entry).store
    assert len(store) == entry["sessions"]
    assert store.content_digest() == entry["sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN["observability"]))
def test_observability_totals_are_pinned(name, monkeypatch):
    want = GOLDEN["observability"][name]
    # A plan cached by an earlier run would hide its construction draws.
    monkeypatch.setattr(shards, "_PLAN", None)
    with use_metrics() as metrics:
        with _trace.use_tracer(_trace.Tracer(capacity=1 << 20)) as tracer:
            generate(STORES[name])
    assert tracer.dropped == 0
    assert tracked(metrics.to_dict()["counters"]) == want["counters"]
    blocks = Counter(event["data"]["category"] for event in tracer.to_list()
                     if event["kind"] == "generator.block")
    assert dict(blocks) == want["blocks"]
