"""One measured process: ``python perfbench/child.py SPEC.json``.

The parent (:mod:`run`) starts this script in a fresh interpreter for every
measured run, so no module-level cache (``workload.shards._PLAN``) survives
from one run to the next.  The spec names what to do:

* ``{"mode": "cli", "argv": [...]}`` runs ``repro.__main__.main(argv)``,
  exactly what ``python -m repro ...`` runs;
* ``{"mode": "live", "seed": n, "sessions": k}`` runs the live-farm loop;
  with ``"crashers": true`` it serves the known crasher lines instead;
* ``{"mode": "probe"}`` only imports, for extra set-up samples;
* ``{"mode": "digest", ...}`` generates through ``repro.generate`` and
  reports the store digest (the other backend of the identity check).

The script writes a JSON result to ``spec["result"]`` holding the monotonic
time at which the command was ready (set-up done), the intervals spent on
the benchmark's own bookkeeping (input generation, digests), which the
parent subtracts, the store digests the correctness checks compare, and
with ``"traced": true`` the per-layer table from :mod:`layers`.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"excluded_s": 0.0, "excluded_cpu_s": 0.0, "excluded_setup_s": 0.0}
    mode = spec["mode"]

    import repro  # noqa: F401
    import repro.__main__ as cli

    result["imported"] = time.monotonic()
    layers = None
    injected = [0.0, 0]
    if spec.get("inject"):
        _inject_work(injected, **spec["inject"])
    if spec.get("traced"):
        from layers import Layers, install

        layers = Layers(spool=spec.get("spool"))
        # Installing imports the layers' modules early: a root span of its
        # own, so the traced run still accounts for that time.
        result["missing_hooks"] = layers.call("trace.install", install,
                                              (layers,), {})

    if mode == "probe":
        result["ready"] = result["exiting"] = time.monotonic()
        _write(spec, result)
        return 0

    if mode == "live":
        status = _live(spec, result, layers)
    elif mode == "digest":
        from repro.workload import ScenarioConfig

        config = ScenarioConfig.from_denominator(float(spec["scale"]),
                                                 seed=spec["seed"])
        result["ready"] = time.monotonic()
        dataset = repro.generate(config, backend=spec["backend"],
                                 workers=spec["workers"])
        result["digests"] = [dataset.content_digest()]
        status = 0
    else:
        captured = _capture_datasets()
        result["ready"] = time.monotonic()
        status = cli.main(spec["argv"])
        sys.stdout.flush()
        with _Bookkeeping(result):
            result["digests"] = [d.content_digest() for d in captured]
            result["sessions"] = sum(len(d.store) for d in captured)
    if layers is not None:
        with _Bookkeeping(result):
            layers.fold_workers()
            result["layers"] = layers.to_dict()
    result["injected_s"], result["injected_calls"] = injected
    # What follows this write is interpreter teardown: the parent times it
    # as the process's exit layer.
    result["exiting"] = time.monotonic()
    _write(spec, result)
    return status


def _capture_datasets():
    """Keep every dataset ``repro.generate`` / ``repro.load`` hands back,
    so the parent can check store digests without a second process."""
    import repro.api as api

    captured = []
    for name in ("generate", "load"):
        fn = getattr(api, name)

        def keep(*args, _fn=fn, **kwargs):
            dataset = _fn(*args, **kwargs)
            captured.append(dataset)
            return dataset

        setattr(api, name, keep)
    return captured


def busy(loops: int) -> int:
    """A fixed CPU-bound pure-Python loop: the self-tests' known slowdown."""
    h = 0
    for i in range(loops):
        h = (h * 31 + i) & 0xFFFFFFFF
    return h


def _inject_work(injected, module: str, target: str, loops: int) -> None:
    """Run ``busy(loops)`` in every call of ``module.Class.method`` (the
    self-tests' known slowdown; applied before the layer timers wrap the
    method, so the work sits inside the timed call).  The wall time the
    work took accumulates in ``injected[0]``, its calls in ``injected[1]``."""
    import importlib

    cls_name, attr = target.split(".")
    owner = getattr(importlib.import_module(module), cls_name)
    fn = getattr(owner, attr)

    def slowed(*args, **kwargs):
        start = time.monotonic()
        busy(loops)
        injected[0] += time.monotonic() - start
        injected[1] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, slowed)


def _live(spec, result, layers) -> int:
    import livefarm

    with _Bookkeeping(result, setup=True):
        sessions = (livefarm.crasher_sessions() if spec.get("crashers")
                    else livefarm.make_sessions(spec["seed"], spec["sessions"]))
    farm = livefarm.LiveFarmRun(layers)
    with _Bookkeeping(result, setup=True):
        farm.register_payloads(sessions)
    result["ready"] = time.monotonic()
    out = farm.run(sessions)
    with _Bookkeeping(result):
        lat = out.pop("latencies") or [0.0]
        out["p50_ms"] = livefarm.percentile(lat, 50) * 1000.0
        out["p99_ms"] = livefarm.percentile(lat, 99) * 1000.0
        out["over_p99"] = sum(1 for x in lat if x * 1000.0 > out["p99_ms"])
        result["live"] = out
        result["sessions"] = out["sessions"]
    return 0


class _Bookkeeping:
    """Times a block of benchmark-only work so the parent can subtract it
    from the wall and CPU figures of the run (and, with ``setup``, from
    the set-up figure too)."""

    def __init__(self, result, setup: bool = False):
        self.result = result
        self.setup = setup

    def __enter__(self):
        self.wall = time.monotonic()
        self.cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        wall = time.monotonic() - self.wall
        self.result["excluded_s"] += wall
        self.result["excluded_cpu_s"] += time.process_time() - self.cpu
        if self.setup:
            self.result["excluded_setup_s"] += wall
        return False


def _write(spec, result) -> None:
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
