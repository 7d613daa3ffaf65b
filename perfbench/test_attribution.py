"""Self-tests of the benchmark's timing: known CPU-bound work added to the
program must show where, and as much as, it should.

* Attribution: a small traced ``repro report`` runs three times plain and
  three times with a busy loop inside every ``ScriptRunner.profile`` call
  (about a tenth of the run's wall time in total).  The per-layer table
  must charge the added time to ``honeypot.shell.profile_s`` and not to a
  neighbouring layer.
* Speed scaling: ``paper-report`` and ``pool-generate`` run plain and with
  a busy loop inside every ``CampaignEngine.realize`` call (serial plan,
  so all of it is on the critical path).  The scaled ``wall_s`` must grow
  by the reference-speed cost of that work, which is calibrated against
  :func:`run.speed_loop` in this process.  This shows that the speed scale
  keeps a real difference between two versions of the program.

Run with ``python3 -m pytest perfbench/test_attribution.py`` or
``python3 perfbench/test_attribution.py`` from the repository root.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from child import busy  # noqa: E402

ARGV = ["report", "--scale", "20000", "--seed", "3", "--backend", "inline",
        "--workers", "1"]
#: Layers beside ``ScriptRunner.profile``, never around it.  (Plan and
#: emit both call ``profile``, so they contain part of the added work.)
NEIGHBOURS = ("simulation.rng.construct_s", "core.report_s", "store.merge_s",
              "startup.import_s", "trace.unattributed_s")
CALIBRATION_LOOPS = 100_000


def busy_seconds(loops: int) -> float:
    start = time.thread_time()
    busy(loops)
    return time.thread_time() - start


def loops_per_second() -> float:
    """Loops :func:`busy` runs per second on this process's core now."""
    return CALIBRATION_LOOPS / min(busy_seconds(CALIBRATION_LOOPS)
                                   for _ in range(5))


def reference_seconds_per_loop() -> float:
    """Reference-speed seconds of one :func:`busy` loop.

    On one core, the best of ten alternating timings of ``busy`` and of
    :func:`run.speed_loop` gives their ratio, and the speed loop takes
    ``REFERENCE_LOOP_S`` by definition.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        work, probe = [], []
        for _ in range(10):
            work.append(busy_seconds(CALIBRATION_LOOPS))
            probe.append(run.speed_loop())
    finally:
        os.sched_setaffinity(0, cores)
    return run.REFERENCE_LOOP_S * min(work) / min(probe) / CALIBRATION_LOOPS


def scratch() -> Path:
    run.BUILD.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.BUILD))


def median_delta(pairs, key: str) -> float:
    return run.median([slow[key] - plain[key] for plain, slow in pairs])


# -- attribution ---------------------------------------------------------------


def traced(work: Path, tag: str, inject=None) -> dict:
    spool = work / f"spool-{tag}"
    spool.mkdir()
    spec = {"mode": "cli", "argv": ARGV, "traced": True, "spool": str(spool)}
    if inject is not None:
        spec["inject"] = inject
    child = run.spawn(spec, work, tag)
    table = run.per_layer(run.PaperReport(3, work), child, child)
    table["wall_s"] = child["raw_wall_s"]
    table["injected_s"] = child["result"]["injected_s"]
    return table


def test_added_work_lands_in_profile_layer():
    work = scratch()
    try:
        first = traced(work, "calibrate")
        calls = first["honeypot.shell.profile_calls"]
        assert calls > 0
        loops = int(0.10 * first["wall_s"] / calls * loops_per_second())
        inject = {"module": "repro.workload.script_runner",
                  "target": "ScriptRunner.profile", "loops": loops}
        # Alternate plain and slowed runs and take the median of the paired
        # differences, which damps the host's speed changes.
        pairs = [(traced(work, f"plain{i}"), traced(work, f"slow{i}", inject))
                 for i in range(3)]
        added = median_delta(pairs, "injected_s")
        grew = median_delta(pairs, "honeypot.shell.profile_s")
        assert 0.75 * added <= grew <= 1.35 * added, (grew, added)
        for name in NEIGHBOURS:
            delta = median_delta(pairs, name)
            assert abs(delta) < 0.5 * added, (name, delta, added)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- speed scaling -------------------------------------------------------------


def scaled_growth(workload_cls, share: float = 0.5, pairs: int = 5):
    """Median growth of scaled ``wall_s`` when plan gains CPU work worth
    ``share`` of the plain run's scaled wall, and that work's
    reference-speed cost."""
    work = scratch()
    try:
        workload = workload_cls(7, work)
        workload.prepare()
        pin = workload.workers == 1
        target = {"module": "repro.workload.campaign_engine",
                  "target": "CampaignEngine.realize"}
        first = run.spawn(dict(workload.spec(), inject=dict(target, loops=1)),
                          work, "calibrate", pin=pin)
        calls = first["result"]["injected_calls"]
        assert calls > 0
        per_loop = reference_seconds_per_loop()
        loops = int(share * first["wall_s"] / calls / per_loop)
        inject = dict(target, loops=loops)
        runs = [(run.spawn(workload.spec(), work, f"plain{i}", pin=pin),
                 run.spawn(dict(workload.spec(), inject=inject), work,
                           f"slow{i}", pin=pin))
                for i in range(pairs)]
        for plain, slow in runs:
            assert slow["result"]["injected_calls"] == calls
        return median_delta(runs, "wall_s"), calls * loops * per_loop
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_scaled_wall_keeps_added_work_paper_report():
    grew, cost = scaled_growth(run.PaperReport)
    assert 0.75 * cost <= grew <= 1.25 * cost, (grew, cost)


def test_scaled_wall_keeps_added_work_pool_generate():
    grew, cost = scaled_growth(run.PoolGenerate)
    assert 0.75 * cost <= grew <= 1.25 * cost, (grew, cost)


if __name__ == "__main__":
    test_added_work_lands_in_profile_layer()
    print("attribution self-test passed")
    test_scaled_wall_keeps_added_work_paper_report()
    test_scaled_wall_keeps_added_work_pool_generate()
    print("speed-scale self-tests passed")
