"""The repro benchmark: four workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 24 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``paper-report``   ``repro report --scale 4000 --backend inline --workers 1``
* ``pool-generate``  ``repro generate --scale 4000 --backend pool --workers 2``
* ``stored-analyse`` ``repro report --load <scale-16000 npz> --streaming``
* ``live-farm``      seeded sessions through the live honeypot session API

Every measured run is a fresh interpreter (:mod:`child`) with every
``REPRO_*`` variable removed from its environment.  ``--trace 0`` repeats
the workload for about ``--seconds`` seconds with tracing off and reports
the end-to-end metrics as medians over the repeats, with set-up sampled
several more times; timings are scaled to a reference core speed
(:class:`SpeedProbe`).  ``--trace 1`` alternates untraced repeats with repeats that
wrap the benchmark's own timers around each layer (:mod:`layers`) and
reports the per-layer metrics.  Wall, CPU and peak RSS come from each
child's own ``os.wait4`` rusage, which covers its pool workers too.

Correctness checks run in every mode and count as failed operations:
the store digest repeats across repeats of one seed; the generated store
is byte-identical between the inline and the pool backend (digests are
kept under ``.bench_build/`` per source tree and seed, and the missing
side is generated once); a saved npz loads back to the digest it was
saved from; ``repro validate`` passes on every saved store; the live farm
harvests one row per accepted session.  The live farm's known crasher
lines are served once per run, untimed, and only tallied.  A failed check prints the
result with ``"correct": false`` and exits 1.  A child that outlives its
time limit is killed, and the run prints no result and exits 3.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SCALE = "4000"
STORED_SCALE = "16000"
LIVE_SESSIONS = 2000
SETUP_PROBES = 5
SUMMARY_HEAD = "=== Honeyfarm reproduction summary"
#: A child still running this long after ``--seconds`` is killed as hung.
#: One repeat takes a few seconds, so at ``--seconds 25`` a hung child
#: ends the run well within three minutes.
CHILD_MARGIN_S = 60.0
child_limit_s = 25.0 + CHILD_MARGIN_S

WORKLOADS = ("paper-report", "pool-generate", "stored-analyse", "live-farm")
SHARD_KINDS = ("campaign", "campaign_group", "singletons", "bg_cmd",
               "bg_uri", "no_cred", "fail_log", "no_cmd")
ERROR_TYPES = ("IsADirectoryError", "KeyError")


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


class ChildTimeout(Exception):
    """A child outlived ``child_limit_s`` and was killed."""


# -- processes -----------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


#: Thread CPU seconds :func:`speed_loop` takes on an undisturbed core of the
#: 2-core host the benchmark was built on.  Timings are reported as if the
#: child had run at that speed.
REFERENCE_LOOP_S = 0.0007


def speed_loop() -> float:
    """Thread CPU seconds of a fixed pure-Python loop on the current core."""
    start = time.thread_time()
    table = {}
    for i in range(4000):
        table[i % 613] = table.get(i % 613, 0) + i
    return time.thread_time() - start


class SpeedProbe(threading.Thread):
    """Samples how fast the child's cores run while the child runs.

    Other tenants slow single cores of this host by up to 2x, for seconds
    to minutes at a time.  Every 50 ms the probe runs :func:`speed_loop`
    on one of the child's cores in turn (about 2% of a core), and the
    child's timings are scaled by ``REFERENCE_LOOP_S`` over the mean
    sample.  Over ten runs of each workload on that host, the spread of
    wall time (interquartile range over median) was 12-26% unscaled and
    4-9% scaled.
    """

    def __init__(self, cores):
        super().__init__(daemon=True)
        self.cores = cores
        self.samples = []
        self.done = threading.Event()

    def run(self) -> None:
        turn = 0
        while not self.done.wait(0.05):
            os.sched_setaffinity(0, {self.cores[turn % len(self.cores)]})
            turn += 1
            self.samples.append(speed_loop())

    def scale(self) -> float:
        """Factor from measured to reference-speed seconds."""
        return REFERENCE_LOOP_S / statistics.mean(self.samples or [speed_loop()])


def fastest_core(cores) -> int:
    """The core that runs :func:`speed_loop` fastest right now."""
    speeds = {}
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            speeds[core] = min(speed_loop() for _ in range(10))
    finally:
        os.sched_setaffinity(0, cores)
    return min(speeds, key=speeds.get)


def spawn(spec: dict, work: Path, tag: str, pin: bool = False) -> dict:
    """Run one child to completion; returns its timings and result.

    Timings are in reference-speed seconds (:class:`SpeedProbe`); the
    ``raw_`` figures beside them are the unscaled readings.  With ``pin``
    (single-process commands only) the child runs on the core that is
    fastest just before it starts, so the probe samples exactly its core.
    """
    spec = dict(spec, result=str(work / f"{tag}.json"))
    cores = sorted(os.sched_getaffinity(0))
    child_cores = cores
    if pin and len(cores) > 1:
        child_cores = [fastest_core(cores)]
        os.sched_setaffinity(0, set(child_cores))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdout=out, stderr=err, env=child_env(), cwd=str(ROOT),
            start_new_session=True,
        )
        os.sched_setaffinity(0, cores)
        probe = SpeedProbe(child_cores)
        probe.start()
        expired = threading.Event()

        def expire():
            expired.set()
            kill_group(proc.pid)

        watchdog = threading.Timer(child_limit_s, expire)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            probe.done.set()
            probe.join()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise ChildTimeout(f"{tag}: killed after {child_limit_s:.0f} s")
    run = {"stdout": out_path.read_text(errors="replace")}
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise CheckFailed(f"{tag}: exit {proc.returncode}\n{tail}")
    result = json.loads((work / f"{tag}.json").read_text())
    run["result"] = result
    run["scale"] = scale = probe.scale()
    run["raw_wall_s"] = end - launch - result["excluded_s"]
    run["raw_setup_s"] = result["ready"] - launch - result["excluded_setup_s"]
    run["raw_cpu_s"] = (usage.ru_utime + usage.ru_stime
                        - result["excluded_cpu_s"])
    for name in ("wall_s", "setup_s", "cpu_s"):
        run[name] = scale * run["raw_" + name]
    run["rss_mb"] = usage.ru_maxrss / 1024.0
    # Layer times come unscaled from the child's clock; so do these two,
    # which the layer table sets beside them.
    run["import_s"] = result["imported"] - launch
    run["exit_s"] = end - result["exiting"]
    return run


# -- workloads -----------------------------------------------------------------


class Workload:
    """One workload: its set-up, one measured repeat, and its checks."""

    workers = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.digest = None
        self.stdout = None

    def prepare(self) -> None:
        """Untimed set-up before the measured repeats."""

    def spec(self) -> dict:
        raise NotImplementedError

    def probe_spec(self) -> dict:
        return {"mode": "probe"}

    def check(self, run: dict) -> None:
        """Checks on one repeat; raise :class:`CheckFailed`."""
        digests = run["result"].get("digests") or []
        if len(digests) != 1:
            raise CheckFailed(f"expected one store, got {len(digests)}")
        if self.digest is None:
            self.digest = digests[0]
        elif digests[0] != self.digest:
            raise CheckFailed("store digest differs between repeats")
        if self.stdout is None:
            self.stdout = run["stdout"]
        elif run["stdout"] != self.stdout:
            raise CheckFailed("command output differs between repeats")

    def finish(self) -> None:
        """Checks once per run, after the repeats."""

    def sessions(self, run: dict) -> int:
        return int(run["result"]["sessions"])

    def validate(self, npz: Path, scale: str, digest: str) -> None:
        run = spawn({"mode": "cli", "argv": [
            "validate", "--load", str(npz), "--scale", scale,
            "--seed", str(self.seed)]}, self.work, "validate")
        if "calibration: PASSED" not in run["stdout"]:
            raise CheckFailed("repro validate did not pass")
        if run["result"]["digests"] != [digest]:
            raise CheckFailed(f"{npz.name} loads to another store digest")


class PaperReport(Workload):
    def spec(self) -> dict:
        return {"mode": "cli", "argv": [
            "report", "--scale", SCALE, "--seed", str(self.seed),
            "--backend", "inline", "--workers", "1"]}

    def check(self, run: dict) -> None:
        super().check(run)
        if not run["stdout"].startswith(SUMMARY_HEAD):
            raise CheckFailed("report output lacks the summary")

    def finish(self) -> None:
        cross_check(self, "inline", "pool")


class PoolGenerate(Workload):
    workers = 2

    def prepare(self) -> None:
        self.npz = self.work / "pool.npz"

    def spec(self) -> dict:
        return {"mode": "cli", "argv": [
            "generate", "--scale", SCALE, "--seed", str(self.seed),
            "--backend", "pool", "--workers", "2", "--out", str(self.npz)]}

    def check(self, run: dict) -> None:
        super().check(run)
        if not self.npz.is_file():
            raise CheckFailed("generate wrote no npz")
        self.npz_mb = self.npz.stat().st_size / 1e6

    def finish(self) -> None:
        self.validate(self.npz, SCALE, self.digest)
        cross_check(self, "pool", "inline")


class StoredAnalyse(Workload):
    def prepare(self) -> None:
        self.npz = self.work / "stored.npz"
        run = spawn({"mode": "cli", "argv": [
            "generate", "--scale", STORED_SCALE, "--seed", str(self.seed),
            "--backend", "inline", "--workers", "1", "--out", str(self.npz)]},
            self.work, "store-setup")
        self.saved_digest = run["result"]["digests"][0]
        self.npz_mb = self.npz.stat().st_size / 1e6
        self.validate(self.npz, STORED_SCALE, self.saved_digest)

    def spec(self) -> dict:
        return {"mode": "cli", "argv": [
            "report", "--load", str(self.npz), "--streaming",
            "--scale", STORED_SCALE, "--seed", str(self.seed)]}

    def check(self, run: dict) -> None:
        super().check(run)
        if self.digest != self.saved_digest:
            raise CheckFailed("loaded store digest differs from the saved one")
        if "streaming analytics" not in run["stdout"]:
            raise CheckFailed("report output lacks the streaming panels")


class LiveFarm(Workload):
    def prepare(self) -> None:
        """Serve the known crasher lines once, untimed (:mod:`hostile`)."""
        run = spawn({"mode": "live", "crashers": True, "seed": self.seed,
                     "sessions": 0}, self.work, "crashers")
        self.crashers = run["result"]["live"]
        if self.crashers["rows"] != self.crashers["accepted"]:
            raise CheckFailed("crasher sessions: harvested "
                              f"{self.crashers['rows']} rows for "
                              f"{self.crashers['accepted']} accepted sessions")

    def spec(self) -> dict:
        return {"mode": "live", "seed": self.seed, "sessions": LIVE_SESSIONS}

    def probe_spec(self) -> dict:
        return {"mode": "live", "seed": self.seed, "sessions": 0}

    def check(self, run: dict) -> None:
        live = run["result"]["live"]
        if live["rows"] != live["accepted"]:
            raise CheckFailed(f"harvested {live['rows']} rows for "
                              f"{live['accepted']} accepted sessions")
        outcome = (live["failed"], live["errors"], live["lines"])
        if self.digest is None:
            self.digest = outcome
        elif outcome != self.digest:
            raise CheckFailed("session outcomes differ between repeats")


CLASSES = {"paper-report": PaperReport, "pool-generate": PoolGenerate,
           "stored-analyse": StoredAnalyse, "live-farm": LiveFarm}


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cross_check(workload: Workload, mine: str, other: str) -> None:
    """Inline and pool stores of one seed must be byte-identical."""
    path = BUILD / "digests.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{source_fingerprint()}:{SCALE}:{workload.seed}"
    entry = table.setdefault(key, {})
    entry[mine] = workload.digest
    if other not in entry:
        run = spawn({"mode": "digest", "scale": SCALE, "seed": workload.seed,
                     "backend": other, "workers": 2 if other == "pool" else 1},
                    workload.work, f"digest-{other}")
        entry[other] = run["result"]["digests"][0]
    path.write_text(json.dumps(table, indent=1, sort_keys=True))
    if entry[mine] != entry[other]:
        raise CheckFailed(f"{mine} and {other} stores differ for seed "
                          f"{workload.seed}")


# -- statistics ----------------------------------------------------------------


def median(values):
    return float(statistics.median(values))


def describe(values) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, n."""
    n = len(values)
    ordered = sorted(values)
    text = f"median {median(values):.6g}"
    if n >= 11:
        q = int(100 * (n - 10) / n)
        rank = max(1, -(-n * q // 100))
        text += f"  p{q} {ordered[int(rank) - 1]:.6g}"
    else:
        text += f"  max {ordered[-1]:.6g}"
    return text + f"  min {ordered[0]:.6g}  n={n}"


# -- the two modes -------------------------------------------------------------


def measure(workload: Workload, seconds: float):
    runs, setups = [], []
    begin = time.monotonic()
    while True:
        rep = spawn(workload.spec(), workload.work, f"rep{len(runs)}",
                    pin=workload.workers == 1)
        workload.check(rep)
        runs.append(rep)
        setups.append(rep["setup_s"])
        elapsed = time.monotonic() - begin
        mean = elapsed / len(runs)
        if elapsed + mean / 2 >= seconds:
            break
    for i in range(SETUP_PROBES):
        setups.append(spawn(workload.probe_spec(), workload.work,
                            f"probe{i}", pin=True)["setup_s"])
    return runs, setups


def measure_traced(workload: Workload, seconds: float):
    """Alternate untraced and traced repeats for about ``seconds``.

    Returns both lists.  The per-layer table comes from the fastest traced
    repeat, and the tracing overhead compares it with the fastest
    untraced one.
    """
    plain, traced = [], []
    begin = time.monotonic()
    while True:
        i = len(traced)
        rep = spawn(workload.spec(), workload.work, f"plain{i}",
                    pin=workload.workers == 1)
        workload.check(rep)
        plain.append(rep)
        spool = workload.work / f"spool{i}"
        spool.mkdir()
        rep = spawn(dict(workload.spec(), traced=True, spool=str(spool)),
                    workload.work, f"traced{i}", pin=workload.workers == 1)
        workload.check(rep)
        traced.append(rep)
        elapsed = time.monotonic() - begin
        if elapsed + elapsed / len(traced) / 2 >= seconds:
            break
    return plain, traced


def session_ms(workload: Workload, run: dict, raw: bool = False):
    """(p50, p99) ms to serve one session in a repeat, scaled unless ``raw``.

    A batch run serves no session on its own, so there both figures are
    the amortised time per session.
    """
    factor = 1.0 if raw else run["scale"]
    if isinstance(workload, LiveFarm):
        live = run["result"]["live"]
        return factor * live["p50_ms"], factor * live["p99_ms"]
    busy = run["raw_wall_s"] - run["raw_setup_s"]
    ms = factor * 1000.0 * busy / workload.sessions(run)
    return ms, ms


def raw_figures(workload: Workload, runs) -> dict:
    """Unscaled medians over ``runs``, with the median speed scale."""
    lat = [session_ms(workload, r, raw=True) for r in runs]
    figures = {f"raw.{name}": median([r["raw_" + name] for r in runs])
               for name in ("wall_s", "setup_s", "cpu_s")}
    figures["raw.session_p50_ms"] = median([p50 for p50, _ in lat])
    figures["raw.session_p99_ms"] = median([p99 for _, p99 in lat])
    figures["speed.scale"] = median([r["scale"] for r in runs])
    return figures


def end_to_end(workload: Workload, runs, setups) -> dict:
    walls = [r["wall_s"] for r in runs]
    busy = [r["wall_s"] - r["setup_s"] for r in runs]
    sessions = [workload.sessions(r) for r in runs]
    rates = [s / b for s, b in zip(sessions, busy)]
    lat = [session_ms(workload, r) for r in runs]
    if isinstance(workload, LiveFarm):
        ok = sum(s - r["result"]["live"]["failed"]
                 for s, r in zip(sessions, runs)) / sum(sessions)
    else:
        ok = 1.0
    cpus = [r["cpu_s"] for r in runs]
    rss = [r["rss_mb"] for r in runs]
    table = {
        "setup_s": ("s", setups), "wall_s": ("s", walls),
        "sessions_per_s": ("1/s", rates), "cpu_s": ("s", cpus),
        "peak_rss_mb": ("MB", rss), "ok_share": ("share", [ok]),
        "session_p50_ms": ("ms", [p50 for p50, _ in lat]),
        "session_p99_ms": ("ms", [p99 for _, p99 in lat]),
    }
    for name, (unit, values) in table.items():
        print(f"  {name:<16} {unit:>6}  {describe(values)}")
    print("  speed scale per repeat: "
          + " ".join(f"{r['scale']:.3f}" for r in runs))
    print("  unscaled medians: " + ", ".join(
        f"{name} {value:.6g}"
        for name, value in raw_figures(workload, runs).items()))
    if isinstance(workload, LiveFarm):
        live = runs[0]["result"]["live"]
        over = sum(r["result"]["live"]["over_p99"] for r in runs)
        print(f"  sessions/repeat {live['sessions']}, failed_share "
              f"{1.0 - ok:.4f}, errors: "
              + ", ".join(f"{k}={v}" for k, v in sorted(live["errors"].items())))
        print(f"  session latency percentiles per repeat: "
              f"{over} samples above p99 in total")
        print(f"  known crashers (untimed): {crash_tally(workload)}")
    else:
        print("  failed_share 0 (every command exited 0 and passed its checks)")
    return {name: {"value": median(values), "unit": unit}
            for name, (unit, values) in table.items()}


def per_layer(workload: Workload, plain: dict, traced: dict) -> dict:
    layers = traced["result"]["layers"]
    total, calls, counts = layers["total"], layers["calls"], layers["counts"]
    spans = layers["spans"]
    t = lambda name: float(total.get(name, 0.0))  # noqa: E731
    m = {}
    m["startup.import_s"] = traced["import_s"]
    m["workload.plan_s"] = t("workload.plan")
    m["workload.plan.realize_s"] = t("workload.plan.realize")
    m["workload.plan.campaigns"] = calls.get("workload.plan.realize", 0)
    m["simulation.rng.streams"] = calls.get("simulation.rng.construct", 0)
    m["simulation.rng.construct_s"] = t("simulation.rng.construct")
    profile_calls = calls.get("honeypot.shell.profile", 0)
    m["honeypot.shell.profile_s"] = t("honeypot.shell.profile")
    m["honeypot.shell.profile_calls"] = profile_calls
    m["honeypot.shell.profile_hit_ratio"] = (
        counts.get("honeypot.shell.profile_hits", 0) / profile_calls
        if profile_calls else 0.0)

    emits = [s for s in spans if s[0] == "workload.emit"]
    m["workload.emit_s"] = t("workload.emit")
    for kind in SHARD_KINDS:
        m[f"workload.emit.{kind}_s"] = sum(
            s[2] - s[1] for s in emits if s[4][0] == kind)
    m["workload.shards"] = len(emits)
    m["workload.emit.largest_shard_s"] = max(
        (s[2] - s[1] for s in emits), default=0.0)
    m.update(sched_metrics(workload, spans, emits, t("sched.emit_wall")))

    npz_mb = getattr(workload, "npz_mb", 0.0)
    save, load = t("store.save_npz"), t("store.load_npz")
    m["store.merge_s"] = t("store.merge")
    m["store.save_npz_s"] = save
    m["store.save_mb_per_s"] = npz_mb / save if save else 0.0
    m["store.npz_mb"] = npz_mb
    m["store.load_npz_s"] = load
    m["store.load_mb_per_s"] = npz_mb / load if load else 0.0

    m["core.context_s"] = t("core.context")
    m["core.report_s"] = t("core.report")
    m["core.render_s"] = max(0.0, t("core.summary") - t("core.report"))
    ingest = t("analytics.ingest")
    m["analytics.ingest_s"] = ingest
    m["analytics.events_per_s"] = (workload.sessions(traced) / ingest
                                   if ingest else 0.0)
    m["analytics.on_event_s"] = t("analytics.on_event")

    live = traced["result"].get("live", {})
    crashers = getattr(workload, "crashers", {})
    errors = Counter(live.get("errors", {}))
    errors.update(crashers.get("errors", {}))
    m["honeypot.accept_s"] = t("honeypot.accept")
    m["honeypot.login_s"] = t("honeypot.login")
    m["honeypot.input_line_s"] = t("honeypot.input_line")
    m["honeypot.lines"] = live.get("lines", 0)
    m["honeypot.refused"] = live.get("refused", 0)
    for name in ERROR_TYPES:
        m[f"honeypot.errors.{name}"] = errors.pop(name, 0)
    m["honeypot.errors.other"] = sum(errors.values())
    m["farm.deploy_s"] = t("farm.deploy")
    m["farm.collector_s"] = t("farm.collector")
    m["farm.health_s"] = t("farm.health")
    m["farm.harvest_s"] = t("farm.harvest")

    # Installing the timers imports the hooked modules ahead of the
    # program, which would import them inside the layers that need them.
    m["trace.install_s"] = t("trace.install")
    m["process.exit_s"] = traced["exit_s"]
    covered = traced["import_s"] + layers["root_s"] + traced["exit_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["trace.coverage_share"] = covered / traced["raw_wall_s"]
    m["trace.unattributed_s"] = traced["raw_wall_s"] - covered

    missing = traced["result"].get("missing_hooks") or []
    if missing:
        print("  hooks not found (their layers read 0): " + ", ".join(missing))
    if crashers:
        print(f"  known crashers (untimed): {crash_tally(workload)}")
    if errors:
        print("  other honeypot errors: "
              + ", ".join(f"{k}={v}" for k, v in sorted(errors.items())))
    return m


def crash_tally(workload: "LiveFarm") -> str:
    crashers = workload.crashers
    return (f"{crashers['failed']} of {crashers['sessions']} lines raised"
            + "".join(f", {k}={v}"
                      for k, v in sorted(crashers["errors"].items())))


def sched_metrics(workload: Workload, spans, emits, emit_wall: float) -> dict:
    m = {}
    by_pid = {}
    for s in emits:
        by_pid.setdefault(s[3], []).append(s)
    pids = sorted(by_pid)
    busy = [sum(s[2] - s[1] for s in by_pid[p]) for p in pids]
    for i in range(2):
        m[f"sched.worker_busy_s.w{i}"] = busy[i] if i < len(busy) else 0.0
    if len(busy) > 2:
        print(f"  {len(busy)} worker processes ran shards: "
              + ", ".join(f"{b:.3f}s" for b in busy))
    m["sched.emit_wall_s"] = emit_wall
    n = workload.workers
    m["sched.parallel_efficiency"] = (sum(busy) / (n * emit_wall)
                                      if emit_wall else 0.0)
    if emits:
        window = max(s[2] for s in emits) - min(s[1] for s in emits)
        m["sched.worker_idle_share"] = (
            (n * window - sum(busy)) / (n * window) if window else 0.0)
    else:
        m["sched.worker_idle_share"] = 0.0
    submitted, collected, retries = {}, {}, 0
    for name, start, end, _pid, detail in spans:
        if name == "sched.submit":
            key = tuple(detail[:3])
            submitted.setdefault(key, start)
            retries += detail[3] > 1
        elif name == "sched.collect":
            for key in detail:
                collected[tuple(key)] = end
    queue = overhead = 0.0
    for name, start, end, _pid, detail in emits:
        key = tuple(detail)
        if key in submitted:
            queue += max(0.0, start - submitted[key])
            if key in collected:
                overhead += max(0.0, collected[key] - submitted[key]
                                - (end - start))
    m["sched.queue_wait_s"] = queue
    m["sched.dispatch_overhead_s"] = overhead
    m["sched.retries"] = retries
    return m


def host_fingerprint() -> str:
    from importlib.metadata import PackageNotFoundError, version

    model = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = "?"
    return (f"nproc {os.cpu_count()}, {model}, python "
            f"{sys.version.split()[0]}, numpy {numpy}")


def build() -> None:
    """Byte-compile the sources once per checkout (untimed)."""
    marker = BUILD / f"compiled-{source_fingerprint()}"
    if marker.exists():
        return
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, env=child_env(), stdout=subprocess.DEVNULL)
    marker.touch()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global child_limit_s
    child_limit_s = args.seconds + CHILD_MARGIN_S

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    build()
    work = BUILD / f"run-{os.getpid()}"
    work.mkdir()
    workload = CLASSES[args.workload](args.seed, work)
    attempted = failed = 0
    metrics = {}
    try:
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print(f"host: {host_fingerprint()}")
        workload.prepare()
        if args.trace:
            plain_runs, traced_runs = measure_traced(workload, args.seconds)
            runs = plain_runs + traced_runs
        else:
            runs, setups = measure(workload, args.seconds)
        workload.finish()
        if args.trace:
            fastest = lambda reps: min(reps, key=lambda r: r["wall_s"])  # noqa: E731
            metrics = per_layer(workload, fastest(plain_runs),
                                fastest(traced_runs))
            metrics.update(raw_figures(workload, plain_runs))
            if metrics["workload.plan.campaigns"] <= 0 and \
                    args.workload in ("paper-report", "pool-generate"):
                raise CheckFailed("plan did not run in the traced child")
            for name, value in metrics.items():
                print(f"  {name:<36} {value:.6g}")
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in metrics.items()}
        else:
            metrics = end_to_end(workload, runs, setups)
        correct = True
        for run in runs:
            live = run["result"].get("live")
            attempted += live["sessions"] if live else 1
            failed += live["failed"] if live else 0
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        attempted = max(attempted, 1)
        failed = attempted
    except ChildTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_share", "_ratio", "efficiency")):
        return "share"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name == "speed.scale":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
