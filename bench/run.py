#!/usr/bin/env python3
"""pcosync benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 bench/run.py --workload campaign --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/`` and nothing is installed. Every workload is driven through
``pcosync.cli.main`` (``pcosync sweep`` or ``pcosync run``, which call
``pcosync.scenario.run_sweep`` and ``run_scenario``), in this one process.
Output files go to ``.bench_out/`` at the checkout root and are removed at the
end. The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report. The
exit code is 0 only when every operation produced the expected bytes; a
checkout without ``src/pcosync`` exits 2 before measuring anything.

See ``bench/README.md`` for the workloads, the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from yardstick import CHECKSUM, PASS_S, yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

SWEEP_CONFIG = "configs/sweep_quorum_n_attacked.json"
ATTACKED_CONFIG = "configs/circle24_quorum_n_attacked.json"

RUN_FILES = ("events.jsonl", "phases.csv", "summary.json")
SWEEP_FILES = ("aggregate.json",)

LIMITS = ("host wall time on a shared machine, scaled to a reference host speed measured "
          "by yardstick passes run on a timer during the calls; no fixed CPU pinning (the "
          "benchmark rotates over the allowed CPUs call by call), no control over the file "
          "cache, other load may share the cores")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken timer)."""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    periods: int = 0  # `pcosync run --horizon`, in periods

    @property
    def is_sweep(self) -> bool:
        return self.config == SWEEP_CONFIG


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign", SWEEP_CONFIG),
        Workload("long_run", ATTACKED_CONFIG, periods=200),
    )
}


@dataclass(frozen=True)
class Size:
    name: str
    window: int  # runs per `pcosync sweep` call
    windows: int  # sweep calls in a campaign op list
    run_seeds: int  # scenario seeds, one `pcosync run` each, in a run op list
    max_periods: int | None  # cap on `pcosync run` horizons
    probes: int  # fresh-interpreter set-up measurements, spread over the measured loop


FULL = Size("full", window=50, windows=4, run_seeds=4, max_periods=None, probes=48)
# for the smoke test only: exercises every code path in seconds, has no goldens
TINY = Size("tiny", window=4, windows=2, run_seeds=2, max_periods=4, probes=6)

PROBE_BLOCK = 6  # consecutive set-up probes averaged into one sample of `setup_s`

YARDSTICK_EVERY_S = 0.01  # wall-clock interval of the timer that runs yardstick passes

EFF_RUNS = 2  # runs per sweep in the sweep efficiency of a run workload
ROUNDS = 3  # alternations of the two sides of a ratio in the traced run


@dataclass(frozen=True)
class Op:
    """One CLI call: a sweep window or one `pcosync run`."""

    key: str  # names the op's bytes in golden.json
    argv: tuple
    runs: int
    first_seed: int
    files: tuple


def scenario_seed(bench_seed: int) -> int:
    """First scenario seed of a benchmark seed; seed 0 gives the shipped seed 1."""
    return 1000 * bench_seed + 1


# -- program access ------------------------------------------------------------


def import_pcosync() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "pcosync" / "__init__.py").is_file():
        raise BenchError(f"no pcosync sources under {src}")
    for cfg in (SWEEP_CONFIG, ATTACKED_CONFIG):
        if not (ROOT / cfg).is_file():
            raise BenchError(f"missing {cfg}")
    sys.path.insert(0, str(src))
    import pcosync
    from pcosync import adversary, cli, engine, mechanisms, metrics, scenario, topology

    if Path(pcosync.__file__).resolve().parent != src / "pcosync":
        raise BenchError(f"imported pcosync from {pcosync.__file__}, not {src}")
    return SimpleNamespace(adversary=adversary, cli=cli, engine=engine, mechanisms=mechanisms,
                           metrics=metrics, scenario=scenario, topology=topology)


def call_cli(m, argv, clock=perf_counter) -> tuple[float, str | None]:
    """Seconds of one `pcosync.cli.main` call on ``clock`` and its failure, if any."""
    err = io.StringIO()
    t0 = clock()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = m.cli.main(list(argv))
    except Exception:
        return clock() - t0, traceback.format_exc()
    dt = clock() - t0
    if code != 0:
        return dt, f"exit code {code}: {err.getvalue().strip()}"
    return dt, None


class RunTimer:
    """Seconds of each ``run_scenario`` call on ``clock``, wrapped from outside."""

    def __init__(self, m, clock):
        self.m = m
        self.times: list[tuple[int, float]] = []  # (scenario seed, seconds) per run
        self.original = m.scenario.run_scenario
        timed = self._wrap(self.original, clock)
        m.scenario.run_scenario = timed  # serial `pcosync sweep`
        m.cli.run_scenario = timed  # `pcosync run`

    def _wrap(self, fn, clock):
        times = self.times

        def run_scenario(config, **kwargs):
            t0 = clock()
            artifacts = fn(config, **kwargs)
            times.append((config.seed, clock() - t0))
            return artifacts

        return run_scenario

    def take(self) -> list[tuple[int, float]]:
        out = self.times[:]
        self.times.clear()
        return out

    def close(self) -> None:
        self.m.scenario.run_scenario = self.original
        self.m.cli.run_scenario = self.original


# -- inputs ----------------------------------------------------------------------


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def horizon_ticks(wl: Workload, size: Size, tpp: int) -> int:
    return tpp * (min(wl.periods, size.max_periods) if size.max_periods else wl.periods)


def scenario_data(wl: Workload, size: Size, seed: int, tpp: int) -> dict:
    """The scenario mapping a workload runs, as `pcosync run` would parse it."""
    data = load_json(ROOT / wl.config)
    if wl.is_sweep:
        data = data["base"]
    else:
        data["horizon_ticks"] = horizon_ticks(wl, size, tpp)
    data["seed"] = seed
    return data


def sweep_op(key, config, first_seed, runs, workers, out_dir) -> Op:
    argv = ("sweep", "--config", str(config), "--seed", str(first_seed), "--runs", str(runs),
            "--workers", str(workers), "--out-dir", str(out_dir))
    return Op(key, argv, runs, first_seed, SWEEP_FILES)


def build_ops(wl: Workload, size: Size, bench_seed: int, out_dir: Path, tpp: int) -> list[Op]:
    """The fixed op list of a workload; a measured run cycles through it."""
    first = scenario_seed(bench_seed)
    if wl.is_sweep:
        return [sweep_op(f"w{k}", ROOT / wl.config, first + k * size.window, size.window,
                         1, out_dir) for k in range(size.windows)]
    return [Op(f"r{k}", ("run", "--config", str(ROOT / wl.config), "--seed", str(first + k),
                         "--out-dir", str(out_dir), "--horizon", str(horizon_ticks(wl, size, tpp))),
               1, first + k, RUN_FILES)
            for k in range(size.run_seeds)]


# -- correctness ---------------------------------------------------------------


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def theorem_failure(conditions, synced: bool, sync_tick, exact: bool, tpp: int) -> str | None:
    """Inside the guarantee conditions a run must sync exactly within 1.5 periods."""
    if not conditions or not (conditions["degree_ok"] and conditions["attacker_bound_ok"]):
        return None
    if not synced:
        return "a run inside the guarantee bound did not synchronize"
    if sync_tick > 3 * tpp // 2:
        return f"synchronized at tick {sync_tick}, after 1.5 periods"
    if not exact:
        return "post-synchronization periods are not exact"
    return None


def check_op(op: Op, out_dir: Path, expected: dict, tpp: int) -> str | None:
    """Compare an op's files with the expected digests and check the theorem.

    ``expected`` maps op keys to digests; an op with no entry records its own
    bytes there, so every repeat within a run must reproduce them.
    """
    digests = {f: digest(out_dir / f) for f in op.files}
    if op.key not in expected:
        expected[op.key] = digests
    elif expected[op.key] != digests:
        bad = sorted(f for f in digests if digests[f] != expected[op.key].get(f))
        return f"{op.key}: bytes differ from the expected digests in {', '.join(bad)}"
    if op.files == SWEEP_FILES:
        agg = load_json(out_dir / "aggregate.json")
        if agg["runs"] != op.runs or agg["seed_base"] != op.first_seed:
            return f"{op.key}: aggregate describes the wrong runs"
        return theorem_failure(agg["conditions"], agg["synced_runs"] == op.runs,
                               agg["sync_tick_max"], agg["periods_exact_runs"] == op.runs, tpp)
    s = load_json(out_dir / "summary.json")
    return theorem_failure(s["conditions"], s["sync_tick"] is not None, s["sync_tick"],
                           s["periods_exact"] is True, tpp)


def expected_digests(wl: Workload, size: Size, bench_seed: int) -> dict:
    if size is not FULL or not GOLDEN.is_file():
        return {}
    golden = load_json(GOLDEN)
    if golden.get("window_runs") != size.window:
        return {}
    return dict(golden.get(wl.name, {}).get(str(bench_seed), {}))


class Ledger:
    """Attempted and failed operations; failures are echoed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, failure: str | None) -> bool:
        self.attempted += 1
        if failure:
            self.failed += 1
            print(f"FAILED {what}: {failure}", file=sys.stderr)
        return failure is None


def run_checked(ctx, op: Op, ledger: Ledger, clock=perf_counter) -> float | None:
    """Run one op, check it, and return its seconds on ``clock`` if it succeeded."""
    for f in op.files:  # a call that writes nothing must not pass on stale bytes
        (ctx.out_dir / f).unlink(missing_ok=True)
    dt, failure = call_cli(ctx.m, op.argv, clock)
    if failure is None:
        failure = check_op(op, ctx.out_dir, ctx.expected, ctx.tpp)
    return dt if ledger.record(op.key, failure) else None


# -- end-to-end measurement ------------------------------------------------------


def tail_rank(n: int) -> int:
    """Rank, from 0 upwards, of the highest percentile of ``n`` samples with
    at least 10 samples beyond it.

    With fewer than 11 samples no such percentile exists; the minimum is
    taken then, and the percentile reported with it shows that.
    """
    return max(n - 11, 0)


def tail(values) -> float:
    return sorted(values)[tail_rank(len(values))]


class SetupProbe:
    """Set-up time of the workload's scenario, measured in a fresh interpreter.

    The child inherits the caller's CPU affinity, so probes made inside the
    measured loop rotate over the CPUs with the calls around them.
    """

    def __init__(self, ctx):
        data = json.dumps(scenario_data(ctx.wl, ctx.size, scenario_seed(ctx.seed), ctx.tpp))
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), data]

    def __call__(self) -> float:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.split()[-1])


class Speed:
    """The host's speed, from yardstick passes run on a timer.

    While armed, a wall-clock timer interrupts the process every
    ``YARDSTICK_EVERY_S`` and runs one yardstick pass in the signal
    handler, in the middle of whatever the program is doing, so the passes
    see the host as the program does at a finer grain than the host's
    speed changes. ``clock`` is wall time less the time spent in passes,
    so program times exclude them. ``scale`` turns such a time into the
    time on a host that runs one pass in ``PASS_S``.
    """

    def __init__(self):
        self.passes = 0
        self.seconds = 0.0
        self.wrong = None  # a checksum other than CHECKSUM, if a pass returned one
        self._previous = signal.signal(signal.SIGALRM, self._pass)

    def _pass(self, signum, frame) -> None:
        t0 = perf_counter()
        got = yardstick()
        self.seconds += perf_counter() - t0
        self.passes += 1
        if got != CHECKSUM:
            self.wrong = got

    def clock(self) -> float:
        return perf_counter() - self.seconds

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_EVERY_S, YARDSTICK_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def scale(passes: int, seconds: float) -> float:
        return PASS_S * passes / seconds

    def overall(self) -> float:
        """The scale over every pass made."""
        if self.wrong is not None:
            raise BenchError(f"yardstick returned {self.wrong}, not {CHECKSUM}")
        if not self.passes:
            raise BenchError("no yardstick pass ran")
        return self.scale(self.passes, self.seconds)


@dataclass(frozen=True)
class Call:
    """One measured CLI call: program seconds, and the yardstick passes during it."""

    key: str
    seconds: float
    passes: int
    pass_s: float
    runs: list  # (scenario seed, program seconds) per run_scenario


def call_metrics(calls: list[Call], scale) -> dict:
    """The call and run times of ``calls``, each multiplied by ``scale(call)``."""
    call_s: dict[str, list[float]] = {}  # op key -> seconds per repeat
    run_s: dict[int, list[float]] = {}  # scenario seed -> seconds per repeat
    for c in calls:
        f = scale(c)
        call_s.setdefault(c.key, []).append(c.seconds * f)
        for seed, t in c.runs:
            run_s.setdefault(seed, []).append(t * f)
    samples_ms = [t * 1000 for repeats in run_s.values() for t in repeats]
    return {
        "runs_per_s": len(samples_ms) / sum(t for repeats in call_s.values() for t in repeats),
        "run_ms_p50": statistics.median(statistics.fmean(r) for r in run_s.values()) * 1000,
        "run_ms_tail": tail(samples_ms),
        "wall_s": statistics.median(statistics.fmean(t) for t in call_s.values()),
    }


def measure(ctx, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics over every call made in ``seconds``.

    The loop cycles through the workload's fixed op list, so each CLI call
    and each run repeats many times. A run's time is its mean over repeats
    before the median over runs is taken: on a shared host the machine's
    speed changes over seconds, and a median over raw samples jumps between
    those speeds where a mean moves smoothly. The tail keeps every sample.

    The host's speed also drifts by tens of percent over minutes, which no
    statistic within one run removes, so every time is scaled by ``Speed``:
    a call and its runs by the yardstick passes made during that call, and
    the set-up probes, made with the timer disarmed because a pass would
    compete with the probe's process for its CPU, by all the passes.

    The process moves itself to the next allowed CPU before each call: the
    CPUs of a shared host slow down independently of each other, and a
    process the scheduler leaves on one of them measures that CPU's load.
    The set-up probes are spread evenly over the loop, between calls, so
    they see the same host as the calls do. For the same reason as above,
    ``setup_s`` is the median over blocks of consecutive probes of each
    block's mean.
    """
    ops = ctx.ops
    cpus = sorted(os.sched_getaffinity(0))
    speed = Speed()
    timer = RunTimer(ctx.m, speed.clock)
    probe = SetupProbe(ctx)
    calls: list[Call] = []
    setup: list[float] = []
    probe_every = seconds / ctx.size.probes
    try:
        run_checked(ctx, ops[0], ledger)  # warm-up: checked, not timed
        probe()  # warm-up: may write bytecode caches
        yardstick()
        i = 1  # next op
        k = 1  # next CPU, one step per call or probe
        t_start = perf_counter()
        speed.arm()
        while (elapsed := perf_counter() - t_start) < seconds or len(setup) < ctx.size.probes:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            k += 1
            if elapsed >= probe_every * (len(setup) + 0.5) or elapsed >= seconds:
                speed.disarm()
                setup.append(probe())
                speed.arm()
                continue
            op = ops[i % len(ops)]
            i += 1
            timer.take()
            passes, pass_s = speed.passes, speed.seconds
            dt = run_checked(ctx, op, ledger, speed.clock)
            if dt is not None:
                calls.append(Call(op.key, dt, speed.passes - passes, speed.seconds - pass_s,
                                  timer.take()))
    finally:
        speed.close()
        os.sched_setaffinity(0, cpus)
        timer.close()
    if not calls:
        raise BenchError("no operation succeeded")
    overall = speed.overall()
    # a call too short for a pass (tiny inputs only) takes the overall scale
    scaled = call_metrics(calls, lambda c: speed.scale(c.passes, c.pass_s) if c.passes else overall)
    host = call_metrics(calls, lambda c: 1.0)
    host["setup_s"] = statistics.median(statistics.fmean(setup[b:b + PROBE_BLOCK])
                                        for b in range(0, len(setup), PROBE_BLOCK))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "runs_per_s": (scaled["runs_per_s"], "1/s"),
        "run_ms_p50": (scaled["run_ms_p50"], "ms"),
        "run_ms_tail": (scaled["run_ms_tail"], "ms"),
        "wall_s": (scaled["wall_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (host["setup_s"] * overall, "s"),
    }
    runs = sum(len(c.runs) for c in calls)
    distinct_runs = len({seed for c in calls for seed, _ in c.runs})
    distinct_calls = len({c.key for c in calls})
    verb = f"`pcosync {ops[0].argv[0]}` calls"
    detail = {
        "runs_per_s": f"{runs} runs in {len(calls)} {verb}",
        "run_ms_p50": f"median over {distinct_runs} distinct runs of each one's mean over repeats",
        "run_ms_tail": f"p{100 * (tail_rank(runs) + 1) / runs:.2f} of all {runs} run times",
        "wall_s": f"median over {distinct_calls} distinct {verb} of each one's mean over repeats",
        "peak_rss_mb": "this process",
        "setup_s": f"median over blocks of {PROBE_BLOCK} of the block means of {len(setup)} "
                   "fresh interpreters spread over the loop",
        "setup_probes_ms": [round(t * 1000, 3) for t in setup],
        "speed_scale": f"{overall:.6f} overall: {speed.passes} yardstick passes took "
                       f"{speed.seconds:.3f} s, {PASS_S * 1000:g} ms each on the reference host",
        "host_time_metrics": host,
    }
    return metrics, detail


# -- traced per-layer run ------------------------------------------------------


PER_LAYER_UNITS = {
    "scenario.parse_ms": "ms", "scenario.build_ms": "ms", "scenario.sweep_efficiency": "ratio",
    "topology.load_ms": "ms",
    "adversary.generate_ms": "ms", "adversary.pulses": "count",
    "mechanisms.build_ms": "ms", "mechanisms.on_pulse_calls": "count",
    "mechanisms.on_reach_top_calls": "count", "mechanisms.receive_count_calls": "count",
    "mechanisms.decide_ms": "ms", "mechanisms.shift_ratio": "ratio",
    "engine.run_ms": "ms", "engine.instants": "count", "engine.records": "count",
    "engine.received_records": "count", "engine.snapshots": "count",
    "engine.us_per_instant": "us", "engine.peak_mb": "MB",
    "metrics.detect_sync_ms": "ms", "metrics.summarize_ms": "ms",
    "cli.write_ms": "ms", "cli.bytes_written": "bytes", "cli.write_mb_per_s": "MB/s",
    "trace.overhead_ratio": "ratio",
}


def traced_pass(ctx, op: Op, ledger: Ledger, *, trace_memory: bool):
    tracer = Tracer(ctx.m, trace_memory=trace_memory)
    tracer.install()
    try:
        dt = run_checked(ctx, op, ledger)
    finally:
        tracer.uninstall()
    return tracer, dt


def sweep_efficiency(ctx, op: Op, ledger: Ledger) -> tuple[float, str]:
    """Runs/s of a 2-worker sweep over twice the runs/s of the same runs serially.

    Serial and 2-worker sweeps alternate ``ROUNDS`` times and the ratio
    is taken of their median wall times. Every sweep must write the same
    bytes: the traced op's when it is a sweep, else the first serial sweep's.
    """
    if op.files == SWEEP_FILES:
        key, config, runs = op.key, Path(op.argv[2]), op.runs
    else:
        key, config, runs = "sweep", ctx.out_dir.parent / f"{ctx.wl.name}_sweep.json", EFF_RUNS
        scen = scenario_data(ctx.wl, ctx.size, op.first_seed, ctx.tpp)
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"base": scen, "runs": runs}, fh)
    walls: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(ROUNDS):
        for workers, times in walls.items():
            dt = run_checked(ctx, sweep_op(key, config, op.first_seed, runs, workers, ctx.out_dir),
                             ledger)
            if dt is None:
                raise BenchError("sweep efficiency pass failed")
            times.append(dt)
    ratio = statistics.median(walls[1]) / (2 * statistics.median(walls[2]))
    return ratio, f"medians of {ROUNDS} alternating serial and 2-worker sweeps of {runs} runs"


def trace(ctx, ledger: Ledger) -> tuple[dict, dict]:
    """Per-layer metrics over one traced op; counts must repeat in every pass.

    Untraced and traced passes of the op alternate ``ROUNDS`` times, then a
    last traced pass measures memory. Layer times come from the traced pass
    of median wall time, and the tracing overhead is the ratio of the two
    sides' medians. The pool of ``pcosync sweep --workers 2`` shows in
    ``scenario.sweep_efficiency``.
    """
    op = ctx.ops[0]
    run_checked(ctx, op, ledger)  # warm-up
    untraced, traced, tracers = [], [], []
    for _ in range(ROUNDS):
        untraced.append(run_checked(ctx, op, ledger))
        tracer, dt = traced_pass(ctx, op, ledger, trace_memory=False)
        traced.append(dt)
        tracers.append(tracer)
    t_mem, _ = traced_pass(ctx, op, ledger, trace_memory=True)
    if None in untraced + traced:
        raise BenchError("traced pass failed")
    t = tracers[sorted(range(ROUNDS), key=traced.__getitem__)[ROUNDS // 2]]
    counts = t.exact_counts()
    differ = [c for c in (x.exact_counts() for x in tracers + [t_mem]) if c != counts]
    ledger.record("exact repeat of traced counts", None if not differ else
                  f"counts differ between traced passes: {counts} vs {differ[0]}")
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)

    efficiency, efficiency_detail = sweep_efficiency(ctx, op, ledger)
    write_ms = t.self_ms("cli.write")
    on_pulse = t.calls("mechanisms.on_pulse")
    engine_ms = t.self_ms("engine.run")
    values = {
        "scenario.parse_ms": t.self_ms("scenario.parse"),
        "scenario.build_ms": t.self_ms("scenario.build"),
        "scenario.sweep_efficiency": efficiency,
        "topology.load_ms": t.total_ms("topology.load"),
        "adversary.generate_ms": t.total_ms("adversary.generate"),
        "adversary.pulses": counts["adversary.pulses"],
        "mechanisms.build_ms": t.total_ms("mechanisms.build"),
        "mechanisms.on_pulse_calls": counts["mechanisms.on_pulse_calls"],
        "mechanisms.on_reach_top_calls": counts["mechanisms.on_reach_top_calls"],
        "mechanisms.receive_count_calls": counts["mechanisms.receive_count_calls"],
        "mechanisms.decide_ms": t.total_ms("mechanisms.on_pulse", "mechanisms.on_reach_top"),
        "mechanisms.shift_ratio": counts["mechanisms.shifts"] / on_pulse if on_pulse else 0.0,
        "engine.run_ms": engine_ms,
        "engine.instants": counts["engine.instants"],
        "engine.records": counts["engine.records"],
        "engine.received_records": counts["engine.received_records"],
        "engine.snapshots": counts["engine.snapshots"],
        "engine.us_per_instant": engine_ms * 1000 / max(counts["engine.instants"], 1),
        "engine.peak_mb": t_mem.engine_peak_bytes / 2**20,
        "metrics.detect_sync_ms": t.self_ms("metrics.detect_sync"),
        "metrics.summarize_ms": t.self_ms("metrics.summarize"),
        "cli.write_ms": write_ms,
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.write_mb_per_s": counts["cli.bytes_written"] / 2**20 / (write_ms / 1000),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    detail = {"traced_op": " ".join(op.argv).replace(str(ROOT) + "/", ""),
              "runs_in_pass": op.runs, "untraced_s": untraced_s, "traced_s": traced_s,
              "passes": f"medians of {ROUNDS} alternating untraced and traced passes",
              "counts_repeat": not differ, "scenario.sweep_efficiency": efficiency_detail}
    return metrics, detail


# -- report ------------------------------------------------------------------------


def git_rev() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "git_rev": git_rev(), "limits": LIMITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the smoke test; no goldens, not comparable")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        m = import_pcosync()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    size = TINY if args.tiny else FULL
    tpp = load_json(ROOT / SWEEP_CONFIG)["base"]["clock"]["ticks_per_period"]
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ctx = SimpleNamespace(m=m, wl=wl, size=size, seed=args.seed, tpp=tpp, out_dir=out_dir,
                          ops=build_ops(wl, size, args.seed, out_dir, tpp),
                          expected=expected_digests(wl, size, args.seed))
    golden_ops = len(ctx.expected)
    ledger = Ledger()
    try:
        if args.trace:
            metrics, detail = trace(ctx, ledger)
        else:
            metrics, detail = measure(ctx, args.seconds, ledger)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    print(f"pcosync benchmark: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"size={size.name}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"  {name:32s} {value:14.6g} {unit}{extra}")
    print(f"  {'failed_frac':32s} {ledger.failed / max(ledger.attempted, 1):14.6g} "
          f"({ledger.failed} of {ledger.attempted} CLI calls and checks failed; "
          f"{golden_ops} ops had golden digests)")
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "size": size.name,
              "environment": environment(), "detail": detail,
              "failed_frac": ledger.failed / max(ledger.attempted, 1)}
    print(json.dumps({"report": report}, sort_keys=True))
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
