"""Per-layer tracing for the pcosync benchmark, applied from outside the package.

The tracer replaces module attributes and class methods of an imported
``pcosync`` with timing or counting wrappers, and puts the originals back on
``uninstall``. Nothing under ``src/`` knows about it. Each patch sits at the
name a caller looks up: ``cli`` and ``scenario`` import some functions by
name, so those are patched in the importing module as well.

Spans nest through a stack, so every span has a total time and a self time
(its total minus the spans that ran inside it). Totals are kept per span name
rather than per call: a traced ``long_run`` makes well over 10^5 decision
calls, too many to keep one record each.
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter_ns


class _Span:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Span and counter collection over one traced pass.

    ``trace_memory`` turns on tracemalloc inside ``Simulation.run`` only, to
    get the engine's peak; it slows that span down, so a pass that measures
    memory is not used for timings.
    """

    def __init__(self, pcosync_modules, *, trace_memory: bool = False):
        self.m = pcosync_modules
        self.trace_memory = trace_memory
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, int] = {}
        self.engine_peak_bytes = 0
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        rec = self.spans.setdefault(name, _Span())
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0]  # time covered by child spans
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                rec.calls += 1
                rec.total_ns += dt
                rec.self_ns += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, new)

    # -- result hooks --------------------------------------------------------

    def _count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _after_generate(self, schedules) -> None:
        self._count("adversary.pulses", sum(len(s.ticks) for s in schedules))

    def _after_on_pulse(self, action) -> None:
        if action.kind == "shift":
            self._count("mechanisms.shifts", 1)

    def _after_run(self, result) -> None:
        received = self.m.engine.RECEIVED
        self._count("engine.records", len(result.records))
        self._count("engine.received_records", sum(1 for r in result.records if r.kind == received))
        self._count("engine.snapshots", len(result.snapshots))

    def _traced_run(self, fn):
        """Simulation.run, with tracemalloc around it when memory is traced."""
        if not self.trace_memory:
            return fn

        def run(sim):
            tracemalloc.start()
            try:
                return fn(sim)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.engine_peak_bytes = max(self.engine_peak_bytes, peak)

        return run

    def _traced_open(self, real_open):
        """``open`` for the cli module: files opened for writing become spans."""
        rec = self.spans.setdefault("cli.write", _Span())
        stack = self._stack
        tracer = self

        class WriteSpan:
            def __init__(self, fh):
                self._fh = fh
                self.write = fh.write

            def __enter__(self):
                self._frame = [0]
                stack.append(self._frame)
                self._t0 = perf_counter_ns()
                return self

            def __exit__(self, *exc):
                tracer._count("cli.bytes_written", self._fh.tell())
                self._fh.__exit__(*exc)
                dt = perf_counter_ns() - self._t0
                stack.pop()
                rec.calls += 1
                rec.total_ns += dt
                rec.self_ns += dt - self._frame[0]
                if stack:
                    stack[-1][0] += dt
                return False

        def traced_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return WriteSpan(fh) if "w" in mode else fh

        return traced_open

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        m = self.m
        span, counter = self._span, self._counter

        parse = span("scenario.parse", m.scenario.parse_scenario)
        self._patch(m.scenario, "parse_scenario", parse)
        self._patch(m.cli, "parse_scenario", parse)
        self._patch(m.cli, "parse_sweep", span("scenario.parse", m.scenario.parse_sweep))
        self._patch(m.scenario, "build_simulation", span("scenario.build", m.scenario.build_simulation))

        self._patch(m.topology, "load_topology", span("topology.load", m.topology.load_topology))

        self._patch(m.adversary, "generate",
                    span("adversary.generate", m.adversary.generate, self._after_generate))
        self._patch(m.adversary, "schedules_to_jsonable",
                    span("adversary.generate", m.adversary.schedules_to_jsonable))

        self._patch(m.mechanisms, "build_mechanism",
                    span("mechanisms.build", m.mechanisms.build_mechanism))
        quorum = m.mechanisms.QuorumMechanism  # the only mechanism a workload builds
        self._patch(quorum, "on_pulse",
                    span("mechanisms.on_pulse", quorum.on_pulse, self._after_on_pulse))
        self._patch(quorum, "on_reach_top", span("mechanisms.on_reach_top", quorum.on_reach_top))
        self._patch(m.mechanisms, "receive_count",
                    counter("mechanisms.receive_count_calls", m.mechanisms.receive_count))

        sim = m.engine.Simulation
        self._patch(sim, "run", span("engine.run", self._traced_run(sim.run), self._after_run))
        self._patch(sim, "_resolve_instant", counter("engine.instants", sim._resolve_instant))

        self._patch(m.metrics, "detect_sync", span("metrics.detect_sync", m.metrics.detect_sync))
        self._patch(m.scenario, "summarize_run", span("metrics.summarize", m.metrics.summarize_run))

        self._patch(m.cli, "open", self._traced_open(open))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old, had = self._patches.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- results ---------------------------------------------------------------

    def total_ms(self, *names: str) -> float:
        return sum(self.spans[n].total_ns for n in names if n in self.spans) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.spans[n].self_ns for n in names if n in self.spans) / 1e6

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def exact_counts(self) -> dict:
        """Every count that is a pure function of the traced inputs."""
        out = dict(self.counts)
        out["mechanisms.on_pulse_calls"] = self.calls("mechanisms.on_pulse")
        out["mechanisms.on_reach_top_calls"] = self.calls("mechanisms.on_reach_top")
        for key in ("adversary.pulses", "mechanisms.shifts", "engine.records",
                    "engine.received_records", "engine.snapshots", "cli.bytes_written"):
            out.setdefault(key, 0)
        return dict(sorted(out.items()))
