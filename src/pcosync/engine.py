"""Deterministic event-driven simulation kernel.

Pulses propagate with zero delay, so everything interesting happens inside
single time instants: a firing can shift receivers to the top of the cycle,
those fire in turn, and the chain must be resolved to a fixpoint before time
advances. The kernel fixes a total order over all same-instant work
(attacker pulses, then phase wraps, by node index; deliveries in global
emission order) so a run is a pure function of its inputs.

Every phase climbs one tick per tick, so an oscillator's state is its phase
offset: its phase at tick ``now`` is ``offset + now``. Only pulses and
resets change an offset. The queue holds a wrap entry for each offset an
oscillator takes below the top, due when its phase reaches the top; an
entry whose offset has since changed is superseded, and is skipped when
popped.

Mechanism objects plugged into the kernel expose three pure decision
functions::

    fires(state, now) -> bool
    on_reach_top(state, now) -> "zero" | "pi"
    on_pulse(state, now) -> action with .kind in
        {"ignore", "shift", "jump"} (jump carries .jump_to ticks)

The kernel calls ``fires`` once, the moment an oscillator's phase reaches the
top of the cycle (so fire suppression applies mid-cascade), and
``on_reach_top`` once, after the instant has settled, when the full set of
same-instant pulses is in the receive log; any reset other than ``"zero"``
or ``"pi"`` raises ``EngineError``. ``on_pulse`` sees the receive log
pruned to the trailing half period, with the pulse being handled as its
newest entry: every earlier entry arrived before that pulse. A mechanism
reads its phase as ``state.offset + now``.

The mechanism contract: a decision reads ``now`` only through
``state.offset + now``, through differences with the ticks held in
``state``, and through ``now >= ticks_per_period``; it reads the receive
log only within the trailing half period; and a mechanism object holds no
run state. So from the first period on, moving ``now`` and every tick in
the state by the same amount changes no decision.

A mechanism may also certify synchrony: ``keeps_joint_reset(legit_in,
attack_in)`` says whether a receiver with these in-neighbour counts keeps a
joint reset (every legitimate oscillator resets to zero at one instant).
``run`` finds the tick from which one is final (``_final_from``) and returns
at the first joint reset from then on, ``stop``. The result derives in closed
form what the stop implies: the joint fires after it, the final offsets, and
the rest of the log, appended the first time its ``instants`` is read; the
verdict is read without that rest. Unless every mechanism has that method,
a run is simulated to the horizon.

Every pulse to a legitimate oscillator takes one path: it is queued, and
when delivered it is added to the receiver's log, which is then pruned to
the trailing half period; an oscillator parked at the top ignores pulses
but still counts them. So every log that took a pulse at ``now`` holds only
``[now - half, now]`` when ``on_reach_top`` reads it.

``Simulation`` is the one check of an attack schedule: the channel lets an
attacker pulse at int ticks from 0 on, each more than ``epsilon_ticks``
after the last, and any other schedule raises ``ConfigError``. No instant
needs a delivery cap: an oscillator already parked at the top is never
parked again in the same instant, so each fires at most once per instant,
and each attacker pulses at most once per tick. An instant makes at most
sum(outdegree) <= n(n-1) deliveries.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field

from .core import ConfigError, TickClock
from .topology import Topology

# event-log record kinds
FIRED = "fired"
RECEIVED = "received"
SHIFTED_TO_2PI = "shifted_to_2pi"
RESET_TO_ZERO = "reset_to_zero"
RESET_TO_PI = "reset_to_pi"

# queue priority: attacker pulses are popped before phase wraps at equal ticks
_PRIO_ATTACK = 0
_PRIO_WRAP = 1

LogRecord = namedtuple("LogRecord", "tick kind node sender seq")
LogRecord.__doc__ = (
    "One event-log entry. sender/seq are populated only for RECEIVED records "
    "(node is then the receiver); every pulse delivery carries a globally "
    "unique, monotonically increasing seq."
)

PhaseSnapshot = namedtuple("PhaseSnapshot", "tick phases")
PhaseSnapshot.__doc__ = (
    "Post-instant phases (ticks) of the legitimate oscillators, aligned with "
    "SimulationResult.legit_ids."
)

# one instant-log entry: the tick, the post-instant offsets of the legitimate
# oscillators, and the (kind, node) of its non-delivery records
Instant = namedtuple("Instant", "tick offsets events")


class EngineError(Exception):
    """A mechanism broke the kernel's contract: it returned an unknown pulse
    action or reset, or jumped to a phase outside [0, ticks_per_period]."""


@dataclass
class OscillatorState:
    """Mutable per-oscillator state the mechanisms decide on.

    ``offset`` is the phase in ticks minus the current tick: the phase at
    tick ``now`` is ``offset + now``, and only a pulse or a reset changes
    the offset. ``receive_log`` is a list of the non-decreasing ticks of
    received pulses, one entry per pulse, pruned to the trailing half period
    (the widest counting window any rule uses) by one slice delete up to a
    bisected index; the scalar ``last_reset_to_zero_tick`` survives pruning
    because one rule looks a full period back.
    """

    offset: int
    receive_log: list = field(default_factory=list)
    last_fire_tick: int | None = None
    last_reset_to_zero_tick: int | None = None


class SimulationResult:
    """A completed run, kept as its instant log: one :class:`Instant` per
    resolved tick, holding the oscillators' offsets after it; a pop that
    found only superseded wraps logs the previous offsets and no events.

    A run that stopped at a final joint reset holds its tick, ``stop``, and its
    queue then; ``resolved`` ends at ``stop``. The result derives what the stop
    implies (``joint_ticks``, ``final_offsets`` and the tail that ``instants``
    appends when first read), so the verdict needs no tail. ``records`` and
    ``snapshots`` are derived from ``instants`` on every access.
    """

    def __init__(self, clock: TickClock, legit_ids, attacker_ids, adjacency, horizon: int,
                 initial_offsets, instants: list, stop=None, queued=()):
        self.clock, self.legit_ids, self.attacker_ids = clock, legit_ids, attacker_ids
        self.adjacency, self.horizon, self.initial_offsets = adjacency, horizon, initial_offsets
        self.resolved, self.stop, self._queued = instants, stop, queued
        self._instants = instants if stop is None else None

    @property
    def joint_ticks(self) -> range:
        """The ticks of the joint fires after ``stop``: stop + kT <= horizon, k >= 1."""
        tpp = self.clock.ticks_per_period
        return range(0) if self.stop is None else range(self.stop + tpp, self.horizon + 1, tpp)

    @property
    def final_offsets(self) -> tuple:
        """The offsets at the horizon: from the last joint reset if stopped, else the log's."""
        if self.stop is None:
            return self.resolved[-1].offsets if self.resolved else self.initial_offsets
        return (-(self.joint_ticks or [self.stop])[-1],) * len(self.legit_ids)

    @property
    def instants(self) -> list:
        if self._instants is None:
            self._instants = [*self.resolved, *self._tail()]
        return self._instants

    def _tail(self):
        """The instants after the final joint reset at ``stop``, to the horizon: at each of
        ``joint_ticks``, the attacker pulses of that tick, then every legitimate oscillator
        fires and resets to zero; between those, each queued attack pulse and superseded
        wrap is an instant with unchanged offsets."""
        zeroed, ticks, legit = self.stop, self.joint_ticks, self.legit_ids
        joint = [(FIRED, i) for i in legit] + [(RESET_TO_ZERO, i) for i in legit]
        fired: dict = {t: [] for t in ticks}
        for t, prio, node in sorted(self._queued):
            if t <= self.horizon:
                events = fired.setdefault(t, [])
                if prio == _PRIO_ATTACK:
                    events.append((FIRED, node))
        for t in sorted(fired):
            events = fired[t]
            if t in ticks:  # the last joint reset moves to t
                zeroed, events = t, events + joint if events else joint
            yield Instant(t, (-zeroed,) * len(legit), events)

    def iter_records(self):
        """Log records in order; each ``fired`` is followed by one ``received`` per out-neighbor."""
        adjacency = self.adjacency
        seq = 0
        for t, _, events in self.instants:
            for kind, node in events:
                yield LogRecord(t, kind, node, None, None)
                if kind == FIRED:
                    for r in adjacency[node]:
                        seq += 1
                        yield LogRecord(t, RECEIVED, r, node, seq)

    @property
    def records(self) -> list:
        return list(self.iter_records())

    def segments(self):
        """(ticks, offsets) per stretch of snapshot rows that share their offsets.

        A row falls at every instant, every 1/100 period and the horizon. Between
        instants all phases advance alike, so a stretch is an instant's row and the
        cadence rows after it (before the first instant, the cadence rows alone).
        """
        cadence = max(1, self.clock.ticks_per_period // 100)
        offsets = self.initial_offsets
        ticks = []
        t = -1
        due = 0  # next cadence tick without a row
        for t, new, _ in self.instants:
            ticks += range(due, t, cadence)
            if ticks:
                yield ticks, offsets
            ticks, offsets = [t], new
            due = (t // cadence + 1) * cadence
        if t < self.horizon:
            ticks += range(due, self.horizon, cadence)
            ticks.append(self.horizon)
        yield ticks, offsets

    @property
    def snapshots(self) -> list:
        return [PhaseSnapshot(t, tuple(o + t for o in offsets))
                for ticks, offsets in self.segments() for t in ticks]


class Simulation:
    """One seeded scenario wired up and ready to run.

    ``mechanisms`` maps every legitimate oscillator id to its decision
    object; ``schedules`` maps attacker ids to emission ticks, ``int``s from
    0 on, each more than ``epsilon_ticks`` after the last, or ``ConfigError``
    is raised; ticks past the horizon are never emitted. ``initial_phases``
    maps legitimate ids to ``int`` ticks in [0, ticks_per_period]; a start
    value at the very top of the cycle is resolved by the engine at tick 0.
    """

    def __init__(
        self,
        clock: TickClock,
        topology: Topology,
        mechanisms: dict,
        initial_phases: dict,
        horizon: int,
        attacker_ids=(),
        schedules: dict | None = None,
    ):
        self.clock = clock
        self.topology = topology
        self.horizon = int(horizon)
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        self.attacker_ids = tuple(sorted(set(attacker_ids)))
        attacker_set = set(self.attacker_ids)
        if any(not 0 <= a < topology.n for a in attacker_set):
            raise ValueError("attacker id outside the topology")
        self.legit_ids = tuple(i for i in range(topology.n) if i not in attacker_set)
        if not self.legit_ids:
            raise ValueError("network has no legitimate oscillators")
        if set(mechanisms) != set(self.legit_ids):
            raise ValueError("mechanisms must cover exactly the legitimate oscillators")
        if set(initial_phases) != set(self.legit_ids):
            raise ValueError("initial phases must cover exactly the legitimate oscillators")
        tpp = clock.ticks_per_period
        for i, p in initial_phases.items():
            if type(p) is not int or not 0 <= p <= tpp:
                raise ValueError(
                    f"initial phase of oscillator {i} is not an int in [0, ticks_per_period]")
        self.schedules = {a: tuple(v) for a, v in (schedules or {}).items()}
        if any(a not in attacker_set for a in self.schedules):
            raise ValueError("schedule present for a non-attacker id")
        eps = clock.epsilon_ticks
        for a, ticks in self.schedules.items():
            for s, t in zip((-1 - eps,) + ticks, ticks):
                if type(t) is not int or t - s <= eps:
                    at = f"ticks {s}, {t!r}" if s >= 0 else f"first tick {t!r}"
                    raise ConfigError(
                        f"schedule of attacker {a} breaks the channel rule (int ticks from 0 on, "
                        f"each more than epsilon_ticks={eps} after the last) at {at}")
        self.mechanisms = dict(mechanisms)
        self.initial_phases = dict(initial_phases)

    def run(self) -> SimulationResult:
        tpp = self.clock.ticks_per_period
        # per-node state and mechanism, indexed by node id (None for attackers)
        states = [None] * self.topology.n
        mechanisms = [None] * self.topology.n
        queue: list[tuple[int, int, int]] = []  # (tick, prio, node)
        for i in self.legit_ids:
            states[i] = OscillatorState(offset=self.initial_phases[i])
            mechanisms[i] = self.mechanisms[i]
            queue.append((tpp - states[i].offset, _PRIO_WRAP, i))
        for a, ticks in self.schedules.items():
            queue.extend((t, _PRIO_ATTACK, a) for t in ticks if t <= self.horizon)
        heapq.heapify(queue)

        self._states = states
        self._mechanisms = mechanisms
        # each sender's legitimate out-neighbours: attackers ignore pulses
        self._targets = [[r for r in out if states[r]] for out in self.topology.adjacency]
        self._legit_states = [states[i] for i in self.legit_ids]
        self._queue = queue
        self._log = []

        horizon = self.horizon
        final_from = self._final_from()
        stop = None
        while queue and queue[0][0] <= horizon:
            t = queue[0][0]
            if self._resolve_instant(t) and t >= final_from:
                stop = t
                break

        return SimulationResult(
            clock=self.clock, legit_ids=self.legit_ids, attacker_ids=self.attacker_ids,
            adjacency=self.topology.adjacency, horizon=horizon,
            initial_offsets=tuple(self.initial_phases[i] for i in self.legit_ids),
            instants=self._log, stop=stop, queued=queue)

    # -- certified synchrony -----------------------------------------------

    def _final_from(self) -> int:
        """The first tick from which a joint reset to zero is final; past the horizon if none."""
        n, never = self.topology.n, self.horizon + 1
        attack_in = [0] * n
        for a in self.attacker_ids:
            for r in self.topology.adjacency[a]:
                attack_in[r] += 1
        legit_in = [d - m for d, m in zip(self.topology.indegree, attack_in)]
        attacks = [t for ticks in self.schedules.values() for t in ticks if t < never]
        keeps = [(getattr(self.mechanisms[r], "keeps_joint_reset", None), r) for r in self.legit_ids]
        # kept under attack from tick 0 on, or else with no attacker after the last pulse
        for attackers, start in ((attack_in, 0), ([0] * n, max(attacks + [0]))):
            if all(k and k(legit_in[r], attackers[r]) for k, r in keeps):
                return start
        return never

    # -- instant resolution ------------------------------------------------

    def _resolve_instant(self, t: int) -> bool:
        """Drain every event scheduled at tick t, cascade to a fixpoint and log the instant.

        Returns whether every legitimate oscillator reset to zero in it.
        """
        queue = self._queue
        states = self._states
        targets = self._targets
        mechanisms = self._mechanisms
        tpp = self.clock.ticks_per_period
        pending: list[int] = []  # receivers in emission order
        at_top: set[int] = set()
        events: list = []

        def park(i: int) -> None:
            """Put oscillator i at the cycle top; if it fires, queue its pulses."""
            st = states[i]
            st.offset = tpp - t
            at_top.add(i)
            if mechanisms[i].fires(st, t):
                events.append((FIRED, i))
                st.last_fire_tick = t
                pending.extend(targets[i])

        # 1) pop everything scheduled at t (attacker pulses first, then wraps);
        # a sender queues its pulses at once (park does it for a fire), as no
        # delivery is processed before step 2. A wrap is current when its node
        # is at the top now; a superseded one may share the tick of the current
        # one, so a node already parked is skipped
        while queue and queue[0][0] == t:
            _, prio, node = heapq.heappop(queue)
            if prio == _PRIO_ATTACK:
                events.append((FIRED, node))
                pending.extend(targets[node])
            elif states[node].offset + t == tpp and node not in at_top:
                park(node)

        # 2) deliver queued pulses in emission order: every pulse is logged and
        # the log pruned to the trailing half period, and an oscillator parked
        # at the top only counts it. Shifts park, a fire queues its pulses
        # inside park, and the list iterator also visits them
        half = tpp // 2
        cutoff = t - half
        for r in pending:
            st = states[r]
            log = st.receive_log
            log.append(t)
            if log[0] < cutoff:
                del log[:bisect_left(log, cutoff)]
            if r in at_top:
                continue
            action = mechanisms[r].on_pulse(st, t)
            kind = action.kind
            if kind == "ignore":
                continue
            if kind == "shift":
                events.append((SHIFTED_TO_2PI, r))
            elif kind == "jump":
                new_phase = action.jump_to
                if not 0 <= new_phase <= tpp:
                    raise EngineError(
                        f"oscillator {r} jumped to phase {new_phase}, outside [0, {tpp}]")
                if new_phase != tpp:
                    # a jump to the current phase pushes a copy of the current
                    # wrap; the copies pop at one tick and the dedupe skips one
                    st.offset = new_phase - t
                    heapq.heappush(queue, (tpp - st.offset, _PRIO_WRAP, r))
                    continue
            else:
                raise EngineError(f"mechanism returned unknown pulse action {kind!r}")
            park(r)

        # 3) instant settled: oscillators parked at the top pick their reset
        for i in sorted(at_top):
            st = states[i]
            reset = mechanisms[i].on_reach_top(st, t)
            if reset == "zero":
                st.offset = -t
                st.last_reset_to_zero_tick = t
                events.append((RESET_TO_ZERO, i))
            elif reset == "pi":
                st.offset = half - t
                events.append((RESET_TO_PI, i))
            else:
                raise EngineError(f"mechanism returned unknown reset {reset!r}")
            heapq.heappush(queue, (tpp - st.offset, _PRIO_WRAP, i))

        self._log.append(Instant(t, tuple([st.offset for st in self._legit_states]), events))
        return len(at_top) == len(self._legit_states) and all(
            st.last_reset_to_zero_tick == t for st in self._legit_states)
