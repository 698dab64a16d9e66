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
same-instant pulses is in the receive log. ``on_pulse`` sees the receive log
pruned to the trailing half period, with the pulse being handled as its
newest entry: every earlier entry arrived before that pulse. A mechanism
reads its phase as ``state.offset + now``.

The mechanism contract: a decision reads ``now`` only through
``state.offset + now``, through differences with the ticks held in
``state``, and through ``now >= ticks_per_period``; it reads the receive
log only within the trailing half period; and a mechanism object holds no
run state. So from the first period on, moving ``now`` and every tick in
the state by the same amount changes no decision. Once no attacker pulse
is left, the run is then time-invariant, and ``run`` repeats a steady
state instead of resolving it: at each instant in which every legitimate
oscillator was parked, from the later of the last attack pulse and the
first period, while two periods remain before the horizon, it keys the
state relative to the tick (``_state_key``). When a key repeats, the run
goes on as it did after the first instant with that key, shifted by the
tick difference, so the log is filled to the horizon with shifted copies
of the instants in between, which share their ``events`` lists.

Every pulse to a legitimate
oscillator is queued and added to its receive log when delivered; an
oscillator parked at the top ignores pulses but still counts them. Once
every legitimate oscillator is parked, as in each instant of a synchronized
network, no decision can run and no new sender can appear, so the pulses
still queued are only logged.

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
from bisect import bisect_left, bisect_right
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
    action or jumped to a phase outside [0, ticks_per_period]."""


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


@dataclass
class SimulationResult:
    """A completed run, kept as its instant log: one :class:`Instant` per
    resolved tick, holding the oscillators' offsets after it; a pop that
    found only superseded wraps logs the previous offsets and no events.
    ``records`` and ``snapshots`` are derived from it on every access.
    """

    clock: TickClock
    legit_ids: tuple[int, ...]
    attacker_ids: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    horizon: int
    initial_offsets: tuple[int, ...]
    final_offsets: tuple[int, ...]
    instants: list

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

    def rows(self):
        """(tick, offsets) per snapshot row: every instant, every 1/100 period, the horizon.

        Between instants all phases advance alike, so cadence rows repeat the last offsets.
        """
        cadence = max(1, self.clock.ticks_per_period // 100)
        offsets = self.initial_offsets
        t = -1
        due = 0  # next cadence tick without a row
        for t, new, _ in self.instants:
            for row in range(due, t, cadence):
                yield row, offsets
            offsets = new
            yield t, offsets
            due = (t // cadence + 1) * cadence
        if t < self.horizon:
            for row in range(due, self.horizon, cadence):
                yield row, offsets
            yield self.horizon, offsets

    @property
    def snapshots(self) -> list:
        return [PhaseSnapshot(t, tuple(o + t for o in offsets)) for t, offsets in self.rows()]


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
        states = {i: OscillatorState(offset=self.initial_phases[i]) for i in self.legit_ids}
        queue: list[tuple[int, int, int]] = []  # (tick, prio, node)
        for i in self.legit_ids:
            queue.append((tpp - states[i].offset, _PRIO_WRAP, i))
        for a, ticks in self.schedules.items():
            queue.extend((t, _PRIO_ATTACK, a) for t in ticks if t <= self.horizon)
        heapq.heapify(queue)

        initial = tuple(self.initial_phases[i] for i in self.legit_ids)
        self._states = states
        # each sender's legitimate out-neighbours: attackers ignore pulses
        self._targets = [[r for r in out if r in states] for out in self.topology.adjacency]
        self._legit_states = [states[i] for i in self.legit_ids]
        self._queue = queue
        self._log = []

        horizon = self.horizon
        # an instant is keyed once no attacker pulse is left and the first
        # period is over, while two periods remain before the horizon
        quiet = max([t for ticks in self.schedules.values() for t in ticks if t <= horizon]
                    + [tpp])
        last_keyed = horizon - 2 * tpp
        keyed: dict = {}  # state key -> log length after the instant that took it
        while queue and queue[0][0] <= horizon:
            t = queue[0][0]
            if self._resolve_instant(t) and quiet <= t <= last_keyed:
                key = self._state_key(t)
                if key in keyed:
                    self._repeat(keyed[key], horizon)
                    break
                keyed[key] = len(self._log)

        return SimulationResult(
            clock=self.clock,
            legit_ids=self.legit_ids,
            attacker_ids=self.attacker_ids,
            adjacency=self.topology.adjacency,
            horizon=horizon,
            initial_offsets=initial,
            final_offsets=self._log[-1].offsets if self._log else initial,
            instants=self._log,
        )

    # -- steady-state repeat -----------------------------------------------

    def _state_key(self, t: int) -> tuple:
        """Everything a later instant can read, relative to tick t.

        Per legitimate oscillator: its phase, the ages of its receive-log
        entries younger than half a period, and its last-fire and
        last-reset-to-zero ages; then every queue entry, superseded wraps
        included, as (tick - t, prio, node).
        """
        cutoff = t - self.clock.ticks_per_period // 2
        oscillators = []
        for st in self._legit_states:
            log = st.receive_log
            fired, zeroed = st.last_fire_tick, st.last_reset_to_zero_tick
            oscillators.append((
                st.offset + t,
                tuple([t - x for x in log[bisect_right(log, cutoff):]]),
                None if fired is None else t - fired,
                None if zeroed is None else t - zeroed,
            ))
        return tuple(oscillators), tuple(sorted([(k - t, p, i) for k, p, i in self._queue]))

    def _repeat(self, start: int, horizon: int) -> None:
        """Fill the log to the horizon with shifted copies of the instants from ``start`` on.

        The last instant has the state key of instant ``start - 1``, so the
        run goes on as it did after that one, shifted by their tick difference.
        """
        log = self._log
        cycle = log[start:]
        shift = log[-1].tick - log[start - 1].tick
        by = shift
        while True:
            for tick, offsets, events in cycle:
                if tick + by > horizon:
                    return
                log.append(Instant(tick + by, tuple([o - by for o in offsets]), events))
            by += shift

    # -- instant resolution ------------------------------------------------

    def _resolve_instant(self, t: int) -> bool:
        """Drain every event scheduled at tick t, cascade to a fixpoint and log the instant.

        Returns whether every legitimate oscillator was parked at the top in it.
        """
        queue = self._queue
        states = self._states
        targets = self._targets
        mechanisms = self.mechanisms
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

        # 2) deliver queued pulses in emission order; every pulse is logged, and
        # an oscillator parked at the top only counts it. Shifts park, a fire
        # queues its pulses inside park, and a list iterator also visits them.
        # Once every oscillator is parked no pulse can be handled or sent: the
        # loop stops (or never starts) and the same iterator logs the rest
        half = tpp // 2
        cutoff = t - half
        left = iter(pending)
        for r in left if len(at_top) < len(states) else ():
            st = states[r]
            log = st.receive_log
            log.append(t)
            if r in at_top:
                continue
            if log[0] < cutoff:
                del log[:bisect_left(log, cutoff)]
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
            if len(at_top) == len(states):
                break
        for r in left:
            states[r].receive_log.append(t)

        # 3) instant settled: oscillators parked at the top pick their reset;
        # logs that took pulses this instant are pruned to the trailing half period
        for i in sorted(at_top):
            st = states[i]
            log = st.receive_log
            if log and log[-1] == t and log[0] < cutoff:
                del log[:bisect_left(log, cutoff)]
            if mechanisms[i].on_reach_top(st, t) == "zero":
                st.offset = -t
                st.last_reset_to_zero_tick = t
                events.append((RESET_TO_ZERO, i))
            else:
                st.offset = half - t
                events.append((RESET_TO_PI, i))
            heapq.heappush(queue, (tpp - st.offset, _PRIO_WRAP, i))

        self._log.append(Instant(t, tuple([st.offset for st in self._legit_states]), events))
        return len(at_top) == len(states)
