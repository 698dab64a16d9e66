import json
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import pytest

from pcosync.core import ConfigError, TickClock
from pcosync.engine import (
    FIRED,
    RECEIVED,
    RESET_TO_PI,
    RESET_TO_ZERO,
    SHIFTED_TO_2PI,
    EngineError,
    OscillatorState,
    Simulation,
)
from pcosync.mechanisms import (
    KIND_QUORUM_N,
    build_mechanism,
    jump_to,
    receive_count,
)
from pcosync.scenario import build_simulation, parse_scenario
from pcosync.topology import build_circle_deployment, from_adjacency

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

CLOCK = TickClock()
TPP = CLOCK.ticks_per_period
EPS = CLOCK.epsilon_ticks
HALF = TPP // 2


def quorum_n_sim(topology, phases, horizon, n_total=None, attacker_ids=(),
                 schedules=None, degree_override=None, clock=CLOCK):
    attacker_set = set(attacker_ids)
    legit = [i for i in range(topology.n) if i not in attacker_set]
    mechanism = {"kind": KIND_QUORUM_N, "n_known": n_total if n_total is not None else topology.n}
    mechs = {
        i: build_mechanism(
            mechanism,
            clock,
            degree_override if degree_override is not None else topology.degree[i],
        )
        for i in legit
    }
    return Simulation(
        clock=clock,
        topology=topology,
        mechanisms=mechs,
        initial_phases={i: phases[i] for i in legit},
        horizon=horizon,
        attacker_ids=attacker_ids,
        schedules=schedules or {},
    )


def records_of(result, kind, node=None):
    return [r for r in result.records
            if r.kind == kind and (node is None or r.node == node)]


# -- receive_count -------------------------------------------------------------


def test_receive_count_windows():
    state = OscillatorState(offset=0, receive_log=deque([100, 100, 150]))
    assert receive_count(state, 90) == 3
    assert receive_count(state, 100) == 1  # open left endpoint drops tick 100
    assert receive_count(state, 150) == 0
    assert receive_count(OscillatorState(offset=0), 0) == 0


# -- small hand-traced scenarios ----------------------------------------------


def test_two_oscillators_sync_at_first_period():
    topo = from_adjacency([[1], [0]])
    sim = quorum_n_sim(topo, {0: 0, 1: 0}, horizon=3 * TPP)
    result = sim.run()
    fires = records_of(result, FIRED)
    assert [(r.tick, r.node) for r in fires[:2]] == [(TPP, 0), (TPP, 1)]
    # each receives the other's pulse, which is over floor(2/3)=0: reset to zero
    zeros = records_of(result, RESET_TO_ZERO)
    assert [(r.tick, r.node) for r in zeros[:2]] == [(TPP, 0), (TPP, 1)]
    # synchronized thereafter: joint fires exactly one period apart
    later = [r.tick for r in fires[2:]]
    assert later == [2 * TPP, 2 * TPP, 3 * TPP, 3 * TPP]


def test_single_oscillator_free_runs_on_half_period_cadence():
    topo = from_adjacency([[]])
    sim = quorum_n_sim(topo, {0: 0}, horizon=3 * TPP)
    result = sim.run()
    # zero pulses is never over the quorum: reset to the half cycle each time
    assert not records_of(result, RESET_TO_ZERO)
    fire_ticks = [r.tick for r in records_of(result, FIRED)]
    assert fire_ticks == [TPP, TPP + HALF, 2 * TPP, 2 * TPP + HALF, 3 * TPP]


def test_three_at_top_cascade_resets_all_to_zero():
    topo = from_adjacency([[1, 2], [0, 2], [0, 1]])
    sim = quorum_n_sim(topo, {0: 0, 1: 0, 2: 0}, horizon=TPP)
    result = sim.run()
    fires = records_of(result, FIRED)
    assert sorted((r.node, r.tick) for r in fires) == [(0, TPP), (1, TPP), (2, TPP)]
    received = records_of(result, RECEIVED)
    assert len(received) == 6  # every fire reaches both neighbors
    zeros = records_of(result, RESET_TO_ZERO)
    assert sorted(r.node for r in zeros) == [0, 1, 2]
    assert all(r.tick == TPP for r in zeros)


def test_shift_with_suppressed_fire_still_resets():
    # one oscillator fed by three compromised senders; quorum parameters are
    # injected so a single pulse both shifts and qualifies a reset to zero
    topo = from_adjacency([[1, 2, 3], [0], [0], [0]])
    sim = quorum_n_sim(
        topo, {0: 0}, horizon=2 * TPP, n_total=1, degree_override=1,
        attacker_ids=(1, 2, 3),
        schedules={1: (TPP + 1,)},
    )
    result = sim.run()
    # natural wrap: fire, nothing received in the epsilon window -> half reset
    assert [(r.tick, r.node) for r in records_of(result, FIRED) if r.tick == TPP] == [(TPP, 0)]
    assert [r.tick for r in records_of(result, RESET_TO_PI)] == [TPP]
    # the pulse one tick later shifts the phase back to the top...
    assert [r.tick for r in records_of(result, SHIFTED_TO_2PI)] == [TPP + 1]
    # ...but the fire is suppressed (one fired within the last epsilon window)
    assert not [r for r in records_of(result, FIRED, node=0) if r.tick == TPP + 1]
    # while the reset rule still applies and now sees one pulse: reset to zero
    assert [r.tick for r in records_of(result, RESET_TO_ZERO)] == [TPP + 1]


def test_initial_phase_at_top_resolves_at_tick_zero():
    topo = from_adjacency([[1], [0]])
    sim = quorum_n_sim(topo, {0: TPP, 1: 0}, horizon=TPP + HALF)
    result = sim.run()
    # no fire before a full period has elapsed since start
    assert all(r.tick >= TPP for r in records_of(result, FIRED))
    assert [r.tick for r in records_of(result, RESET_TO_PI, node=0)][0] == 0
    assert result.snapshots[0].phases[0] == HALF  # snapshot is post-instant


# -- invariants on a busy run ---------------------------------------------------


def flagship_sim(seed=7):
    topo = build_circle_deployment(24, 40, 39)
    schedules = {
        1: tuple(range(0, 3 * TPP, 3 * EPS)),
        8: tuple(range(EPS + 1, 3 * TPP, 4 * EPS)),
        20: tuple(range(2 * EPS + 1, 3 * TPP, 5 * EPS)),
    }
    import random
    rng = random.Random(seed)
    phases = {i: rng.randrange(TPP + 1) for i in range(24) if i not in (1, 8, 20)}
    return quorum_n_sim(topo, phases, horizon=4 * TPP,
                        attacker_ids=(1, 8, 20), schedules=schedules)


def flagship_result(seed=7):
    return flagship_sim(seed).run()


def shipped_sim(config_name, seed):
    config = parse_scenario(json.loads((CONFIG_DIR / config_name).read_text()))
    return build_simulation(replace(config, seed=seed))[0]


def test_no_legitimate_fire_before_one_period():
    result = flagship_result()
    legit = set(result.legit_ids)
    assert all(r.tick >= TPP for r in records_of(result, FIRED) if r.node in legit)


def test_no_double_fire_within_epsilon():
    result = flagship_result()
    legit = set(result.legit_ids)
    last = {}
    for r in records_of(result, FIRED):
        if r.node not in legit:
            continue
        if r.node in last:
            assert r.tick - last[r.node] > EPS
        last[r.node] = r.tick


def test_pulse_conservation():
    result = flagship_result()
    topo = build_circle_deployment(24, 40, 39)
    received = {}
    for r in records_of(result, RECEIVED):
        received[(r.sender, r.tick)] = received.get((r.sender, r.tick), 0) + 1
    for r in records_of(result, FIRED):
        assert received.get((r.node, r.tick)) == topo.outdegree[r.node]


# seeds 0-2 of the shipped conventional config pop superseded wraps on the
# tick a node is due at the top, so a missed dedupe would fire it twice
@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["flagship", "conv-0", "conv-1", "conv-2"])
def test_phases_never_rest_at_the_top(seed):
    if seed is None:
        result = flagship_result()
    else:
        result = shipped_sim("circle24_conventional_clean.json", seed).run()
    fires = Counter((r.tick, r.node) for r in records_of(result, FIRED))
    assert max(fires.values()) == 1  # no oscillator fires twice at one tick
    for snap in result.snapshots:
        assert all(0 <= p < TPP for p in snap.phases)


def test_received_seq_strictly_increasing():
    result = flagship_result()
    seqs = [r.seq for r in records_of(result, RECEIVED)]
    assert all(b > a for a, b in zip(seqs, seqs[1:]))


def test_receive_logs_pruned_to_half_period():
    sim = flagship_sim()
    sim.run()
    for state in sim._states.values():
        if state.receive_log:
            newest = state.receive_log[-1]
            assert state.receive_log[0] >= newest - HALF


def assert_receive_logs_hold_trailing_half_period(sim):
    # runs sim; each final log must be the ticks of every delivery within half
    # a period of the oscillator's newest one, oldest first (receive_count
    # relies on it)
    result = sim.run()
    half = result.clock.ticks_per_period // 2
    received = {i: [] for i in result.legit_ids}
    for r in records_of(result, RECEIVED):
        if r.node in received:
            received[r.node].append(r.tick)
    for i, ticks in received.items():
        newest = max(ticks, default=0)
        assert list(sim._states[i].receive_log) == [t for t in ticks if t >= newest - half]
    return result


class ContractCheckingMechanism:
    """Delegates to a mechanism, asserts the receive log at every ``on_pulse`` call
    and records (node, now, pulses logged at now) at every ``on_reach_top`` call."""

    def __init__(self, inner, node, half, calls, tops):
        self.inner, self.node, self.half, self.calls, self.tops = inner, node, half, calls, tops
        self.fires = inner.fires

    def on_reach_top(self, state, now):
        self.tops.append((self.node, now, state.receive_log.count(now)))
        return self.inner.on_reach_top(state, now)

    def on_pulse(self, state, now):
        log = state.receive_log
        assert log[-1] == now  # the pulse being handled is the newest entry
        assert log[0] >= now - self.half  # pruned to the trailing half period
        self.calls.append(now)
        return self.inner.on_pulse(state, now)


@pytest.mark.parametrize("config_name", [
    "circle24_quorum_n_attacked.json",
    "circle24_quorum_degree_attacked.json",
    "circle24_conventional_clean.json",
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_receive_log_holds_the_trailing_half_period_of_deliveries(config_name, seed):
    sim = shipped_sim(config_name, seed)
    half = sim.clock.ticks_per_period // 2
    calls, tops = [], []
    sim.mechanisms = {i: ContractCheckingMechanism(m, i, half, calls, tops)
                      for i, m in sim.mechanisms.items()}
    result = assert_receive_logs_hold_trailing_half_period(sim)
    assert calls
    # the reset decision counts every pulse of its instant, those that reached
    # the oscillator after it was parked at the top included
    received = Counter((r.node, r.tick) for r in records_of(result, RECEIVED))
    assert tops and all(count == received[node, now] for node, now, count in tops)


def test_receive_log_kept_while_parked_without_pulses():
    # one early pulse, then only half-period wraps that receive nothing:
    # reaching the top must not prune the log by the wrap tick
    topo = from_adjacency([[1], [0]])
    sim = quorum_n_sim(topo, {0: 0}, horizon=3 * TPP, attacker_ids=(1,), schedules={1: (10,)})
    assert_receive_logs_hold_trailing_half_period(sim)
    assert list(sim._states[0].receive_log) == [10]


class CountingMechanism:
    """Delegates to a mechanism and counts its top-of-cycle calls per (node, tick)."""

    def __init__(self, inner, node, counts):
        self.inner, self.node, self.counts = inner, node, counts

    def fires(self, state, now):
        self.counts["fires"][(self.node, now)] += 1
        return self.inner.fires(state, now)

    def on_reach_top(self, state, now):
        self.counts["on_reach_top"][(self.node, now)] += 1
        return self.inner.on_reach_top(state, now)

    def on_pulse(self, state, now):
        return self.inner.on_pulse(state, now)


def test_each_top_reach_decided_once():
    sim = flagship_sim()
    counts = {"fires": Counter(), "on_reach_top": Counter()}
    sim.mechanisms = {i: CountingMechanism(m, i, counts) for i, m in sim.mechanisms.items()}
    result = sim.run()
    resets = Counter((r.node, r.tick) for r in result.records
                     if r.kind in (RESET_TO_ZERO, RESET_TO_PI))
    assert resets and max(resets.values()) == 1
    assert counts["fires"] == resets
    assert counts["on_reach_top"] == resets


def test_identical_runs_are_identical():
    a = flagship_result()
    b = flagship_result()
    assert a.records == b.records
    assert a.snapshots == b.snapshots


def test_event_log_reconstructs_every_snapshot():
    # under the quorum rules the only phase discontinuities are the logged
    # shift and reset records, so replaying the log must reproduce the
    # phase trace exactly
    import random
    result = flagship_result()
    rng = random.Random(7)
    phases0 = {i: rng.randrange(TPP + 1) for i in range(24) if i not in (1, 8, 20)}
    jumps = {i: [] for i in result.legit_ids}
    targets = {SHIFTED_TO_2PI: TPP, RESET_TO_ZERO: 0, RESET_TO_PI: HALF}
    for r in result.records:
        if r.kind in targets and r.node in jumps:
            jumps[r.node].append((r.tick, targets[r.kind]))
    for snap in result.snapshots:
        for i, observed in zip(result.legit_ids, snap.phases):
            phase, ref = phases0[i], 0
            for tick, target in jumps[i]:
                if tick > snap.tick:
                    break
                phase, ref = target, tick
            assert phase + (snap.tick - ref) == observed


def test_attacker_pulses_alone_never_shift_after_zero_reset():
    # threshold equals the attacker count: traffic from the attackers alone
    # always falls one short of the response quorum
    topo = from_adjacency([[1, 2, 3], [0], [0], [0]])
    step = EPS + 7
    schedules = {
        1: (TPP,) + tuple(range(TPP + 100 + step, 2 * TPP, step)),
        2: tuple(range(TPP + 140, 2 * TPP, step)),
        3: tuple(range(TPP + 180, 2 * TPP, step)),
    }
    sim = quorum_n_sim(
        topo, {0: 0}, horizon=2 * TPP, n_total=1, degree_override=4,
        attacker_ids=(1, 2, 3), schedules=schedules,
    )
    result = sim.run()
    zeros = [r.tick for r in records_of(result, RESET_TO_ZERO)]
    assert zeros and zeros[0] == TPP  # the pulse at the wrap tick forces a zero reset
    reset = zeros[0]
    shifts = [r.tick for r in records_of(result, SHIFTED_TO_2PI)
              if reset + HALF <= r.tick < reset + TPP]
    assert shifts == []


def test_simulation_input_validation():
    topo = from_adjacency([[1], [0]])
    mech = build_mechanism({"kind": KIND_QUORUM_N, "n_known": 2}, CLOCK, 1)
    with pytest.raises(ValueError):
        Simulation(CLOCK, topo, {0: mech}, {0: 0}, horizon=0)
    with pytest.raises(ValueError):
        Simulation(CLOCK, topo, {0: mech}, {0: 0, 1: 0}, horizon=TPP)  # mechanisms incomplete
    for phases in [{0: TPP + 1, 1: 0}, {0: 0.5, 1: True}]:
        with pytest.raises(ValueError, match="oscillator 0"):
            Simulation(CLOCK, topo, {0: mech, 1: mech}, phases, horizon=TPP)
    with pytest.raises(ValueError):
        Simulation(CLOCK, topo, {0: mech, 1: mech}, {0: 0, 1: 0}, horizon=TPP,
                   schedules={0: (5,)})  # schedule for a non-attacker
    # an attacker pulses at int ticks from 0 on, each more than eps after the last
    for ticks in [(10, 10), (10, 5), (-1,), (True,), (0, EPS), (-1, EPS + 5)]:
        with pytest.raises(ConfigError, match="schedule of attacker 1"):
            Simulation(CLOCK, topo, {0: mech}, {0: 0}, horizon=TPP,
                       attacker_ids=(1,), schedules={1: ticks})
    for ticks in [(0, EPS + 1, 2 * EPS + 2), ()]:
        Simulation(CLOCK, topo, {0: mech}, {0: 0}, horizon=TPP,
                   attacker_ids=(1,), schedules={1: ticks})


@pytest.mark.parametrize("config_name", sorted(p.name for p in CONFIG_DIR.glob("circle24_*.json")))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_instant_deliveries_bounded_by_total_outdegree(config_name, seed):
    # each node fires at most once per tick, so no instant delivers more than
    # one pulse along each edge
    sim = shipped_sim(config_name, seed)
    result = sim.run()
    fires = Counter((r.tick, r.node) for r in records_of(result, FIRED))
    assert max(fires.values()) == 1
    received = Counter(r.tick for r in records_of(result, RECEIVED))
    assert max(received.values()) <= sum(sim.topology.outdegree)


class JumpingMechanism:
    """Fires at every top-reach, resets to zero and answers every pulse with one fixed jump."""

    def __init__(self, phase):
        self.phase = phase

    def fires(self, state, now):
        return True

    def on_reach_top(self, state, now):
        return "zero"

    def on_pulse(self, state, now):
        return jump_to(self.phase)


@pytest.mark.parametrize("phase", [TPP + 300, -300], ids=["above-top", "negative"])
def test_jump_outside_the_cycle_is_rejected(phase):
    # a jump above the top would make the next wrap due before now and run
    # time backwards; a negative one would leave a phase below zero
    topo = from_adjacency([[1], [0]])
    mech = JumpingMechanism(phase)
    sim = Simulation(CLOCK, topo, {0: mech, 1: mech}, {0: TPP - 100, 1: 0}, horizon=3 * TPP)
    with pytest.raises(EngineError, match=f"oscillator 1 jumped to phase {phase},"):
        sim.run()
