import json
import random
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

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
    IGNORE,
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
    state = OscillatorState(offset=0, receive_log=[100, 100, 150])
    assert receive_count(state, 90) == 3
    assert receive_count(state, 100) == 1  # open left endpoint drops tick 100
    assert receive_count(state, 150) == 0
    assert receive_count(state, 99) == 3
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


def test_run_with_no_instants_keeps_the_initial_offsets():
    # the horizon ends before either oscillator reaches the top
    topo = from_adjacency([[1], [0]])
    result = quorum_n_sim(topo, {0: 0, 1: HALF}, horizon=HALF - 1).run()
    assert result.instants == []
    assert result.final_offsets == result.initial_offsets == (0, HALF)


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
    rng = random.Random(seed)
    phases = {i: rng.randrange(TPP + 1) for i in range(24) if i not in (1, 8, 20)}
    return quorum_n_sim(topo, phases, horizon=4 * TPP,
                        attacker_ids=(1, 8, 20), schedules=schedules)


def flagship_result(seed=7):
    return flagship_sim(seed).run()


def shipped_sim(config_name, seed, horizon=None):
    config = replace(parse_scenario(json.loads((CONFIG_DIR / config_name).read_text())), seed=seed)
    return build_simulation(config if horizon is None else replace(config, horizon_ticks=horizon))[0]


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


def run_checking_the_contract(sim):
    """Runs sim with every mechanism wrapped in a ContractCheckingMechanism and
    checks the final receive logs; returns the result, the on_pulse ticks and
    the on_reach_top records."""
    half = sim.clock.ticks_per_period // 2
    calls, tops = [], []
    sim.mechanisms = {i: ContractCheckingMechanism(m, i, half, calls, tops)
                      for i, m in sim.mechanisms.items()}
    result = assert_receive_logs_hold_trailing_half_period(sim)
    # the reset decision counts every pulse of its instant, those that reached
    # the oscillator after it was parked at the top included
    received = Counter((r.node, r.tick) for r in records_of(result, RECEIVED))
    assert all(count == received[node, now] for node, now, count in tops)
    return result, calls, tops


def ring60_sim(seed):
    # denser than the shipped d = 20 configs: a ring lattice with N = 60 and
    # d = 50, and the quorum_n attacker bound M = 50 - 40 - 1 = 9 on scripted trains
    topo = build_circle_deployment(60, 40.0, 38.9)
    assert topo.network_degree == 50
    attackers = tuple(range(0, 60, 7))
    schedules = {a: tuple(range(k * 1111, 2 * TPP, 3 * EPS + 7 * k))
                 for k, a in enumerate(attackers)}
    rng = random.Random(seed)
    phases = {i: rng.randrange(TPP + 1) for i in range(60) if i not in attackers}
    return quorum_n_sim(topo, phases, horizon=4 * TPP, attacker_ids=attackers,
                        schedules=schedules)


RECEIVE_LOG_RUNS = {
    f"{seed}-{name}": partial(shipped_sim, name, seed)
    for seed in (0, 1, 2)
    for name in ("circle24_quorum_n_attacked.json", "circle24_quorum_degree_attacked.json",
                 "circle24_conventional_clean.json")
}
RECEIVE_LOG_RUNS["0-ring60_quorum_n_attacked"] = partial(ring60_sim, 0)


@pytest.mark.parametrize("make_sim", list(RECEIVE_LOG_RUNS.values()), ids=list(RECEIVE_LOG_RUNS))
def test_receive_log_holds_the_trailing_half_period_of_deliveries(make_sim):
    _, calls, tops = run_checking_the_contract(make_sim())
    assert calls and tops


# -- the delivery loop once every oscillator is parked --------------------------
# K4: oscillators 0-2 start at phase 0 and reach the top together at TPP


K4 = from_adjacency([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def test_last_oscillator_parks_partway_through_the_deliveries():
    # 3 wraps to pi at TPP - 100, so at TPP it is in the upper half and the
    # pulse of 0 shifts it (quorum 0). It fires and is the last to park, with
    # six pulses of 1 and 2 still queued (two of them to 3) and its own three
    sim = quorum_n_sim(K4, {0: 0, 1: 0, 2: 0, 3: 100}, horizon=TPP)
    result, calls, tops = run_checking_the_contract(sim)
    assert calls == [TPP]  # only 3 handles a pulse
    assert [r.node for r in records_of(result, SHIFTED_TO_2PI)] == [3]
    assert sorted(r.node for r in records_of(result, FIRED)) == [0, 1, 2, 3]
    assert sorted((node, now, count) for node, now, count in tops if now == TPP) == [
        (i, TPP, 3) for i in range(4)]


def test_attacker_pulse_on_an_instant_with_every_oscillator_parked():
    # the attacker 3 pulses at TPP, the tick 0-2 reach the top: its pulses are
    # queued first and delivered after every oscillator is parked
    sim = quorum_n_sim(K4, {0: 0, 1: 0, 2: 0}, horizon=TPP, attacker_ids=(3,),
                       schedules={3: (TPP,)})
    result, calls, tops = run_checking_the_contract(sim)
    assert calls == []
    assert sorted(tops) == [(i, TPP, 3) for i in range(3)]


def test_deliveries_with_no_oscillator_parked():
    # every pulse reaches 0 and 1 in the lower half of the cycle: all are ignored
    topo = from_adjacency([[1, 2], [0, 2], [0, 1]])
    ticks = tuple(range(0, HALF, 3 * EPS))
    sim = quorum_n_sim(topo, {0: 0, 1: 0}, horizon=HALF - 1, attacker_ids=(2,),
                       schedules={2: ticks})
    result, calls, tops = run_checking_the_contract(sim)
    assert calls == sorted(2 * ticks) and tops == []
    assert [r.kind for r in result.records] == [FIRED, RECEIVED, RECEIVED] * len(ticks)


class LogSnapshotMechanism:
    """Ignores every pulse, fires at every top-reach and resets to pi; records
    (decision, now, receive log) at every on_pulse and on_reach_top call."""

    def __init__(self):
        self.seen = []

    def fires(self, state, now):
        return True

    def on_reach_top(self, state, now):
        self.seen.append(("on_reach_top", now, list(state.receive_log)))
        return "pi"

    def on_pulse(self, state, now):
        self.seen.append(("on_pulse", now, list(state.receive_log)))
        return IGNORE


@pytest.mark.parametrize("site", ["on_pulse", "on_reach_top"])
def test_prune_keeps_the_pulse_exactly_half_a_period_back(site):
    # at t the log holds pulses at t - half - 1, which the prune drops, and at
    # t - half, which it keeps: pruned before on_pulse, or after the instant
    # settles when the oscillator reaches the top at t
    s = 1000
    t = s + 1 + HALF
    topo = from_adjacency([[1, 2], [0], [0]])
    mech = LogSnapshotMechanism()
    phase = 0 if site == "on_pulse" else TPP - t
    sim = Simulation(CLOCK, topo, {0: mech}, {0: phase}, horizon=t,
                     attacker_ids=(1, 2), schedules={1: (s, t), 2: (s + 1,)})
    assert_receive_logs_hold_trailing_half_period(sim)
    assert mech.seen[-1] == (site, t, [s + 1, t])


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
    with pytest.raises(ValueError, match="^horizon must be positive$"):
        Simulation(CLOCK, topo, {0: mech}, {0: 0}, horizon=0)
    with pytest.raises(ValueError, match="^mechanisms must cover exactly"):
        Simulation(CLOCK, topo, {0: mech}, {0: 0, 1: 0}, horizon=TPP)  # mechanisms incomplete
    with pytest.raises(ValueError, match="^attacker id outside the topology$"):
        Simulation(CLOCK, topo, {0: mech}, {0: 0}, horizon=TPP, attacker_ids=(1, 2))
    with pytest.raises(ValueError, match="^network has no legitimate oscillators$"):
        Simulation(CLOCK, topo, {}, {}, horizon=TPP, attacker_ids=(0, 1))
    with pytest.raises(ValueError, match="^initial phases must cover exactly"):
        Simulation(CLOCK, topo, {0: mech, 1: mech}, {0: 0}, horizon=TPP)
    for phases in [{0: TPP + 1, 1: 0}, {0: 0.5, 1: True}]:
        with pytest.raises(ValueError, match="oscillator 0"):
            Simulation(CLOCK, topo, {0: mech, 1: mech}, phases, horizon=TPP)
    with pytest.raises(ValueError, match="^schedule present for a non-attacker id$"):
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


def test_unknown_pulse_action_is_rejected():
    topo = from_adjacency([[1], [0]])
    mech = JumpingMechanism(0)
    mech.on_pulse = lambda state, now: SimpleNamespace(kind="bogus")
    sim = Simulation(CLOCK, topo, {0: mech, 1: mech}, {0: TPP - 100, 1: 0}, horizon=3 * TPP)
    with pytest.raises(EngineError, match="^mechanism returned unknown pulse action 'bogus'$"):
        sim.run()


# -- steady-state repeat -----------------------------------------------------------


def counting_instants(monkeypatch):
    """Count the instants the engine resolves, in a one-item list."""
    resolved = [0]
    resolve = Simulation._resolve_instant

    def counting(self, t):
        resolved[0] += 1
        return resolve(self, t)

    monkeypatch.setattr(Simulation, "_resolve_instant", counting)
    return resolved


def run_with_and_without_repeat(monkeypatch, sim):
    """(instants, resolved count) of a run, then of the same run simulated to the horizon."""
    resolved = counting_instants(monkeypatch)
    repeated = sim.run().instants, resolved[0]
    resolved[0] = 0
    monkeypatch.setattr(Simulation, "_state_key", lambda self, t: object())  # no key matches
    return repeated, (sim.run().instants, resolved[0])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_long_run_repeat_equals_the_simulated_log(monkeypatch, seed):
    sim = shipped_sim("circle24_quorum_n_attacked.json", seed, horizon=200 * TPP)
    (repeated, resolved), (simulated, resolved_all) = run_with_and_without_repeat(monkeypatch, sim)
    assert repeated == simulated
    assert resolved < 100 < 250 < resolved_all  # the repeat fired


@pytest.mark.parametrize("config_name", sorted(p.name for p in CONFIG_DIR.glob("circle24_*.json")))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_repeat_equals_the_simulated_log_on_every_shipped_config(monkeypatch, config_name, seed):
    sim = shipped_sim(config_name, seed, horizon=20 * TPP)
    (repeated, _), (simulated, _) = run_with_and_without_repeat(monkeypatch, sim)
    assert repeated == simulated


@pytest.mark.parametrize("horizon", [12 * TPP - 1, 30 * TPP + HALF + 1])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_repeat_stops_at_a_horizon_inside_a_period(monkeypatch, horizon, seed):
    sim = shipped_sim("circle24_quorum_n_attacked.json", seed, horizon=horizon)
    (repeated, resolved), (simulated, resolved_all) = run_with_and_without_repeat(monkeypatch, sim)
    assert repeated == simulated
    assert resolved < resolved_all


def test_repeat_keeps_a_superseded_wrap_out_of_the_cycle(monkeypatch):
    # oscillator 3 shifts to the top at tick TPP, when the others first fire,
    # so its wrap due at 1.4 periods is superseded: that instant of the first
    # synchronized period logs no events and is not part of the cycle
    sim = quorum_n_sim(from_adjacency([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
                       {0: 0, 1: 0, 2: 0, 3: 600_000}, horizon=10 * TPP)
    (repeated, resolved), (simulated, resolved_all) = run_with_and_without_repeat(monkeypatch, sim)
    assert repeated == simulated
    assert [i.events for i in simulated if i.tick == TPP + 400_000] == [[]]
    assert resolved < resolved_all


def test_resolved_instants_do_not_grow_with_the_horizon(monkeypatch):
    resolved = counting_instants(monkeypatch)
    counts = []
    for periods in (200, 1000):
        resolved[0] = 0
        shipped_sim("circle24_quorum_n_attacked.json", 1, horizon=periods * TPP).run()
        counts.append(resolved[0])
    assert counts[0] == counts[1] < 100


def test_instants_keyed_only_after_the_attack_and_the_first_period(monkeypatch):
    keyed = []
    state_key = Simulation._state_key

    def recording(self, t):
        keyed.append(t)
        return state_key(self, t)

    monkeypatch.setattr(Simulation, "_state_key", recording)
    sim = shipped_sim("circle24_quorum_n_attacked.json", 1, horizon=200 * TPP)
    sim.run()
    last_attack = max(t for ticks in sim.schedules.values() for t in ticks)
    assert keyed and max(last_attack, TPP) <= min(keyed) and max(keyed) <= 198 * TPP
    # a campaign run's horizon leaves less than two periods after its attack
    keyed.clear()
    shipped_sim("circle24_quorum_n_attacked.json", 1).run()
    assert keyed == []


def shift_engine_state(sim, k):
    """Move every tick the engine state holds k ticks later."""
    for st in sim._legit_states:
        st.offset -= k
        st.receive_log[:] = [x + k for x in st.receive_log]
        if st.last_fire_tick is not None:
            st.last_fire_tick += k
        if st.last_reset_to_zero_tick is not None:
            st.last_reset_to_zero_tick += k
    sim._queue[:] = [(tick + k, prio, node) for tick, prio, node in sim._queue]


def test_state_key_is_the_state_relative_to_the_tick():
    sim = quorum_n_sim(from_adjacency([[1], [0]]), {0: 0, 1: HALF}, horizon=3 * TPP)
    sim.run()
    t = sim._log[-1].tick
    st = sim._legit_states[0]
    st.receive_log[:] = []
    base = sim._state_key(t)
    shift_engine_state(sim, 7 * TPP + 3)
    assert sim._state_key(t + 7 * TPP + 3) == base != sim._state_key(t)
    shift_engine_state(sim, -7 * TPP - 3)
    # receive-log entries younger than half a period are keyed, older ones are not
    for age, keyed in [(0, True), (EPS, True), (HALF - 1, True), (HALF, False), (TPP, False)]:
        st.receive_log[:] = [t - age]
        assert (sim._state_key(t) != base) == keyed, age
    st.receive_log[:] = []
    # a last fire and a last reset to zero are keyed by their ages, None by itself
    for name in ("last_fire_tick", "last_reset_to_zero_tick"):
        kept = getattr(st, name)
        for value in {t, t - 3 * TPP, None} - {kept}:
            setattr(st, name, value)
            assert sim._state_key(t) != base, (name, value)
        setattr(st, name, kept)
    # a superseded wrap in the queue is keyed
    sim._queue.append((t + 1, 1, 1))
    assert sim._state_key(t) != base
