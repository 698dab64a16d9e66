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
    QuorumMechanism,
    build_mechanism,
    jump_to,
    receive_count,
)
from pcosync.scenario import build_simulation, parse_scenario, run_scenario
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
    for state in sim._legit_states:
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
    """Delegates to a mechanism, asserts the receive log at every ``on_pulse`` and
    ``on_reach_top`` call and records (node, now, pulses logged at now) at every
    ``on_reach_top`` call."""

    def __init__(self, inner, node, half, calls, tops):
        self.inner, self.node, self.half, self.calls, self.tops = inner, node, half, calls, tops
        self.fires = inner.fires

    def on_reach_top(self, state, now):
        log = state.receive_log
        if log and log[-1] == now:
            assert log[0] >= now - self.half  # pruned when the pulse at now was delivered
        self.tops.append((self.node, now, log.count(now)))
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


# -- deliveries to parked oscillators -------------------------------------------
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
    # t - half, which it keeps: the delivery at t prunes the log, which on_pulse
    # then sees, or on_reach_top once the oscillator has reached the top at t
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


@pytest.mark.parametrize("reset", [None, "ZERO"])
def test_unknown_reset_is_rejected(reset):
    # on_reach_top must answer "zero" or "pi"; nothing falls back to a reset to pi
    topo = from_adjacency([[1], [0]])
    mech = JumpingMechanism(0)
    mech.on_reach_top = lambda state, now: reset
    sim = Simulation(CLOCK, topo, {0: mech, 1: mech}, {0: TPP - 100, 1: 0}, horizon=3 * TPP)
    with pytest.raises(EngineError, match=f"^mechanism returned unknown reset {reset!r}$"):
        sim.run()


# -- certified synchrony ------------------------------------------------------------


def recording_instants(monkeypatch):
    """Record each resolved instant as (tick, whether every oscillator reset to zero in it)."""
    resolved = []
    resolve = Simulation._resolve_instant

    def recording(self, t):
        joint = resolve(self, t)
        resolved.append((t, joint))
        return joint

    monkeypatch.setattr(Simulation, "_resolve_instant", recording)
    return resolved


def run_with_and_without_certificate(monkeypatch, sim):
    """(instants, resolved count) of a run, then of the same run simulated to the horizon."""
    resolved = recording_instants(monkeypatch)
    certified = sim.run().instants, len(resolved)
    resolved.clear()
    monkeypatch.delattr(QuorumMechanism, "keeps_joint_reset")  # no mechanism certifies
    return certified, (sim.run().instants, len(resolved))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_long_run_certified_fill_equals_the_simulated_log(monkeypatch, seed):
    sim = shipped_sim("circle24_quorum_n_attacked.json", seed, horizon=200 * TPP)
    (certified, resolved), (simulated, resolved_all) = run_with_and_without_certificate(
        monkeypatch, sim)
    assert certified == simulated
    assert resolved < 100 < 250 < resolved_all  # the run stopped early


@pytest.mark.parametrize("config_name", sorted(p.name for p in CONFIG_DIR.glob("circle24_*.json")))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_certified_fill_equals_the_simulated_log_on_every_shipped_config(
        monkeypatch, config_name, seed):
    sim = shipped_sim(config_name, seed, horizon=20 * TPP)
    (certified, _), (simulated, _) = run_with_and_without_certificate(monkeypatch, sim)
    assert certified == simulated


@pytest.mark.parametrize("horizon", [12 * TPP - 1, 30 * TPP + HALF + 1])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_certified_fill_stops_at_a_horizon_inside_a_period(monkeypatch, horizon, seed):
    sim = shipped_sim("circle24_quorum_n_attacked.json", seed, horizon=horizon)
    (certified, resolved), (simulated, resolved_all) = run_with_and_without_certificate(
        monkeypatch, sim)
    assert certified == simulated
    assert resolved < resolved_all


def test_certified_fill_logs_a_superseded_wrap_as_an_empty_instant(monkeypatch):
    # oscillator 3 shifts to the top at tick TPP, when the others first fire,
    # so its wrap due at 1.4 periods is superseded: that instant logs no events,
    # and it falls after the run stops at TPP, its third instant
    sim = quorum_n_sim(K4, {0: 0, 1: 0, 2: 0, 3: 600_000}, horizon=10 * TPP)
    (certified, resolved), (simulated, resolved_all) = run_with_and_without_certificate(
        monkeypatch, sim)
    assert certified == simulated
    assert [i.events for i in simulated if i.tick == TPP + 400_000] == [[]]
    assert resolved == 3 < resolved_all


def test_certified_fill_puts_an_attacker_pulse_first_at_a_joint_fire(monkeypatch):
    # oscillators 0-2 reset to zero together at TPP, and the attacker 3 pulses
    # every quarter period up to 6 TPP, so at the filled joint fires up to 5 TPP
    # too, and once more at the horizon; with a response quorum of 1 its single
    # pulses are ignored from then on
    topo = from_adjacency([[1, 2], [0, 2], [0, 1], [0, 1, 2]])
    horizon = 8 * TPP + HALF
    sim = quorum_n_sim(topo, {0: 0, 1: 0, 2: 0}, horizon=horizon, degree_override=4,
                       attacker_ids=(3,),
                       schedules={3: tuple(range(0, 6 * TPP, TPP // 4)) + (horizon,)})
    (certified, resolved), (simulated, _) = run_with_and_without_certificate(monkeypatch, sim)
    assert certified == simulated
    joint = [(FIRED, i) for i in range(3)] + [(RESET_TO_ZERO, i) for i in range(3)]
    assert [i.events for i in certified if i.tick % TPP == 0 and i.tick > TPP] == (
        [[(FIRED, 3)] + joint] * 4 + [joint] * 3)
    assert certified[-1] == (horizon, (-8 * TPP,) * 3, [(FIRED, 3)])
    assert resolved < len(certified)


def dense_sim(mechanism, attackers, seed, periods=10, attacked=9):
    """circle24 with random initial phases and, per attacker, a train with random gaps of
    eps + 1 to 3 eps over the first ``attacked`` periods."""
    rng = random.Random(seed)
    schedules = {}
    for a in attackers:
        ticks = [rng.randrange(EPS)]
        while ticks[-1] < attacked * TPP:
            ticks.append(ticks[-1] + rng.randrange(EPS + 1, 3 * EPS + 1))
        schedules[str(a)] = ticks[:-1]
    config = parse_scenario({
        "topology": {"kind": "circle", "n": 24, "diameter": 40, "range": 39},
        "mechanism": mechanism,
        "attackers": {"ids": list(attackers), "attack": {"kind": "scripted", "ticks": schedules}},
        "horizon_ticks": periods * TPP,
        "seed": seed,
    })
    return build_simulation(config)[0]


QUORUM_N_24 = {"kind": "quorum_n", "n_known": 24}
# (mechanism, attackers, periods, whether the first joint reset lasts)
DENSE_TRAINS = {
    "quorum_n-M3": (QUORUM_N_24, (1, 8, 20), 10, True),
    "quorum_degree-M2": ({"kind": "quorum_degree"}, (1, 8), 10, True),
    # over the bound: the receivers next to all four attackers have a response
    # quorum of 3, and the attackers shift them all to the top within a period
    "quorum_n-M4-over": (QUORUM_N_24, (1, 8, 14, 20), 12, False),
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("case", DENSE_TRAINS)
def test_certified_fill_equals_the_simulated_log_under_dense_trains(monkeypatch, case, seed):
    mechanism, attackers, periods, lasts = DENSE_TRAINS[case]
    sim = dense_sim(mechanism, attackers, seed, periods)
    (certified, _), (simulated, _) = run_with_and_without_certificate(monkeypatch, sim)
    assert certified == simulated
    joint = [i.tick for i in simulated
             if [kind for kind, _ in i.events].count(RESET_TO_ZERO) == len(sim.legit_ids)]
    assert (joint[1] - joint[0] == TPP) == lasts


def test_reset_quorum_met_only_with_an_attacker_pulse_is_no_certificate(monkeypatch):
    # receiver 0 has 2 legitimate in-neighbours, exactly reset_over = 6 // 3; the
    # attacker's one pulse makes the joint reset at TPP, and at 2 TPP, without it,
    # receiver 0 counts 2 pulses and resets to pi
    topo = from_adjacency([[1, 2, 3], [0, 2, 3], [0, 1, 3], [1, 2], [0, 1, 2, 3]])
    sim = quorum_n_sim(topo, {i: 0 for i in range(4)}, horizon=4 * TPP, n_total=6,
                       attacker_ids=(4,), schedules={4: (TPP,)})
    (certified, resolved), (simulated, resolved_all) = run_with_and_without_certificate(
        monkeypatch, sim)
    assert certified == simulated
    assert (RESET_TO_PI, 0) in simulated[1].events and simulated[1].tick == 2 * TPP
    assert resolved == resolved_all


def test_resolved_instants_do_not_grow_with_the_horizon(monkeypatch):
    resolved = recording_instants(monkeypatch)
    counts = []
    for periods in (200, 1000):
        resolved.clear()
        shipped_sim("circle24_quorum_n_attacked.json", 1, horizon=periods * TPP).run()
        counts.append(len(resolved))
    assert counts[0] == counts[1] < 100


def test_run_resolves_the_same_instants_up_to_a_shorter_horizon():
    # a 200-period run is the first 200 periods of a run at the 1,000-period cap
    short = shipped_sim("circle24_quorum_n_attacked.json", 1, horizon=200 * TPP).run()
    full = shipped_sim("circle24_quorum_n_attacked.json", 1, horizon=1000 * TPP).run()
    assert short.instants == [i for i in full.instants if i.tick <= 200 * TPP]
    assert len(short.instants) < len(full.instants)


def last_attack_tick(sim):
    return max(t for ticks in sim.schedules.values() for t in ticks if t <= sim.horizon)


@pytest.mark.parametrize("config_name", ["circle24_quorum_n_attacked.json",
                                         "circle24_quorum_degree_attacked.json"])
def test_in_bound_runs_stop_at_their_first_joint_reset(monkeypatch, config_name):
    resolved = recording_instants(monkeypatch)
    for seed in range(10):
        resolved.clear()
        sim = shipped_sim(config_name, seed)
        result = sim.run()
        first = next(t for t, joint in resolved if joint)
        assert resolved[-1] == (first, True) and len(resolved) < len(result.instants)
        assert first < last_attack_tick(sim)  # the stop does not wait for the attack to end


def test_over_bound_runs_stop_at_their_first_joint_reset_after_the_attack(monkeypatch):
    resolved = recording_instants(monkeypatch)
    earlier = 0
    for seed in range(10):
        resolved.clear()
        sim = shipped_sim("circle24_quorum_degree_overbudget.json", seed)
        sim.run()
        last = last_attack_tick(sim)
        stop = next(t for t, joint in resolved if joint and t >= last)
        assert resolved[-1] == (stop, True)
        earlier += any(joint for t, joint in resolved if t < last)
    assert earlier  # a joint reset during the attack is not final


def test_conventional_and_delegating_mechanisms_never_stop_early(monkeypatch):
    resolved = recording_instants(monkeypatch)
    result = shipped_sim("circle24_conventional_clean.json", 0).run()
    assert len(resolved) == len(result.instants)
    resolved.clear()
    sim = shipped_sim("circle24_quorum_n_clean.json", 0)
    counts = {"fires": Counter(), "on_reach_top": Counter()}
    sim.mechanisms = {i: CountingMechanism(m, i, counts) for i, m in sim.mechanisms.items()}
    result = sim.run()
    assert any(joint for _, joint in resolved) and len(resolved) == len(result.instants)


@pytest.mark.parametrize("config_name",
                         sorted(p.name for p in CONFIG_DIR.glob("circle24_quorum*.json")))
def test_the_summary_follows_from_the_certified_stop(monkeypatch, config_name):
    # inside the paper's conditions a run stops at its first joint reset s, and the
    # k = (H - s) // T whole periods after it give the summary; outside them it stops
    # at its first joint reset after the attack, which sync_tick may precede
    horizon = 7 * TPP + 123_457
    data = json.loads((CONFIG_DIR / config_name).read_text())
    resolved = recording_instants(monkeypatch)
    synced_earlier = 0
    for seed in range(10):
        resolved.clear()
        artifacts = run_scenario(parse_scenario({**data, "seed": seed, "horizon_ticks": horizon}))
        summary = artifacts.summary
        stop, joint = resolved[-1]
        assert joint and len(resolved) < len(artifacts.result.instants)
        conditions = summary["conditions"]
        if conditions["degree_ok"] and conditions["attacker_bound_ok"]:
            k = (horizon - stop) // TPP
            assert stop == next(t for t, joint in resolved if joint) == summary["sync_tick"]
            assert summary["final_arc_rad"] == 0.0
            assert summary["collective_periods"] == [TPP] * (k - 1)
            assert summary["periods_exact"] is (True if k >= 2 else None)
        else:
            assert summary["sync_tick"] <= stop
            synced_earlier += summary["sync_tick"] < stop
    assert synced_earlier or "overbudget" not in config_name
