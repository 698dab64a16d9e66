import json
import math
from pathlib import Path
from random import Random

import pytest

from oracles import common_fire_ticks, sync_verdict
from pcosync.core import TWO_PI, TickClock
from pcosync.engine import FIRED, RESET_TO_PI, RESET_TO_ZERO, Instant, Simulation, SimulationResult
from pcosync.mechanisms import KIND_QUORUM_N, build_mechanism
from pcosync.metrics import (
    containing_arc,
    containing_arc_ticks,
    detect_sync,
    summarize_run,
)
from pcosync.scenario import parse_scenario, run_scenario
from pcosync.topology import from_adjacency

CLOCK = TickClock()
TPP = CLOCK.ticks_per_period
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def rad(x):
    """The nearest tick to an angle in [0, 2*pi]."""
    return round(x / TWO_PI * TPP)


def anchored_arc_oracle(phases, tpp):
    """O(n^2) reference: smallest arc starting at one of the phases."""
    pts = [p % tpp for p in phases]
    best = tpp
    for anchor in pts:
        reach = max((q - anchor) % tpp for q in pts)
        best = min(best, reach)
    return best


def test_arc_examples():
    one_tick_rad = TWO_PI / TPP
    arc = containing_arc([rad(0.1), rad(TWO_PI - 0.1)], CLOCK)
    assert abs(arc - 0.2) < 2 * one_tick_rad  # wraps through zero
    arc = containing_arc([rad(0.0), rad(math.pi / 2), rad(math.pi)], CLOCK)
    assert abs(arc - math.pi) < 2 * one_tick_rad
    assert containing_arc([12345, 12345, 12345], CLOCK) == 0.0
    assert containing_arc_ticks([7], TPP) == 0


def test_arc_rejects_empty():
    with pytest.raises(ValueError):
        containing_arc_ticks([], TPP)


def test_arc_rotation_and_permutation_invariance():
    rng = Random(3)
    for _ in range(200):
        pts = [rng.randrange(TPP) for _ in range(rng.randrange(1, 10))]
        base = containing_arc_ticks(pts, TPP)
        assert 0 <= base < TPP
        offset = rng.randrange(TPP)
        rotated = [(p + offset) % TPP for p in pts]
        assert containing_arc_ticks(rotated, TPP) == base
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert containing_arc_ticks(shuffled, TPP) == base


def test_arc_matches_anchored_oracle():
    rng = Random(11)
    for _ in range(1000):
        pts = [rng.randrange(TPP) for _ in range(rng.randrange(1, 13))]
        assert containing_arc_ticks(pts, TPP) == anchored_arc_oracle(pts, TPP)


def reference_run(seed=1, horizon=5 * TPP):
    cfg = parse_scenario({
        "topology": {"kind": "circle", "n": 24, "diameter": 40, "range": 39},
        "mechanism": {"kind": "quorum_n", "n_known": 24},
        "attackers": {"ids": [1, 8, 20],
                      "attack": {"kind": "random_budget", "total_pulses": 40,
                                 "horizon_ticks": 3_500_000}},
        "horizon_ticks": horizon,
        "seed": seed,
    })
    return run_scenario(cfg)


def test_detect_sync_on_reference_run():
    art = reference_run()
    tick = detect_sync(art.result)
    assert tick is not None and tick <= 3 * TPP // 2
    # arc is exactly zero at every snapshot from the sync tick on
    for snap in art.result.snapshots:
        if snap.tick >= tick:
            assert min(snap.phases) == max(snap.phases)


def test_detect_sync_stable_under_longer_horizon():
    short = detect_sync(reference_run(horizon=4 * TPP).result)
    long = detect_sync(reference_run(horizon=8 * TPP).result)
    assert short == long


def verdict_of(summary):
    return {key: summary[key] for key in ("sync_tick", "collective_periods", "periods_exact")}


def summary_of(result):
    return summarize_run(result, seed=0, config_digest="", mechanism="", conditions=None,
                         schedules_jsonable={})


def test_collective_period_exact_after_sync():
    art = reference_run()
    assert verdict_of(art.summary) == sync_verdict(art.result)
    tick = art.summary["sync_tick"]
    fire_ticks = [t for t in common_fire_ticks(art.result) if t > tick]
    gaps = art.summary["collective_periods"]
    assert gaps == [b - a for a, b in zip(fire_ticks, fire_ticks[1:])]
    assert gaps and all(g == TPP for g in gaps)
    assert art.summary["periods_exact"] is True


def test_conventional_never_reaches_exact_sync():
    cfg = parse_scenario({
        "topology": {"kind": "circle", "n": 24, "diameter": 40, "range": 39},
        "mechanism": {"kind": "conventional", "coupling": 0.021},
        "horizon_ticks": 6 * TPP,
        "seed": 3,
    })
    art = run_scenario(cfg)
    assert detect_sync(art.result) is None
    assert art.summary["final_arc_rad"] > 0.0


def test_single_oscillator_sync_convention():
    # a lone legitimate oscillator with one compromised feeder: the pulse at
    # its wrap tick reaches the reset quorum, and the first reset to zero is
    # the synchronization instant by convention
    topo = from_adjacency([[1], [0]])
    mech = build_mechanism({"kind": KIND_QUORUM_N, "n_known": 2}, CLOCK, 1)
    sim = Simulation(
        clock=CLOCK, topology=topo, mechanisms={0: mech}, initial_phases={0: 0},
        horizon=3 * TPP, attacker_ids=(1,), schedules={1: (TPP,)},
    )
    result = sim.run()
    assert detect_sync(result) == TPP
    # it then fires every half period (reset to pi): the only case where the gaps
    # after a sync tick can be off-period, since the gap rule needs two oscillators
    expected = {"sync_tick": TPP, "collective_periods": [TPP // 2, TPP // 2],
                "periods_exact": False}
    assert verdict_of(summary_of(result)) == expected == sync_verdict(result)


def hand_built(n, instants, horizon, ticks_per_period=100, stop=None, queued=(), initial=None):
    """A completed run of ``n`` legitimate oscillators and one attacker, ``n``, on a
    complete graph; ``instants`` holds (tick, offsets after it, (kind, node) events).
    With ``stop``, it is a run stopped there, with ``queued`` left in its queue.
    Unless given, the initial offsets are those after the first instant, or zeros."""
    nodes = n + 1
    if initial is None:
        initial = instants[0][1] if instants else (0,) * n
    return SimulationResult(
        clock=TickClock(ticks_per_period, 1), legit_ids=tuple(range(n)), attacker_ids=(n,),
        adjacency=tuple(tuple(j for j in range(nodes) if j != i) for i in range(nodes)),
        horizon=horizon, initial_offsets=initial,
        instants=[Instant(t, offsets, tuple(events)) for t, offsets, events in instants],
        stop=stop, queued=queued)


def wrap(t, n=2):
    """Every oscillator fires and resets to zero at ``t``."""
    return (t, (-t,) * n, [(FIRED, i) for i in range(n)] + [(RESET_TO_ZERO, i) for i in range(n)])


@pytest.mark.parametrize("horizon, joint, final", [
    (300, [], -300),                # the horizon at the stop: no joint fire after it
    (600, [400, 500, 600], -600),   # stop + 3T: the last joint fire is at the horizon
    (599, [400, 500], -500),        # one tick before it
])
def test_a_stopped_result_derives_its_joint_fires_and_final_offsets(horizon, joint, final):
    # stopped at the joint reset at 300, with an attacker pulse and a superseded wrap
    # left in the queue; the offsets at the horizon are those after the last joint reset
    result = hand_built(2, [(250, (-200, -190), []), wrap(300)], horizon, stop=300,
                        queued=[(350, 0, 2), (420, 1, 0)])
    assert list(result.joint_ticks) == joint
    assert result.final_offsets == (final, final) == result.instants[-1].offsets


def test_an_unstopped_result_ends_at_its_last_offsets():
    result = hand_built(2, [(250, (-200, -190), []), (270, (-230, -190), [(FIRED, 2)])], 300)
    assert list(result.joint_ticks) == [] and result.final_offsets == (-230, -190)
    # no instant resolved before the horizon: the initial offsets
    assert hand_built(2, [], 300, initial=(40, 55)).final_offsets == (40, 55)


def test_split_offsets_after_a_joint_reset_undo_it():
    # a joint reset at 100, then an attacker pulse moves one oscillator only, and
    # neither fires again before the horizon: only the zero-arc rule sees the split
    result = hand_built(2, [wrap(100), (130, (-130, -120), [(FIRED, 2)])], 180)
    expected = {"sync_tick": None, "collective_periods": [], "periods_exact": None}
    assert verdict_of(summary_of(result)) == expected == sync_verdict(result)


def test_common_fire_ticks_without_sync():
    # joint fires and resets a period apart, then a split before the horizon: no sync
    # tick, so the summary reports the gaps between every joint fire
    result = hand_built(2, [wrap(100), wrap(200), wrap(300), (340, (-340, -330), [(FIRED, 2)])],
                        380)
    assert common_fire_ticks(result) == [100, 200, 300]
    expected = {"sync_tick": None, "collective_periods": [100, 100], "periods_exact": None}
    assert verdict_of(summary_of(result)) == expected == sync_verdict(result)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("circle24_*.json")))
def test_summary_verdict_is_the_oracle_on_shipped_configs(name):
    data = json.loads((CONFIG_DIR / name).read_text())
    for seed in range(10):
        art = run_scenario(parse_scenario({**data, "seed": seed}))
        assert verdict_of(art.summary) == sync_verdict(art.result), seed


def random_log(rng):
    """A hand-built run: mostly joint wraps one period apart, with partial and
    off-period fires, joint resets without a joint fire, resets to pi, attacker
    pulses and split offsets mixed in."""
    n = rng.choice((1, 2, 2, 3))
    tpp = rng.choice((20, 100))
    instants = []
    t = rng.randrange(tpp)
    for _ in range(rng.randrange(12)):
        if rng.random() < 0.85:
            phase = rng.randrange(tpp)
            offsets = (phase - t,) * n
        else:  # distinct phases in [0, tpp): a nonzero arc for two or more
            offsets = tuple(p - t for p in rng.sample(range(tpp), n))
        fired = [i for i in range(n) if rng.random() < 0.9] if rng.random() < 0.8 else []
        reset = RESET_TO_ZERO if rng.random() < 0.8 else RESET_TO_PI
        events = [(FIRED, i) for i in fired] + [(reset, i) for i in range(n)
                                                 if i in fired or rng.random() < 0.1]
        if rng.random() < 0.2:
            events.insert(rng.randrange(len(events) + 1), (FIRED, n))
        instants.append((t, offsets, events))
        t += tpp if rng.random() < 0.75 else rng.randrange(1, 2 * tpp)
    last = instants[-1][0] if instants else 0
    return hand_built(n, instants, last + rng.randrange(1, tpp), tpp)


def test_summary_verdict_is_the_oracle_on_random_logs():
    rng = Random(32)
    seen = set()
    for _ in range(600):
        result = random_log(rng)
        verdict = sync_verdict(result)
        assert verdict_of(summary_of(result)) == verdict
        seen.add((verdict["sync_tick"] is None, verdict["periods_exact"],
                  bool(verdict["collective_periods"])))
    # every kind of verdict occurs: synced with exact and with off-period gaps, synced
    # with fewer than two joint fires after, and not synced with and without a gap
    assert seen >= {(False, True, True), (False, False, True), (False, None, False),
                    (True, None, True), (True, None, False)}


def certified_random_log(rng):
    """A random hand-built run stopped at a joint reset to zero, with some fires at that
    tick or none, and attacker pulses and superseded wraps left in its queue."""
    while True:
        result = random_log(rng)
        if result.resolved:
            break
    n, tpp = len(result.legit_ids), result.clock.ticks_per_period
    k = rng.randrange(len(result.resolved))
    t = result.resolved[k].tick
    fired = [(FIRED, i) for i in range(n) if rng.random() < 0.5] if rng.random() < 0.5 else []
    instants = result.resolved[:k] + [(t, (-t,) * n, fired + [(RESET_TO_ZERO, i) for i in range(n)])]
    horizon = t + rng.randrange(4 * tpp)
    queued = [(a, 0, n) for a in rng.sample(range(t + 1, horizon + tpp), rng.randrange(4))]
    queued += [(w, 1, rng.randrange(n)) for w in rng.sample(range(t + 1, horizon + tpp), 2)]
    return hand_built(n, instants, horizon, tpp, stop=t, queued=queued)


def test_summary_verdict_of_a_stopped_run_is_the_oracle_on_its_filled_log():
    # the pass reads a stopped run's resolved instants alone; the oracle reads the log
    # with the closed-form tail, whatever fires the stop tick holds
    rng = Random(33)
    earlier = 0
    for _ in range(600):
        result = certified_random_log(rng)
        verdict = verdict_of(summary_of(result))
        assert verdict == sync_verdict(result)
        earlier += verdict["sync_tick"] < result.stop
    assert earlier  # a sync tick before the stop


def test_summary_shape():
    art = reference_run()
    data = art.summary
    assert data["sync_tick"] == detect_sync(art.result)
    assert data["mechanism"] == "quorum_n"
    assert data["attacker_ids"] == [1, 8, 20]
    assert len(data["legitimate_ids"]) == 21
    assert data["conditions"]["attacker_bound_ok"] is True
    assert sum(len(v) for v in data["attack_schedules"].values()) == 40
    assert data["periods_exact"] is True
    assert len(data["initial_phases_ticks"]) == 21
