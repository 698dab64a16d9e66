import math
from random import Random

import pytest

from pcosync.core import TWO_PI, TickClock
from pcosync.engine import Simulation
from pcosync.mechanisms import KIND_QUORUM_N, build_mechanism
from pcosync.metrics import (
    common_fire_ticks,
    containing_arc,
    containing_arc_ticks,
    detect_sync,
)
from pcosync.scenario import parse_scenario, run_scenario
from pcosync.topology import from_adjacency

CLOCK = TickClock()
TPP = CLOCK.ticks_per_period


def rad(x):
    return CLOCK.rad_to_ticks(x)


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


def test_collective_period_exact_after_sync():
    art = reference_run()
    tick = detect_sync(art.result)
    fire_ticks = common_fire_ticks(art.result, tick)
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


def test_common_fire_ticks_without_sync():
    art = reference_run()
    ticks = common_fire_ticks(art.result)
    assert ticks == sorted(ticks)
    sync = detect_sync(art.result)
    assert all(t >= sync for t in common_fire_ticks(art.result, after=sync - 1))


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
