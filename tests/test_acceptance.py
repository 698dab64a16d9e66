"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Campaign sizes, tolerances and bounds are pinned here and
are not calibration knobs; synchronization checks are exact (integer ticks),
never tolerance-based.
"""

import json
import time
from collections import Counter, deque
from random import Random

from oracles import arc_trace, floor_split_holds
from pcosync.cli import main
from pcosync.core import TickClock
from pcosync.engine import (
    FIRED,
    RESET_TO_ZERO,
    SHIFTED_TO_2PI,
    OscillatorState,
    Simulation,
)
from pcosync.mechanisms import KIND_QUORUM_N, build_mechanism
from pcosync.metrics import common_fire_ticks, containing_arc_ticks, detect_sync
from pcosync.scenario import parse_scenario, parse_sweep, run_scenario, run_sweep
from pcosync.topology import build_circle_deployment, from_adjacency

CLOCK = TickClock()
TPP = CLOCK.ticks_per_period
EPS = CLOCK.epsilon_ticks
HALF = TPP // 2

CIRCLE = {"kind": "circle", "n": 24, "diameter": 40, "range": 39}
BUDGET_ATTACK = {"kind": "random_budget", "total_pulses": 40, "horizon_ticks": 3_500_000}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    # one line per criterion; visible with `pytest -s`, captured otherwise
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def scenario(mechanism, attackers, horizon, seed, coupling=None, n_known=None):
    mech = {"kind": mechanism}
    if coupling is not None:
        mech["coupling"] = coupling
    if n_known is not None:
        mech["n_known"] = n_known
    data = {
        "clock": {"ticks_per_period": TPP, "epsilon_ticks": EPS},
        "topology": CIRCLE,
        "mechanism": mech,
        "initial_phases": {"random_uniform": "phases"},
        "horizon_ticks": horizon,
        "seed": seed,
    }
    if attackers:
        data["attackers"] = {"ids": list(attackers), "attack": dict(BUDGET_ATTACK)}
    return data


def campaign_sweep(mechanism, attackers, horizon, runs, seed_base, **kw):
    data = {
        "base": scenario(mechanism, attackers, horizon, 0, **kw),
        "runs": runs,
        "seed_base": seed_base,
        "workers": 1,
    }
    return run_sweep(parse_sweep(data))


def verify_run_artifacts(data, expect_sync_by):
    """Exact re-verification of one run straight from its event log/snapshots."""
    art = run_scenario(parse_scenario(data))
    result = art.result
    sync = detect_sync(result)
    assert sync is not None and sync <= expect_sync_by
    for snap in result.snapshots:
        if snap.tick >= sync:
            assert containing_arc_ticks(snap.phases, TPP) == 0
    fire_ticks = common_fire_ticks(result, after=sync)
    assert len(fire_ticks) >= 2
    assert all(b - a == TPP for a, b in zip(fire_ticks, fire_ticks[1:]))
    return art


# -- 1: floor-arithmetic oracle, exhaustive ------------------------------------


def test_acceptance_01_floor_identity_exhaustive():
    started = time.perf_counter()
    ok = all(
        floor_split_holds(x, y, q)
        for x in range(2, 51)
        for y in range(1, x)
        for q in range(1, 201)
    )
    elapsed = time.perf_counter() - started
    passed = ok and elapsed < 1.0
    report("01 floor-identity-exhaustive", passed, f"{elapsed:.2f}s for 245000 cases")
    assert ok
    assert elapsed < 1.0


# -- 2: topology fidelity -------------------------------------------------------


def test_acceptance_02_circle_topology_exact():
    import math

    topo = build_circle_deployment(24, 40, 39)
    oracle = [
        j for j in range(24)
        if j != 0 and 40 * math.sin(math.pi * min(j, 24 - j) / 24) < 39
    ]
    passed = topo.network_degree == 20 and list(topo.adjacency[0]) == oracle
    report("02 circle-topology-exact", passed, f"d={topo.network_degree}")
    assert topo.network_degree == 20
    assert list(topo.adjacency[0]) == oracle


# -- 3-5: guarantee campaigns ---------------------------------------------------


def run_campaign(label, mechanism, attackers, runs=1000, horizon=5 * TPP, **kw):
    started = time.perf_counter()
    aggregate, summaries = campaign_sweep(mechanism, attackers, horizon, runs, seed_base=1, **kw)
    elapsed = time.perf_counter() - started
    bound = 3 * TPP // 2
    all_synced = aggregate["synced_runs"] == runs
    within_bound = all_synced and aggregate["sync_tick_max"] <= bound
    periods_ok = all(s["periods_exact"] for s in summaries)
    arcs_zero = all(s["final_arc_rad"] == 0.0 for s in summaries)
    # independent spot re-verification straight from raw artifacts
    sample_ok = True
    for seed in range(1, runs + 1, max(1, runs // 20)):
        try:
            verify_run_artifacts(
                scenario(mechanism, attackers, horizon, seed, **kw), bound
            )
        except AssertionError:
            sample_ok = False
            break
    passed = all_synced and within_bound and periods_ok and arcs_zero and sample_ok
    detail = (
        f"{aggregate['synced_runs']}/{runs} synced, max sync tick "
        f"{aggregate['sync_tick_max']}, {elapsed:.1f}s"
    )
    report(label, passed, detail)
    assert all_synced, aggregate["counterexample_seeds"][:10]
    assert within_bound
    assert periods_ok
    assert arcs_zero
    assert sample_ok
    return elapsed


def test_acceptance_03_quorum_n_campaign_under_attack():
    elapsed = run_campaign(
        "03 quorum-n-campaign-attacked", "quorum_n", (1, 8, 20), n_known=24,
    )
    assert elapsed < 120.0


def test_acceptance_04_quorum_degree_campaign_under_attack():
    run_campaign("04 quorum-degree-campaign-attacked", "quorum_degree", (1, 8))


def test_acceptance_05_attack_free_campaigns():
    run_campaign("05a quorum-n-attack-free", "quorum_n", (), horizon=4 * TPP, n_known=24)
    run_campaign("05b quorum-degree-attack-free", "quorum_degree", (), horizon=4 * TPP)


# -- 6: baseline failure --------------------------------------------------------


def test_acceptance_06a_conventional_small_coupling_never_exact():
    art = run_scenario(parse_scenario(
        scenario("conventional", (), 20 * TPP, seed=1, coupling=0.021)
    ))
    passed = art.summary["sync_tick"] is None
    report("06a conventional-no-exact-sync", passed,
           f"final arc {art.summary['final_arc_rad']:.4g} rad")
    assert art.summary["sync_tick"] is None


def test_acceptance_06b_conventional_small_coupling_final_arc():
    # Every received pulse moves a phase by l * F(phase), which scales its
    # offset from the firing point (the cycle top) by 1 - l; all fires of one
    # instant happen at that point. Once the phases lie within half a period,
    # the delay-advance response keeps each of them on its side of the firing
    # point (Nunez, Wang & Doyle, IEEE TAC 2015), so an instant with f fires
    # shrinks the containing arc by at most (1 - l)^f and never grows it;
    # nearest-tick rounding costs at most one tick per pulse. Between
    # consecutive snapshots, in ticks:
    #     (1 - l)^f * before - f <= after <= before + f
    # Instants are checked while before + f stays within half a period, where
    # the shortest containing arc is the span around the firing point. The
    # baseline contracts no faster than that floor and, unlike the counting
    # mechanism, still holds a nonzero arc after 20 periods.
    coupling = 0.021
    art = run_scenario(parse_scenario(
        scenario("conventional", (), 20 * TPP, seed=1, coupling=coupling)
    ))
    fires = Counter(r.tick for r in art.result.records if r.kind == FIRED)
    arcs = arc_trace(art.result)
    checked = fire_instants = violations = 0
    worst = None  # (margin, tick, before, after, floor, ceiling)
    for (_, before), (tick, after) in zip(arcs, arcs[1:]):
        f = fires[tick]
        if before + f > HALF:
            continue
        floor = (1 - coupling) ** f * before - f
        ceiling = before + f
        margin = min(after - floor, ceiling - after)
        checked += 1
        fire_instants += f > 0
        violations += margin < 0
        if (f or margin < 0) and (worst is None or margin < worst[0]):
            worst = (margin, tick, before, after, floor, ceiling)
    final_arc = art.summary["final_arc_rad"]
    passed = fire_instants > 0 and violations == 0 and final_arc > 0
    detail = f"final arc {final_arc:.4g} rad at 20 periods, {checked} instants checked"
    if worst is not None:
        _, tick, before, after, floor, ceiling = worst
        detail += (
            f"; tightest at tick {tick}: arc {before} -> {after} ticks, "
            f"bounds [{floor:.1f}, {ceiling}]"
        )
    report("06b conventional-arc-within-contraction-floor", passed, detail)
    assert fire_instants > 0, f"the arc never fell under half a period: {detail}"
    assert violations == 0, f"{violations} instants outside the contraction bounds: {detail}"
    assert final_arc > 0, f"the baseline reached a zero arc: {detail}"


def test_acceptance_06c_conventional_full_coupling_fails_under_attack():
    # horizon equals the attack window so pulses are active over the whole run
    synced = 0
    for seed in range(100):
        art = run_scenario(parse_scenario(
            scenario("conventional", (1, 8, 20), 3_500_000, seed, coupling=1.0)
        ))
        if art.summary["sync_tick"] is not None:
            synced += 1
    passed = synced <= 5
    report("06c conventional-l1-attacked-no-sync", passed, f"{100 - synced}/100 failed to sync")
    assert synced <= 5


# -- 7: over-budget attacker report ---------------------------------------------


def test_acceptance_07_overbudget_campaign_reports_violation():
    aggregate, summaries = campaign_sweep("quorum_degree", (1, 8, 20), 5 * TPP, 100, 1)
    conditions = aggregate["conditions"]
    flagged = conditions["attacker_bound_ok"] is False and conditions["max_allowed_attackers"] == 2
    reporting = all("sync_tick" in s and isinstance(s["collective_periods"], list)
                    for s in summaries)
    passed = flagged and reporting
    report("07 overbudget-report", passed,
           f"{aggregate['synced_runs']}/100 synced (not asserted), violation flagged")
    assert flagged
    assert reporting  # per-run sync status and period traces are emitted


# -- 8: determinism ---------------------------------------------------------------


def test_acceptance_08_byte_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(
        scenario("quorum_n", (1, 8, 20), 5 * TPP, seed=3, n_known=24)
    ))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        outs.append(out)
    same_files = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("events.jsonl", "phases.csv", "summary.json")
    )

    sweep_path = tmp_path / "sweep.json"
    aggs = []
    for workers in (1, 4):
        sweep_path.write_text(json.dumps({
            "base": scenario("quorum_n", (1, 8, 20), 5 * TPP, seed=0, n_known=24),
            "runs": 10,
            "seed_base": 11,
            "workers": workers,
        }))
        out = tmp_path / f"sweep_w{workers}"
        assert main(["sweep", "--config", str(sweep_path), "--out-dir", str(out)]) == 0
        aggs.append((out / "aggregate.json").read_bytes())
    same_aggregate = aggs[0] == aggs[1]
    passed = same_files and same_aggregate
    report("08 byte-determinism", passed)
    assert same_files
    assert same_aggregate


# -- 9: attacker impotence ---------------------------------------------------------


def test_acceptance_09_attacker_pulses_alone_cannot_shift():
    # mechanism-level check with the reference parameters: n=24, degree 20,
    # response quorum 20 - 16 - 1 = 3 = attacker count
    mech = build_mechanism({"kind": KIND_QUORUM_N, "n_known": 24}, CLOCK, 20)
    attacker_count = 20 - (2 * 24) // 3 - 1
    reset = 10 * TPP  # the oscillator reset to zero at this instant
    rng = Random(17)
    pulses = []
    for a in range(attacker_count):
        t = reset + 1 + a * 37
        while t < reset + TPP:
            pulses.append(t)
            t += EPS + 1 + rng.randrange(50)
    pulses.sort()
    # phase zero at the reset, so the phase at tick t is t - reset
    state = OscillatorState(offset=-reset, receive_log=deque(),
                            last_reset_to_zero_tick=reset)
    shifts = []
    for t in pulses:
        state.receive_log.append(t)
        while state.receive_log[0] < t - HALF:
            state.receive_log.popleft()
        if mech.on_pulse(state, t).kind == "shift":
            shifts.append(t)
    window_shifts = [t for t in shifts if reset + HALF <= t < reset + TPP]
    mech_ok = window_shifts == []

    # end-to-end engine check: the response quorum again equals the attacker
    # count (degree 4, total count 1 -> quorum 3), so attacker-only traffic
    # always falls one pulse short
    topo = from_adjacency([[1, 2, 3], [0], [0], [0]])
    sim = Simulation(
        clock=CLOCK,
        topology=topo,
        mechanisms={0: build_mechanism({"kind": KIND_QUORUM_N, "n_known": 1}, CLOCK, 4)},
        initial_phases={0: 0},
        horizon=2 * TPP,
        attacker_ids=(1, 2, 3),
        schedules={
            1: (TPP,) + tuple(range(TPP + 100 + EPS + 1, 2 * TPP, EPS + 1)),
            2: tuple(range(TPP + 3_400, 2 * TPP, EPS + 1)),
            3: tuple(range(TPP + 6_900, 2 * TPP, EPS + 1)),
        },
    )
    result = sim.run()
    zero_ticks = [r.tick for r in result.records if r.kind == RESET_TO_ZERO]
    assert zero_ticks and zero_ticks[0] == TPP
    engine_shifts = [
        r.tick for r in result.records
        if r.kind == SHIFTED_TO_2PI and TPP + HALF <= r.tick < 2 * TPP
    ]
    engine_ok = engine_shifts == []
    passed = mech_ok and engine_ok
    report("09 attacker-impotence", passed,
           f"{len(pulses)} mechanism-level pulses, {sum(len(s) for s in sim.schedules.values())} engine-level pulses")
    assert mech_ok
    assert engine_ok


# -- 10: containing-arc oracle equivalence -------------------------------------------


def test_acceptance_10_arc_matches_bruteforce_oracle():
    rng = Random(2024)
    checked = 0
    ok = True
    for _ in range(10_000):
        pts = [rng.randrange(TPP) for _ in range(rng.randrange(1, 13))]
        fast = containing_arc_ticks(pts, TPP)
        best = TPP
        for anchor in pts:
            reach = max((q - anchor) % TPP for q in pts)
            best = min(best, reach)
        if fast != best:
            ok = False
            break
        checked += 1
    report("10 containing-arc-oracle", ok, f"{checked} random phase sets")
    assert ok
