import math
import random

import pytest

from oracles import prf
from pcosync.core import TWO_PI, TickClock
from pcosync.engine import OscillatorState
from pcosync.mechanisms import (
    KIND_CONVENTIONAL,
    KIND_QUORUM_DEGREE,
    KIND_QUORUM_N,
    RESET_PI,
    RESET_ZERO,
    apply_conventional_jump,
    build_mechanism,
    check_sync_conditions,
)
from pcosync.topology import build_circle_deployment

CLOCK = TickClock()  # 1_000_000 ticks, epsilon 10_000
TPP = CLOCK.ticks_per_period
EPS = CLOCK.epsilon_ticks
HALF = TPP // 2


def make_state(phase, pulses=(), last_fire=None, last_zero=None, now=0):
    # the state of an oscillator whose phase at tick `now` is `phase`
    return OscillatorState(
        offset=phase - now,
        receive_log=list(pulses),
        last_fire_tick=last_fire,
        last_reset_to_zero_tick=last_zero,
    )


def quorum_n_mech(n_total=24, degree=20):
    return build_mechanism({"kind": KIND_QUORUM_N, "n_known": n_total}, CLOCK, degree)


def quorum_degree_mech(degree=20):
    return build_mechanism({"kind": KIND_QUORUM_DEGREE}, CLOCK, degree)


def conventional_mech(coupling):
    return build_mechanism({"kind": KIND_CONVENTIONAL, "coupling": coupling}, CLOCK, 0)


# -- phase response curve ----------------------------------------------------


def test_prf_branches():
    assert prf(math.pi / 2) == -math.pi / 2
    assert prf(3 * math.pi / 2) == math.pi / 2
    assert prf(math.pi) == -math.pi  # first branch is closed at pi
    assert prf(0.0) == 0.0
    assert prf(TWO_PI) == 0.0


def test_prf_domain():
    with pytest.raises(ValueError):
        prf(-0.01)
    with pytest.raises(ValueError):
        prf(TWO_PI + 0.01)


def test_conventional_jump_examples():
    assert apply_conventional_jump(3 * TPP // 4, 1.0, TPP) == TPP  # fires immediately
    assert apply_conventional_jump(TPP // 4, 1.0, TPP) == 0
    # small coupling advance: 750000 + 0.021 * 250000 = 755250 exactly
    assert apply_conventional_jump(3 * TPP // 4, 0.021, TPP) == 755250


def test_conventional_jump_bounds():
    with pytest.raises(ValueError):
        apply_conventional_jump(100, 0.0, TPP)
    with pytest.raises(ValueError):
        apply_conventional_jump(100, 1.2, TPP)
    for phase in (0, 1, HALF, HALF + 1, TPP - 1, TPP):
        for coupling in (0.021, 0.5, 1.0):
            assert 0 <= apply_conventional_jump(phase, coupling, TPP) <= TPP


# -- reaching the top of the cycle -------------------------------------------


def test_reset_quorum_n_strictly_over():
    mech = quorum_n_mech()  # floor(24/3) = 8, reset needs more than 8
    now = 2 * TPP
    nine = [now - k for k in range(1, 10)]
    state = make_state(TPP, pulses=sorted(nine))
    assert mech.on_reach_top(state, now) == RESET_ZERO
    eight = sorted(nine)[:8]
    state = make_state(TPP, pulses=eight)
    assert mech.on_reach_top(state, now) == RESET_PI


def test_reset_quorum_degree_at_least():
    mech = quorum_degree_mech()  # floor(20/3) = 6, reset needs at least 6
    now = 2 * TPP
    pulses = [now - 5 + k for k in range(7)]
    state = make_state(TPP, pulses=pulses)
    assert mech.on_reach_top(state, now) == RESET_ZERO
    state = make_state(TPP, pulses=pulses[:6])
    assert mech.on_reach_top(state, now) == RESET_ZERO  # exactly 6 is enough
    state = make_state(TPP, pulses=pulses[:5])
    assert mech.on_reach_top(state, now) == RESET_PI


def test_reset_window_is_open_left():
    mech = quorum_n_mech(n_total=2, degree=1)  # reset needs more than 0 pulses
    now = 2 * TPP
    state = make_state(TPP, pulses=[now - EPS])  # exactly at the open endpoint
    assert mech.on_reach_top(state, now) == RESET_PI
    state = make_state(TPP, pulses=[now - EPS + 1])
    assert mech.on_reach_top(state, now) == RESET_ZERO


def test_fire_requires_full_period_since_start():
    mech = quorum_n_mech()
    state = make_state(TPP)
    assert not mech.fires(state, TPP - 1)
    assert mech.fires(state, TPP)  # closed reading of the initiation guard


def test_fire_suppressed_within_epsilon():
    mech = quorum_n_mech()
    now = 3 * TPP
    state = make_state(TPP, last_fire=now - 1)
    assert not mech.fires(state, now)
    state = make_state(TPP, last_fire=now - EPS)  # exactly epsilon ago: allowed again
    assert mech.fires(state, now)
    state = make_state(TPP, last_fire=now)  # fired this instant
    assert not mech.fires(state, now)


def test_conventional_top_always_fires_to_zero():
    mech = conventional_mech(0.5)
    state = make_state(TPP)
    assert mech.fires(state, 10)  # before a period has elapsed
    assert mech.on_reach_top(state, 10) == RESET_ZERO


# -- pulse response -----------------------------------------------------------


def test_pulse_shift_via_epsilon_window():
    # degree 20 in a 24-node network: respond after at least 20-16-1 = 3 pulses
    mech = quorum_n_mech()
    now = 2 * TPP
    prior = [now - 50, now - 40, now - 30]
    state = make_state(int(0.6 * TPP), pulses=prior + [now], now=now)
    assert mech.on_pulse(state, now).kind == "shift"
    state = make_state(int(0.6 * TPP), pulses=prior[:2] + [now], now=now)
    assert mech.on_pulse(state, now).kind == "ignore"
    # the window is open on the left, as the reset window is; a recent reset to
    # zero keeps the half-period rule from counting the pulse at now - EPS
    for first, kind in [(now - EPS, "ignore"), (now - EPS + 1, "shift")]:
        state = make_state(int(0.6 * TPP), pulses=[first] + prior[1:] + [now],
                           last_zero=now - HALF, now=now)
        assert mech.on_pulse(state, now).kind == kind


def test_pulse_gate_lower_half_ignores():
    mech = quorum_n_mech()
    now = 2 * TPP
    pulses = [now - 50] * 8 + [now]
    state = make_state(int(0.3 * TPP), pulses=pulses, now=now)
    assert mech.on_pulse(state, now).kind == "ignore"
    state = make_state(HALF, pulses=pulses, now=now)  # boundary: pi itself is in the gate
    assert mech.on_pulse(state, now).kind == "shift"


def test_pulse_half_period_rule_blocked_by_recent_zero_reset():
    mech = quorum_n_mech()
    now = 2 * TPP
    # three pulses spread wider than epsilon but inside the half period
    pulses = [now - HALF + 10, now - HALF // 2, now - 3 * EPS, now]
    state = make_state(int(0.8 * TPP), pulses=pulses, last_zero=now - TPP // 4, now=now)
    assert mech.on_pulse(state, now).kind == "ignore"
    state = make_state(int(0.8 * TPP), pulses=pulses, last_zero=None, now=now)
    assert mech.on_pulse(state, now).kind == "shift"
    # a reset a full period ago sits outside the open blocking interval
    state = make_state(int(0.8 * TPP), pulses=pulses, last_zero=now - TPP, now=now)
    assert mech.on_pulse(state, now).kind == "shift"
    # a reset at the current instant does not disqualify either
    state = make_state(int(0.8 * TPP), pulses=pulses, last_zero=now, now=now)
    assert mech.on_pulse(state, now).kind == "shift"


def test_pulse_counts_exclude_current():
    mech = quorum_n_mech()
    now = 2 * TPP
    # the newest entry is the pulse being handled: three earlier same-instant
    # pulses meet the quorum of 3, two do not
    state = make_state(int(0.7 * TPP), pulses=[now] * 4, now=now)
    assert mech.on_pulse(state, now).kind == "shift"
    state = make_state(int(0.7 * TPP), pulses=[now] * 3, now=now)
    assert mech.on_pulse(state, now).kind == "ignore"


def test_conventional_pulse_jumps_any_phase():
    mech = conventional_mech(1.0)
    state = make_state(int(0.3 * TPP), pulses=[100], now=100)
    action = mech.on_pulse(state, 100)
    assert action.kind == "jump" and action.jump_to == 0
    state = make_state(int(0.9 * TPP), pulses=[100], now=100)
    action = mech.on_pulse(state, 100)
    assert action.kind == "jump" and action.jump_to == TPP


def test_full_coupling_always_tops_out_above_half():
    # with unit coupling, any pulse received in the upper half lands on the top
    for phase in range(HALF + 1, TPP + 1, 77_773):
        assert apply_conventional_jump(phase, 1.0, TPP) == TPP
    # and anything at or below the half cycle lands on zero
    for phase in range(0, HALF + 1, 77_773):
        assert apply_conventional_jump(phase, 1.0, TPP) == 0


def test_raising_response_quorum_only_removes_shifts():
    # same fixed pulse trace and phases, quorum 3 vs quorum 4 (degree 20 vs 21)
    low = quorum_n_mech(degree=20)
    high = quorum_n_mech(degree=21)
    now = 2 * TPP
    trace = [now - 400 + 7 * k for k in range(10)]
    for upto in range(len(trace)):
        state = make_state(int(0.75 * TPP), pulses=trace[:upto] + [now], now=now)
        if high.on_pulse(state, now).kind == "shift":
            assert low.on_pulse(state, now).kind == "shift"


# -- guarantee conditions ----------------------------------------------------


def test_conditions_quorum_n():
    topo = build_circle_deployment(24, 40, 39)
    rep = check_sync_conditions(topo, "quorum_n", 3)
    assert rep["degree_ok"]  # 20 > 16
    assert rep["degree_bound"] == 16
    assert rep["attacker_bound_ok"]
    assert rep["max_allowed_attackers"] == 3
    # one above the bound fails, the bound itself passes
    assert not check_sync_conditions(topo, "quorum_n", 4)["attacker_bound_ok"]
    assert check_sync_conditions(topo, "quorum_n", 3)["attacker_bound_ok"]


def test_conditions_quorum_degree():
    topo = build_circle_deployment(24, 40, 39)
    rep = check_sync_conditions(topo, "quorum_degree", 3)
    assert rep["degree_ok"]  # 20 > 18
    assert rep["degree_bound"] == 18
    assert not rep["attacker_bound_ok"]  # max allowed is floor(20/6)-1 = 2
    assert rep["max_allowed_attackers"] == 2
    rep0 = check_sync_conditions(topo, "quorum_degree", 0)
    assert rep0["degree_ok"] and rep0["attacker_bound_ok"]


def test_conditions_reject_bad_inputs():
    topo = build_circle_deployment(4, 40, 41)
    with pytest.raises(ValueError):
        check_sync_conditions(topo, "quorum_n", 4)  # m == n
    assert check_sync_conditions(topo, "conventional", 0) is None  # no guarantee to check
    with pytest.raises(ValueError):
        check_sync_conditions(topo, "bogus", 0)


def circle_networks(n):
    """Circle deployments of n nodes, one per reach: every network degree a circle can have."""
    chords = [math.sin(math.pi * k / n) for k in range(n // 2 + 1)] + [2.0]  # diameter 1
    # a range between the chords at index distance k and k + 1 links exactly k hops each way
    return [build_circle_deployment(n, 1.0, (chords[k] + chords[k + 1]) / 2)
            for k in range(n // 2 + 1)]


def test_quorum_formulas_match_the_paper_away_from_n24():
    # written out from README, with true division, so that N need not divide by 3 or 4
    for n in range(2, 41):
        networks = circle_networks(n)
        assert {t.network_degree for t in networks} == set(range(0, n, 2)) | {n - 1}
        for topo in networks:
            d = topo.network_degree
            expected = {
                KIND_QUORUM_N: (math.floor(2 * n / 3), d - math.floor(2 * n / 3) - 1),
                KIND_QUORUM_DEGREE: (math.floor(3 * n / 4), math.floor(d / 6) - 1),
            }
            for kind, (bound, max_allowed) in expected.items():
                for m in range(n):
                    rep = check_sync_conditions(topo, kind, m)
                    assert rep["degree_bound"] == bound
                    assert rep["max_allowed_attackers"] == max_allowed
                    assert rep["degree_ok"] == (d > bound)
                    assert rep["attacker_bound_ok"] == (m <= max_allowed)
    for n_known in range(1, 41):
        for degree in range(41):
            mech = build_mechanism({"kind": KIND_QUORUM_N, "n_known": n_known}, CLOCK, degree)
            assert mech.reset_over == math.floor(n_known / 3)
            assert mech.response_quorum == degree - math.floor(2 * n_known / 3) - 1
            mech = build_mechanism({"kind": KIND_QUORUM_DEGREE}, CLOCK, degree)
            assert mech.reset_over == math.floor(degree / 3) - 1  # resets on at least floor(d/3)
            assert mech.response_quorum == math.floor(degree / 6) - 1


def test_the_paper_conditions_imply_the_certificate():
    # with d > degree_bound(N) and M <= max_allowed_attackers, a receiver of any own
    # degree d_r in [d, N - 1] keeps a joint reset with d_r - M legitimate and M attacker
    # in-neighbours: when validate says "conditions met", every run stops at its first
    # joint reset
    kept = 0
    for n in range(2, 41):
        for topo in circle_networks(n):
            d = topo.network_degree
            for kind in (KIND_QUORUM_N, KIND_QUORUM_DEGREE):
                rep = check_sync_conditions(topo, kind, 0)
                if not rep["degree_ok"]:
                    continue
                for m in range(rep["max_allowed_attackers"] + 1):
                    for own in range(d, n):
                        mech = build_mechanism({"kind": kind, "n_known": n}, CLOCK, own)
                        assert mech.keeps_joint_reset(own - m, m), (kind, n, d, m, own)
                        kept += 1
    assert kept > 1000


def test_certificate_conditions_at_their_edges():
    mech = quorum_n_mech()  # reset_over 8, response_quorum 3
    assert mech.keeps_joint_reset(9, 3) and mech.keeps_joint_reset(9, 0)
    assert not mech.keeps_joint_reset(8, 0)  # (b): the joint fire must exceed reset_over
    assert not mech.keeps_joint_reset(20, 4)  # (a): four pulses in a window shift
    mech = quorum_degree_mech(5)  # reset_over 0, response_quorum -1
    assert mech.keeps_joint_reset(1, 0) and not mech.keeps_joint_reset(1, 1)


# -- decisions are time-invariant after the first period ------------------------


def random_decision_state(rng, now):
    """A state a mechanism may decide on at tick ``now``: the log holds the trailing half period."""
    pulses = sorted(rng.randrange(now - HALF, now + 1) for _ in range(rng.randrange(6)))
    if rng.random() < 0.5:  # the tight epsilon window, where the quorum rules turn
        pulses = sorted(pulses + [now - rng.randrange(EPS + 2) for _ in range(rng.randrange(8))])
    last_fire, last_zero = (rng.choice([None, now - rng.randrange(2 * EPS),
                                        now - rng.randrange(2 * TPP)]) for _ in range(2))
    return rng.randrange(TPP), pulses + [now], last_fire, last_zero


@pytest.mark.parametrize("make_mech", [quorum_n_mech, quorum_degree_mech,
                                       lambda: conventional_mech(0.3)],
                         ids=["quorum_n", "quorum_degree", "conventional"])
def test_decisions_are_unchanged_by_a_common_shift_of_every_tick(make_mech):
    # a decision reads now only through offset + now, through differences with
    # the ticks the state holds and through now >= ticks_per_period: shifting all
    # of them by k changes nothing
    rng = random.Random(2024)
    mech = make_mech()
    decisions = set()
    for _ in range(2000):
        now = rng.randrange(TPP, 4 * TPP)
        k = rng.choice([1, EPS, HALF - 1, TPP, rng.randrange(1, 50 * TPP)])
        phase, pulses, last_fire, last_zero = random_decision_state(rng, now)
        base = make_state(phase, pulses, last_fire, last_zero, now)
        moved = make_state(phase, [p + k for p in pulses],
                           None if last_fire is None else last_fire + k,
                           None if last_zero is None else last_zero + k, now + k)
        decided = tuple(decide(base, now) for decide in (mech.fires, mech.on_reach_top,
                                                        mech.on_pulse))
        assert decided == (mech.fires(moved, now + k), mech.on_reach_top(moved, now + k),
                           mech.on_pulse(moved, now + k))
        decisions.add(decided)
    assert len(decisions) >= 6  # the states reach both sides of every rule
