from random import Random

import pytest

from pcosync.adversary import (
    AttackSchedule,
    AttackSpec,
    ScheduleError,
    generate,
    schedules_to_jsonable,
    validate_schedule,
)
from pcosync.core import TickClock

CLOCK = TickClock()
TPP = CLOCK.ticks_per_period
EPS = CLOCK.epsilon_ticks


def test_validate_schedule():
    assert validate_schedule(AttackSchedule(0, (0, EPS + 1, 2 * EPS + 2)), CLOCK)
    assert not validate_schedule(AttackSchedule(0, (0, EPS)), CLOCK)  # gap not strictly greater
    assert validate_schedule(AttackSchedule(0, ()), CLOCK)  # silence is allowed
    assert not validate_schedule(AttackSchedule(0, (10, 5)), CLOCK)
    assert not validate_schedule(AttackSchedule(0, (-1, EPS + 5)), CLOCK)


def test_random_budget_reference_campaign():
    spec = AttackSpec(kind="random_budget", attacker_ids=(1, 8, 20),
                      total_pulses=40, horizon_ticks=3_500_000)
    schedules = generate(spec, CLOCK, Random(42))
    assert sum(len(s.ticks) for s in schedules) == 40
    for s in schedules:
        assert validate_schedule(s, CLOCK)
        assert all(0 <= t <= 3_500_000 for t in s.ticks)
    # dealt round-robin: counts balanced within one pulse
    counts = sorted(len(s.ticks) for s in schedules)
    assert counts in ([13, 13, 14],)


def test_random_budget_is_pure_function_of_seed():
    spec = AttackSpec(kind="random_budget", attacker_ids=(1, 8, 20),
                      total_pulses=40, horizon_ticks=3_500_000)
    a = generate(spec, CLOCK, Random(7))
    b = generate(spec, CLOCK, Random(7))
    c = generate(spec, CLOCK, Random(8))
    assert a == b
    assert a != c


def test_random_budget_capacity_bound():
    horizon = 10 * EPS
    cap = horizon // (EPS + 1) + 1
    spec = AttackSpec(kind="random_budget", attacker_ids=(0,),
                      total_pulses=cap + 1, horizon_ticks=horizon)
    with pytest.raises(ScheduleError):
        generate(spec, CLOCK, Random(1))
    ok = AttackSpec(kind="random_budget", attacker_ids=(0,),
                    total_pulses=cap, horizon_ticks=horizon)
    schedules = generate(ok, CLOCK, Random(1))
    assert validate_schedule(schedules[0], CLOCK)


def test_periodic():
    spec = AttackSpec(kind="periodic", attacker_ids=(3,),
                      period_ticks=TPP // 4, horizon_ticks=2 * TPP)
    (schedule,) = generate(spec, CLOCK, Random(0))
    assert schedule.ticks == tuple(range(0, 2 * TPP + 1, TPP // 4))
    assert len(schedule.ticks) == 9
    bad = AttackSpec(kind="periodic", attacker_ids=(3,),
                     period_ticks=EPS, horizon_ticks=TPP)
    with pytest.raises(ScheduleError):
        generate(bad, CLOCK, Random(0))


def test_stealthy_one_pulse_per_half_period():
    spec = AttackSpec(kind="stealthy", attacker_ids=(0, 1), horizon_ticks=4 * TPP)
    schedules = generate(spec, CLOCK, Random(5))
    half = TPP // 2
    for s in schedules:
        assert validate_schedule(s, CLOCK)
        assert len(s.ticks) == 8
        for k, t in enumerate(s.ticks):
            assert k * half <= t < (k + 1) * half


def test_scripted_passthrough_and_boundary():
    spec = AttackSpec(kind="scripted", attacker_ids=(2, 5),
                      scripted=((2, (0, 2 * EPS)), (5, ())))
    schedules = generate(spec, CLOCK, Random(0))
    assert schedules == [AttackSchedule(2, (0, 2 * EPS)), AttackSchedule(5, ())]
    bad = AttackSpec(kind="scripted", attacker_ids=(2,), scripted=((2, (0, EPS)),))
    with pytest.raises(ScheduleError):
        generate(bad, CLOCK, Random(0))  # gap exactly epsilon is not strictly greater


def test_spec_validation():
    with pytest.raises(ScheduleError):
        AttackSpec(kind="bogus", attacker_ids=(1,))
    with pytest.raises(ScheduleError):
        AttackSpec(kind="random_budget", attacker_ids=(1, 1), total_pulses=5, horizon_ticks=100)
    with pytest.raises(ScheduleError):
        AttackSpec(kind="periodic", attacker_ids=(1,), horizon_ticks=100)


def test_jsonable_round_trip():
    schedules = [AttackSchedule(8, (1, 20_002)), AttackSchedule(1, (5,))]
    data = schedules_to_jsonable(schedules)
    assert data == {"8": [1, 20_002], "1": [5]}
    # replayed as a scripted attack, the mapping gives back the same schedules
    scripted = tuple(sorted((int(a), tuple(ts)) for a, ts in data.items()))
    back = generate(AttackSpec(kind="scripted", attacker_ids=(1, 8), scripted=scripted),
                    CLOCK, Random(0))
    assert back == [AttackSchedule(1, (5,)), AttackSchedule(8, (1, 20_002))]
