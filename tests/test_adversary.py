from random import Random

import pytest

from pcosync.adversary import AttackSchedule, generate, read_attack, schedules_to_jsonable
from pcosync.core import ConfigError, TickClock

from oracles import eps_separated

CLOCK = TickClock()
EPS = CLOCK.epsilon_ticks


def schedules_of(ids, seed=0, **section):
    """The schedules an ``attackers.attack`` section gives attackers ``ids``."""
    return generate(read_attack(section, ids), ids, CLOCK, Random(seed))


def test_random_budget_reference_campaign():
    schedules = schedules_of((1, 8, 20), 42, kind="random_budget",
                             total_pulses=40, horizon_ticks=3_500_000)
    assert sum(len(s.ticks) for s in schedules) == 40
    for s in schedules:
        assert eps_separated(s.ticks, EPS)
        assert all(0 <= t <= 3_500_000 for t in s.ticks)
    # dealt round-robin: counts balanced within one pulse
    counts = sorted(len(s.ticks) for s in schedules)
    assert counts in ([13, 13, 14],)


def test_random_budget_is_pure_function_of_seed():
    section = {"kind": "random_budget", "total_pulses": 40, "horizon_ticks": 3_500_000}
    a = schedules_of((1, 8, 20), 7, **section)
    b = schedules_of((1, 8, 20), 7, **section)
    c = schedules_of((1, 8, 20), 8, **section)
    assert a == b
    assert a != c


def test_random_budget_capacity_bound():
    horizon = 10 * EPS
    cap = horizon // (EPS + 1) + 1
    with pytest.raises(ConfigError):
        schedules_of((0,), 1, kind="random_budget", total_pulses=cap + 1, horizon_ticks=horizon)
    schedules = schedules_of((0,), 1, kind="random_budget", total_pulses=cap,
                             horizon_ticks=horizon)
    assert eps_separated(schedules[0].ticks, EPS)


@pytest.mark.parametrize("seed", range(5))
def test_random_budget_at_channel_capacity(seed):
    # 70 pulses over 700,000 ticks is exactly the capacity: the resampler runs
    # out of budget, and the train is drawn directly instead
    horizon = 700_000
    assert horizon // (EPS + 1) + 1 == 70
    (schedule,) = schedules_of((0,), seed, kind="random_budget", total_pulses=70,
                               horizon_ticks=horizon)
    assert len(schedule.ticks) == 70
    assert eps_separated(schedule.ticks, EPS)
    assert 0 <= schedule.ticks[0] and schedule.ticks[-1] <= horizon


def test_scripted_passthrough_and_boundary():
    schedules = schedules_of((2, 5), kind="scripted", ticks={"2": [0, 2 * EPS], "5": []})
    assert schedules == [AttackSchedule(2, (0, 2 * EPS)), AttackSchedule(5, ())]
    # a gap of exactly epsilon passes through too: Simulation rejects it
    (scripted,) = schedules_of((2,), kind="scripted", ticks={"2": [0, EPS]})
    assert scripted.ticks == (0, EPS) and not eps_separated(scripted.ticks, EPS)


@pytest.mark.parametrize("section,fragment", [
    ({"kind": "bogus"}, "bogus"),
    ({"kind": "periodic", "period_ticks": 10_001, "horizon_ticks": 100},
     "unknown attack kind 'periodic'"),
    ({"kind": "stealthy", "horizon_ticks": 100}, "unknown attack kind 'stealthy'"),
    ({"kind": "random_budget", "total_pulses": -1, "horizon_ticks": 100}, "total_pulses"),
    ({"kind": "random_budget", "total_pulses": 5, "horizon_ticks": -1}, "horizon_ticks"),
    ({"kind": "scripted", "ticks": {"2": [5]}}, "scripted ticks reference a non-attacker id"),
])
def test_read_attack_rejects(section, fragment):
    with pytest.raises(ConfigError) as err:
        read_attack(section, (1,))
    assert fragment in str(err.value)


def test_random_budget_without_attackers():
    # only a budget of zero pulses has no one to send it
    assert schedules_of((), kind="random_budget", total_pulses=0, horizon_ticks=100) == []
    with pytest.raises(ConfigError, match="^random_budget with pulses but no attackers$"):
        schedules_of((), kind="random_budget", total_pulses=1, horizon_ticks=100)


def test_jsonable_round_trip():
    schedules = [AttackSchedule(8, (1, 20_002)), AttackSchedule(1, (5,))]
    data = schedules_to_jsonable(schedules)
    assert data == {"8": [1, 20_002], "1": [5]}
    # replayed as a scripted attack, the mapping gives back the same schedules
    back = schedules_of((1, 8), kind="scripted", ticks=data)
    assert back == [AttackSchedule(1, (5,)), AttackSchedule(8, (1, 20_002))]
