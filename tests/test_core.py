import math

import pytest

from oracles import floor_split_holds
from pcosync.core import TWO_PI, ConfigError, TickClock, read_int, read_number


def test_floor_split_examples():
    # (3, 1, 24): floor(24/3)=8 >= 1*8, and 8 + floor(48/3) + 1 = 25 >= 24
    assert floor_split_holds(3, 1, 24)
    assert floor_split_holds(3, 2, 24)


def test_floor_split_precondition_errors():
    with pytest.raises(ValueError):
        floor_split_holds(3, 3, 10)  # x > y violated
    with pytest.raises(ValueError):
        floor_split_holds(2, 0, 10)
    with pytest.raises(ValueError):
        floor_split_holds(5, 2, 0)


def test_floor_split_small_scan():
    # the full 1..50 / 1..200 scan lives in the acceptance suite
    for x in range(2, 21):
        for y in range(1, x):
            for q in range(1, 60):
                assert floor_split_holds(x, y, q)


def test_clock_validation():
    with pytest.raises(ValueError):
        TickClock(ticks_per_period=999_999)  # odd
    with pytest.raises(ValueError):
        TickClock(ticks_per_period=0)
    with pytest.raises(ValueError):
        TickClock(ticks_per_period=100, epsilon_ticks=50)  # eps must be < tpp/2
    with pytest.raises(ValueError):
        TickClock(epsilon_ticks=0)
    clock = TickClock()
    assert clock.ticks_per_period == 1_000_000
    assert clock.epsilon_ticks == 10_000


def test_rad_to_ticks_exact_landmarks():
    clock = TickClock()
    assert clock.rad_to_ticks(TWO_PI) == 1_000_000
    assert clock.rad_to_ticks(math.pi) == 500_000
    assert clock.rad_to_ticks(0.0) == 0


def test_rad_to_ticks_range_check():
    clock = TickClock()
    with pytest.raises(ValueError):
        clock.rad_to_ticks(-0.1)
    with pytest.raises(ValueError):
        clock.rad_to_ticks(TWO_PI + 0.1)


def test_rad_to_ticks_monotone():
    clock = TickClock(ticks_per_period=1000, epsilon_ticks=10)
    angles = [k * TWO_PI / 7919 for k in range(7920)]
    ticks = [clock.rad_to_ticks(min(a, TWO_PI)) for a in angles]
    assert all(b >= a for a, b in zip(ticks, ticks[1:]))


def test_tick_radian_round_trip():
    # at unit angular speed a phase of x rad takes x seconds, so
    # ticks_to_seconds is the inverse of rad_to_ticks
    clock = TickClock()
    one_tick = TWO_PI / clock.ticks_per_period
    x = 0.0
    while x <= TWO_PI:
        assert abs(clock.ticks_to_seconds(clock.rad_to_ticks(x)) - x) < one_tick
        x += 0.0137
    assert clock.ticks_to_seconds(clock.rad_to_ticks(TWO_PI)) == TWO_PI


def test_ticks_to_seconds_matches_unit_speed():
    clock = TickClock()
    # phase advances one radian per second, so a full period is 2*pi seconds
    assert clock.ticks_to_seconds(clock.ticks_per_period) == pytest.approx(TWO_PI)
    assert clock.ticks_to_seconds(0) == 0.0


def test_read_number_rejects_an_int_beyond_float_range():
    # float(10**400) overflows; the reader reports it like any other non-finite number
    with pytest.raises(ConfigError, match="must be a finite number"):
        read_number(10**400, "mechanism.coupling")
    assert read_number(10**300, "x") == 1e300


def test_read_int_accepts_each_bound():
    assert read_int(0, "x", least=0, most=1000) == 0
    assert read_int(1000, "x", least=0, most=1000) == 1000
    # an integral float is converted before the range check
    value = read_int(1e3, "x", most=1000)
    assert value == 1000 and type(value) is int


@pytest.mark.parametrize("value,bounds,message", [
    (-1, {"least": 0}, "x must be at least 0, not -1"),
    (1001, {"most": 1000}, "x must be at most 1000, not 1001"),
    (1001.0, {"least": 0, "most": 1000}, "x must be at most 1000, not 1001"),
])
def test_read_int_rejects_one_past_a_bound(value, bounds, message):
    with pytest.raises(ConfigError) as info:
        read_int(value, "x", **bounds)
    assert str(info.value) == message
