import pytest

from oracles import floor_split_holds
from pcosync.core import (
    TWO_PI,
    ConfigError,
    TickClock,
    read_fields,
    read_int,
    read_kind,
    read_number,
)


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


KINDS = {"circle": ("n", "range"), "scripted": ("ticks", "seed_scope")}


def test_read_fields_and_read_kind_accept_a_well_formed_section():
    assert read_fields({"a": 1}, "x", {"a", "b"}) == {"a": 1}
    assert read_kind({"kind": "circle", "n": 8, "range": 3}, "x", KINDS) == "circle"
    # a missing optional field passes
    section = {"kind": "scripted", "ticks": {}}
    assert read_kind(section, "x", KINDS, optional={"seed_scope"}) == "scripted"


@pytest.mark.parametrize("read,message", [
    (lambda: read_fields([], "x", {"a"}), "x must be a mapping"),
    (lambda: read_fields({"a": 1, "c": 2, "b": 3}, "x", {"a"}), "unknown x fields: ['b', 'c']"),
    (lambda: read_kind(None, "x", KINDS), "x must be a mapping"),
    (lambda: read_kind({"kind": "square"}, "x", KINDS), "unknown x kind 'square'"),
    (lambda: read_kind({"kind": 5}, "x", KINDS), "unknown x kind 5"),
    (lambda: read_kind({"n": 8}, "x", KINDS), "unknown x kind None"),
    (lambda: read_kind({"kind": "circle", "n": 8, "range": 3, "d": 4}, "x", KINDS),
     "unknown circle x fields: ['d']"),
    (lambda: read_kind({"kind": "circle", "n": 8}, "x", KINDS), "circle x needs ['range']"),
    (lambda: read_kind({"kind": "scripted"}, "x", KINDS, optional={"seed_scope"}),
     "scripted x needs ['ticks']"),
], ids=["fields-not-a-mapping", "fields-unknown", "kind-not-a-mapping", "kind-unknown",
        "kind-not-a-string", "kind-missing", "kind-unknown-field", "kind-missing-field",
        "kind-missing-required-beside-optional"])
def test_section_readers_reject_with_one_message_form(read, message):
    with pytest.raises(ConfigError) as info:
        read()
    assert str(info.value) == message
