"""Integer time base shared by the whole simulator.

All simulation time and all oscillator phases are integer ticks. One
free-running oscillation period (2*pi seconds of phase at unit angular
speed) spans ``ticks_per_period`` ticks, so simultaneity, interval
endpoints and phase equality are exact integer comparisons; floats appear
only at the reporting boundary. ``ConfigError`` and the config readers here
are shared by every section reader, and ``TickClock`` raises it itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
MAX_TICKS_PER_PERIOD = 2**53  # every tick of a period is exact as a float


class ConfigError(ValueError):
    """Malformed or inconsistent scenario/sweep configuration."""


@dataclass(frozen=True)
class TickClock:
    """One oscillation period in ticks, and its tick-to-second conversion.

    ``ticks_per_period`` must be even so that the half-cycle reset target
    (pi rad) is tick-exact, and at most ``MAX_TICKS_PER_PERIOD``.
    ``epsilon_ticks`` is the minimum separation a channel allows between two
    consecutive pulses; it must be positive and strictly below half a period
    for the pulse-train model to make sense.
    """

    ticks_per_period: int = 1_000_000
    epsilon_ticks: int = 10_000

    def __post_init__(self) -> None:
        tpp = self.ticks_per_period
        if not isinstance(tpp, int) or not 0 < tpp <= MAX_TICKS_PER_PERIOD or tpp % 2 != 0:
            raise ConfigError("clock.ticks_per_period must be a positive even integer, "
                              "at most 2**53")
        eps = self.epsilon_ticks
        if not isinstance(eps, int) or eps <= 0 or eps >= tpp // 2:
            raise ConfigError("clock.epsilon_ticks must lie in (0, ticks_per_period/2)")

    def ticks_to_seconds(self, ticks: int) -> float:
        # unit angular speed: one period lasts 2*pi seconds
        return ticks / self.ticks_per_period * TWO_PI


def read_int(value, field: str, least: int | None = None, most: int | None = None) -> int:
    """A config integer in [least, most]; an integral float such as 1e6 counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigError(f"{field} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{field} must be at least {least}, not {value}")
    if most is not None and value > most:
        raise ConfigError(f"{field} must be at most {most}, not {value}")
    return value


def read_fields(value, name: str, fields) -> dict:
    """A config section: a mapping with no keys beyond ``fields``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    return value


def read_kind(value, name: str, kinds: dict, optional=()) -> str:
    """The kind of a config section that ``kinds`` maps to the fields it takes besides ``kind``.

    The section holds ``kind`` and only that kind's fields, and every field
    that is not ``optional``.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    kind = value.get("kind")
    fields = kinds.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigError(f"unknown {name} kind {kind!r}")
    read_fields(value, f"{kind} {name}", {"kind", *fields})
    missing = [f for f in fields if f not in value and f not in optional]
    if missing:
        raise ConfigError(f"{kind} {name} needs {missing}")
    return kind


def read_number(value, field: str) -> float:
    """A finite config number as a float; a bool, a string or an int beyond float range is not one."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float, such as a 401-digit JSON literal
        pass
    raise ConfigError(f"{field} must be a finite number, not {value!r}")
