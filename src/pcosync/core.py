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
    """Tick/radian/second conversions for one oscillation period.

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

    def rad_to_ticks(self, angle: float) -> int:
        """Nearest tick for an angle in [0, 2*pi].

        2*pi maps exactly to ticks_per_period and pi exactly to half of it;
        the mapping is monotone nondecreasing.
        """
        if not 0.0 <= angle <= TWO_PI:
            raise ValueError(f"angle {angle!r} outside [0, 2*pi]")
        return round(angle / TWO_PI * self.ticks_per_period)

    def ticks_to_seconds(self, ticks: int) -> float:
        # Unit angular speed: one period lasts 2*pi seconds, so the scale
        # factor is the same as for radians.
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


def read_number(value, field: str) -> float:
    """A finite config number as a float; a bool, a string or an int beyond float range is not one."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float, such as a 401-digit JSON literal
        pass
    raise ConfigError(f"{field} must be a finite number, not {value!r}")
