"""Attack pulse-train generation and validation.

A compromised node may emit any pulse train whatsoever; the only physical
constraint is the channel's minimum separation, so consecutive emissions of
one attacker must be spaced strictly more than ``epsilon_ticks`` apart.
Generators cover a random budget spread over a window, strictly periodic
trains, a one-pulse-per-half-period stealthy pattern, and verbatim scripted
schedules. ``read_attack`` is the one reader of a scenario's attack section.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import ConfigError, TickClock, read_int

# the fields each attack kind takes besides "kind"; seed_scope defaults to "attack"
_ATTACK_FIELDS = {
    "scripted": ("ticks",),
    "random_budget": ("total_pulses", "horizon_ticks", "seed_scope"),
    "periodic": ("period_ticks", "horizon_ticks", "seed_scope"),
    "stealthy": ("horizon_ticks", "seed_scope"),
}

_MAX_RESAMPLES_PER_TICK = 1000


class ScheduleError(ConfigError):
    """Infeasible or invalid attack schedule specification."""


@dataclass(frozen=True)
class AttackSchedule:
    """Sorted emission ticks for one attacker, gaps strictly above epsilon."""

    attacker: int
    ticks: tuple[int, ...]


@dataclass(frozen=True)
class AttackSpec:
    """Declarative description of the attack traffic for a scenario."""

    kind: str
    attacker_ids: tuple[int, ...]
    total_pulses: int | None = None
    horizon_ticks: int | None = None
    period_ticks: int | None = None
    scripted: tuple[tuple[int, tuple[int, ...]], ...] = ()
    seed_scope: str = "attack"

    def __post_init__(self) -> None:
        if self.kind not in _ATTACK_FIELDS:
            raise ScheduleError(f"unknown attack kind {self.kind!r}")
        if len(set(self.attacker_ids)) != len(self.attacker_ids):
            raise ScheduleError("duplicate attacker ids")
        if self.kind in ("random_budget", "periodic", "stealthy"):
            if self.horizon_ticks is None or self.horizon_ticks < 0:
                raise ScheduleError(f"{self.kind} needs a nonnegative horizon_ticks")
        if self.kind == "random_budget" and (self.total_pulses is None or self.total_pulses < 0):
            raise ScheduleError("random_budget needs a nonnegative total_pulses")
        if self.kind == "periodic" and (self.period_ticks is None or self.period_ticks <= 0):
            raise ScheduleError("periodic needs a positive period_ticks")


def read_attack(section, attacker_ids: tuple[int, ...]) -> tuple[AttackSpec, dict]:
    """The spec of an ``attackers.attack`` config section and its canonical description.

    The section takes exactly the fields its kind lists in ``_ATTACK_FIELDS``;
    :class:`AttackSpec` rejects a missing field or a value out of range.
    """
    kind = section.get("kind") if isinstance(section, dict) else None
    fields = _ATTACK_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigError(f"unknown attack kind {kind!r}")
    unknown = set(section) - {"kind", *fields}
    if unknown:
        raise ConfigError(f"unknown {kind} attack fields: {sorted(unknown)}")
    if kind == "scripted":
        ticks = section.get("ticks")
        if not isinstance(ticks, dict):
            raise ConfigError("scripted attack needs a 'ticks' mapping")
        for a, ts in ticks.items():
            if not (str(a).isdecimal() and isinstance(ts, list)):
                raise ConfigError(f"scripted ticks must map attacker ids to tick lists (key {a!r})")
        scripted = tuple(sorted(
            (int(a), tuple(read_int(t, "attackers.attack.ticks") for t in ts))
            for a, ts in ticks.items()
        ))
        if not {a for a, _ in scripted} <= set(attacker_ids):
            raise ConfigError("scripted ticks reference a non-attacker id")
        spec = AttackSpec(kind, attacker_ids, scripted=scripted)
        return spec, {"kind": kind, "ticks": {str(a): list(ts) for a, ts in scripted}}
    scope = section.get("seed_scope", "attack")
    if not isinstance(scope, str):
        raise ConfigError(f"attackers.attack.seed_scope must be a string, not {scope!r}")
    numbers = {f: read_int(section[f], f"attackers.attack.{f}")
               for f in fields if f in section and f != "seed_scope"}
    spec = AttackSpec(kind, attacker_ids, seed_scope=scope, **numbers)
    return spec, {"kind": kind, **{f: getattr(spec, f) for f in fields}}


def validate_schedule(schedule: AttackSchedule, clock: TickClock) -> bool:
    """True iff ticks are sorted, nonnegative and separated by more than epsilon.

    An empty schedule is valid: staying silent is allowed behavior.
    """
    eps = clock.epsilon_ticks
    prev = None
    for t in schedule.ticks:
        if not isinstance(t, int) or t < 0:
            return False
        if prev is not None and t - prev <= eps:
            return False
        prev = t
    return True


def _capacity(horizon: int, eps: int) -> int:
    # densest legal train: one pulse every eps+1 ticks
    return horizon // (eps + 1) + 1


def _enforce_separation(ticks: list[int], eps: int, horizon: int, rng: Random) -> list[int]:
    """Resample later ticks of too-close pairs until all gaps exceed epsilon."""
    ticks.sort()
    budget = _MAX_RESAMPLES_PER_TICK * max(1, len(ticks))
    while True:
        for i in range(len(ticks) - 1):
            if ticks[i + 1] - ticks[i] <= eps:
                break
        else:
            return ticks
        budget -= 1
        if budget <= 0:
            raise ScheduleError("could not satisfy pulse separation within the resample budget")
        ticks[i + 1] = rng.randrange(horizon + 1)
        ticks.sort()


def generate(spec: AttackSpec, clock: TickClock, rng: Random) -> list[AttackSchedule]:
    """Produce one validated schedule per attacker, deterministically from rng."""
    eps = clock.epsilon_ticks
    ids = list(spec.attacker_ids)
    if spec.kind == "scripted":
        scripted = dict(spec.scripted)
        schedules = [AttackSchedule(a, tuple(scripted.get(a, ()))) for a in ids]
        for s in schedules:
            if not validate_schedule(s, clock):
                raise ScheduleError(
                    f"scripted schedule for attacker {s.attacker} violates the separation constraint"
                )
        return schedules

    horizon = spec.horizon_ticks
    if spec.kind == "periodic":
        if spec.period_ticks <= eps:
            raise ScheduleError("periodic attack period must exceed epsilon_ticks")
        ticks = tuple(range(0, horizon + 1, spec.period_ticks))
        return [AttackSchedule(a, ticks) for a in ids]

    if spec.kind == "stealthy":
        half = clock.ticks_per_period // 2
        schedules = []
        for a in ids:
            ticks: list[int] = []
            start = 0
            while start < horizon:
                end = min(start + half - 1, horizon)
                t = rng.randrange(start, end + 1)
                attempts = 0
                while ticks and t - ticks[-1] <= eps:
                    attempts += 1
                    if attempts > _MAX_RESAMPLES_PER_TICK:
                        raise ScheduleError("stealthy window too narrow for the separation constraint")
                    t = rng.randrange(start, end + 1)
                ticks.append(t)
                start += half
            schedules.append(AttackSchedule(a, tuple(ticks)))
        return schedules

    # random_budget: draw ticks uniformly over [0, horizon], deal them
    # round-robin over a shuffled attacker order, then repair separations
    if not ids:
        if spec.total_pulses:
            raise ScheduleError("random_budget with pulses but no attackers")
        return []
    per_attacker_max = -(-spec.total_pulses // len(ids))  # ceil
    if per_attacker_max > _capacity(horizon, eps):
        raise ScheduleError(
            f"budget of {spec.total_pulses} pulses over {len(ids)} attackers exceeds the "
            f"channel capacity of {_capacity(horizon, eps)} pulses per attacker"
        )
    draws = [rng.randrange(horizon + 1) for _ in range(spec.total_pulses)]
    rng.shuffle(draws)
    order = list(ids)
    rng.shuffle(order)
    buckets: dict[int, list[int]] = {a: [] for a in ids}
    for k, t in enumerate(draws):
        buckets[order[k % len(order)]].append(t)
    schedules = []
    for a in ids:
        ticks = _enforce_separation(buckets[a], eps, horizon, rng)
        schedules.append(AttackSchedule(a, tuple(ticks)))
    return schedules


def schedules_to_jsonable(schedules) -> dict:
    """Plain {attacker-id: [ticks...]} mapping for JSON dumps and summaries."""
    return {str(s.attacker): list(s.ticks) for s in schedules}

