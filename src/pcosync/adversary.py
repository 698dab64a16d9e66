"""Attack pulse-train generation.

A compromised node may emit any pulse train whatsoever; the only physical
constraint is the channel's minimum separation, so consecutive emissions of
one attacker must be spaced strictly more than ``epsilon_ticks`` apart.
``Simulation`` is the one check of that rule, for every schedule it runs.
``read_attack`` is the one reader of a scenario's attack section: it checks
the section and returns its canonical description, the dict the config
digest is built from. ``generate`` builds the schedules from a description:
verbatim scripted trains, or a random budget spread over a window. Any
legal train, periodic ones included, is a scripted train, and every run's
``attack_schedules`` replay as one. ``generate`` does not check the rule: a
scripted train passes through to ``Simulation``, which rejects an illegal
one. It raises ``ConfigError`` only when a random budget has no attacker
to carry it or exceeds the channel's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import ConfigError, TickClock, read_int, read_kind, read_mapping

# the fields each attack kind takes besides "kind"; seed_scope defaults to SEED_SCOPE
_ATTACK_FIELDS = {
    "scripted": ("ticks",),
    "random_budget": ("total_pulses", "horizon_ticks", "seed_scope"),
}

SEED_SCOPE = "attack"
_MAX_RESAMPLES_PER_TICK = 1000
# generate draws and sorts the whole budget: ~2 s at the cap on a sparse horizon (README)
MAX_TOTAL_PULSES = 1_000_000


@dataclass(frozen=True)
class AttackSchedule:
    """Emission ticks for one attacker, as ``generate`` built them.

    The type does not promise the channel rule (int ticks from 0 on, each
    more than ``epsilon_ticks`` after the last): a ``scripted`` train is
    returned unchecked, and ``Simulation.__init__`` is the one check of the
    rule.
    """

    attacker: int
    ticks: tuple[int, ...]


def read_attack(section, attacker_ids: tuple[int, ...]) -> dict:
    """The canonical description of an ``attackers.attack`` config section.

    This is the one check of an attack section: the kind and its fields
    (``core.read_kind`` over ``_ATTACK_FIELDS``), their types and ranges,
    and, for ``scripted``, that each tick list belongs to a distinct attacker.
    """
    kind = read_kind(section, "attack", _ATTACK_FIELDS, optional={"seed_scope"})
    if kind == "scripted":
        scripted = {}
        for a, ts in read_mapping(section["ticks"], "attackers.attack.ticks").items():
            if not (str(a).isdecimal() and isinstance(ts, list)):
                raise ConfigError(f"scripted ticks must map attacker ids to tick lists (key {a!r})")
            if int(a) in scripted:
                raise ConfigError(f"scripted ticks name attacker {int(a)} twice")
            scripted[int(a)] = [read_int(t, "attackers.attack.ticks") for t in ts]
        if not set(scripted) <= set(attacker_ids):
            raise ConfigError("scripted ticks reference a non-attacker id")
        return {"kind": kind, "ticks": {str(a): scripted[a] for a in sorted(scripted)}}
    scope = section.get("seed_scope", SEED_SCOPE)
    if not isinstance(scope, str):
        raise ConfigError(f"attackers.attack.seed_scope must be a string, not {scope!r}")
    return {
        "kind": kind,
        "total_pulses": read_int(section["total_pulses"], "attackers.attack.total_pulses",
                                 least=0, most=MAX_TOTAL_PULSES),
        "horizon_ticks": read_int(section["horizon_ticks"], "attackers.attack.horizon_ticks",
                                  least=0),
        "seed_scope": scope,
    }


def _capacity(horizon: int, eps: int) -> int:
    # densest legal train: one pulse every eps+1 ticks
    return horizon // (eps + 1) + 1


def _enforce_separation(ticks: list[int], eps: int, horizon: int, rng: Random) -> list[int]:
    """Resample later ticks of too-close pairs until all gaps exceed epsilon.

    A train near the channel's capacity may exhaust the resample budget;
    it is then drawn directly: k sorted distinct values y from the horizon
    less the k-1 gaps of eps, and tick j is y_j + j*eps, so every gap
    exceeds eps and the last tick is at most ``horizon``.
    """
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
            k = len(ticks)
            y = sorted(rng.sample(range(horizon - (k - 1) * eps + 1), k))
            return [y_j + j * eps for j, y_j in enumerate(y)]
        ticks[i + 1] = rng.randrange(horizon + 1)
        ticks.sort()


def generate(description: dict, attacker_ids, clock: TickClock,
             rng: Random) -> list[AttackSchedule]:
    """One schedule per attacker, deterministically from rng.

    ``description`` is an attack description as :func:`read_attack` returns it.
    """
    eps = clock.epsilon_ticks
    ids = list(attacker_ids)
    kind = description["kind"]
    if kind == "scripted":
        scripted = description["ticks"]
        return [AttackSchedule(a, tuple(scripted.get(str(a), ()))) for a in ids]

    # random_budget: draw ticks uniformly over [0, horizon], deal them
    # round-robin over a shuffled attacker order, then repair separations
    horizon = description["horizon_ticks"]
    total = description["total_pulses"]
    if not ids:
        if total:
            raise ConfigError("random_budget with pulses but no attackers")
        return []
    per_attacker_max = -(-total // len(ids))  # ceil
    if per_attacker_max > _capacity(horizon, eps):
        raise ConfigError(
            f"budget of {total} pulses over {len(ids)} attackers exceeds the "
            f"channel capacity of {_capacity(horizon, eps)} pulses per attacker"
        )
    draws = [rng.randrange(horizon + 1) for _ in range(total)]
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

