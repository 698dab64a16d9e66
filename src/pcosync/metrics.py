"""Analysis of completed runs: containing arc, synchronization detection,
collective period measurement and per-run summaries.

Phase synchronization is an exact property here: phases are integer ticks
and the containing arc is computed in ticks, so "arc == 0" is an integer
comparison, never a tolerance test. Radians appear only in reports.
"""

from __future__ import annotations

from .core import TWO_PI, TickClock
from .engine import FIRED, RESET_TO_ZERO, SimulationResult
from .mechanisms import ConditionReport


def containing_arc_ticks(phases, ticks_per_period: int) -> int:
    """Length in ticks of the shortest circle arc containing every phase.

    Complement of the largest gap between circularly consecutive phases;
    zero for a single phase or all-equal phases.
    """
    if not phases:
        raise ValueError("containing arc of an empty phase set is undefined")
    pts = sorted(p % ticks_per_period for p in phases)
    max_gap = pts[0] + ticks_per_period - pts[-1]  # wraparound gap
    for a, b in zip(pts, pts[1:]):
        if b - a > max_gap:
            max_gap = b - a
    return ticks_per_period - max_gap


def containing_arc(phases, clock: TickClock) -> float:
    """Containing arc in radians (exact tick arithmetic underneath)."""
    return containing_arc_ticks(phases, clock.ticks_per_period) / clock.ticks_per_period * TWO_PI


def _tally(events, legit_set) -> tuple[int, int]:
    """(legitimate fires, resets to zero) among one instant's events."""
    fires = resets = 0
    for kind, node in events:
        if kind == FIRED:
            fires += node in legit_set
        elif kind == RESET_TO_ZERO:
            resets += 1
    return fires, resets


def detect_sync(result: SimulationResult) -> int | None:
    """Earliest tick after which the legitimate population is exactly synchronized.

    The tick must see every legitimate oscillator reset to zero together;
    afterwards every snapshot must have a zero containing arc and every
    legitimate firing must happen jointly, at instants spaced exactly one
    period apart. A single-oscillator network is synchronized at its first
    reset to zero by convention.

    Each condition holding at a tick holds at every later one, so a backward
    pass stops at the last nonzero arc, non-joint fire or off-period gap.
    With two or more legitimate oscillators every joint-fire gap after the
    returned tick is therefore exactly one period.
    """
    legit_set = set(result.legit_ids)
    n_legit = len(legit_set)

    if n_legit == 1:
        return next((e.tick for e in result.instants if _tally(e.events, legit_set)[1]), None)

    tpp = result.clock.ticks_per_period
    sync = next_fire = None
    for entry in reversed(result.instants):
        offsets = entry.offsets
        if min(offsets) != max(offsets):
            break
        fires, resets = _tally(entry.events, legit_set)
        if resets == n_legit:
            sync = entry.tick
        if fires:
            if fires != n_legit or (next_fire is not None and next_fire - entry.tick != tpp):
                break
            next_fire = entry.tick
    return sync


def common_fire_ticks(result: SimulationResult, after: int = -1) -> list[int]:
    """Ticks strictly after `after` at which every legitimate oscillator fired."""
    legit_set = set(result.legit_ids)
    return [
        e.tick for e in result.instants
        if e.tick > after and _tally(e.events, legit_set)[0] == len(legit_set)
    ]


def _round9(x: float) -> float:
    # reports print radians/seconds with 9 significant digits
    return float(f"{x:.9g}")


def summarize_run(
    result: SimulationResult,
    *,
    seed: int,
    config_digest: str,
    mechanism: str,
    conditions: ConditionReport | None,
    schedules_jsonable: dict,
) -> dict:
    """The summary of one run: the mapping ``summary.json`` holds, key for key.

    Floats are rounded to 9 significant digits and ``conditions`` is the
    report's ``to_dict()`` or None. With two or more legitimate oscillators,
    ``periods_exact`` is never false once ``sync_tick`` is set (see
    :func:`detect_sync`), so it is no evidence beyond ``sync_tick``; the
    acceptance tests' ``verify_run_artifacts`` is the independent check.
    """
    clock = result.clock
    tpp = clock.ticks_per_period
    sync_tick = detect_sync(result)
    # joint-fire gaps after synchronization; without it, whatever joint rhythm exists
    ticks = common_fire_ticks(result, -1 if sync_tick is None else sync_tick)
    periods = [b - a for a, b in zip(ticks, ticks[1:])]
    periods_exact = all(g == tpp for g in periods) if sync_tick is not None and periods else None
    return {
        "seed": seed,
        "config_digest": config_digest,
        "mechanism": mechanism,
        "n": len(result.legit_ids) + len(result.attacker_ids),
        "legitimate_ids": list(result.legit_ids),
        "attacker_ids": list(result.attacker_ids),
        "horizon_ticks": result.horizon,
        "conditions": None if conditions is None else conditions.to_dict(),
        "sync_tick": sync_tick,
        "sync_seconds": None if sync_tick is None else _round9(clock.ticks_to_seconds(sync_tick)),
        "final_arc_rad": _round9(containing_arc(result.final_offsets, clock)),
        "collective_periods": periods,
        "periods_exact": periods_exact,
        "initial_phases_ticks": list(result.initial_offsets),
        "attack_schedules": schedules_jsonable,
    }
