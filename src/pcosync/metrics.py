"""Analysis of completed runs: containing arc, synchronization detection,
collective period measurement and per-run summaries.

Phase synchronization is an exact property here: phases are integer ticks
and the containing arc is computed in ticks, so "arc == 0" is an integer
comparison, never a tolerance test. Radians appear only in reports. The
summary's verdict comes from one backward pass over the instant log.
"""

from __future__ import annotations

from .core import TWO_PI, TickClock
from .engine import FIRED, RESET_TO_ZERO, SimulationResult


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


def _read_sync(result: SimulationResult) -> tuple[int | None, list[int]]:
    """The sync tick and the joint-fire ticks after it, or every joint-fire tick without one.

    The sync tick is the earliest at which every legitimate oscillator resets
    to zero together, such that every instant from it on leaves the offsets
    equal (a zero arc) and every legitimate fire after it is joint and, with
    two or more oscillators, one period after the one before: a lone one
    syncs at its first reset to zero. What holds from a tick holds from every
    later one, so the pass stops at the first failure, unless no sync tick is
    known: then it walks on to collect every joint fire.
    """
    legit_set = set(result.legit_ids)
    n_legit = len(legit_set)
    tpp = result.clock.ticks_per_period
    sync = None
    checking = True
    joint = []  # joint-fire ticks, latest first
    for tick, offsets, events in reversed(result.instants):
        fires = resets = 0
        for kind, node in events:
            if kind == FIRED:
                fires += node in legit_set
            elif kind == RESET_TO_ZERO:
                resets += 1
        if checking:
            checking = min(offsets) == max(offsets)
            if checking and resets == n_legit:
                sync = tick
            if checking and fires:
                gap_ok = n_legit == 1 or not joint or joint[-1] - tick == tpp
                checking = fires == n_legit and gap_ok
        if not checking and sync is not None:
            break
        if fires == n_legit:
            joint.append(tick)
    joint.reverse()
    return sync, joint if sync is None else [t for t in joint if t > sync]


def detect_sync(result: SimulationResult) -> int | None:
    """Earliest tick from which the legitimate oscillators stay exactly synchronized, or None."""
    return _read_sync(result)[0]


def _round9(x: float) -> float:
    # reports print radians/seconds with 9 significant digits
    return float(f"{x:.9g}")


def summarize_run(
    result: SimulationResult,
    *,
    seed: int,
    config_digest: str,
    mechanism: str,
    conditions: dict | None,
    schedules_jsonable: dict,
) -> dict:
    """The summary of one run: the mapping ``summary.json`` holds, key for key.

    Floats are rounded to 9 significant digits; ``conditions`` is stored as
    given. ``periods_exact`` is false only for a lone oscillator: with two or
    more, the pass rejects any off-period gap after ``sync_tick``, so it is
    no evidence beyond ``sync_tick``.
    """
    clock = result.clock
    tpp = clock.ticks_per_period
    # joint-fire gaps after synchronization; without it, whatever joint rhythm exists
    sync_tick, ticks = _read_sync(result)
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
        "conditions": conditions,
        "sync_tick": sync_tick,
        "sync_seconds": None if sync_tick is None else _round9(clock.ticks_to_seconds(sync_tick)),
        "final_arc_rad": _round9(containing_arc(result.final_offsets, clock)),
        "collective_periods": periods,
        "periods_exact": periods_exact,
        "initial_phases_ticks": list(result.initial_offsets),
        "attack_schedules": schedules_jsonable,
    }
