"""Reference computations the tests check the simulator against.

They restate a documented rule directly (a float response curve, a floor
identity, a reachability search, an arc per snapshot, the channel's pulse
separation, the run files as plain dumps of the derived views, the
synchronization verdict from the records and snapshots) and are not part of
the package: nothing in ``src/`` needs them to run a scenario.
"""

import json
import math
from collections import defaultdict

from pcosync.core import TWO_PI
from pcosync.engine import FIRED, RESET_TO_ZERO
from pcosync.metrics import containing_arc_ticks


def prf(phase: float) -> float:
    """Phase response curve: -phase on [0, pi], 2*pi - phase on (pi, 2*pi]."""
    if not 0.0 <= phase <= TWO_PI:
        raise ValueError(f"phase {phase!r} outside [0, 2*pi]")
    if phase <= math.pi:
        return -phase
    return TWO_PI - phase


def floor_split_holds(x: int, y: int, q: int) -> bool:
    """Check the two floor-division inequalities the quorum thresholds rest on.

    For positive integers with x > y:

        floor(y*q/x) >= y * floor(q/x)
        floor(y*q/x) + floor((x-y)*q/x) + 1 >= q

    Both are identities (splitting q through the floor loses less than one
    unit per part), so a False return means an arithmetic bug somewhere.
    """
    if y < 1 or q < 1 or x <= y:
        raise ValueError("require x > y >= 1 and q >= 1")
    lead = y * q // x
    return lead >= y * (q // x) and lead + (x - y) * q // x + 1 >= q


def eps_separated(ticks: tuple, eps: int) -> bool:
    """The channel rule for one attacker's train: int ticks from 0 on, each more than eps after the last."""
    return (all(type(t) is int for t in ticks) and min(ticks, default=0) >= 0
            and all(b - a > eps for a, b in zip(ticks, ticks[1:])))


def is_strongly_connected(topology) -> bool:
    """Reachability check used to probe the dense-graph connectivity property."""
    if topology.n == 1:
        return True
    reverse: list[list[int]] = [[] for _ in range(topology.n)]
    for i, row in enumerate(topology.adjacency):
        for j in row:
            reverse[j].append(i)

    def full_reach(adj) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == topology.n

    return full_reach(topology.adjacency) and full_reach(reverse)


def arc_trace(result) -> list:
    """(tick, arc ticks) per snapshot of a completed run."""
    tpp = result.clock.ticks_per_period
    return [(s.tick, containing_arc_ticks(s.phases, tpp)) for s in result.snapshots]


def _legit_nodes_by_tick(result, kind) -> dict:
    """{tick: legitimate nodes with a ``kind`` record at it}, from ``result.records``."""
    legit = set(result.legit_ids)
    nodes = defaultdict(set)
    for r in result.records:
        if r.kind == kind and r.node in legit:
            nodes[r.tick].add(r.node)
    return nodes


def common_fire_ticks(result) -> list:
    """Ticks, in order, at which every legitimate oscillator fired."""
    legit = set(result.legit_ids)
    return sorted(t for t, nodes in _legit_nodes_by_tick(result, FIRED).items() if nodes == legit)


def sync_verdict(result) -> dict:
    """``sync_tick``, ``collective_periods`` and ``periods_exact`` restated by definition.

    The sync tick is the least tick s at which every legitimate oscillator
    resets to zero, where every snapshot from s on has a zero arc, every
    legitimate fire after s is joint and, with two or more oscillators, the
    joint fires after s are exactly one period apart. The periods are the
    gaps between the joint fires after s, or between every joint fire
    without s; they are exact only if s exists, they exist and all are one
    period.
    """
    legit = set(result.legit_ids)
    tpp = result.clock.ticks_per_period
    fired = _legit_nodes_by_tick(result, FIRED)
    joint = common_fire_ticks(result)
    arcs = arc_trace(result)

    def holds(s):
        after = [t for t in joint if t > s]
        return (all(arc == 0 for t, arc in arcs if t >= s)
                and all(nodes == legit for t, nodes in fired.items() if t > s)
                and (len(legit) == 1 or all(b - a == tpp for a, b in zip(after, after[1:]))))

    resets = _legit_nodes_by_tick(result, RESET_TO_ZERO)
    sync = min((s for s, nodes in resets.items() if nodes == legit and holds(s)), default=None)
    ticks = joint if sync is None else [t for t in joint if t > sync]
    periods = [b - a for a, b in zip(ticks, ticks[1:])]
    exact = all(g == tpp for g in periods) if sync is not None and periods else None
    return {"sync_tick": sync, "collective_periods": periods, "periods_exact": exact}


def run_file_texts(result) -> dict:
    """The text of events.jsonl and phases.csv, one plain dump per record and per snapshot.

    An events line is the compact JSON of one of ``result.records``; a phases
    row is the tick, the seconds, the containing arc and every phase of one
    of ``result.snapshots``, radians and seconds with 9 significant digits.
    """
    events = []
    for r in result.records:
        if r.kind == "received":
            fields = {"tick": r.tick, "type": r.kind, "receiver": r.node,
                      "sender": r.sender, "seq": r.seq}
        else:
            fields = {"tick": r.tick, "type": r.kind, "id": r.node}
        events.append(json.dumps(fields, separators=(",", ":")) + "\n")
    tpp = result.clock.ticks_per_period
    scale = TWO_PI / tpp
    rows = [",".join(["tick", "seconds", "arc_rad"]
                     + [f"phase_rad_{i}" for i in result.legit_ids]) + "\n"]
    for s in result.snapshots:
        radians = [s.tick * scale, containing_arc_ticks(s.phases, tpp) * scale,
                   *(p * scale for p in s.phases)]
        rows.append(",".join([str(s.tick)] + [f"{x:.9g}" for x in radians]) + "\n")
    return {"events.jsonl": "".join(events), "phases.csv": "".join(rows)}
