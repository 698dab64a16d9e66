"""Reference computations the tests check the simulator against.

They restate a documented rule directly (a float response curve, a floor
identity, a reachability search, an arc per snapshot, the channel's pulse
separation, the run files as plain dumps of the derived views) and are not
part of the package: nothing in ``src/`` needs them to run a scenario.
"""

import json
import math

from pcosync.core import TWO_PI
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
