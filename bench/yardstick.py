"""A fixed pure-Python workload that measures how fast the host runs right now.

The benchmark runs passes of ``yardstick`` between its measured calls and
scales every measured time by ``PASS_S`` over the mean pass time, so its
figures read as if taken on a host that runs one pass in ``PASS_S``. A shared
host changes speed by tens of percent over minutes; the program and the
yardstick, run interleaved on the same CPU, slow down together, and the
ratio of their times stays put.

The work imitates the program's mix, not its code, so no change to
``pcosync`` changes it: slotted objects on a ring, an event heap, neighbour
counters, record dicts, sorting a snapshot of phases for its largest gap,
and formatting rows as JSON and as CSV with 9-digit floats.
"""

from __future__ import annotations

import heapq
import json

PASS_S = 0.002  # seconds one pass takes on the reference host, by definition
N = 24
EVENTS = 200
CHECKSUM = 16547  # what a pass returns; anything else is a broken interpreter


class _Node:
    __slots__ = ("id", "phase", "count", "nbrs")

    def __init__(self, i: int):
        self.id = i
        self.phase = (i * 7919 % 1000) / 1000.0
        self.count = 0
        self.nbrs: list[_Node] = []


def yardstick() -> int:
    """One pass of the reference work; returns ``CHECKSUM``."""
    nodes = [_Node(i) for i in range(N)]
    for n in nodes:
        n.nbrs = [nodes[(n.id + k) % N] for k in (1, 2, N - 2, N - 1)]
    heap = [(n.phase, n.id) for n in nodes]
    heapq.heapify(heap)
    records, rows = [], []
    for e in range(EVENTS):
        t, i = heapq.heappop(heap)
        node = nodes[i]
        for m in node.nbrs:
            m.count += 1
            if m.count % 3 == 0:
                m.phase = min(1.0, m.phase + 0.001)
        records.append({"tick": round(t * 1e6), "type": "pulse", "id": i})
        heapq.heappush(heap, (t + 1.0 - node.phase * 0.01, i))
        if e % 8 == 0:
            phases = sorted((t - n.phase) % 1.0 for n in nodes)
            gap = max(b - a for a, b in zip(phases, phases[1:]))
            rows.append(",".join([str(e), f"{t:.9f}", f"{gap:.9f}"] + [f"{p:.9f}" for p in phases]))
    text = "\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    return len(text) + sum(len(r) for r in rows) + sum(n.count for n in nodes)
