"""Directed communication graphs for oscillator networks.

A node's degree is the minimum of its in- and outdegree; the network degree
is the minimum over all nodes. ``load_topology`` is the one reader of a
scenario's topology section; a malformed graph raises ``ConfigError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ConfigError, read_int, read_kind, read_number


@dataclass(frozen=True)
class Topology:
    """Immutable digraph with per-node degree bookkeeping.

    ``adjacency[i]`` is the tuple of out-neighbors of node i in ascending
    order (cascade determinism relies on that order). Build instances via
    :func:`from_adjacency`, :func:`build_circle_deployment` or
    :func:`load_topology`, which validate and derive the degree fields.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    indegree: tuple[int, ...]
    outdegree: tuple[int, ...]
    degree: tuple[int, ...]  # per node: min(indegree, outdegree)
    network_degree: int


def from_adjacency(adjacency) -> Topology:
    """Validate raw adjacency lists and derive all degree fields.

    Rejects rows that are not lists, self-edges, duplicate edges, and node
    indices that are not integers in range (booleans included).
    """
    if not isinstance(adjacency, list) or not adjacency:
        raise ConfigError("topology needs a nonempty list of adjacency rows")
    n = len(adjacency)
    rows: list[tuple[int, ...]] = []
    indeg = [0] * n
    for i, neigh in enumerate(adjacency):
        if not isinstance(neigh, list):
            raise ConfigError(f"adjacency row {i} is not a list")
        seen = set()
        for j in neigh:
            if type(j) is not int or not 0 <= j < n:
                raise ConfigError(f"edge ({i},{j!r}): node index must be an integer in [0,{n})")
            if j == i:
                raise ConfigError(f"self-edge ({i},{i}) not allowed")
            if j in seen:
                raise ConfigError(f"duplicate edge ({i},{j})")
            seen.add(j)
            indeg[j] += 1
        rows.append(tuple(sorted(seen)))
    outdeg = [len(r) for r in rows]
    deg = [min(a, b) for a, b in zip(indeg, outdeg)]
    return Topology(
        n=n,
        adjacency=tuple(rows),
        indegree=tuple(indeg),
        outdegree=tuple(outdeg),
        degree=tuple(deg),
        network_degree=min(deg),
    )


def build_circle_deployment(n: int, diameter: float, comm_range: float) -> Topology:
    """Place n nodes at equal spacing on a circle; connect pairs closer than comm_range.

    The chord between nodes at circular index distance k is
    diameter*sin(pi*k/n); an edge pair exists iff that distance is strictly
    below comm_range. Node 0 sits at angle 0 with counterclockwise numbering,
    but only index distance matters for connectivity.
    """
    if n < 2:
        raise ConfigError("circle deployment needs n >= 2")
    if diameter <= 0 or comm_range <= 0:
        raise ConfigError("diameter and comm_range must be positive")
    # reach = largest index distance within range, identical for every node
    reach = [k for k in range(1, n // 2 + 1) if diameter * math.sin(math.pi * k / n) < comm_range]
    max_k = max(reach) if reach else 0
    adjacency = []
    for i in range(n):
        neigh = set()  # set() dedupes the antipodal case k == n/2
        for k in range(1, max_k + 1):
            neigh.add((i + k) % n)
            neigh.add((i - k) % n)
        adjacency.append(sorted(neigh))
    return from_adjacency(adjacency)


# a dense circle's adjacency grows as n**2: ~40 MB to build at 1,024 nodes, ~180 MB at 2,048
MAX_CIRCLE_NODES = 1024

_TOPOLOGY_FIELDS = {"circle": ("n", "diameter", "range"), "explicit": ("adjacency",)}


def load_topology(description) -> tuple[Topology, dict]:
    """Build a topology from its config-file description.

    Accepts {"kind": "circle", "n": int, "diameter": num, "range": num} or
    {"kind": "explicit", "adjacency": [[...], ...]}. Returns the topology
    and the canonical description (fixed keys, normalized value types) that
    feeds the config digest.
    """
    kind = read_kind(description, "topology", _TOPOLOGY_FIELDS)
    if kind == "explicit":
        topo = from_adjacency(description["adjacency"])
        return topo, {"kind": kind, "adjacency": [list(row) for row in topo.adjacency]}
    n = read_int(description["n"], "topology.n", most=MAX_CIRCLE_NODES)
    diameter = read_number(description["diameter"], "topology.diameter")
    comm_range = read_number(description["range"], "topology.range")
    canonical = {"kind": kind, "n": n, "diameter": diameter, "range": comm_range}
    return build_circle_deployment(n, diameter, comm_range), canonical
