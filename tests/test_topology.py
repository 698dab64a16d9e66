import math

import pytest

from oracles import is_strongly_connected
from pcosync.core import ConfigError
from pcosync.topology import build_circle_deployment, from_adjacency, load_topology


def brute_force_circle_neighbors(n, diameter, comm_range, i):
    """Direct chord-length evaluation, independent of the generator."""
    out = []
    for j in range(n):
        if j == i:
            continue
        delta = min(abs(i - j), n - abs(i - j))
        if diameter * math.sin(math.pi * delta / n) < comm_range:
            out.append(j)
    return out


def test_circle_24_matches_reference_deployment():
    topo = build_circle_deployment(24, 40, 39)
    assert topo.network_degree == 20
    assert all(d == 20 for d in topo.degree)
    assert topo.adjacency[0] == tuple(sorted(set(range(1, 11)) | set(range(14, 24))))


def test_circle_matches_chord_oracle():
    for n, diameter, rng in ((24, 40, 39), (10, 40, 25), (7, 12.0, 9.5)):
        topo = build_circle_deployment(n, diameter, rng)
        for i in range(n):
            assert list(topo.adjacency[i]) == brute_force_circle_neighbors(n, diameter, rng, i)


def test_circle_complete_when_range_exceeds_diameter():
    topo = build_circle_deployment(4, 40, 41)
    assert topo.network_degree == 3
    assert all(len(row) == 3 for row in topo.adjacency)


def test_circle_argument_validation():
    with pytest.raises(ValueError):
        build_circle_deployment(1, 40, 39)
    with pytest.raises(ValueError):
        build_circle_deployment(5, 0, 39)


def test_load_topology():
    explicit, desc = load_topology({"kind": "explicit", "adjacency": [[2, 1], [0, 2], [0, 1]]})
    assert explicit.network_degree == 2
    assert desc == {"kind": "explicit", "adjacency": [[1, 2], [0, 2], [0, 1]]}
    circle, desc = load_topology({"kind": "circle", "n": 24, "diameter": 40, "range": 39})
    assert circle.network_degree == 20
    assert desc == {"kind": "circle", "n": 24, "diameter": 40.0, "range": 39.0}
    assert type(desc["diameter"]) is float and type(desc["range"]) is float
    with pytest.raises(ValueError):
        load_topology({"kind": "explicit", "adjacency": [[1], [0], [2, 2]]})  # self-edge
    with pytest.raises(ValueError):
        load_topology({"kind": "explicit", "adjacency": [[1, 1], [0]]})  # duplicate
    with pytest.raises(ValueError):
        load_topology({"kind": "explicit", "adjacency": [[5], [0]]})  # out of range
    with pytest.raises(ValueError):
        load_topology({"kind": "torus"})
    with pytest.raises(ValueError):
        load_topology({"kind": "explicit", "adjacency": [[True], [0]]})  # bool node index
    with pytest.raises(ValueError):
        load_topology({"kind": "explicit", "adjacency": [[1], [0.5]]})  # float node index
    with pytest.raises(ValueError):
        load_topology({"kind": "explicit", "adjacency": [1, [0]]})  # row is not a list
    with pytest.raises(ConfigError, match="^topology needs a nonempty list of adjacency rows$"):
        load_topology({"kind": "explicit", "adjacency": []})
    with pytest.raises(ValueError):
        load_topology({"kind": "circle", "n": 24, "diameter": 40})  # missing range
    with pytest.raises(ValueError):
        load_topology({"kind": "circle", "n": 24.9, "diameter": 40, "range": 39})


def test_degree_is_min_of_in_and_out():
    # node 0: outdegree 2, indegree 3 -> degree 2
    topo = from_adjacency([[1, 2], [0], [0], [0]])
    assert topo.outdegree[0] == 2
    assert topo.indegree[0] == 3
    assert topo.degree[0] == 2


def test_dense_circles_are_strongly_connected():
    # whenever d > floor(2n/3) the network should be strongly connected
    for n in range(4, 30):
        for reach in range(1, n // 2 + 1):
            diameter = 10.0
            comm = diameter * math.sin(math.pi * reach / n) + 1e-9
            topo = build_circle_deployment(n, diameter, comm)
            if topo.network_degree > (2 * n) // 3:
                assert is_strongly_connected(topo)


def test_disconnected_graph_detected():
    topo = from_adjacency([[1], [0], [3], [2]])
    assert not is_strongly_connected(topo)
