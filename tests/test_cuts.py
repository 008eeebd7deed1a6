"""Edge cuts: essential 4-edge-connectivity and cyclic edge connectivity.

The oracle for cyclic edge connectivity is pure brute force: try every edge
subset in size order and accept the first whose removal leaves two parts
that each contain a cycle.
"""

import itertools

import networkx as nx
import pytest

from levibridge.cuts import (
    cyclic_edge_connectivity,
    is_essentially_4_edge_connected,
)
from levibridge.graphs import (
    GraphError,
    build,
    complete,
    cycle,
    gp,
    heawood,
    k33,
    pappus,
    petersen,
    prism,
)


def _brute_force_cyclic_connectivity(g, max_k: int):
    """Smallest edge set whose removal leaves >= 2 cycle-bearing parts."""
    base = nx.Graph()
    base.add_nodes_from(range(g.n))
    base.add_edges_from(g.edges)
    for k in range(1, max_k + 1):
        for subset in itertools.combinations(g.edges, k):
            h = base.copy()
            h.remove_edges_from(subset)
            comps = list(nx.connected_components(h))
            if len(comps) < 2:
                continue
            cyclic_parts = 0
            for comp in comps:
                sub = h.subgraph(comp)
                if sub.number_of_edges() >= len(comp):
                    cyclic_parts += 1
            if cyclic_parts >= 2:
                return k
    return None


class TestCyclicEdgeConnectivity:
    def test_petersen_matches_brute_force(self):
        assert cyclic_edge_connectivity(petersen()) == 5
        assert _brute_force_cyclic_connectivity(petersen(), 5) == 5

    def test_prism_matches_brute_force(self):
        assert cyclic_edge_connectivity(prism()) == 3
        assert _brute_force_cyclic_connectivity(prism(), 3) == 3

    def test_more_named_graphs_match_brute_force(self):
        for g in (gp(4, 1), heawood(), gp(8, 3)):
            mine = cyclic_edge_connectivity(g)
            assert mine == _brute_force_cyclic_connectivity(g, mine)
            assert _brute_force_cyclic_connectivity(g, mine - 1) is None

    def test_no_two_disjoint_cycles(self):
        # K4 and K3,3 are too small to hold two vertex-disjoint cycles.
        assert cyclic_edge_connectivity(complete(4)) is None
        assert cyclic_edge_connectivity(k33()) is None

    def test_two_triangles_joined_by_bridgeless_gadget(self):
        # Theta-like cubic graph with a 3-cut between triangle ends.
        assert cyclic_edge_connectivity(prism()) == 3

    def test_preconditions(self):
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(cycle(6))  # not cubic
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(
                build(8, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                          (4, 5), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7)])
            )  # disconnected
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(build(0, []))  # no vertices


class TestEssentially4EdgeConnected:
    def test_k4_and_k33_hold(self):
        for g in (complete(4), k33(), petersen(), heawood(), pappus()):
            ok, cert = is_essentially_4_edge_connected(g)
            assert ok and cert is None

    def test_prism_fails_with_cyclic_certificate(self):
        ok, cert = is_essentially_4_edge_connected(prism())
        assert not ok
        assert cert.kind == "cyclic"
        assert len(cert.cut) == 3
        # The witness cut really separates the two triangles.
        assert {frozenset(cert.side_a), frozenset(cert.side_b)} == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})
        }

    def test_certificate_is_a_real_cut(self):
        ok, cert = is_essentially_4_edge_connected(prism())
        assert not ok
        cut = set(cert.cut)
        for u, v in prism().edges:
            if (u, v) in cut:
                assert (u in cert.side_a) != (v in cert.side_a)

    def test_cube_holds(self):
        ok, cert = is_essentially_4_edge_connected(gp(4, 1))
        assert ok

    def test_preconditions(self):
        with pytest.raises(GraphError):
            is_essentially_4_edge_connected(cycle(6))
        with pytest.raises(GraphError):
            is_essentially_4_edge_connected(build(0, []))  # no vertices
