"""Edge cuts: essential 4-edge-connectivity and cyclic edge connectivity.

The oracle for cyclic edge connectivity is pure brute force: try every edge
subset in size order and accept the first whose removal leaves two parts
that each contain a cycle. The oracle for essential 4-edge-connectivity is
brute force too: try every set of at most 3 edges and look for a component
with at least 2 vertices on each side. The max-flow both rest on is checked
against networkx's Edmonds-Karp on the network with each side contracted.
"""

import itertools
import json
import random
from pathlib import Path

import networkx as nx
import pytest

from levibridge import cuts
from levibridge.construction import bridge_census, bridge_graph
from levibridge.cuts import (
    _CHORDLESS_CAP,
    CutCertificate,
    _chordless_cycles,
    _cycle_edges,
    _cyclic_cut,
    _forest,
    _min_cut_between,
    _packed_search,
    _small_cut_to_edges,
    cyclic_edge_connectivity,
    is_essentially_4_edge_connected,
)
from levibridge.graphs import (
    GraphError,
    _neighbor_tuples,
    adjacency_masks,
    build,
    graph6_decode,
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


def _all_pairs_cyclic_connectivity(g):
    """Reference: one flow for every pair of vertex-disjoint chordless cycles,
    shortest pairs first, with no source packing."""
    cycles = [(c, frozenset(c)) for c in _chordless_cycles(g, _CHORDLESS_CAP)]
    pairs = [
        (a_set, b_set, len(a) + len(b))
        for (a, a_set), (b, b_set) in itertools.combinations(cycles, 2)
        if not (a_set & b_set)
    ]
    if not pairs:
        return None
    pairs.sort(key=lambda p: p[2])
    best: int | None = None
    for side_s, side_t, _ in pairs:
        value, _ = _min_cut_between(g, side_s, side_t, best, _forest(g, side_s))
        if best is None or value < best:
            best = value
    return best


def _distance_blind_chordless_cycles(g, cap: int) -> list[tuple[int, ...]]:
    """The earlier `cuts._chordless_cycles`, kept verbatim as the oracle for
    its distance prune: it grows a path to any vertex above the root."""
    adj = adjacency_masks(g)
    cycles: list[tuple[int, ...]] = []

    def extend(root: int, path: list[int], mask: int):
        last = path[-1]
        inner = mask & ~(1 << last) & ~(1 << root)
        candidates = adj[last] & ~mask
        while candidates:
            y = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if y < root or adj[y] & inner:
                continue
            if adj[y] & (1 << root):
                if len(path) >= 2 and path[1] < y:
                    cycles.append(tuple(path) + (y,))
                continue
            if len(path) + 1 < cap:
                path.append(y)
                extend(root, path, mask | 1 << y)
                path.pop()

    for root in range(g.n):
        second = adj[root]
        while second:
            x = (second & -second).bit_length() - 1
            second &= second - 1
            if x > root:
                extend(root, [root, x], (1 << root) | (1 << x))
    return cycles


def _packing_only_search(g, cycles, targets, best):
    """The earlier `cuts._packed_search`, kept verbatim but for the forest it
    hands each flow, as the oracle for its double-counting stop: it stops
    once 2p reaches `best`, and on nothing else."""
    vertices = [frozenset(c) for c in cycles]
    edges = [_cycle_edges(c) for c in cycles]
    unprocessed = list(range(len(cycles)))
    packed: set[frozenset[int]] = set()  # edges of the pairwise edge-disjoint sources
    p = 0
    side: frozenset[int] | None = None
    while unprocessed and (best is None or 2 * p < best):
        source = next((i for i in unprocessed if not edges[i] & packed), unprocessed[0])
        if not edges[source] & packed:
            packed |= edges[source]
            p += 1
        unprocessed.remove(source)
        for target in targets if targets is not None else [vertices[i] for i in unprocessed]:
            if not vertices[source] & target:
                value, reach = _min_cut_between(g, vertices[source], target, best,
                                                _forest(g, vertices[source]))
                if best is None or value < best:
                    best, side = value, reach
    return best, side


def _unseeded_min_cut_between(g, side_s, side_t, stop_at):
    """The earlier `cuts._min_cut_between`, kept verbatim as the oracle for
    its forest start: every flow starts from zero and runs one augmenting
    search per unit."""
    nbrs, n = _neighbor_tuples(g), g.n
    flow: set[int] = set()  # arcs x * n + y carrying a unit from x to y
    value = 0
    while stop_at is None or value < stop_at:
        parent = dict.fromkeys(side_s)
        queue = list(side_s)
        for x in queue:
            xn = x * n
            for y in nbrs[x]:
                if y not in parent and xn + y not in flow:
                    parent[y] = x
                    if y in side_t:
                        break
                    queue.append(y)
            else:
                continue
            break
        else:
            return value, frozenset(parent)
        while y not in side_s:
            x = parent[y]
            if y * n + x in flow:  # cancel a unit sent back along the edge
                flow.remove(y * n + x)
            else:
                flow.add(x * n + y)
            y = x
        value += 1
    return value, None


def _pool_and_random_graphs():
    """The 157 `certify` pool graphs, then 50 seeded random connected cubic
    graphs on 20-40 vertices."""
    pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "data"
                       / "certify_pool.json").read_text())
    rng = random.Random(20280)
    return ([graph6_decode(item["g6"]) for item in pool]
            + [build(n, _random_cubic(rng, n)) for n in (20 + 2 * (i % 11) for i in range(50))])


def _brute_force_has_nontrivial_small_cut(g) -> bool:
    """Some set of <= 3 edges leaves a component C with 2 <= |C| <= n - 2."""
    base = nx.Graph()
    base.add_nodes_from(range(g.n))
    base.add_edges_from(g.edges)
    for k in (1, 2, 3):
        for subset in itertools.combinations(g.edges, k):
            h = base.copy()
            h.remove_edges_from(subset)
            if any(2 <= len(c) <= g.n - 2 for c in nx.connected_components(h)):
                return True
    return False


def _side_has_cycle(g, side: frozenset[int]) -> bool:
    inside = sum(1 for u, v in g.edges if u in side and v in side)
    return inside >= len(side)


def _cut_kind(g, side_a: frozenset[int], side_b: frozenset[int]) -> str:
    if min(len(side_a), len(side_b)) == 1:
        return "trivial"
    if _side_has_cycle(g, side_a) and _side_has_cycle(g, side_b):
        return "cyclic"
    return "non-trivial"


def _pair_loop_essentially_4_edge_connected(g):
    """The earlier essential check, kept verbatim but for the forest it hands
    each flow, as an oracle: the flow from each edge {0, x} to every edge
    disjoint from it, stopped at 4. The certificate is the first cut found,
    with vertex 0 in `side_a`."""
    for x in g.neighbors(0):
        for f in g.edges:
            if 0 in f or x in f:
                continue
            side_s = frozenset((0, x))
            _, side_a = _min_cut_between(g, side_s, frozenset(f), 4, _forest(g, side_s))
            if side_a is not None:
                side_b = frozenset(range(g.n)) - side_a
                assert _cut_kind(g, side_a, side_b) == "cyclic"
                cut = tuple(e for e in g.edges if (e[0] in side_a) != (e[1] in side_a))
                return False, CutCertificate(cut, side_a, side_b)
    return True, None


def _assert_small_cyclic_cut(g, cert):
    """`cert` is a cut of at most 3 edges whose removal leaves exactly its two
    sides, each connected, with at least 2 vertices and a cycle."""
    crossing = {(u, v) for u, v in g.edges if (u in cert.side_a) != (v in cert.side_a)}
    assert set(cert.cut) == crossing and len(cert.cut) <= 3
    assert min(len(cert.side_a), len(cert.side_b)) >= 2
    assert cert.side_a | cert.side_b == frozenset(range(g.n))
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(set(g.edges) - crossing)
    assert nx.number_connected_components(h) == 2
    for side in (cert.side_a, cert.side_b):  # a side holds a cycle when it spans |side| edges
        assert sum(1 for u, v in g.edges if u in side and v in side) >= len(side)


def _random_cubic(rng, n):
    """Edge list of a connected random cubic graph on n vertices."""
    while True:
        h = nx.random_regular_graph(3, n, seed=rng.randrange(2**32))
        if nx.is_connected(h):
            return list(h.edges())


def _joined(rng, cut_size, n1, n2):
    """Two random cubic graphs joined across a bridge, a 2-edge or a 3-edge cut."""
    e1 = _random_cubic(rng, n1)
    e2 = [(u + n1, v + n1) for u, v in _random_cubic(rng, n2)]
    if cut_size == 3:  # delete one vertex per side, match up their neighbours
        a, b = rng.randrange(n1), n1 + rng.randrange(n2)
        na = [u for e in e1 if a in e for u in e if u != a]
        nb = [u for e in e2 if b in e for u in e if u != b]
        edges = [e for e in e1 + e2 if a not in e and b not in e] + list(zip(na, nb))
        dense = {u: i for i, u in enumerate(sorted({u for e in edges for u in e}))}
        return n1 + n2 - 2, [(dense[u], dense[v]) for u, v in edges]
    x = e1.pop(rng.randrange(len(e1)))
    y = e2.pop(rng.randrange(len(e2)))
    if cut_size == 2:
        return n1 + n2, e1 + e2 + [(x[0], y[0]), (x[1], y[1])]
    s, t = n1 + n2, n1 + n2 + 1  # bridge between two subdivision vertices
    return n1 + n2 + 2, e1 + e2 + [(x[0], s), (x[1], s), (y[0], t), (y[1], t), (s, t)]


def _oracle_graphs():
    """Seeded, randomly relabelled connected cubic graphs on at most 14 vertices,
    each with the size of the cut it was `_joined` across (None if not joined)."""
    rng = random.Random(20220)
    specs = [(None, n, _random_cubic(rng, n)) for n in (6, 8, 10, 12, 14) for _ in range(4)]
    k4 = build(4, itertools.combinations(range(4), 2))
    specs += [(None, g.n, list(g.edges)) for g in (k4, k33(), petersen(), gp(6, 2),
                                                   gp(7, 2), heawood())]
    for cut_size, sizes in ((1, [(4, 4), (4, 6), (6, 6), (4, 8)]),
                            (2, [(4, 4), (4, 6), (6, 6), (4, 8), (6, 8), (4, 10)]),
                            (3, [(4, 4), (4, 6), (6, 6), (6, 8), (8, 8), (4, 8)])):
        for n1, n2 in sizes:
            for _ in range(2):
                specs.append((cut_size, *_joined(rng, cut_size, n1, n2)))
    for cut_size, n, edges in specs:
        perm = list(range(n))
        rng.shuffle(perm)
        yield cut_size, build(n, [(perm[u], perm[v]) for u, v in edges])


def _crossed_heawood_join():
    """Two Heawood graphs, each with the three edges of a path t-u-v-w
    subdivided, joined by three edges between matching subdivision vertices.

    The graph has girth 6 and cyclic edge connectivity 3. The two 6-cycles
    through the edge between the middle subdivision vertices, labelled 0 and
    1, come first in the sorted cycle list. They share that edge, and each
    crosses every minimum cyclic cut, so the flows from them alone find 4.
    """
    h = heawood()
    u, v = h.edges[0]
    path = [frozenset((u, v)), frozenset((min(set(h.neighbors(u)) - {v}), u)),
            frozenset((v, min(set(h.neighbors(v)) - {u})))]
    edges = [(14 + i, 31 + i) for i in range(3)]
    for off in (0, 17):
        for a, b in h.edges:
            if frozenset((a, b)) in path:
                mid = off + 14 + path.index(frozenset((a, b)))
                edges += [(a + off, mid), (mid, b + off)]
            else:
                edges.append((a + off, b + off))
    order = [14, 31] + [x for x in range(34) if x not in (14, 31)]
    label = {x: i for i, x in enumerate(order)}
    return build(34, [(label[a], label[b]) for a, b in edges])


@pytest.fixture
def flows(monkeypatch):
    """Records the arguments of every `_min_cut_between` call the test makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _min_cut_between(*args)

    monkeypatch.setattr(cuts, "_min_cut_between", counted)
    return calls


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

    def test_joined_graphs_match_brute_force(self):
        # Cuts of at most 3 edges, where the packing stops after few sources.
        values = set()
        for cut_size, g in _oracle_graphs():
            if cut_size is None:
                continue
            mine = cyclic_edge_connectivity(g)
            assert mine <= cut_size
            assert _brute_force_cyclic_connectivity(g, mine) == mine
            values.add(mine)
        assert values == {1, 2, 3}

    def test_matches_all_pairs_loop(self):
        rng = random.Random(20224)
        graphs = [build(n, _random_cubic(rng, n)) for n in range(8, 41, 2) for _ in range(12)]
        graphs += [g for _, g in _oracle_graphs()]
        graphs += [bridge_graph(c.representative) for c in bridge_census()]
        graphs += [gp(n, k) for n in range(3, 21) for k in range(1, (n + 1) // 2)]
        # Here the first two sources share an edge and cross every minimum
        # cut, which no graph above arranges.
        graphs.append(_crossed_heawood_join())
        values = set()
        for g in graphs:
            value = cyclic_edge_connectivity(g)
            assert value == _all_pairs_cyclic_connectivity(g)
            values.add(value)
        assert {None, 1, 2, 3, 4, 5, 6} <= values

    def test_goedgebeur_graph_takes_at_most_48_flows(self, fresh_goedgebeur, flows):
        # The graph has 288 vertex-disjoint pairs of chordless cycles; the
        # search stops after 3 packed sources.
        assert cyclic_edge_connectivity(fresh_goedgebeur) == 6
        assert 0 < len(flows) <= 48

    def test_certify_pool_takes_at_most_11000_flows(self, flows):
        # One flow per vertex-disjoint pair of chordless cycles is 73,422 here.
        pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "data"
                           / "certify_pool.json").read_text())
        for item in pool:
            g = graph6_decode(item["g6"])
            assert cyclic_edge_connectivity(g) == item["expect"]["cyclic"], item["name"]
        assert len(pool) == 157 and len(flows) <= 11000

    def test_chordless_cycles_match_the_distance_blind_listing(self):
        # The same list in the same order, at caps past the 9 the search uses.
        graphs = _pool_and_random_graphs()
        assert len(graphs) == 157 + 50
        for g in graphs:
            for cap in range(3, 11):
                assert _chordless_cycles(g, cap) == _distance_blind_chordless_cycles(g, cap), (g, cap)

    def test_search_matches_the_packing_only_stop(self):
        # The same value and the same side of a minimum cut, so the same
        # certificates.
        values = set()
        for g in _pool_and_random_graphs():
            cycles = sorted(_distance_blind_chordless_cycles(g, _CHORDLESS_CAP), key=len)
            found = _cyclic_cut(g)
            assert found == _packing_only_search(g, cycles, None, None), g
            values.add(found[0])
        assert values == {2, 3, 4, 5, 6, 7}

    def test_stop_holds_for_any_source_order(self):
        # Sorted by length, the search finds the minimum before the stop can
        # matter. Shuffled, sources that share edges come before it is found.
        rng = random.Random(20282)
        graphs = [g for _, g in _oracle_graphs()]
        graphs += [build(n, _random_cubic(rng, n)) for n in (10, 12, 14, 16) for _ in range(10)]
        for g in graphs:
            cycles = _chordless_cycles(g, _CHORDLESS_CAP)
            for _ in range(3):
                rng.shuffle(cycles)
                assert (_packed_search(g, cycles, None, None)
                        == _packing_only_search(g, cycles, None, None)), g

    def test_double_counting_stop_takes_at_most_9700_flows(self, fresh_goedgebeur, flows):
        # The packing bound alone took 10,580 flows on the pool.
        for g in _pool_and_random_graphs()[:157]:
            cyclic_edge_connectivity(g)
        assert 0 < len(flows) <= 9700
        flows.clear()
        assert cyclic_edge_connectivity(fresh_goedgebeur) == 6
        assert 0 < len(flows) <= 48

    def test_forest_start_matches_the_zero_start(self, flows):
        # Every flow the search issues, with its own stop and with none: the
        # same value, and the same reach, which is why the certificates stay.
        for g in _pool_and_random_graphs():
            _cyclic_cut(g)
        assert len(flows) > 9000
        for g, side_s, side_t, stop_at, tree in flows:
            for stop in (stop_at, None):
                assert (_min_cut_between(g, side_s, side_t, stop, tree)
                        == _unseeded_min_cut_between(g, side_s, side_t, stop)), (g, side_s, side_t)

    def test_no_two_disjoint_cycles(self):
        # K4 and K3,3 are too small to hold two vertex-disjoint cycles.
        assert cyclic_edge_connectivity(build(4, itertools.combinations(range(4), 2))) is None
        assert cyclic_edge_connectivity(k33()) is None

    def test_two_triangles_joined_by_bridgeless_gadget(self):
        # Theta-like cubic graph with a 3-cut between triangle ends.
        assert cyclic_edge_connectivity(prism()) == 3

    def test_preconditions(self):
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(build(6, [(i, (i + 1) % 6) for i in range(6)]))  # not cubic
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(
                build(8, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                          (4, 5), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7)])
            )  # disconnected
        with pytest.raises(GraphError):
            cyclic_edge_connectivity(build(0, []))  # no vertices
        with pytest.raises(GraphError, match="at most 40 vertices"):
            cyclic_edge_connectivity(gp(21, 2))  # cubic and connected, but 42 vertices


class TestEssentially4EdgeConnected:
    def test_k4_and_k33_hold(self):
        k4 = build(4, itertools.combinations(range(4), 2))
        for g in (k4, k33(), petersen(), heawood(), pappus(), gp(60, 1)):
            ok, cert = is_essentially_4_edge_connected(g)
            assert ok and cert is None

    def test_prism_fails_with_cyclic_certificate(self):
        ok, cert = is_essentially_4_edge_connected(prism())
        assert not ok
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

    def test_matches_brute_force_with_valid_certificates(self):
        total = failures = triangle_at_0 = 0
        for _, g in _oracle_graphs():
            total += 1
            ok, cert = is_essentially_4_edge_connected(g)
            assert ok == (not _brute_force_has_nontrivial_small_cut(g))
            if ok:
                assert cert is None
                continue
            failures += 1
            nbrs = g.neighbors(0)
            triangle_at_0 += any((u, v) in g.edges for u in nbrs for v in nbrs)
            _assert_small_cyclic_cut(g, cert)
        # The set exercises both answers and a cut next to a triangle at vertex 0.
        assert 0 < failures < total and triangle_at_0 > 0

    def test_one_search_serves_both_questions(self, flows):
        pool = json.loads((Path(__file__).resolve().parents[1] / "bench" / "data"
                           / "certify_pool.json").read_text())
        for item in pool:
            expect = (item["expect"]["ess4"], item["expect"]["cyclic"])
            cyclic_edge_connectivity(graph6_decode(item["g6"]))
            alone = len(flows)
            g = graph6_decode(item["g6"])
            assert (is_essentially_4_edge_connected(g)[0], cyclic_edge_connectivity(g)) == expect
            assert len(flows) == 2 * alone, item["name"]
            g = graph6_decode(item["g6"])
            assert (cyclic_edge_connectivity(g), is_essentially_4_edge_connected(g)[0]) == expect[::-1]
            assert len(flows) == 3 * alone, item["name"]
            flows.clear()

    def test_edge_targets_match_oracles(self, flows):
        # The route taken above 40 vertices, run directly on small graphs too.
        rng = random.Random(20225)
        graphs = [(g, _brute_force_has_nontrivial_small_cut(g)) for _, g in _oracle_graphs()]
        specs = [(n, _random_cubic(rng, n)) for n in range(8, 61, 4) for _ in range(2)]
        specs += [_joined(rng, k, n1, n2) for k in (1, 2, 3)
                  for n1, n2 in ((4, 10), (12, 14), (20, 22), (8, 40), (30, 30))]
        graphs += [(build(n, edges), None) for n, edges in specs]
        # Here the shortest cycle crosses every 3-edge cut, so the flows from
        # it alone see no cut below 4, and the second source is needed.
        graphs.append((_crossed_heawood_join(), None))
        sizes, past_40 = set(), set()
        for g, small_cut in graphs:
            best, side_a = _small_cut_to_edges(g)
            ok = best == 4
            assert ok == (side_a is None)
            old_ok, old_cert = _pair_loop_essentially_4_edge_connected(g)
            assert ok == old_ok
            if not old_ok:
                _assert_small_cyclic_cut(g, old_cert)
            if small_cut is not None:
                assert ok == (not small_cut)
            if g.n <= 40:
                cyclic = cyclic_edge_connectivity(g)
                assert best == (4 if cyclic is None or cyclic >= 4 else cyclic)
            if not ok:
                side_b = frozenset(range(g.n)) - side_a
                cut = tuple(e for e in g.edges if (e[0] in side_a) != (e[1] in side_a))
                assert len(cut) == best
                _assert_small_cyclic_cut(g, CutCertificate(cut, side_a, side_b))
                sizes.add(best)
            if g.n > 40:
                past_40.add(ok)
        assert sizes == {1, 2, 3} and past_40 == {True, False}
        # Two 4-cycles of the prism gp(300, 1) each miss 892 of its 900 edges.
        flows.clear()
        assert _small_cut_to_edges(gp(300, 1)) == (4, None) and len(flows) == 1784

    def test_edge_route_matches_the_zero_start(self, monkeypatch):
        # Past 40 vertices: prisms, random graphs, and joins across small cuts.
        rng = random.Random(20300)
        graphs = [gp(n, 1) for n in range(21, 31)]
        graphs += [build(n, _random_cubic(rng, n)) for n in range(42, 81, 2)]
        graphs += [build(*_joined(rng, k, 20, 26)) for k in (1, 2, 3)]
        found = [_small_cut_to_edges(g) for g in graphs]
        monkeypatch.setattr(cuts, "_min_cut_between",
                            lambda g, side_s, side_t, stop_at, tree:
                            _unseeded_min_cut_between(g, side_s, side_t, stop_at))
        assert [_small_cut_to_edges(g) for g in graphs] == found
        assert len(graphs) == 33 and {best for best, _ in found} == {1, 2, 3, 4}

    def test_cube_holds(self):
        ok, cert = is_essentially_4_edge_connected(gp(4, 1))
        assert ok

    def test_preconditions(self):
        with pytest.raises(GraphError):
            is_essentially_4_edge_connected(build(6, [(i, (i + 1) % 6) for i in range(6)]))
        with pytest.raises(GraphError):
            is_essentially_4_edge_connected(build(0, []))  # no vertices


def _networkx_min_cut(g, side_s, side_t):
    """Edmonds-Karp on g with side_s and side_t each contracted to one node:
    the flow value and the vertices reachable from side_s in the residual."""
    h = nx.DiGraph()
    h.add_nodes_from(("s", "t"))
    node = {v: "s" if v in side_s else "t" if v in side_t else v for v in range(g.n)}
    for u, v in g.edges:
        a, b = node[u], node[v]
        if a != b:
            for x, y in ((a, b), (b, a)):
                cap = h[x][y]["capacity"] + 1 if h.has_edge(x, y) else 1
                h.add_edge(x, y, capacity=cap)
    residual = nx.algorithms.flow.edmonds_karp(h, "s", "t")
    reach, todo = {"s"}, ["s"]
    while todo:
        x = todo.pop()
        for y, arc in residual[x].items():
            if arc["capacity"] - arc["flow"] > 0 and y not in reach:
                reach.add(y)
                todo.append(y)
    assert residual.graph["flow_value"] == nx.minimum_cut_value(h, "s", "t")
    return residual.graph["flow_value"], frozenset(v for v in range(g.n) if node[v] in reach)


class TestMinCutBetween:
    def test_matches_networkx_on_contracted_network(self):
        rng = random.Random(20223)
        specs = [(n, _random_cubic(rng, n)) for n in (8, 12, 16, 20, 26) for _ in range(3)]
        specs += [_joined(rng, k, 6, 8) for k in (1, 2, 3)]
        cases = []
        for n, edges in specs:
            g = build(n, edges)
            for _ in range(6):
                picked = rng.sample(range(n), rng.randint(2, min(8, n)))
                cut = rng.randint(1, len(picked) - 1)
                cases.append((g, frozenset(picked[:cut]), frozenset(picked[cut:])))
        # Here a later augmenting path must cancel a unit of an earlier one,
        # which the random cases above never need.
        cases.append((build(12, [(0, 3), (0, 9), (0, 10), (1, 3), (1, 7), (1, 10), (2, 6),
                                 (2, 8), (2, 11), (3, 8), (4, 6), (4, 7), (4, 9), (5, 6),
                                 (5, 8), (5, 9), (7, 11), (10, 11)]),
                      frozenset({0, 3}), frozenset({6})))
        # Two cases for the forest start. In the cube gp(4, 1), target vertex
        # 6 hangs below target vertex 1 in branch 1 of the forest from {0},
        # through 2, so a start unit may run 0-1-2-6, leaving the target and
        # entering it again. In the Petersen graph gp(5, 2), sources 0 and 2 share
        # their neighbour 1, which is one branch with one parent.
        cube, petersen_5_2 = gp(4, 1), gp(5, 2)
        assert _forest(cube, frozenset({0}))[6] == (2, 1)
        assert _forest(cube, frozenset({0}))[2] == (1, 1)
        assert _forest(petersen_5_2, frozenset({0, 2}))[1] == (0, 1)
        cases.append((cube, frozenset({0}), frozenset({1, 6})))
        cases += [(petersen_5_2, frozenset({0, 2}), frozenset(t))
                  for t in ({8, 9}, {6, 8, 9}, {3, 4, 6})]
        values = set()
        for g, side_s, side_t in cases:
            value, side = _networkx_min_cut(g, side_s, side_t)
            tree = _forest(g, side_s)
            assert _min_cut_between(g, side_s, side_t, None, tree) == (value, side)
            assert _min_cut_between(g, side_s, side_t, value + 1, tree) == (value, side)
            for stop_at in range(value + 1):
                assert _min_cut_between(g, side_s, side_t, stop_at, tree) == (stop_at, None)
            values.add(value)
        # Cuts of every size a cubic graph's small sets allow, bridges included.
        assert {1, 2, 3, 4, 5, 6} <= values
