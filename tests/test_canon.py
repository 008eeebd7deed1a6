"""Canonical forms, isomorphism, and automorphism groups.

Three independent oracles: a brute-force all-relabelings canonical form for
small graphs, networkx VF2 for isomorphism answers, and networkx's
vf2pp isomorphism enumeration for automorphism-group orders.
"""

import itertools
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from levibridge.canon import (
    are_isomorphic,
    automorphism_group,
    canonical_form,
    isomorphism,
)
from levibridge.graphs import (
    build,
    cycle,
    graph6_encode,
    heawood,
    k33,
    pappus,
    petersen,
    prism,
)


def _random_graph(rng: random.Random, n: int):
    p = rng.choice((0.15, 0.35, 0.6))
    return build(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


def _shuffle(g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _brute_force_certificate(g) -> bytes:
    """Lexicographically smallest graph6 string over all n! relabelings."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        relabeled = build(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        code = graph6_encode(relabeled)
        if best is None or code < best:
            best = code
    return best


class TestCanonicalForm:
    def test_certificate_partitions_like_brute_force(self):
        """Certificate equality must match brute-force-certificate equality."""
        rng = random.Random(515)
        graphs = [_random_graph(rng, rng.randint(1, 6)) for _ in range(80)]
        for a, b in itertools.combinations(graphs, 2):
            if a.n != b.n:
                continue
            mine = canonical_form(a).certificate == canonical_form(b).certificate
            brute = _brute_force_certificate(a) == _brute_force_certificate(b)
            assert mine == brute

    def test_invariant_under_100_relabelings_of_named_graphs(self):
        rng = random.Random(2026)
        for g in (k33(), petersen(), heawood(), pappus(), prism()):
            reference = canonical_form(g).certificate
            for _ in range(100):
                assert canonical_form(_shuffle(g, rng)).certificate == reference

    def test_canonical_graph_is_isomorphic_to_input(self):
        rng = random.Random(31)
        for _ in range(40):
            g = _random_graph(rng, rng.randint(1, 12))
            cf = canonical_form(g)
            assert nx.is_isomorphic(_to_nx(g), _to_nx(cf.graph))
            assert graph6_encode(cf.graph) == cf.certificate

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabeling_invariance_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        )
        g = build(n, [p for p, keep in zip(pairs, mask) if keep])
        perm = data.draw(st.permutations(range(n)))
        h = build(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(g).certificate == canonical_form(h).certificate


class TestIsomorphism:
    def test_agrees_with_networkx_on_random_pairs(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 9)
            a = _random_graph(rng, n)
            b = _shuffle(a, rng) if rng.random() < 0.5 else _random_graph(rng, n)
            assert are_isomorphic(a, b) == nx.is_isomorphic(_to_nx(a), _to_nx(b))

    def test_mapping_is_a_checked_bijection(self):
        rng = random.Random(5)
        g = petersen()
        h = _shuffle(g, rng)
        phi = isomorphism(g, h)
        assert phi is not None and sorted(phi) == list(range(g.n))
        h_edges = set(h.edges)
        for u, v in g.edges:
            assert tuple(sorted((phi[u], phi[v]))) in h_edges

    def test_cospectral_mates_not_isomorphic(self):
        # Same vertex and edge counts, different structure.
        assert not are_isomorphic(k33(), prism())
        assert not are_isomorphic(cycle(6), build(6, [(0, 1), (1, 2), (2, 0),
                                                      (3, 4), (4, 5), (5, 3)]))


def _nx_aut_order(g) -> int:
    h = _to_nx(g)
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))


class TestAutomorphisms:
    def test_orders_match_networkx_on_named_graphs(self):
        expected = {
            "k33": (k33(), 72),
            "petersen": (petersen(), 120),
            "heawood": (heawood(), 336),
            "pappus": (pappus(), 216),
            "prism": (prism(), 12),
        }
        for name, (g, order) in expected.items():
            assert automorphism_group(g).order == order, name
            assert _nx_aut_order(g) == order, name

    def test_orders_match_networkx_on_random_graphs(self):
        rng = random.Random(123)
        for _ in range(30):
            g = _random_graph(rng, rng.randint(2, 8))
            assert automorphism_group(g).order == _nx_aut_order(g)

    def test_elements_are_automorphisms(self):
        g = petersen()
        edges = set(g.edges)
        for p in automorphism_group(g).elements:
            assert {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges

    def test_highly_symmetric_graphs(self):
        """Inputs whose group is most of Sym(n): the search must find it from
        at most n generators, and relabellings must keep the certificate."""
        k6 = build(6, list(itertools.combinations(range(6), 2)))
        k33_pair = build(12, list(k33().edges) + [(u + 6, v + 6) for u, v in k33().edges])
        cases = {
            "K8": (build(8, list(itertools.combinations(range(8), 2))), 40320),
            "edgeless 12": (build(12, []), 479001600),
            "K6 + K6": (build(12, list(k6.edges) + [(u + 6, v + 6) for u, v in k6.edges]),
                        1036800),
            "K3,3 + K3,3": (k33_pair, 10368),
        }
        rng = random.Random(88)
        for name, (g, order) in cases.items():
            group = automorphism_group(g)
            assert group.order == order, name
            assert len(group.generators) <= g.n, name
            assert (canonical_form(_shuffle(g, rng)).certificate
                    == canonical_form(_shuffle(g, rng)).certificate), name

    def test_respects_vertex_colors(self):
        g = cycle(4)
        full = automorphism_group(g)
        pinned = automorphism_group(g, cells=[[0], [1, 2, 3]])
        assert full.order == 8
        assert pinned.order == 2
        assert all(p[0] == 0 for p in pinned.elements)
