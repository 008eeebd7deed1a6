"""Canonical forms, isomorphism, and automorphism groups.

Five oracles: a brute-force all-relabelings canonical form for
small graphs, networkx VF2 for isomorphism answers, networkx's vf2pp
isomorphism enumeration for automorphism-group orders, the earlier
search loop (every child refined, then sorted by its invariant; no
backjumping), whose certificates, labellings and group orders the search
must reproduce exactly, and Schreier-Sims over the found automorphisms,
whose group the chain read off the search's first path must equal.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levibridge import canon, construction
from levibridge.canon import (
    _labelling_map,
    _Search,
    _refine,
    automorphism_group,
    canonical_form,
    isomorphism,
)
from levibridge.construction import (
    all_bridge_specs,
    bridge_census,
    bridge_graph,
    goedgebeur_graph,
)
from levibridge.graphs import (
    GraphError,
    adjacency_masks,
    build,
    gp,
    graph6_decode,
    graph6_encode,
    heawood,
    k33,
    lcf,
    moebius_kantor_graph,
    pappus,
    petersen,
    prism,
)
from levibridge.groups import PermGroup, closure, compose
from schreier_sims import SiftedGroup


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


def _mask(cell) -> int:
    return sum(1 << v for v in cell)


def _cell(mask) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _refine_every_cell(adj, cells, queue):
    """The earlier refinement: each queued splitter mask is counted against
    every non-singleton cell, and cells split in place during the pass."""
    cells = list(cells)
    trace = []
    qi = 0
    while qi < len(queue):
        smask = queue[qi]
        qi += 1
        out = []
        for pos, cell in enumerate(cells):
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
                continue
            shape = []
            for cnt in sorted(buckets):
                sub = tuple(buckets[cnt])
                out.append(sub)
                queue.append(_mask(sub))
                shape.append((cnt, len(sub)))
            trace.append((pos, tuple(shape)))
        cells = out
    return cells, tuple(trace)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class _RefineAllSearch(_Search):
    """The earlier search loop: refine every child of a node, sort the
    children by (inv, v), then search them with orbit pruning and no
    backjumping. It keeps its own group and, as that loop did, only the
    automorphisms that enlarge it, so it prunes with those alone."""

    def __init__(self, g, cells):
        self.group = SiftedGroup(g.n)
        super().__init__(g, cells)

    def _record_auto(self, lab_a, lab_b):
        if lab_a != lab_b:
            self.group.add(_labelling_map(lab_a, lab_b, self.edges, self.edge_set))

    def _leaf_cert(self, masks):
        lab = tuple(m.bit_length() - 1 for m in masks)
        pos = [0] * self.n
        for p, v in enumerate(lab):
            pos[v] = p
        return graph6_encode(build(self.n, [(pos[u], pos[v]) for u, v in self.edges])), lab

    def _prefix_beats(self, path, ref) -> bool:
        """True when ref (a stored full path) is still reachable from path."""
        return ref is None or path <= ref[0][: len(path)]

    def _node(self, masks, path, prefix, _fixing=None):
        # `_Search.__init__` hands the root a list of fixing automorphisms;
        # this loop keeps its own group instead and ignores it.
        cells = [_cell(m) for m in masks]
        ok_best = self._prefix_beats(path, self.best)
        ok_first = self.first is not None and path == self.first[0][: len(path)]
        if not ok_best and not ok_first:
            return
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) > len(cells[target])):
                target = idx
        if target is None:
            cert, lab = self._leaf_cert(masks)
            key = (path, cert)
            if self.first is None:
                self.first = (path, cert, lab)
                self.best = (path, cert, lab)
                return
            if key == (self.first[0], self.first[1]):
                self._record_auto(self.first[2], lab)
                if (self.best[0], self.best[1]) == key:
                    return
            if key < (self.best[0], self.best[1]):
                self.best = (path, cert, lab)
            elif key == (self.best[0], self.best[1]):
                self._record_auto(self.best[2], lab)
            return
        cell = cells[target]
        children = []
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            child = list(cells)
            child[target:target + 1] = [(v,), rest]
            refined, trace = _refine_every_cell(self.adj, child, [1 << v, _mask(rest)])
            inv = (tuple(len(c) for c in refined), trace)
            children.append((inv, v, refined))
        children.sort(key=lambda item: (item[0], item[1]))
        autos = self.group.generators
        uf, seen, tried = _UnionFind(self.n), 0, []
        for inv, v, refined in children:
            for p in autos[seen:]:
                if all(p[x] == x for x in prefix):
                    for x in range(self.n):
                        uf.union(x, p[x])
            seen = len(autos)
            if any(uf.find(v) == uf.find(w) for w in tried):
                continue
            tried.append(v)
            self._node([_mask(c) for c in refined], path + (inv,), prefix + (v,))


def _refine_all_form(g):
    """(certificate, labelling, |Aut|) as the earlier search computes them."""
    search = _RefineAllSearch(g, [tuple(range(g.n))])
    lab = search.best[2]
    pos = [0] * g.n
    for p, v in enumerate(lab):
        pos[v] = p
    cert = graph6_encode(build(g.n, [(pos[u], pos[v]) for u, v in g.edges]))
    return cert, lab, search.group.order


# sha256 of the forms in `TestSearchOrder.test_forms_are_pinned`.
PINNED_FORMS = "11ea823f9698edff1d5bc7825a2a25f5b5e0474c20007f028bb30699798a59d9"


def _iso_pool() -> dict:
    return json.loads((Path(__file__).resolve().parents[1] / "bench" / "data"
                       / "iso_pool.json").read_text())


def _census_copy(cls):
    """A fresh copy of a census class's representative, searched anew."""
    g = bridge_graph(cls.representative)
    return build(g.n, g.edges)


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
        """The certificate decodes to a graph that networkx and `isomorphism`
        both match to the input, and that encodes back to the certificate."""
        rng = random.Random(31)
        graphs = [_shuffle(pappus(), random.Random(5))]
        graphs += [_random_graph(rng, rng.randint(1, 12)) for _ in range(40)]
        for g in graphs:
            cf = canonical_form(g)
            h = graph6_decode(cf.certificate)
            assert nx.is_isomorphic(_to_nx(g), _to_nx(h))
            assert isomorphism(g, h) is not None
            assert graph6_encode(h) == cf.certificate

    def test_cells_may_be_iterators(self):
        """Each cell is read once, so a cell given as an iterator counts.
        The empty graph takes the general search under the default cells,
        no cells, and one empty cell given as a list or an iterator."""
        g = gp(5, 2)
        cf, ref = canonical_form(g, [iter(range(10))]), canonical_form(g)
        assert (cf.certificate, cf.order, cf.color_sizes) == (ref.certificate, ref.order, (10,))
        for cells in (None, [], [[]], [iter(())]):
            cf = canonical_form(build(0, []), cells)
            assert (cf.certificate, cf.order, cf.color_sizes, cf.automorphisms) \
                == (b"?", (), (), ())
            assert graph6_decode(cf.certificate) == build(0, []) and cf.group.order == 1

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


class TestFormCache:
    """The canonical form is cached on its graph, one entry per coloring."""

    def test_each_graph_is_searched_once(self, monkeypatch):
        built = []

        class Counted(_Search):
            def __init__(self, g, cells):
                built.append(g)
                super().__init__(g, cells)

        monkeypatch.setattr(canon, "_Search", Counted)
        g = heawood()
        h = _shuffle(g, random.Random(3))
        phi = isomorphism(g, h)
        assert automorphism_group(g).order == 336
        canonical_form(g)
        assert len(built) == 2 and built[0] is g and built[1] is h
        built.clear()
        assert isomorphism(g, h) == phi and built == []

    def test_cached_form_matches_a_fresh_copy(self):
        """Certificate, labelling and |Aut| read from the cache equal those
        a fresh copy's own search gives, uncolored and under two colors; a
        coloring given as iterators reads the same entry."""
        rng = random.Random(1717)
        joins = [bridge_graph(c.representative) for c in bridge_census()]
        assert len(joins) == 17
        named = [heawood(), pappus(), moebius_kantor_graph(), gp(10, 3)]
        graphs = joins + [_shuffle(g, rng) for g in joins + named]
        for g in graphs:
            colors = [[v for v in range(g.n) if v % 3], [v for v in range(g.n) if not v % 3]]
            for cells in (None, colors):
                cf = canonical_form(g, cells)
                fresh = canonical_form(build(g.n, g.edges), cells)
                assert canonical_form(g, cells) is cf
                assert (cf.certificate, cf.order, cf.group.order) \
                    == (fresh.certificate, fresh.order, fresh.group.order), g
            assert canonical_form(g, (iter(c) for c in colors)) is canonical_form(g, colors)

    def test_colorings_are_cached_apart(self):
        """One graph searched uncolored, then under two colorings of equal
        color sizes, gives three different forms."""
        g = build(3, [(0, 1), (1, 2)])
        plain = canonical_form(g)
        end = canonical_form(g, [[0], [1, 2]])
        middle = canonical_form(g, [[1], [0, 2]])
        assert plain.color_sizes == (3,) and end.color_sizes == middle.color_sizes == (1, 2)
        assert end.certificate != middle.certificate
        assert (plain.group.order, end.group.order, middle.group.order) == (2, 1, 2)
        assert canonical_form(g) is plain


class TestIsomorphism:
    def test_agrees_with_networkx_on_random_pairs(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 9)
            a = _random_graph(rng, n)
            b = _shuffle(a, rng) if rng.random() < 0.5 else _random_graph(rng, n)
            assert (isomorphism(a, b) is not None) == nx.is_isomorphic(_to_nx(a), _to_nx(b))

    def test_mapping_is_a_checked_bijection(self):
        rng = random.Random(5)
        g = petersen()
        h = _shuffle(g, rng)
        phi = isomorphism(g, h)
        assert phi is not None and sorted(phi) == list(range(g.n))
        h_edges = set(h.edges)
        for u, v in g.edges:
            assert tuple(sorted((phi[u], phi[v]))) in h_edges

    def test_builds_no_stabilizer_chain(self, fresh_goedgebeur, monkeypatch):
        """An isomorphism test reads no automorphism group, so it builds no
        stabilizer chain from a search's base, the one way the library
        builds a chain; its mapping is the one the two canonical labellings
        give."""
        def no_chain(*args):
            raise AssertionError("isomorphism built a stabilizer chain")

        tutte_8_cage = lcf([-13, -9, 7, -7, 9, 13], 5)
        graphs = (heawood(), tutte_8_cage, fresh_goedgebeur, build(12, []))
        # Patched only now: the census behind the fixture reads groups.
        monkeypatch.setattr(PermGroup, "from_base", no_chain)
        rng = random.Random(9)
        for g in graphs:
            h = _shuffle(g, rng)
            expected = _labelling_map(canonical_form(g).order, canonical_form(h).order,
                                      g.edges, set(h.edges))
            assert isomorphism(g, h) == expected

    def test_cospectral_mates_not_isomorphic(self):
        # Same vertex and edge counts, different structure.
        assert isomorphism(k33(), prism()) is None
        hexagon = build(6, [(i, (i + 1) % 6) for i in range(6)])
        assert isomorphism(hexagon, build(6, [(0, 1), (1, 2), (2, 0),
                                              (3, 4), (4, 5), (5, 3)])) is None


def _z4z4_cayley(steps):
    """Cayley graph on Z4 x Z4 (vertex 4i + j) for a symmetric step set."""
    return build(16, [(4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)
                      for i in range(4) for j in range(4) for a, b in steps])


def _union(a, b):
    return build(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


def _rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph: both strongly regular
    with parameters (16, 6, 2, 2), so refinement cannot tell them apart."""
    return (_z4z4_cayley([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]),
            _z4z4_cayley([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)]))


class TestSearchOrder:
    def test_matches_refine_all_search(self):
        """Vertex-order children, backjumping and hit-cell refinement change
        no certificate, labelling or group order of the earlier search.

        Refinement cannot tell the components of the union of the rook's
        and Shrikhande graphs apart; there an orbit skip that used
        automorphisms moving the node's prefix would change the certificate.
        """
        rng = random.Random(606)
        rook, shrikhande = _rook_and_shrikhande()
        named = [k33(), petersen(), heawood(), pappus(), prism(),
                 moebius_kantor_graph(), gp(10, 2), gp(10, 3), goedgebeur_graph(),
                 _union(rook, shrikhande), _union(shrikhande, rook)]
        graphs = named + [_shuffle(g, rng) for g in named]
        graphs += [bridge_graph(s) for s in rng.sample(all_bridge_specs(), 64)]
        graphs += [_random_graph(rng, rng.randint(1, 11)) for _ in range(200)]
        for g in graphs:
            cf = canonical_form(g)
            assert (cf.certificate, cf.order, cf.group.order) == _refine_all_form(g), g

    def test_forms_are_pinned(self):
        """Certificate, labelling, found automorphisms and base, hashed over
        the `iso` pool's 18 named graphs, each as given and under two
        relabellings, and the 17 census representatives: a search that
        visits other nodes, prunes otherwise or finds other automorphisms,
        or finds them in another order, changes the digest."""
        rng = random.Random(3401)
        graphs = []
        for item in _iso_pool()["named"]:
            g = graph6_decode(item["g6"])
            graphs += [g, _shuffle(g, rng), _shuffle(g, rng)]
        graphs += [_census_copy(c) for c in bridge_census()]
        assert len(graphs) == 3 * 18 + 17
        digest = hashlib.sha256()
        for g in graphs:
            cf = canonical_form(g)
            digest.update(repr((cf.certificate, cf.order, cf.automorphisms, cf.base)).encode())
        assert digest.hexdigest() == PINNED_FORMS

    def test_first_path_leaves_that_are_not_images_are_encoded(self, monkeypatch):
        """A leaf on the first leaf's path whose map from the first leaf
        breaks an edge is no automorphism and falls through to its graph6
        key. The census searches meet such leaves, and the forms of the
        graphs that do equal the earlier search's."""
        node, met = _Search._node, []

        def counted(self, cells, path, prefix, fixing):
            if len(cells) == self.n and self.first is not None and path == self.first[0]:
                phi = dict(zip(self.first[2], (c.bit_length() - 1 for c in cells)))
                met.append(any(tuple(sorted((phi[u], phi[v]))) not in self.edge_set
                               for u, v in self.edges))
            return node(self, cells, path, prefix, fixing)

        graphs = [_census_copy(c) for c in bridge_census()]
        monkeypatch.setattr(_Search, "_node", counted)
        fell_back = []
        for g in graphs:
            before = met.count(True)
            cf = canonical_form(g)
            if met.count(True) > before:
                fell_back.append((g, cf))
        assert fell_back and met.count(False) > met.count(True)
        for g, cf in fell_back:
            assert (cf.certificate, cf.order, cf.group.order) == _refine_all_form(g), g

    def test_orbit_pruning_uses_only_automorphisms_fixing_the_prefix(self):
        """A search that pruned with the automorphisms that move the prefix,
        rather than those that fix it, labels this relabelled union of one
        rook's and two Shrikhande graphs differently."""
        rook, shrikhande = _rook_and_shrikhande()
        g = _shuffle(_union(_union(rook, shrikhande), shrikhande), random.Random(0))
        cf = canonical_form(g)
        assert (cf.certificate, cf.order, cf.group.order) == _refine_all_form(g)

    def test_refine_matches_every_cell_refinement(self):
        """Refinement from a random ordered partition gives the earlier
        refinement's cells and trace, also where it stops at a discrete
        partition: a split queues a fragment behind the splitter that made
        it, so a partition a split made discrete still has splitters queued."""
        rng = random.Random(707)
        stopped = 0
        for _ in range(300):
            g = _random_graph(rng, rng.randint(1, 14))
            verts = list(range(g.n))
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1))) if g.n > 1 else []
            cells = [tuple(verts[a:b]) for a, b in zip([0] + cuts, cuts + [g.n])]
            adj = adjacency_masks(g)
            masks = [_mask(c) for c in cells]
            refined, trace = _refine(adj, masks, list(masks))
            every, every_trace = _refine_every_cell(adj, cells, list(masks))
            assert (refined, trace) == ([_mask(c) for c in every], every_trace)
            stopped += len(refined) == g.n and bool(trace)
        assert stopped >= 100

    def test_child_refinement_matches_every_cell_refinement(self):
        """A child refines from its individualized vertex alone: from an
        equitable partition, that gives the cells and trace of queueing both
        parts of the split cell to the earlier refinement."""
        rng = random.Random(808)
        graphs = [_random_graph(rng, rng.randint(2, 14)) for _ in range(150)]
        graphs += [bridge_graph(s) for s in rng.sample(all_bridge_specs(), 12)]
        for g in graphs:
            verts = list(range(g.n))
            rng.shuffle(verts)
            cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n // 3)))
            cells = [tuple(verts[a:b]) for a, b in zip([0] + cuts, cuts + [g.n])]
            adj = adjacency_masks(g)
            masks = [_mask(c) for c in cells]
            equitable, _ = _refine(adj, masks, list(masks))
            size = max(c.bit_count() for c in equitable)
            if size == 1:
                continue
            target = next(i for i, c in enumerate(equitable) if c.bit_count() == size)
            for v in _cell(equitable[target]):
                rest = equitable[target] & ~(1 << v)
                child = list(equitable)
                child[target:target + 1] = [1 << v, rest]
                refined, trace = _refine(adj, child, [1 << v])
                every, every_trace = _refine_every_cell(adj, list(map(_cell, child)),
                                                        [1 << v, rest])
                assert (refined, trace) == ([_mask(c) for c in every], every_trace), g


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
            "gp(200, 1)": (gp(200, 1), 800),
            "edgeless 20": (build(20, []), 2432902008176640000),
        }
        rng = random.Random(88)
        for name, (g, order) in cases.items():
            group = automorphism_group(g)
            assert group.order == order, name
            assert len(group.generators) <= g.n, name
            assert (canonical_form(_shuffle(g, rng)).certificate
                    == canonical_form(_shuffle(g, rng)).certificate), name

    def test_respects_vertex_colors(self):
        g = build(4, [(i, (i + 1) % 4) for i in range(4)])
        full = automorphism_group(g)
        pinned = automorphism_group(g, cells=[[0], [1, 2, 3]])
        assert full.order == 8
        assert pinned.order == 2
        assert all(p[0] == 0 for p in pinned.elements)
        with pytest.raises(GraphError, match="cells must partition"):
            canonical_form(build(3, [(0, 1)]), [[0], [1]])


def _sifted_group(cf):
    """The search's group by Schreier-Sims, sifting every Schreier generator
    of the found automorphisms: the chain `from_base` must reproduce."""
    return SiftedGroup(len(cf.order), cf.automorphisms)


def _random_word(group, rng: random.Random):
    """A random product of the group's generators: a member of the group."""
    p = tuple(range(group.degree))
    for _ in range(rng.randint(0, 6) if group.generators else 0):
        p = compose(rng.choice(group.generators), p)
    return p


def _random_perm(n, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def _assert_chain_is_sifted_group(cf, rng: random.Random):
    """The search's chain and Schreier-Sims's agree on order, on every
    element when there are at most 5,000, and on 10 random permutations
    and 10 random members; the chain's base points are `cf.base`'s, in order.
    Up to that order, each chain's listed elements are its order many and
    are its generators' closure."""
    group, sifted = cf.group, _sifted_group(cf)
    assert group.order == sifted.order
    if sifted.order <= 5000:
        for chain in (group, sifted):
            assert len(chain.elements) == chain.order
            assert chain.elements == closure(chain.generators, chain.degree)
        assert all(p in group for p in sifted.elements)
    for p in [_random_perm(group.degree, rng) for _ in range(10)] \
            + [_random_word(group, rng) for _ in range(10)]:
        assert (p in group) == (p in sifted)
    base = iter(cf.base)
    assert all(b in base for b, _, _ in group._levels)


def _chain_corpus(rng: random.Random):
    """(graph, cells): G(n, p) graphs with n <= 12, random graphs under a
    random 2-cell coloring, relabelled gp(n, k), relabelled unions of two
    of K3,3, gp(5, 2), gp(7, 2) and the edgeless 4-vertex graph, and the
    17 census representatives, relabelled."""
    cases = [(_random_graph(rng, rng.randint(1, 12)), None) for _ in range(190)]
    for _ in range(60):
        g = _random_graph(rng, rng.randint(2, 12))
        verts = _random_perm(g.n, rng)
        cut = rng.randint(1, g.n - 1)
        cases.append((g, [verts[:cut], verts[cut:]]))
    for n, k in ((5, 1), (5, 2), (6, 1), (6, 2), (7, 2), (8, 1), (8, 3), (10, 2), (10, 3),
                 (12, 5), (13, 5), (24, 5)):
        cases.append((_shuffle(gp(n, k), rng), None))
    parts = (k33(), gp(5, 2), gp(7, 2), build(4, []))
    for a, b in itertools.combinations_with_replacement(parts, 2):
        cases.append((_shuffle(_union(a, b), rng), None))
    cases += [(_shuffle(bridge_graph(c.representative), rng), None) for c in bridge_census()]
    return cases


class TestSearchChain:
    """`CanonicalForm.group` is built from the first path's base and the
    found automorphisms, with no sifting; Schreier-Sims is its oracle."""

    def test_matches_schreier_sims_on_a_corpus(self):
        rng = random.Random(3131)
        cases = _chain_corpus(rng)
        assert len(cases) == 289
        for g, cells in cases:
            _assert_chain_is_sifted_group(canonical_form(g, cells), rng)

    def test_matches_schreier_sims_on_the_hub_search(self, monkeypatch):
        """W's search: the identity join with hubs, under its three cells."""
        searched = []

        def recorded(g, cells=None):
            searched.append((g, cells))
            return canonical_form(g, cells)

        monkeypatch.setattr(construction, "canonical_form", recorded)
        cf, _ = construction._spec_action.__wrapped__()
        (h, cells), = searched
        assert cf is canonical_form(h, cells)
        w = cf.group
        assert w.generators == list(cf.automorphisms) and w.order == 128
        _assert_chain_is_sifted_group(cf, random.Random(3232))

    def test_transversals_send_the_base_point_to_each_orbit_point(self):
        """A level keeps one permutation u per orbit point x, with u(b) = x
        for its base point b: in the search's chains, in Schreier-Sims's
        over the same automorphisms, and in Sym(n) from a shift and a swap."""
        groups = []
        for g, cells in _chain_corpus(random.Random(3131)):
            cf = canonical_form(g, cells)
            groups += [cf.group, _sifted_group(cf)]
        assert len(groups) == 2 * 289
        for n in range(1, 9):
            shift = tuple((i + 1) % n for i in range(n))
            swap = (1, 0) + tuple(range(2, n)) if n > 1 else (0,)
            groups.append(SiftedGroup(n, [shift, swap]))
        for group in groups:
            for b, _, trans in group._levels:
                for x, u in trans.items():
                    assert sorted(u) == list(range(group.degree)) and u[b] == x

    def test_search_groups_sift_nothing(self):
        """The library has no Schreier-Sims, so its chains sift no Schreier
        generator; |Aut| and membership are right on the `iso` benchmark's
        named graphs and the 17 census representatives, all fresh copies: a
        member is exactly an automorphism."""
        cases = [(graph6_decode(item["g6"]), item["aut_order"]) for item in _iso_pool()["named"]]
        cases += [(_census_copy(c), c.aut_order) for c in bridge_census()]
        rng = random.Random(3333)
        for g, order in cases:
            group = automorphism_group(g)
            assert group.order == order
            edges = set(g.edges)
            for p in [_random_word(group, rng) for _ in range(5)] \
                    + [_random_perm(g.n, rng) for _ in range(5)]:
                image = {tuple(sorted((p[u], p[v]))) for u, v in g.edges}
                assert (p in group) == (image == edges)
