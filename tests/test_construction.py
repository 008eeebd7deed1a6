"""Residues, the eight-edge bridge, the 576-join census, and marked edges.

The automorphism orders that drive the census are cross-checked against
networkx's VF2++ isomorphism enumeration, which shares no code with the
canonical-search implementation.
"""

import hashlib
import itertools
import random
import re

import networkx as nx
import pytest

from levibridge import construction
from levibridge.canon import automorphism_group, canonical_form
from levibridge.construction import (
    BridgeError,
    BridgeSpec,
    CensusClass,
    MarkedEdges,
    Residue,
    StructureError,
    act_on_spec,
    all_bridge_specs,
    bridge_census,
    bridge_graph,
    bridge_join,
    f_residue,
    goedgebeur_configuration,
    goedgebeur_graph,
    identify_goedgebeur,
    marked_edges,
    mk_residue,
    spec_symmetries,
)
from levibridge.graphs import (adjacency_masks, bfs_layers, bipartition, build, girth,
                               is_cubic)
from levibridge.incidence import Configuration, fano, moebius_kantor
from levibridge.twofactors import ALL_ODD, pseudo_2fi


class TestBridgeSpec:
    def test_identity_rank_and_str(self):
        spec = BridgeSpec((0, 1, 2, 3), (0, 1, 2, 3))
        assert spec.rank == 0
        assert str(spec) == "0123 0123"

    def test_rank_is_lexicographic_double_order(self):
        specs = all_bridge_specs()
        assert len(specs) == 576
        assert [s.rank for s in specs] == list(range(576))
        assert specs[575] == BridgeSpec((3, 2, 1, 0), (3, 2, 1, 0))

    def test_rank_formula(self):
        spec = BridgeSpec((0, 1, 3, 2), (1, 0, 2, 3))
        assert spec.rank == 24 * 1 + 6

    def test_from_strings(self):
        assert BridgeSpec.from_strings("2013", "3102") == BridgeSpec(
            (2, 0, 1, 3), (3, 1, 0, 2)
        )
        with pytest.raises(ValueError):
            BridgeSpec.from_strings("201", "3102")
        with pytest.raises(ValueError):
            BridgeSpec.from_strings("2014", "3102")
        # Only ASCII digits: other Unicode digits and superscripts are refused
        # by name, not read as numbers or left to int().
        for odd in ("٠١٢٣", "²013", "2013\n", "+013"):
            with pytest.raises(ValueError, match=re.escape(f"got {odd!r}")):
                BridgeSpec.from_strings("3102", odd)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            BridgeSpec((0, 1, 2, 2), (0, 1, 2, 3))


class TestResidues:
    def test_f_residue_slots(self):
        r = f_residue()
        assert r.base == fano()
        assert r.open_points == (3, 4, 5, 6)
        assert r.open_lines == (1, 6, 2, 5)
        assert r.removed == ((4, 1), (5, 6), (6, 2), (3, 5))

    def test_f_residue_retained_points(self):
        r = f_residue()
        assert r.line_points(1) == frozenset({0, 3})
        assert r.line_points(6) == frozenset({2, 4})
        assert r.line_points(2) == frozenset({0, 5})
        assert r.line_points(5) == frozenset({2, 6})
        # Unopened lines keep all three points.
        assert r.line_points(0) == frozenset({0, 1, 2})

    def test_f_residue_quadrilateral_shape(self):
        # Consecutive open points share one retained side line.
        r = f_residue()
        quad, sides = r.open_points, r.open_lines
        for i in range(4):
            side = r.line_points(sides[i])
            assert quad[i] in side
            # The removed incidence took the *next* corner off this side.
            assert (quad[(i + 1) % 4], sides[i]) in r.removed

    def test_mk_residue_slots(self):
        r = mk_residue()
        assert r.base == moebius_kantor()
        assert r.removed == ((0, 0), (2, 2), (4, 4), (6, 6))
        assert r.open_points == (0, 2, 4, 6)
        assert r.open_lines == (4, 6, 0, 2)  # antipodal pairing

    def test_mk_residue_antipodal_pairing(self):
        r = mk_residue()
        for i in range(4):
            assert r.open_lines[i] == (r.open_points[i] + 4) % 8

    def test_mk_residue_retained_points(self):
        r = mk_residue()
        assert r.line_points(0) == frozenset({1, 3})
        assert r.line_points(2) == frozenset({3, 5})
        # Open line j keeps the odd point j + 1 beside its removed point j.
        for j in r.open_lines:
            assert (1, 3, 5, 7)[j // 2] in r.base.lines[j]

    def test_validation_rejects_non_incidence(self):
        with pytest.raises(ValueError):
            Residue(
                base=moebius_kantor(),
                removed=((0, 1), (2, 2), (4, 4), (6, 6)),  # 0 not on line 1
                open_points=(0, 2, 4, 6),
                open_lines=(1, 2, 4, 6),
            )

    def test_validation_rejects_mismatched_slots(self):
        with pytest.raises(ValueError):
            Residue(
                base=moebius_kantor(),
                removed=((0, 0), (2, 2), (4, 4), (6, 6)),
                open_points=(0, 2, 4, 5),
                open_lines=(0, 2, 4, 6),
            )
        f = f_residue()
        with pytest.raises(ValueError, match="open lines must be the lines losing"):
            Residue(f.base, f.removed, f.open_points, (0, 1, 2, 3))

    def test_validation_rejects_repeated_point(self):
        with pytest.raises(ValueError):
            Residue(
                base=moebius_kantor(),
                removed=((0, 0), (0, 5), (4, 4), (6, 6)),
                open_points=(0, 0, 4, 6),
                open_lines=(0, 4, 5, 6),
            )


def quadrilaterals_mutually_inscribed(
    c: Configuration,
) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs of mutually inscribed quadrilaterals.

    A quadrilateral is a cyclic 4-tuple of points with no three collinear
    in which consecutive points are collinear (the sides) and opposite
    points are not (diagonal-free). Two quadrilaterals are mutually
    inscribed when each side of one passes through a vertex of the other,
    and vice versa. Every row is (points, companion vertices in side order,
    side line indices); the cycle starts at its smallest point and runs
    toward the smaller neighbor, and each ordered pair contributes one row
    for each quadrilateral.
    """
    line_through: dict[frozenset[int], int] = {}
    for j, line in enumerate(c.lines):
        for pair in itertools.combinations(sorted(line), 2):
            line_through[frozenset(pair)] = j

    quads = []
    for four in itertools.combinations(range(c.n_points), 4):
        if any(len(line & set(four)) >= 3 for line in c.lines):
            continue
        a, *rest = four
        for perm in itertools.permutations(rest):
            if perm[0] > perm[2]:
                continue  # keep one direction of each cycle
            cycle = (a,) + perm
            side_pairs = [
                frozenset((cycle[i], cycle[(i + 1) % 4])) for i in range(4)
            ]
            if any(pair not in line_through for pair in side_pairs):
                continue
            diagonals = (frozenset((cycle[0], cycle[2])),
                         frozenset((cycle[1], cycle[3])))
            if any(d in line_through for d in diagonals):
                continue
            sides = tuple(line_through[pair] for pair in side_pairs)
            thirds = tuple(
                next(iter(c.lines[s] - pair))
                for s, pair in zip(sides, side_pairs)
            )
            quads.append((cycle, thirds, sides))

    out = []
    for q1, q2 in itertools.permutations(quads, 2):
        if (set(q1[1]) == set(q2[0]) and set(q2[1]) == set(q1[0])
                and q1 not in out):
            out.append(q1)
    return out


class TestQuadrilaterals:
    def test_mk_has_three_mutually_inscribed_pairs(self):
        rows = quadrilaterals_mutually_inscribed(moebius_kantor())
        assert len(rows) == 6  # three unordered pairs, both directions
        cycles = {row[0] for row in rows}
        assert (0, 2, 4, 6) in cycles

    def test_even_odd_quadrilateral_pair(self):
        rows = quadrilaterals_mutually_inscribed(moebius_kantor())
        even = next(r for r in rows if r[0] == (0, 2, 4, 6))
        assert even == ((0, 2, 4, 6), (7, 1, 3, 5), (7, 1, 3, 5))
        odd = next(r for r in rows if r[0] == (1, 3, 5, 7))
        assert odd == ((1, 3, 5, 7), (0, 2, 4, 6), (0, 2, 4, 6))

    def test_mutuality(self):
        rows = quadrilaterals_mutually_inscribed(moebius_kantor())
        for cycle_pts, thirds, _sides in rows:
            assert any(
                set(other[0]) == set(thirds)
                and set(other[1]) == set(cycle_pts)
                for other in rows
            )

    def test_fano_has_none(self):
        assert quadrilaterals_mutually_inscribed(fano()) == []

    def test_mk_removals_are_odd_quad_circumscription(self):
        # The four removed incidences are exactly (third point, side line)
        # of the odd quadrilateral inscribed in the even one.
        rows = quadrilaterals_mutually_inscribed(moebius_kantor())
        odd = next(r for r in rows if r[0] == (1, 3, 5, 7))
        _cycle, thirds, sides = odd
        assert tuple(sorted(zip(thirds, sides))) == mk_residue().removed


class TestBridgeJoin:
    def test_identity_join_shape(self):
        config, g = bridge_join(f_residue(), mk_residue(),
                                BridgeSpec((0, 1, 2, 3), (0, 1, 2, 3)))
        assert config.n_points == 15 and len(config.lines) == 15
        assert g.n == 30 and len(g.edges) == 45
        assert is_cubic(g) and girth(g) == 6
        assert bipartition(g) is not None

    def test_labels(self):
        g = bridge_graph(BridgeSpec((0, 1, 2, 3), (0, 1, 2, 3)))
        assert g.labels[0] == "fp0"
        assert g.labels[7] == "mp0"
        assert g.labels[15] == "fl0"
        assert g.labels[22] == "ml0"
        assert g.labels[29] == "ml7"

    def test_bridge_edges_follow_spec(self):
        spec = BridgeSpec((2, 0, 1, 3), (1, 3, 0, 2))
        f, mk = f_residue(), mk_residue()
        g = bridge_graph(spec)
        edges = set(g.edges)
        for i in range(4):
            mk_point = 7 + mk.open_points[i]
            f_line = 15 + f.open_lines[spec.alpha[i]]
            assert tuple(sorted((mk_point, f_line))) in edges
            f_point = f.open_points[spec.beta[i]]
            mk_line = 22 + mk.open_lines[i]
            assert tuple(sorted((f_point, mk_line))) in edges

    def test_all_576_joins_are_valid(self):
        for spec in all_bridge_specs():
            g = bridge_graph(spec)
            assert g.n == 30 and is_cubic(g) and girth(g) == 6

    def test_colliding_join_raises_with_witness(self):
        # A residue whose open lines retain open points lets a bridge edge
        # close a 4-cycle: lines fl1 {0,3}+mp2 and ml1 {2,4}+fp3 would share
        # two points once alpha routes mk point 2 to f line 1 and beta
        # routes f point 3 to mk line 1.
        mk = moebius_kantor()
        clashing = Residue(
            base=mk,
            removed=((0, 0), (1, 1), (2, 2), (3, 3)),
            open_points=(0, 1, 2, 3),
            open_lines=(0, 1, 2, 3),
        )
        with pytest.raises(BridgeError) as info:
            bridge_join(f_residue(), clashing,
                        BridgeSpec((1, 2, 0, 3), (1, 0, 2, 3)))
        assert info.value.violating_pair == (1, 8)  # fl1 and ml1


def _merging_action(w, spec):
    # Spec rank 1 lies outside the orbit of rank 0 but is sent onto it.
    first, second = all_bridge_specs()[:2]
    return first if spec == second else act_on_spec(w, spec)


def _miscounting_action(w, spec):
    # The identity of W stops fixing specs; generators act correctly.
    if w == tuple(range(len(w))):
        return all_bridge_specs()[575 - spec.rank]
    return act_on_spec(w, spec)


class TestCensus:
    def test_17_classes_summing_to_576(self):
        classes = bridge_census()
        assert len(classes) == 17
        assert sum(len(c.specs) for c in classes) == 576

    def test_aggregate_histogram(self):
        classes = bridge_census()
        histogram = {}
        for c in classes:
            key = (c.aut_order, len(c.specs))
            histogram[key] = histogram.get(key, 0) + 1
        assert histogram == {
            (144, 8): 1,
            (24, 16): 1,
            (16, 8): 1,
            (8, 16): 6,
            (4, 64): 1,
            (4, 32): 4,
            (2, 64): 2,
            (1, 128): 1,
        }

    def test_classes_are_really_isomorphism_classes(self):
        # Same certificate within a class, distinct across classes.
        classes = bridge_census()
        assert len({c.certificate for c in classes}) == 17
        largest = max(classes, key=lambda c: len(c.specs))
        sample = largest.specs[:: len(largest.specs) // 4]
        for spec in sample:
            assert canonical_form(bridge_graph(spec)).certificate \
                == largest.certificate

    def test_certificates_are_pinned(self):
        """Classes tie-break by certificate, so a change in any certificate
        can reorder `survey` rows; the bytes stay as first computed."""
        digest = hashlib.sha256(b"".join(c.certificate for c in bridge_census()))
        assert digest.hexdigest() \
            == "db5e9a4838f3e269fbef03e047d3087660d128d5156b66e22cb6fe761b3a9311"

    def test_specs_partition_all_576(self):
        classes = bridge_census()
        seen = [s for c in classes for s in c.specs]
        assert sorted(s.rank for s in seen) == list(range(576))

    def test_aut_orders_match_networkx_on_representatives(self):
        for c in bridge_census():
            g = bridge_graph(c.representative)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            nx_order = sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))
            assert nx_order == c.aut_order

    def test_matches_brute_force_grouping(self):
        # One canonical search per spec, grouped by certificate, each class's
        # order read off its first member: the census without W.
        first, groups = {}, {}
        for spec in all_bridge_specs():
            cf = canonical_form(bridge_graph(spec))
            first.setdefault(cf.certificate, cf)
            groups.setdefault(cf.certificate, []).append(spec)
        brute = sorted(
            (CensusClass(cert, first[cert].group.order, tuple(specs))
             for cert, specs in groups.items()),
            key=lambda c: (-c.aut_order, len(c.specs), c.certificate),
        )
        assert list(bridge_census()) == brute

    @pytest.mark.parametrize("broken, message", [
        (_merging_action, "meets an earlier orbit"),
        (_miscounting_action, "8 specs x stabilizer 15 != |W| = 128"),
        (lambda w, s: s, "does not divide |Aut| = 144"),
    ], ids=["partition", "orbit-stabilizer", "divisibility"])
    def test_orbit_invariants_raise(self, monkeypatch, broken, message):
        monkeypatch.setattr(construction, "act_on_spec", broken)
        bridge_census.cache_clear()
        try:
            with pytest.raises(StructureError, match=re.escape(message)):
                bridge_census()
        finally:
            bridge_census.cache_clear()

    def test_diagonal_specs_split_8_and_16(self):
        classes = bridge_census()
        placement = {}
        for c in classes:
            diag = [s for s in c.specs if s.alpha == s.beta]
            if diag:
                placement[c.aut_order] = len(diag)
        assert placement == {144: 8, 24: 16}


class TestSpecSymmetries:
    # Checked edge by edge, with no canonical form, so independent of the
    # certificate oracle above.
    def test_order_and_orbit_sizes(self):
        w = spec_symmetries()
        assert w.order == 128
        seen, sizes = set(), []
        for spec in all_bridge_specs():
            if spec in seen:
                continue
            orbit, frontier = {spec}, [spec]
            while frontier:
                s = frontier.pop()
                for gen in w.generators:
                    t = act_on_spec(gen, s)
                    if t not in orbit:
                        orbit.add(t)
                        frontier.append(t)
            seen |= orbit
            sizes.append(len(orbit))
        assert sorted(sizes) == [8, 8] + [16] * 7 + [32] * 4 + [64] * 3 + [128]

    def test_generators_are_isomorphisms_between_joins(self):
        edges = {
            spec: {frozenset(e) for e in bridge_graph(spec).edges}
            for spec in all_bridge_specs()
        }
        gens = spec_symmetries().generators
        assert gens
        for w in gens:
            assert sorted(w[:30]) == list(range(30))
            for spec, mine in edges.items():
                image = {frozenset((w[u], w[v])) for u, v in mine}
                assert image == edges[act_on_spec(w, spec)], (w, spec)


class TestIdentification:
    def test_identity_spec_is_the_representative(self):
        spec, g = identify_goedgebeur()
        assert spec == BridgeSpec((0, 1, 2, 3), (0, 1, 2, 3))
        assert g.n == 30

    def test_graph_properties(self):
        g = goedgebeur_graph()
        assert is_cubic(g) and girth(g) == 6
        assert bipartition(g) is not None
        assert automorphism_group(g).order == 144

    def test_aut_order_matches_networkx(self):
        g = goedgebeur_graph()
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        assert sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h)) == 144

    def test_parity_status(self):
        report = pseudo_2fi(goedgebeur_graph())
        assert report.matching_count == 312
        assert report.status == ALL_ODD
        assert set(report.cycle_counts) == {1, 3}
        assert report.cycle_counts.count(1) == 144
        assert report.cycle_counts.count(3) == 168

    def test_configuration_is_self_dual_15_3(self):
        config = goedgebeur_configuration()
        assert config.n_points == 15 and len(config.lines) == 15


def _distance_matrix(g):
    adj = adjacency_masks(g)
    dist = []
    for start in range(g.n):
        row = [-1] * g.n
        for d, layer in enumerate(bfs_layers(adj, start)):
            for v in range(g.n):
                if layer >> v & 1:
                    row[v] = d
        dist.append(row)
    return dist


def _edge_vertex_distance(dist, edge, v) -> int:
    return min(dist[edge[0]][v], dist[edge[1]][v])


def _edge_edge_distance(dist, e1, e2) -> int:
    return min(dist[a][b] for a in e1 for b in e2)


def _distance_marked_edges(g) -> MarkedEdges:
    """Oracle: the distance-matrix recovery of the marked edges that the
    bitmask one in construction replaced, kept verbatim."""
    if g.labels is None or len(g.labels) != g.n:
        raise StructureError("marked_edges needs the origin labels of a join")
    first_points = {v for v in range(g.n) if g.labels[v].startswith("fp")}
    first_lines = {v for v in range(g.n) if g.labels[v].startswith("fl")}
    second_points = {v for v in range(g.n) if g.labels[v].startswith("mp")}
    second_lines = {v for v in range(g.n) if g.labels[v].startswith("ml")}
    if not (first_points and first_lines and second_points and second_lines):
        raise StructureError("marked_edges needs the origin labels of a join")
    first = first_points | first_lines
    second = second_points | second_lines

    bridge_edges = [
        (u, v) for u, v in g.edges if (u in first) != (v in first)
    ]
    if len(bridge_edges) != 8:
        raise StructureError(f"expected 8 bridge edges, found {len(bridge_edges)}")

    open_first_points = sorted(
        u for u in first_points
        if any(v in second_lines for v in g.neighbors(u))
    )
    open_first_lines = sorted(
        u for u in first_lines
        if any(v in second_points for v in g.neighbors(u))
    )
    if len(open_first_points) != 4 or len(open_first_lines) != 4:
        raise StructureError("expected four open points and four open lines")
    special = open_first_points + open_first_lines

    dist = _distance_matrix(g)

    e_candidates = [
        edge for edge in g.edges
        if all(_edge_vertex_distance(dist, edge, v) == 2 for v in special)
    ]
    if len(e_candidates) != 1:
        raise StructureError(
            f"expected a unique edge at distance 2 from the quadrilateral, "
            f"found {len(e_candidates)}"
        )
    e = e_candidates[0]

    f_edges = []
    for p in open_first_points:
        partners = [v for v in g.neighbors(p) if v in set(open_first_lines)]
        if len(partners) != 1:
            raise StructureError(
                f"open point {p} should keep exactly one open line, "
                f"found {len(partners)}"
            )
        f_edges.append((p, partners[0]) if p < partners[0] else (partners[0], p))

    # Edge-to-edge distance counts the edges of a connecting path (adjacent
    # edges are at distance 1), so distance 2 from the bridge set means:
    # no shared vertex with any bridge edge, but some endpoint adjacent to
    # a bridge endpoint.
    m_edges = [
        edge for edge in g.edges
        if edge[0] in second and edge[1] in second
        and min(_edge_edge_distance(dist, edge, b) for b in bridge_edges) == 1
    ]
    if len(m_edges) != 4:
        raise StructureError(
            f"expected 4 edges at distance 2 from the eight-bridge, "
            f"found {len(m_edges)}"
        )
    touched = [v for edge in m_edges for v in edge]
    if len(set(touched)) != 8:
        raise StructureError("the four distinguished second-residue edges intersect")
    return MarkedEdges(e=e, f=tuple(f_edges), m=tuple(sorted(m_edges)))


def _outcome(find, g):
    """find(g), or the message of the StructureError it raises."""
    try:
        return find(g)
    except StructureError as exc:
        return str(exc)


class TestMarkedEdges:
    def test_exact_edges(self):
        me = marked_edges(goedgebeur_graph())
        assert me.e == (1, 15)
        assert me.f == ((3, 16), (4, 21), (5, 17), (6, 20))
        assert me.m == ((8, 23), (10, 25), (12, 27), (14, 29))

    def test_all_ordering_and_independence(self):
        me = marked_edges(goedgebeur_graph())
        assert me.all == (me.e,) + me.f + me.m
        assert len(me.all) == 9
        endpoints = [v for e in me.all for v in e]
        assert len(set(endpoints)) == 18  # pairwise disjoint edges

    def test_f_edges_join_open_points_to_open_lines(self):
        me = marked_edges(goedgebeur_graph())
        f = f_residue()
        for p, line_vertex in me.f:
            assert p in f.open_points
            assert line_vertex - 15 in f.open_lines
            assert p in f.line_points(line_vertex - 15)

    def test_m_edges_are_companion_incidences(self):
        me = marked_edges(goedgebeur_graph())
        mk = mk_residue()
        for point_vertex, line_vertex in me.m:
            p = point_vertex - 7
            j = line_vertex - 22
            assert p in (1, 3, 5, 7)  # the odd points of the Moebius-Kantor residue
            assert p in mk.base.lines[j]

    def test_requires_labels(self):
        from levibridge.graphs import build

        g = goedgebeur_graph()
        stripped = build(g.n, g.edges)
        with pytest.raises(StructureError):
            marked_edges(stripped)

    def test_matches_the_distance_oracle_on_every_join(self):
        outcomes = [(_outcome(marked_edges, g), _outcome(_distance_marked_edges, g))
                    for g in map(bridge_graph, all_bridge_specs())]
        assert all(mine == oracle for mine, oracle in outcomes)
        assert any(isinstance(mine, MarkedEdges) for mine, _ in outcomes)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_distance_oracle_on_relabellings(self, seed):
        # A relabelling that carries the origin labels moves every marked
        # edge with it.
        g = goedgebeur_graph()
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        moved = build(g.n, [(perm[u], perm[v]) for u, v in g.edges],
                      {perm[v]: label for v, label in g.labels.items()})
        me = marked_edges(moved)
        assert me == _distance_marked_edges(moved)
        assert {frozenset(x) for x in me.all} \
            == {frozenset((perm[u], perm[v])) for u, v in marked_edges(g).all}

    def test_marked_edges_is_frozen_container(self):
        me = marked_edges(goedgebeur_graph())
        assert isinstance(me, MarkedEdges)
        with pytest.raises(Exception):
            me.e = (0, 1)
