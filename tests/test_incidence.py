"""Incidence configurations and their Levi graphs.

The named configurations are pinned against classical facts that have
independent graph-side witnesses: the 7-point plane's Levi graph is the
(unique) 14-vertex cubic girth-6 graph, and the 8-point configuration's is
the generalized Petersen graph gp(8, 3).
"""

import networkx as nx
import pytest

from levibridge.canon import automorphism_group, isomorphism
from levibridge.graphs import (
    bipartition,
    girth,
    gp,
    heawood,
    is_cubic,
    lcf,
)
from levibridge.incidence import (
    Configuration,
    ConfigurationError,
    _levi_cells,
    automorphism_order,
    configuration,
    dual,
    fano,
    is_self_dual,
    levi_graph,
    moebius_kantor,
)


class TestNamedConfigurations:
    def test_fano_lines_fixed_order(self):
        assert fano().lines == tuple(
            frozenset(s)
            for s in [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                      (1, 4, 6), (2, 3, 6), (2, 4, 5)]
        )

    def test_fano_every_point_pair_collinear(self):
        lines = fano().lines
        for p in range(7):
            for q in range(p + 1, 7):
                assert sum({p, q} <= ln for ln in lines) == 1

    def test_mk_lines_are_translates(self):
        mk = moebius_kantor()
        assert mk.lines == tuple(
            frozenset({i, (i + 1) % 8, (i + 3) % 8}) for i in range(8)
        )
        # Not every point pair is collinear: diagonals are skew.
        assert not any({0, 4} <= ln for ln in mk.lines)

    def test_lines_through(self):
        assert fano().lines_through(0) == (0, 1, 2)
        assert moebius_kantor().lines_through(0) == (0, 5, 7)


class TestValidation:
    def test_rejects_short_line(self):
        with pytest.raises(ConfigurationError):
            configuration(3, [(0, 1), (0, 1, 2), (0, 1, 2)])

    def test_rejects_unknown_point(self):
        with pytest.raises(ConfigurationError):
            configuration(3, [(0, 1, 3), (0, 1, 2), (0, 1, 2)])

    def test_rejects_wrong_point_degree(self):
        with pytest.raises(ConfigurationError):
            configuration(
                7,
                [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                 (1, 4, 6), (2, 3, 6), (2, 4, 6)],
            )

    def test_rejects_repeated_pair(self):
        # Two lines sharing two points break linearity.
        with pytest.raises(ConfigurationError):
            configuration(
                6,
                [(0, 1, 2), (0, 1, 3), (2, 3, 4), (4, 5, 0),
                 (1, 4, 5), (2, 3, 5)],
            )


class TestLeviGraphs:
    def test_fano_levi_is_heawood(self):
        g = levi_graph(fano())
        assert g.n == 14 and is_cubic(g) and girth(g) == 6
        assert isomorphism(g, heawood()) is not None
        assert isomorphism(g, lcf([5, -5], 7)) is not None
        assert _levi_cells(fano()) == [tuple(range(7)), tuple(range(7, 14))]
        assert all((u < 7) != (v < 7) for u, v in g.edges)

    def test_mk_levi_is_gp83(self):
        g = levi_graph(moebius_kantor())
        assert g.n == 16 and is_cubic(g) and girth(g) == 6
        assert isomorphism(g, gp(8, 3)) is not None
        assert isomorphism(g, lcf([5, -5], 8)) is not None

    def test_levi_bipartition_is_real(self):
        g = levi_graph(moebius_kantor())
        found = bipartition(g)
        assert found is not None
        sides = {frozenset(cell) for cell in _levi_cells(moebius_kantor())}
        assert {found.side_a, found.side_b} == sides

    def test_levi_labels(self):
        g = levi_graph(fano())
        assert g.labels[0] == "p0" and g.labels[7] == "l0"


class TestDuality:
    def test_dual_of_dual_is_original(self):
        for c in (fano(), moebius_kantor()):
            assert dual(dual(c)) == Configuration(c.n_points, c.lines)

    def test_named_configurations_self_dual(self):
        assert is_self_dual(fano())
        assert is_self_dual(moebius_kantor())

    def test_dual_lines_are_pencils(self):
        d = dual(fano())
        assert d.n_points == 7
        assert d.lines[0] == frozenset(fano().lines_through(0))


def _nx_levi_aut_order(c) -> int:
    g = levi_graph(c)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h))


class TestAutomorphisms:
    def test_fano_group_order(self):
        # Side-respecting symmetries: 168; the Levi graph doubles it with
        # the point/line swap coming from self-duality.
        assert automorphism_order(fano()) == 168
        g = levi_graph(fano())
        assert automorphism_group(g).order == 336
        assert _nx_levi_aut_order(fano()) == 336

    def test_mk_group_order(self):
        assert automorphism_order(moebius_kantor()) == 48
        g = levi_graph(moebius_kantor())
        assert automorphism_group(g).order == 96
        assert _nx_levi_aut_order(moebius_kantor()) == 96

    def test_levi_order_is_twice_configuration_order(self):
        for c in (fano(), moebius_kantor()):
            g = levi_graph(c)
            assert automorphism_group(g).order == 2 * automorphism_order(c)
