"""Point-line incidence configurations with three points per line and vice versa.

A configuration here is a linear incidence structure: every point lies on
exactly three lines, every line carries exactly three points, and two
distinct points share at most one line. Its Levi graph (points and lines as
the two vertex sides, incidence as adjacency) is cubic, bipartite and has
girth at least six precisely because of linearity.
"""

from __future__ import annotations

import itertools

from .canon import automorphism_group, isomorphism
from .graphs import Graph, _Record, build


class ConfigurationError(ValueError):
    """Raised when an incidence structure is not a valid configuration;
    `pair` names the two lines sharing two points when that is the fault."""

    pair: tuple[int, int] | None = None


class Configuration(_Record):
    def __init__(self, n_points: int, lines: tuple[frozenset[int], ...],
                 point_labels: tuple[str, ...] | None = None,
                 line_labels: tuple[str, ...] | None = None):
        super().__init__(n_points=n_points, lines=lines, point_labels=point_labels,
                         line_labels=line_labels)

    def _key(self):
        return self.n_points, self.lines

    def lines_through(self, p: int) -> tuple[int, ...]:
        return tuple(i for i, ln in enumerate(self.lines) if p in ln)


def configuration(n_points: int, lines, point_labels=None,
                  line_labels=None) -> Configuration:
    """Validate and freeze an n3 configuration."""
    lines = tuple(frozenset(ln) for ln in lines)
    for i, ln in enumerate(lines):
        if len(ln) != 3:
            raise ConfigurationError(f"line {i} has {len(ln)} points, want 3")
        if any(not (0 <= p < n_points) for p in ln):
            raise ConfigurationError(f"line {i} mentions an unknown point")
    for p in range(n_points):
        k = sum(p in ln for ln in lines)
        if k != 3:
            raise ConfigurationError(f"point {p} lies on {k} lines, want 3")
    for i, j in itertools.combinations(range(len(lines)), 2):
        if len(lines[i] & lines[j]) > 1:
            err = ConfigurationError(f"lines {i} and {j} share two points: not linear")
            err.pair = (i, j)
            raise err
    if point_labels is not None:
        point_labels = tuple(point_labels)
    if line_labels is not None:
        line_labels = tuple(line_labels)
    return Configuration(n_points, lines, point_labels, line_labels)


def fano() -> Configuration:
    """The 7-point projective plane with its lines in a fixed order."""
    lines = [
        (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
        (1, 4, 6), (2, 3, 6), (2, 4, 5),
    ]
    return configuration(7, lines)


def moebius_kantor() -> Configuration:
    """The 8-point configuration with lines {i, i+1, i+3} over Z8."""
    lines = [frozenset({i, (i + 1) % 8, (i + 3) % 8}) for i in range(8)]
    return configuration(8, lines)


def levi_graph(c: Configuration) -> Graph:
    """Bipartite incidence graph: point p -> vertex p, line j -> n_points + j."""
    n = c.n_points + len(c.lines)
    edges = [(p, c.n_points + j) for j, ln in enumerate(c.lines) for p in ln]
    labels = {}
    for p in range(c.n_points):
        labels[p] = c.point_labels[p] if c.point_labels else f"p{p}"
    for j in range(len(c.lines)):
        labels[c.n_points + j] = c.line_labels[j] if c.line_labels else f"l{j}"
    return build(n, edges, labels)


def dual(c: Configuration) -> Configuration:
    """Swap roles: dual point j is line j; dual line p is the pencil through p."""
    lines = [frozenset(c.lines_through(p)) for p in range(c.n_points)]
    return configuration(len(c.lines), lines)


def _levi_cells(c: Configuration):
    n = c.n_points + len(c.lines)
    return [tuple(range(c.n_points)), tuple(range(c.n_points, n))]


def is_self_dual(c: Configuration) -> bool:
    """Configuration isomorphism with the dual, via side-respecting Levi maps."""
    d = dual(c)
    return isomorphism(levi_graph(c), levi_graph(d), _levi_cells(c), _levi_cells(d)) is not None


def automorphism_order(c: Configuration) -> int:
    """Order of the incidence-preserving point-to-point symmetry group;
    kept public because the tests pin |Coll| = 168, 48 and 72 with it."""
    return automorphism_group(levi_graph(c), _levi_cells(c)).order
