"""Residues of small configurations and their bridge joins.

Removing four incidences from the Fano plane (the four quadrilateral sides
through their forward vertices) and four from the Moebius-Kantor
configuration (every second point from its own line) leaves two *residues*,
each with four valency-2 points and four valency-2 lines. Re-joining the
open points of each residue to the open lines of the other through a pair
of permutations produces a 15_3 configuration whose Levi graph is a cubic
bipartite graph on 30 vertices. A census of all 576 joins, searching one
join per orbit of their symmetry group W, locates the unique one (up to
isomorphism) with automorphism group of order 144.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .canon import canonical_form
from .graphs import (
    Graph,
    _mask,
    _Record,
    adjacency_masks,
    bipartition,
    build,
    girth,
    is_cubic,
)
from .groups import Perm, PermGroup
from .incidence import (
    Configuration,
    ConfigurationError,
    configuration,
    fano,
    levi_graph,
    moebius_kantor,
)
from .twofactors import MIXED, NO_TWO_FACTOR, pseudo_2fi


class StructureError(ValueError):
    """A structural assertion about a constructed object failed."""


class BridgeError(StructureError):
    """A bridge join produced an invalid configuration."""

    def __init__(self, message: str, violating_pair=None):
        super().__init__(message)
        self.violating_pair = violating_pair


# Permutations of {0,1,2,3} in lexicographic order of their one-line images.
PERMS4: tuple[tuple[int, int, int, int], ...] = tuple(
    itertools.permutations(range(4))
)
_PERM4_RANK = {p: i for i, p in enumerate(PERMS4)}


class BridgeSpec(_Record):
    """A pair of permutations wiring open points to open lines.

    `alpha[i]` is the open-line slot of the first residue receiving open
    point i of the second residue; `beta[i]` is the open-point slot of the
    first residue attached to open line i of the second residue.
    """

    def __init__(self, alpha: tuple[int, int, int, int], beta: tuple[int, int, int, int]):
        for name, p in (("alpha", alpha), ("beta", beta)):
            if tuple(sorted(p)) != (0, 1, 2, 3):
                raise ValueError(f"{name} must be a permutation of 0..3, got {p}")
        super().__init__(alpha=alpha, beta=beta)

    def _key(self):
        return self.alpha, self.beta

    @property
    def rank(self) -> int:
        """Position in the lexicographic double ordering, 0..575."""
        return 24 * _PERM4_RANK[self.alpha] + _PERM4_RANK[self.beta]

    @classmethod
    def from_strings(cls, alpha: str, beta: str) -> "BridgeSpec":
        def parse(s: str) -> tuple[int, int, int, int]:
            if len(s) != 4 or not (s.isascii() and s.isdigit()):
                raise ValueError(f"expected a 4-digit one-line image, got {s!r}")
            return tuple(int(c) for c in s)  # type: ignore[return-value]

        return cls(parse(alpha), parse(beta))

    def __str__(self) -> str:
        return "".join(map(str, self.alpha)) + " " + "".join(map(str, self.beta))


@functools.cache
def all_bridge_specs() -> tuple[BridgeSpec, ...]:
    """All 576 joins, in rank order, so a spec's rank is its index."""
    return tuple(BridgeSpec(a, b) for a in PERMS4 for b in PERMS4)


class Residue(_Record):
    """A configuration with four point-line incidences removed.

    The removed incidences, (point, line index) pairs, leave four points and
    four lines of valency 2; their slot orders (`open_points`, `open_lines`)
    are part of the residue.
    """

    def __init__(self, base: Configuration, removed: tuple[tuple[int, int], ...],
                 open_points: tuple[int, int, int, int], open_lines: tuple[int, int, int, int]):
        incidences = {
            (p, j) for j, line in enumerate(base.lines) for p in line
        }
        for pair in removed:
            if pair not in incidences:
                raise ValueError(f"removed pair {pair} is not an incidence")
        removed_points = sorted(p for p, _ in removed)
        removed_lines = sorted(j for _, j in removed)
        if removed_points != sorted(open_points):
            raise ValueError("open points must be the points losing an incidence")
        if removed_lines != sorted(open_lines):
            raise ValueError("open lines must be the lines losing an incidence")
        if len(set(removed_points)) != 4 or len(set(removed_lines)) != 4:
            raise ValueError("removals must hit four distinct points and lines")
        super().__init__(base=base, removed=removed, open_points=open_points,
                         open_lines=open_lines)

    def _key(self):
        return self.base, self.removed, self.open_points, self.open_lines

    def line_points(self, j: int) -> frozenset[int]:
        """Points remaining on line j after the removals."""
        gone = {p for p, line in self.removed if line == j}
        return self.base.lines[j] - gone


@functools.cache
def mk_residue() -> Residue:
    """Moebius-Kantor residue: drop point 2i from line 2i, i = 0..3.

    Line i of the base is {i, i+1, i+3} mod 8, so each even line keeps its
    two odd points. Open point slot i is point 2i; open line slot i is the
    line antipodal to it, line 2i+4 (mod 8). The antipodal pairing is what
    lines up the identity join with the order-144 graph and makes the
    diagonal joins (alpha == beta) split 8/16 across the order-144 and
    order-24 classes; pairing point 2i with its own removed line 2i shifts
    both facts onto other classes.
    """
    base = moebius_kantor()
    removed = tuple((2 * i, 2 * i) for i in range(4))
    return Residue(
        base=base,
        removed=removed,
        open_points=(0, 2, 4, 6),
        open_lines=(4, 6, 0, 2),
    )


@functools.cache
def f_residue() -> Residue:
    """Fano residue: drop each quadrilateral side's forward vertex.

    The quadrilateral has vertices (3, 4, 5, 6); side i is the line through
    vertices i and i+1 (mod 4), and the incidence (vertex i+1, side i) is
    removed.
    """
    base = fano()
    quad = (3, 4, 5, 6)
    line_index = {line: j for j, line in enumerate(base.lines)}
    sides = []
    for i in range(4):
        a, b = quad[i], quad[(i + 1) % 4]
        containing = [
            line_index[line] for line in base.lines if a in line and b in line
        ]
        assert len(containing) == 1
        sides.append(containing[0])
    removed = tuple((quad[(i + 1) % 4], sides[i]) for i in range(4))
    return Residue(
        base=base,
        removed=removed,
        open_points=quad,
        open_lines=tuple(sides),
    )


def bridge_join(
    f: Residue, mk: Residue, spec: BridgeSpec
) -> tuple[Configuration, Graph]:
    """Join two residues through eight new incidences.

    Open point i of the second residue lands on open line alpha[i] of the
    first, and open line i of the second receives open point beta[i] of the
    first. The result must again be linear (no two lines sharing two
    points); a violation raises BridgeError carrying one offending line
    pair. The returned Levi graph places the first residue's points at
    0..6, the second's at 7..14, the first's lines at 15..21 and the
    second's at 22..29, with labels recording the origin of every vertex.
    """
    nf = f.base.n_points
    lines: list[set[int]] = []
    for j in range(len(f.base.lines)):
        lines.append(set(f.line_points(j)))
    for j in range(len(mk.base.lines)):
        lines.append({nf + p for p in mk.line_points(j)})
    for i in range(4):
        lines[f.open_lines[spec.alpha[i]]].add(nf + mk.open_points[i])
        lines[len(f.base.lines) + mk.open_lines[i]].add(f.open_points[spec.beta[i]])

    point_labels = tuple(f"fp{p}" for p in range(nf)) + tuple(
        f"mp{p}" for p in range(mk.base.n_points)
    )
    line_labels = tuple(f"fl{j}" for j in range(len(f.base.lines))) + tuple(
        f"ml{j}" for j in range(len(mk.base.lines))
    )
    try:
        config = configuration(
            nf + mk.base.n_points,
            tuple(frozenset(line) for line in lines),
            point_labels=point_labels,
            line_labels=line_labels,
        )
    except ConfigurationError as exc:
        raise BridgeError(f"invalid bridge {spec}: {exc}",
                          violating_pair=exc.pair) from exc

    g = levi_graph(config)
    if not (g.n == 30 and len(g.edges) == 45 and is_cubic(g)):
        raise StructureError(f"join {spec} is not a cubic graph on 30 vertices")
    if bipartition(g) is None:
        raise StructureError(f"join {spec} is not bipartite")
    if girth(g) != 6:
        raise StructureError(f"join {spec} has girth {girth(g)}, expected 6")
    return config, g


@functools.cache
def _join(spec: BridgeSpec) -> tuple[Configuration, Graph]:
    """The configuration and Levi graph of the join for one spec, built once."""
    return bridge_join(f_residue(), mk_residue(), spec)


def bridge_graph(spec: BridgeSpec) -> Graph:
    """Levi graph of the joined configuration for one spec (see `_join`)."""
    return _join(spec)[1]


class CensusClass(namedtuple("CensusClass", "certificate aut_order specs")):
    """An isomorphism class among the 576 joins; `specs` are in rank order."""

    __slots__ = ()

    @property
    def representative(self) -> BridgeSpec:
        return self.specs[0]


@functools.cache
def _spec_action():
    """The hub search's form, whose group is W, and where each w sends the slots.

    The residues of the identity join keep their edges; one hub joins the
    alpha side (first open lines, second open points), another the beta side
    (first open points, second open lines). The automorphisms keeping each
    residue and the hub pair setwise form W; one swapping the hubs is a
    point-line duality of both residues at once. Slot (0, i, x) is the edge
    that sets alpha[i] = x and (1, i, x) the one that sets beta[i] = x; the
    table maps each w in W to the slot (k, i, y) that w sends each slot to,
    indexed 16k + 4i + x, so its keys are W's 128 elements.
    """
    g = bridge_graph(BridgeSpec((0, 1, 2, 3), (0, 1, 2, 3)))
    f, mk = f_residue(), mk_residue()
    vertex = {label: v for v, label in g.labels.items()}
    fp = [vertex[f"fp{p}"] for p in f.open_points]
    fl = [vertex[f"fl{j}"] for j in f.open_lines]
    mp = [vertex[f"mp{p}"] for p in mk.open_points]
    ml = [vertex[f"ml{j}"] for j in mk.open_lines]
    edge = {}
    for i, x in itertools.product(range(4), repeat=2):
        edge[0, i, x] = (fl[x], mp[i])
        edge[1, i, x] = (ml[i], fp[x])
    slot = {frozenset(uv): key for key, uv in edge.items()}
    hub_a, hub_b = g.n, g.n + 1
    h = build(g.n + 2, [e for e in g.edges if frozenset(e) not in slot]
              + [(hub_a, v) for v in fl + mp] + [(hub_b, v) for v in fp + ml])
    cells = [[v for v in range(g.n) if g.labels[v][0] == side] for side in "fm"]
    cf = canonical_form(h, cells + [[hub_a, hub_b]])
    return cf, {p: tuple(slot[frozenset(p[u] for u in edge[key])] for key in sorted(edge))
                for p in cf.group.elements}


def spec_symmetries() -> PermGroup:
    """The group W of order 128 acting on the 576 specs (see act_on_spec),
    as the hub search's stabilizer chain."""
    return _spec_action()[0].group


def act_on_spec(w: Perm, spec: BridgeSpec) -> BridgeSpec:
    """The spec whose bridge edges are the w-images of those of spec.

    w is an element of spec_symmetries(); restricted to the 30 join
    vertices it is an isomorphism bridge_graph(spec) -> bridge_graph(result).
    """
    images = _spec_action()[1][w]
    image = ([0] * 4, [0] * 4)
    for j, x in enumerate(spec.alpha + spec.beta):  # j = 4k + i
        k, i, y = images[4 * j + x]
        image[k][i] = y
    return all_bridge_specs()[24 * _PERM4_RANK[tuple(image[0])] + _PERM4_RANK[tuple(image[1])]]


@functools.cache
def bridge_census() -> tuple[CensusClass, ...]:
    """All 576 joins grouped by isomorphism class.

    W, the keys of `_spec_action`'s table, splits the specs into orbits of
    isomorphic joins, so one canonical search per orbit suffices; orbits
    with equal certificates merge into one class. Raises StructureError
    unless the orbits partition the specs, obey orbit-stabilizer, and each
    stabilizer order divides its class's automorphism order. Classes are ordered by
    descending automorphism-group order, then ascending class size, then
    certificate bytes; specs inside a class stay in rank order.
    """
    w = _spec_action()[1]
    seen: set[BridgeSpec] = set()
    aut_orders: dict[bytes, int] = {}
    groups: dict[bytes, list[BridgeSpec]] = {}
    for spec in all_bridge_specs():
        if spec in seen:
            continue
        images = [act_on_spec(x, spec) for x in w]
        orbit, stab = set(images), images.count(spec)
        # every spec is a representative or in an earlier orbit, and a
        # representative lies in its own orbit (stab >= 1 below), so disjoint
        # orbits partition the 576 specs
        if orbit & seen:
            raise StructureError(f"the W-orbit of {spec} meets an earlier orbit")
        seen |= orbit
        if len(orbit) * stab != len(w):
            raise StructureError(
                f"W-orbit of {spec}: {len(orbit)} specs x stabilizer {stab} "
                f"!= |W| = {len(w)}"
            )
        cf = canonical_form(bridge_graph(spec))
        aut = cf.group.order
        if aut % stab:
            raise StructureError(
                f"W-stabilizer of {spec} has order {stab}, which does not "
                f"divide |Aut| = {aut}"
            )
        aut_orders.setdefault(cf.certificate, aut)
        groups.setdefault(cf.certificate, []).extend(orbit)
    classes = [
        CensusClass(cert, aut_orders[cert],
                    tuple(sorted(specs, key=lambda s: s.rank)))
        for cert, specs in groups.items()
    ]
    return tuple(
        sorted(classes, key=lambda c: (-c.aut_order, len(c.specs), c.certificate))
    )


@functools.cache
def identify_goedgebeur() -> tuple[BridgeSpec, Graph]:
    """Locate the unique join class with automorphism group of order 144.

    Returns the lexicographically least spec of that class together with
    its Levi graph, after checking that the class is unique, is pseudo
    2-factor isomorphic, and contains exactly eight diagonal (alpha == beta)
    specs.
    """
    hits = [c for c in bridge_census() if c.aut_order == 144]
    if len(hits) != 1:
        raise StructureError(
            f"expected exactly one class with 144 automorphisms, found {len(hits)}"
        )
    cls = hits[0]
    spec = cls.representative
    g = bridge_graph(spec)
    report = pseudo_2fi(g)
    if report.status in (MIXED, NO_TWO_FACTOR):
        raise StructureError(
            f"the 144-automorphism join is not pseudo 2-factor isomorphic "
            f"({report.status})"
        )
    diagonal = [s for s in cls.specs if s.alpha == s.beta]
    if len(diagonal) != 8:
        raise StructureError(
            f"expected 8 diagonal specs in the 144-automorphism class, "
            f"found {len(diagonal)}"
        )
    return spec, g


def goedgebeur_graph() -> Graph:
    """The 30-vertex graph with the order-144 automorphism group."""
    return identify_goedgebeur()[1]


def goedgebeur_configuration() -> Configuration:
    """The 15-point, 15-line configuration underlying the identified graph."""
    return _join(identify_goedgebeur()[0])[0]


class MarkedEdges(namedtuple("MarkedEdges", "e f m")):
    """The nine distinguished edges of the identified graph.

    `e` is the unique edge at distance two from all eight quadrilateral
    vertices (the four open points and four open lines of the first
    residue); `f` are the four surviving quadrilateral side incidences,
    ordered by open point; `m` are the four pairwise independent second-
    residue edges at edge-distance two from the eight bridge edges, ordered
    by vertex index. `all` lists e first, then f, then m.
    """

    __slots__ = ()

    @property
    def all(self) -> tuple[tuple[int, int], ...]:
        return (self.e,) + self.f + self.m


def marked_edges(g: Graph) -> MarkedEdges:
    """Recover the distinguished edge set of a joined Levi graph.

    The graph must carry the origin labels produced by bridge_join. Raises
    StructureError when any uniqueness or count assertion fails. Works on
    vertex bitmasks: an edge's radius-1 ball is the union of its endpoints'
    neighbour masks, and its radius-2 ball holds the neighbours of that.
    """
    if g.labels is None or len(g.labels) != g.n:
        raise StructureError("marked_edges needs the origin labels of a join")
    kinds = dict.fromkeys(("fp", "fl", "mp", "ml"), 0)
    for v, label in g.labels.items():
        if label[:2] in kinds:
            kinds[label[:2]] |= 1 << v
    first_points, first_lines, second_points, second_lines = kinds.values()
    if not all(kinds.values()):
        raise StructureError("marked_edges needs the origin labels of a join")
    first, second = first_points | first_lines, second_points | second_lines
    adj = adjacency_masks(g)

    bridge_edges = [(u, v) for u, v in g.edges if (first >> u ^ first >> v) & 1]
    if len(bridge_edges) != 8:
        raise StructureError(f"expected 8 bridge edges, found {len(bridge_edges)}")

    open_points = [u for u in range(g.n)
                   if first_points >> u & 1 and adj[u] & second_lines]
    open_lines = _mask(u for u in range(g.n)
                       if first_lines >> u & 1 and adj[u] & second_points)
    if len(open_points) != 4 or open_lines.bit_count() != 4:
        raise StructureError("expected four open points and four open lines")
    quad = _mask(open_points) | open_lines

    def ball2(u, v):
        return _mask(x for w in g.neighbors(u) + g.neighbors(v) for x in g.neighbors(w))

    # the unique edge at distance 2 from all eight quadrilateral vertices
    e_candidates = [(u, v) for u, v in g.edges
                    if not (adj[u] | adj[v]) & quad and ball2(u, v) & quad == quad]
    if len(e_candidates) != 1:
        raise StructureError(
            f"expected a unique edge at distance 2 from the quadrilateral, "
            f"found {len(e_candidates)}"
        )

    f_edges = []
    for p in open_points:
        partners = [v for v in g.neighbors(p) if open_lines >> v & 1]
        if len(partners) != 1:
            raise StructureError(
                f"open point {p} should keep exactly one open line, "
                f"found {len(partners)}"
            )
        f_edges.append((p, partners[0]) if p < partners[0] else (partners[0], p))

    # Edge-to-edge distance counts the edges of a connecting path, so
    # distance 2 from the bridge set means: no bridge endpoint, but a
    # neighbour among the bridge endpoints.
    ends = _mask(v for edge in bridge_edges for v in edge)
    m_edges = [(u, v) for u, v in g.edges if (both := 1 << u | 1 << v) & second == both
               and not both & ends and (adj[u] | adj[v]) & ends]
    if len(m_edges) != 4:
        raise StructureError(
            f"expected 4 edges at distance 2 from the eight-bridge, "
            f"found {len(m_edges)}"
        )
    if _mask(v for edge in m_edges for v in edge).bit_count() != 8:
        raise StructureError("the four distinguished second-residue edges intersect")
    return MarkedEdges(e=e_candidates[0], f=tuple(f_edges), m=tuple(sorted(m_edges)))
