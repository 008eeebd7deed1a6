"""Edge cuts of cubic graphs: essential 4-edge-connectivity and cyclic edge
connectivity.

A cut is *trivial* when one side is a single vertex, and *cyclic* when both
sides contain a cycle. The cyclic edge connectivity is the minimum size of a
cut whose removal leaves two components that each contain a cycle; it is
reported as None when no such cut exists (the graph has no pair of
vertex-disjoint cycles). A graph is essentially 4-edge-connected when every
cut of at most 3 edges is trivial; in a cubic graph that holds exactly when
the cyclic edge connectivity is None or at least 4.

One loop answers both questions: maximum flows between contracted vertex
sets, from a few *source* cycles to targets vertex-disjoint from them. Each
source's breadth-first forest is grown once; every flow from it starts with
one unit down each branch that reaches the target, and augmenting searches
add only the rest (see `_min_cut_between`). A cut
that crosses a cycle holds at least 2 of its edges, so once p pairwise
edge-disjoint sources have been processed, any cut still unseen has at least
2p edges. Double counting bounds it for sources that share edges too: if j
sources have been processed and no edge lies on more than m of them, an
unseen cut crosses all j, so counting its edges once per source they lie on
gives 2j <= m |cut|. Up to 40 vertices the targets are short chordless
cycles, and the search, held in the graph's one cache, gives the exact
cyclic edge connectivity and a minimum cyclic cut, from which both answers
are read.
Above 40 vertices the essential check runs the loop from two edge-disjoint
shortest cycles to every edge; it takes them from the graph layer's
`shortest_cycle`, so the only search in this module is the flows' own.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import (Graph, GraphError, _cached, _neighbor_tuples, adjacency_masks,
                     components, is_cubic, shortest_cycle)

CYCLIC_MAX_VERTICES = 40  # the cyclic search's size limit (see cyclic_edge_connectivity)
_CHORDLESS_CAP = 9  # see cyclic_edge_connectivity for why this is exhaustive


# `cut`, a tuple of edges, separates the frozensets of vertices side_a and side_b.
CutCertificate = namedtuple("CutCertificate", "cut side_a side_b")


def _chordless_cycles(g: Graph, cap: int) -> list[tuple[int, ...]]:
    """Chordless cycles on at most `cap` vertices, each listed exactly once.

    A cycle is reported rooted at its smallest vertex and oriented toward
    its smaller root neighbor. A path from the root grows to y only when y
    lies within distance cap - len(path) of the root, counted over the
    vertices above the root: closing the cycle from y takes at least
    dist(root, y) - 1 more vertices, so a farther y can only lead to longer
    cycles. The balls `near[d]` are masks, rebuilt for each root.
    """
    adj = adjacency_masks(g)
    cycles: list[tuple[int, ...]] = []

    def extend(root: int, path: list[int], mask: int):
        last = path[-1]
        inner = mask & ~(1 << last) & ~(1 << root)
        candidates = adj[last] & near[cap - len(path)] & ~mask
        while candidates:
            y = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if adj[y] & inner:
                continue
            if adj[y] & (1 << root):
                if path[1] < y:
                    cycles.append(tuple(path) + (y,))
                continue
            path.append(y)
            extend(root, path, mask | 1 << y)
            path.pop()

    for root in range(g.n):
        above = ~((1 << root) - 1)
        near = [1 << root]  # near[d]: vertices above the root within distance d
        layer = near[0]
        for _ in range(cap - 2):  # extend reads near[cap - len(path)], len(path) >= 2
            reached = 0
            while layer:
                low = layer & -layer
                layer ^= low
                reached |= adj[low.bit_length() - 1]
            layer = reached & above & ~near[-1]
            near.append(near[-1] | layer)
        second = adj[root] & above
        while second:
            x = (second & -second).bit_length() - 1
            second &= second - 1
            extend(root, [root, x], (1 << root) | (1 << x))
    return cycles


def _forest(g: Graph, side_s: frozenset[int]) -> dict[int, tuple[int, int]]:
    """The breadth-first forest grown from all of `side_s`: each vertex it
    reaches outside `side_s` maps to (its parent, its branch), the branch
    being the first vertex outside `side_s` on its tree path."""
    nbrs = _neighbor_tuples(g)
    tree: dict[int, tuple[int, int]] = {}
    queue = list(side_s)
    for x in queue:
        branch = tree[x][1] if x in tree else None
        for y in nbrs[x]:
            if y not in tree and y not in side_s:
                tree[y] = (x, y if branch is None else branch)
                queue.append(y)
    return tree


def _min_cut_between(g: Graph, side_s: frozenset[int], side_t: frozenset[int],
                     stop_at: int | None, tree: dict[int, tuple[int, int]]
                     ) -> tuple[int, frozenset[int] | None]:
    """Minimum edge cut between two disjoint vertex sets, by augmenting paths
    from a flow read off `tree`, `side_s`'s breadth-first forest (`_forest`).

    Unit flows run on g as if each set were contracted. The start puts one
    unit on the tree path to one vertex of `side_t` in each branch that
    holds one. Branches are vertex-disjoint subtrees, so these paths are
    edge-disjoint; a path that passes another vertex of `side_t` on its way
    leaves the contracted target and enters it again, so it still carries
    one unit into it. Each augmenting search then starts from all of
    `side_s`, stops at a vertex of `side_t` and adds one unit, so which
    vertex a branch picks changes neither the value nor the number of
    searches. Stops once the flow reaches `stop_at` (the caller only keeps
    smaller values) and returns (stop_at, None), with no search at all when
    the branches alone reach it; else returns the cut size and the last
    search's reach. Any flow is a valid start, and the set reachable in the
    residual graph of a maximum flow is the same for every maximum flow: the
    source side of a minimum cut that lies inside every other one.
    """
    nbrs, n = _neighbor_tuples(g), g.n
    start = {tree[v][1]: v for v in side_t if v in tree}  # branch -> a target vertex in it
    if stop_at is not None and len(start) >= stop_at:
        return stop_at, None
    flow: set[int] = set()  # arcs x * n + y carrying a unit from x to y
    for y in start.values():
        while y in tree:
            x = tree[y][0]
            flow.add(x * n + y)
            y = x
    value = len(start)
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


def _cycle_edges(cycle: tuple[int, ...]) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1]))


def _packed_search(g: Graph, cycles: list[tuple[int, ...]],
                   targets: list[frozenset[int]] | None,
                   best: int | None) -> tuple[int | None, frozenset[int] | None]:
    """The smallest flow below `best` from source cycles to the vertex sets
    disjoint from them, with the source side of a minimum cut of that size.

    The `cycles` become sources one at a time: the first one edge-disjoint
    from all packed sources, which is then packed and counts towards p, else
    the first one left. A source's flows go to each set in `targets` that it
    does not meet or, when `targets` is None, to each cycle that has not been
    a source yet. A cut smaller than `best` that no flow has found yet
    crosses every processed source: a source inside one of its sides would
    have had a flow to a target on the other side. It holds at least 2 edges
    of each, so after j sources, p of them pairwise edge-disjoint and none
    of its edges on more than m of them, it has at least 2p edges, and
    counting its edges once per source they lie on gives m |cut| >= 2j. The
    search therefore stops once 2p or 2j / m reaches `best` (None is no
    bound), in integers. Either stop skips only flows that cannot go below
    `best`, so the value and side are the ones the flows from every source
    would give. The side is None when no flow went below the starting
    `best`. Each source's breadth-first forest (`_forest`) is built once and
    starts all of its flows.
    """
    vertices = [frozenset(c) for c in cycles]
    edges = [_cycle_edges(c) for c in cycles]
    unprocessed = list(range(len(cycles)))
    packed: set[frozenset[int]] = set()  # edges of the pairwise edge-disjoint sources
    load: dict[frozenset[int], int] = {}  # processed sources through each edge
    p = j = 0
    m = 1  # the largest load; before the first source, 2j = 0 bounds nothing
    side: frozenset[int] | None = None
    while unprocessed and (best is None or 2 * p < best and 2 * j < best * m):
        source = next((i for i in unprocessed if not edges[i] & packed), unprocessed[0])
        if not edges[source] & packed:
            packed |= edges[source]
            p += 1
        unprocessed.remove(source)
        j += 1
        for e in edges[source]:
            load[e] = load.get(e, 0) + 1
            m = max(m, load[e])
        tree = _forest(g, vertices[source])
        for target in targets if targets is not None else [vertices[i] for i in unprocessed]:
            if not vertices[source] & target:
                value, reach = _min_cut_between(g, vertices[source], target, best, tree)
                if best is None or value < best:
                    best, side = value, reach
    return best, side


def _cyclic_cut(g: Graph) -> tuple[int | None, frozenset[int] | None]:
    """The cyclic search over chordless cycles of at most `_CHORDLESS_CAP`
    vertices: the cyclic edge connectivity and a side of a minimum cyclic cut.
    Callers read it through g's one cache (`graphs._cached`), so the two
    questions asked of one graph share one search.
    """
    cycles = sorted(_chordless_cycles(g, _CHORDLESS_CAP), key=len)
    return _packed_search(g, cycles, None, None)


def _small_cut_to_edges(g: Graph) -> tuple[int, frozenset[int] | None]:
    """The size and a side of a minimum cyclic cut of at most 3 edges, or
    (4, None) when there is none, for a connected cubic graph of any size.

    A cut of at most 3 edges cannot cross two edge-disjoint cycles, as it
    would hold 2 edges of each, so one of them lies inside a side of a
    minimum such cut. The other side is connected and has at least 3
    vertices, so it holds an edge disjoint from that cycle, and the flow
    between the two is at most the cut. Conversely, a flow below 4 between a
    cycle and an edge separates two sets of at least 2 vertices. So the flows
    from two edge-disjoint cycles to every edge, starting from a best of 4,
    find the minimum. The second cycle is a shortest one of what is left
    once the first cycle's edges are cleared from the masks. Without it the
    graph is K4 or K3,3: removing a shortest cycle of length L leaves
    3n/2 - L edges, so a forest remains only when the girth exceeds n/2,
    which by the Moore bound needs n <= 6, too few vertices for two
    vertex-disjoint cycles.
    """
    cleared = list(adjacency_masks(g))
    first = shortest_cycle(cleared)
    for u, v in zip(first, first[1:] + first[:1]):
        cleared[u] &= ~(1 << v)
        cleared[v] &= ~(1 << u)
    second = shortest_cycle(cleared)
    cycles = [first] if second is None else [first, second]
    return _packed_search(g, cycles, [frozenset(e) for e in g.edges], 4)


def is_essentially_4_edge_connected(g: Graph) -> tuple[bool, CutCertificate | None]:
    """True when every edge cut of size at most 3 is trivial.

    In a cubic graph a side with k >= 2 vertices and c <= 3 boundary edges
    spans (3k - c)/2 >= k edges, so both sides of a non-trivial cut of at
    most 3 edges hold a cycle: the cut is cyclic. Hence the graph is
    essentially 4-edge-connected exactly when its cyclic edge connectivity
    is None or at least 4. Up to 40 vertices the answer is read off the
    cyclic search (`_cyclic_cut`) in g's cache; above, the same flows
    run from two edge-disjoint shortest cycles to every edge (see
    `_small_cut_to_edges`).

    The certificate is a minimum cyclic cut, of at most 3 edges, whose
    removal leaves exactly its two connected sides. Either side may hold
    vertex 0.
    """
    if not is_cubic(g):
        raise GraphError("essential 4-edge-connectivity needs a cubic graph")
    if len(components(adjacency_masks(g))) != 1:  # no vertices counts as disconnected
        raise GraphError("essential 4-edge-connectivity needs a connected graph")
    small = g.n <= CYCLIC_MAX_VERTICES
    best, side_a = _cached(g, _cyclic_cut) if small else _small_cut_to_edges(g)
    if best is None or best >= 4:
        return True, None
    side_b = frozenset(range(g.n)) - side_a
    cut = tuple(e for e in g.edges if (e[0] in side_a) != (e[1] in side_a))
    return False, CutCertificate(cut, side_a, side_b)


def cyclic_edge_connectivity(g: Graph) -> int | None:
    """Exact cyclic edge connectivity of a connected cubic graph on at most
    40 vertices, or None when the graph has no cyclic cut.

    Both sides of a minimum cyclic cut are connected and contain a cycle, so
    the connectivity equals the minimum, over pairs of vertex-disjoint
    chordless cycles, of the maximum flow between the two contracted cycles.
    In a minimum cut every side vertex meets at most one cut edge (otherwise
    migrating it across shrinks the cut), hence a side with the cut size
    bounded by the girth (at most 8 for cubic graphs this small) has at most
    8 vertices of degree 2 and is otherwise cubic; a Moore-style counting
    bound then forces each side to contain a chordless cycle on at most 9
    vertices, so capping the cycle enumeration at 9 loses nothing. A
    disjoint pair exists exactly when a cyclic cut exists: deleting one
    cycle's boundary leaves the other cycle intact, and moving whole spare
    components across only shrinks the boundary.

    The pairs are taken source by source, shortest cycle first (see
    `_packed_search`), and each source is paired with every vertex-disjoint
    cycle that has not been a source yet, so once a source C is done every
    pair containing C has had its flow. Then either some side of a minimum
    cut contains C, and the flow to the other side's short chordless cycle
    has already found the minimum, or every minimum cut crosses C and so
    holds at least 2 of its edges, which the packing bound counts.

    The search (`_cyclic_cut`) keeps the source side of the pair that set
    the minimum with the value, both held in g's cache. Both sides of that
    cut are connected: the side is reached from a cycle along edges, and a
    part of the other side that missed the target cycle could move across
    and shrink the cut.
    """
    if not is_cubic(g):
        raise GraphError("cyclic edge connectivity needs a cubic graph")
    if g.n > CYCLIC_MAX_VERTICES:
        raise GraphError("cyclic edge connectivity is implemented for at most "
                         f"{CYCLIC_MAX_VERTICES} vertices")
    if len(components(adjacency_masks(g))) != 1:
        raise GraphError("cyclic edge connectivity needs a connected graph")
    return _cached(g, _cyclic_cut)[0]
