"""Edge cuts of cubic graphs: essential 4-edge-connectivity and cyclic edge
connectivity.

A cut is *trivial* when one side is a single vertex, and *cyclic* when both
sides contain a cycle. The cyclic edge connectivity is the minimum size of a
cut whose removal leaves two components that each contain a cycle; it is
reported as None when no such cut exists (the graph has no pair of
vertex-disjoint cycles). Both questions are answered by maximum flows
between contracted vertex sets: edges for the first, chordless cycles for
the second. The cyclic search needs only short chordless cycles, and only
the flows from a few *source* cycles: a cut that crosses a cycle holds at
least 2 of its edges, so once p pairwise edge-disjoint sources have been
processed, any cut still unseen has at least 2p edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, GraphError, _neighbor_tuples, adjacency_masks, components,
                     is_cubic)

_CHORDLESS_CAP = 9  # see cyclic_edge_connectivity for why this is exhaustive


@dataclass(frozen=True)
class CutCertificate:
    cut: tuple[tuple[int, int], ...]
    side_a: frozenset[int]
    side_b: frozenset[int]
    kind: str  # "trivial", "non-trivial" or "cyclic"


def _side_has_cycle(g: Graph, side: frozenset[int]) -> bool:
    inside = sum(1 for u, v in g.edges if u in side and v in side)
    return inside >= len(side)


def _cut_kind(g: Graph, side_a: frozenset[int], side_b: frozenset[int]) -> str:
    if min(len(side_a), len(side_b)) == 1:
        return "trivial"
    if _side_has_cycle(g, side_a) and _side_has_cycle(g, side_b):
        return "cyclic"
    return "non-trivial"


def _chordless_cycles(g: Graph, cap: int) -> list[tuple[int, ...]]:
    """Chordless cycles on at most `cap` vertices, each listed exactly once.

    A cycle is reported rooted at its smallest vertex and oriented toward
    its smaller root neighbor.
    """
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


def _min_cut_between(g: Graph, side_s: frozenset[int], side_t: frozenset[int],
                     stop_at: int | None) -> tuple[int, frozenset[int] | None]:
    """Minimum edge cut between two disjoint vertex sets (Edmonds-Karp).

    Unit flows run on g as if each set were contracted: each search starts
    from all of `side_s` and stops at a vertex of `side_t`. Stops once the
    flow reaches `stop_at` (the caller only keeps smaller values) and returns
    (stop_at, None); else returns the cut size and the last search's reach,
    the source side of a minimum cut that lies inside every other one.
    """
    nbrs = _neighbor_tuples(g)
    flow: set[tuple[int, int]] = set()  # arcs (x, y) carrying a unit from x to y
    value = 0
    while stop_at is None or value < stop_at:
        parent = dict.fromkeys(side_s)
        queue = list(side_s)
        for x in queue:
            for y in nbrs[x]:
                if y not in parent and (x, y) not in flow:
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
            flow ^= {(y, x) if (y, x) in flow else (x, y)}  # cancel a unit back, or send one
            y = x
        value += 1
    return value, None


def is_essentially_4_edge_connected(g: Graph) -> tuple[bool, CutCertificate | None]:
    """True when every edge cut of size at most 3 is trivial.

    In a cubic graph a side with k >= 2 vertices and c <= 3 boundary edges
    spans (3k - c)/2 >= k edges, so both sides of a non-trivial cut of at
    most 3 edges hold a cycle. The sides of a minimum such cut are connected,
    so one holds vertex 0 and a neighbour x, the other some edge f. Hence
    the graph is essentially 4-edge-connected exactly when, for each of the
    3 edges {0, x} and every edge f disjoint from it, the maximum flow
    between the two contracted edges is at least 4; a flow below 4 separates
    two sets of at least 2 vertices, a non-trivial cut.

    The certificate is the first such cut found, with vertex 0 in `side_a`:
    a "cyclic" cut of at most 3 edges whose removal leaves exactly its two
    connected sides, though not always the smallest such cut.
    """
    if not is_cubic(g):
        raise GraphError("essential 4-edge-connectivity needs a cubic graph")
    if len(components(adjacency_masks(g))) != 1:  # no vertices counts as disconnected
        raise GraphError("essential 4-edge-connectivity needs a connected graph")
    for x in g.neighbors(0):
        for f in g.edges:
            if 0 in f or x in f:
                continue
            _, side_a = _min_cut_between(g, frozenset((0, x)), frozenset(f), 4)
            if side_a is not None:
                side_b = frozenset(range(g.n)) - side_a
                cut = tuple(e for e in g.edges if (e[0] in side_a) != (e[1] in side_a))
                return False, CutCertificate(cut, side_a, side_b,
                                             _cut_kind(g, side_a, side_b))
    return True, None


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

    The pairs are taken source by source, shortest cycle first, and each
    source is paired with every vertex-disjoint cycle that has not been a
    source yet, so once a source C is done every pair containing C has had
    its flow. Then either some side of a minimum cut contains C, and the
    flow to the other side's short chordless cycle has already found the
    minimum, or every minimum cut crosses C and so holds at least 2 of its
    edges. The next source is the shortest cycle edge-disjoint from all
    packed sources (the shortest remaining one if none is), and a packed
    source counts towards p. A cut crossing p pairwise edge-disjoint cycles
    has at least 2p edges, so the search stops as soon as 2p reaches the
    best flow found.
    """
    if not is_cubic(g):
        raise GraphError("cyclic edge connectivity needs a cubic graph")
    if g.n > 40:
        raise GraphError("cyclic edge connectivity is implemented for at most 40 vertices")
    if len(components(adjacency_masks(g))) != 1:
        raise GraphError("cyclic edge connectivity needs a connected graph")
    cycles = sorted(_chordless_cycles(g, _CHORDLESS_CAP), key=len)
    vertices = [frozenset(c) for c in cycles]
    edges = [frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1])) for c in cycles]
    unprocessed = list(range(len(cycles)))
    packed: set[frozenset[int]] = set()  # edges of the pairwise edge-disjoint sources
    p = 0
    best: int | None = None
    while unprocessed and (best is None or 2 * p < best):
        source = next((i for i in unprocessed if not edges[i] & packed), unprocessed[0])
        if not edges[source] & packed:
            packed |= edges[source]
            p += 1
        unprocessed.remove(source)
        for target in unprocessed:
            if not vertices[source] & vertices[target]:
                value, _ = _min_cut_between(g, vertices[source], vertices[target], best)
                if best is None or value < best:
                    best = value
    return best
