"""Edge cuts of cubic graphs: essential 4-edge-connectivity and cyclic edge
connectivity.

A cut is *trivial* when one side is a single vertex, and *cyclic* when both
sides contain a cycle. The cyclic edge connectivity is the minimum size of a
cut whose removal leaves two components that each contain a cycle; it is
reported as None when no such cut exists (the graph has no pair of
vertex-disjoint cycles).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, GraphError, adjacency_masks, components, is_cubic

_CHORDLESS_CAP = 9  # see cyclic_edge_connectivity for why this is exhaustive


@dataclass(frozen=True)
class CutCertificate:
    cut: tuple[tuple[int, int], ...]
    side_a: frozenset[int]
    side_b: frozenset[int]
    kind: str  # "trivial", "non-trivial" or "cyclic"


def _is_connected(masks) -> bool:
    """A graph with no vertices counts as disconnected."""
    return len(components(masks)) == 1


def _bits(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        out.add((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return frozenset(out)


def _side_has_cycle(g: Graph, side: frozenset[int]) -> bool:
    inside = sum(1 for u, v in g.edges if u in side and v in side)
    return inside >= len(side)


def _cut_kind(g: Graph, side_a: frozenset[int], side_b: frozenset[int]) -> str:
    if min(len(side_a), len(side_b)) == 1:
        return "trivial"
    if _side_has_cycle(g, side_a) and _side_has_cycle(g, side_b):
        return "cyclic"
    return "non-trivial"


def is_essentially_4_edge_connected(g: Graph) -> tuple[bool, CutCertificate | None]:
    """True when every edge cut of size at most 3 is trivial.

    Scans the edge subsets of sizes 1, 2, 3 in lexicographic order and
    returns the first non-trivial cut found as a certificate. In a connected
    cubic graph the first subset whose removal disconnects the graph always
    leaves exactly two components: if a removal left three or more, dropping
    the subset edges incident to one spare component would give a smaller
    disconnecting subset, already visited.
    """
    base = adjacency_masks(g)
    if not is_cubic(g):
        raise GraphError("essential 4-edge-connectivity needs a cubic graph")
    if not _is_connected(base):
        raise GraphError("essential 4-edge-connectivity needs a connected graph")
    for size in (1, 2, 3):
        for subset in itertools.combinations(g.edges, size):
            masks = list(base)
            for u, v in subset:
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
            comps = components(masks)
            if len(comps) == 1:
                continue
            assert len(comps) == 2, "smaller disconnecting subset was missed"
            side_a, side_b = sorted((_bits(c) for c in comps), key=min)
            kind = _cut_kind(g, side_a, side_b)
            if kind == "trivial":
                continue
            return False, CutCertificate(subset, side_a, side_b, kind)
    return True, None


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
                     stop_at: int | None) -> int:
    """Minimum edge cut separating two contracted vertex sets (Edmonds-Karp).

    Stops early once the flow reaches `stop_at`, since the caller only keeps
    strictly smaller values.
    """
    ids: dict[int, int] = {}
    nxt = 2  # 0 = contracted source side, 1 = contracted sink side
    for v in range(g.n):
        if v in side_s:
            ids[v] = 0
        elif v in side_t:
            ids[v] = 1
        else:
            ids[v] = nxt
            nxt += 1
    cap: list[dict[int, int]] = [dict() for _ in range(nxt)]
    for u, v in g.edges:
        a, b = ids[u], ids[v]
        if a == b:
            continue
        cap[a][b] = cap[a].get(b, 0) + 1
        cap[b][a] = cap[b].get(a, 0) + 1
    flow = 0
    while stop_at is None or flow < stop_at:
        parent = {0: 0}
        queue = [0]
        while queue and 1 not in parent:
            x = queue.pop(0)
            for y, c in cap[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if 1 not in parent:
            return flow
        y = 1
        while y != 0:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] = cap[y].get(x, 0) + 1
            y = x
        flow += 1
    return flow


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
    """
    if not is_cubic(g):
        raise GraphError("cyclic edge connectivity needs a cubic graph")
    if g.n > 40:
        raise GraphError("cyclic edge connectivity is implemented for at most 40 vertices")
    if not _is_connected(adjacency_masks(g)):
        raise GraphError("cyclic edge connectivity needs a connected graph")
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
        value = _min_cut_between(g, side_s, side_t, best)
        if best is None or value < best:
            best = value
    return best
