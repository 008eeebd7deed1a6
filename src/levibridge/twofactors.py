"""Perfect matchings, 2-factors and the cycle-count parity of cubic graphs.

In a cubic graph the 2-factors are exactly the complements of the perfect
matchings, so enumerating matchings enumerates 2-factors. A graph is pseudo
2-factor isomorphic when every 2-factor has the same parity of cycle count.

The parity report is the histogram of cycle counts over all 2-factors,
and two engines compute it. The matching walk lists every
matching, so its time grows with their number, exponentially in n. The
frontier dynamic program (Knuth's SIMPATH, TAOCP 4A 7.1.4; Kawahara et al.,
"Frontier-based search", IEICE Trans. Fundamentals E100-A, 2017) places the
vertices one at a time and keeps, per boundary configuration, the
polynomial of closed cycles; its cost grows with the number of
configurations, exponentially in the frontier width. Both count the same
2-factors by their cycles, so the choice between them never changes a
report; `pseudo_2fi` takes the DP when the frontier width is at most
FRONTIER_WIDTH and the walk otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, GraphError, _neighbor_tuples, adjacency_masks, bfs_layers

ALL_ODD = "AllOdd"
ALL_EVEN = "AllEven"
MIXED = "Mixed"
NO_TWO_FACTOR = "NoTwoFactor"

# Widest frontier on which pseudo_2fi runs the DP rather than the walk.
FRONTIER_WIDTH = 5


@dataclass(frozen=True)
class TwoFactorReport:
    """Cycle-count histogram over the 2-factors of a cubic graph.

    `histogram` pairs each cycle count with the number of 2-factors that
    have it, in ascending order of cycles. The count, the parity status and
    the per-2-factor list are read off it; only the list grows with the
    number of 2-factors, and it is built only when asked for.
    """

    histogram: tuple[tuple[int, int], ...]

    @property
    def matching_count(self) -> int:
        return sum(count for _, count in self.histogram)

    @property
    def cycle_counts(self) -> tuple[int, ...]:
        """Sorted, one entry per 2-factor: as long as matching_count."""
        return tuple(c for c, count in self.histogram for _ in range(count))

    @property
    def status(self) -> str:
        parities = {c % 2 for c, _ in self.histogram}
        return (NO_TWO_FACTOR if not parities else MIXED if len(parities) == 2
                else ALL_ODD if 1 in parities else ALL_EVEN)


def _walk(g: Graph):
    """Depth-first walk over the perfect matchings of g, without recursion.

    Matches the lowest uncovered vertex v to each uncovered neighbour u in
    ascending order, so matchings come in lexicographic order. Each leaf
    yields the pairs (one list, overwritten) and, for cubic g, the number
    of cycles of the 2-factor left over. Matching v to u adds its edges at
    v and u to uncovered vertices; `end[x]` is the far end of the path
    ending at x, and joining a path's two ends closes a cycle. A branch
    dies once an uncovered vertex has no uncovered neighbour: for cubic g
    that keeps every vertex on two such edges at most, as the undo log needs.
    """
    n = g.n
    if n % 2:
        return
    adj = adjacency_masks(g)
    arcs = [tuple((a, b) for b in nb) for a, nb in enumerate(_neighbor_tuples(g))]
    full = (1 << n) - 1
    end = list(range(n))
    log: list[int] = []  # flattened (vertex, its previous end) pairs
    pairs = [(0, 0)] * (n // 2)
    if not n:
        yield pairs, 0
        return
    frames = [(0, adj[0], 0, 0, 0)]  # (v, untried partners, covered, cycles, log mark)
    while frames:
        v, untried, covered, cycles, mark = frames[-1]
        while len(log) > mark:
            end[log.pop()] = log.pop()
        if not untried:
            frames.pop()
            continue
        low = untried & -untried
        frames[-1] = (v, untried ^ low, covered, cycles, mark)
        u = low.bit_length() - 1
        covered |= 1 << v | low
        uncovered = ~covered
        for a, b in arcs[v] + arcs[u]:
            if uncovered >> b & 1:
                if not adj[b] & uncovered:
                    break  # b can no longer be matched: the branch dies
                ea, eb = end[a], end[b]
                if ea == b:
                    cycles += 1
                else:
                    log += (ea, a, eb, b)
                    end[ea], end[eb] = eb, ea
        else:
            pairs[len(frames) - 1] = (v, u)
            if covered == full:
                yield pairs, cycles
            else:
                v = (uncovered & (covered + 1)).bit_length() - 1
                frames.append((v, adj[v] & uncovered, covered, cycles, len(log)))


def enumerate_perfect_matchings(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings, branching on the lowest unmatched vertex.

    The branch order (ascending neighbor index at the lowest open vertex)
    makes the output order deterministic and lexicographic.
    """
    return [tuple(pairs) for pairs, _ in _walk(g)]


def _frontier_order(g: Graph, width: int) -> list[int] | None:
    """A vertex order with a small frontier, or None once it passes width.

    The frontier after a step is the set of placed vertices that still have
    an unplaced neighbour. Each component starts at a pseudo-peripheral
    vertex, the end of a double breadth-first sweep from its lowest vertex.
    Every later step places the unplaced neighbour of a placed vertex that
    leaves the smallest frontier, then the one with the fewest unplaced
    neighbours, then the lowest. Building stops as soon as the frontier
    passes width, so a wide graph pays for only a few steps.
    """
    adj = adjacency_masks(g)
    nbrs = _neighbor_tuples(g)
    left = [len(nb) for nb in nbrs]  # unplaced neighbours of each vertex
    unplaced = (1 << g.n) - 1
    order: list[int] = []
    reach = size = 0  # unplaced vertices next to placed ones; frontier size
    while unplaced:
        if not reach:
            root = (unplaced & -unplaced).bit_length() - 1
            for _ in range(2):
                *_, far = bfs_layers(adj, root)
                root = (far & -far).bit_length() - 1
            reach = 1 << root
        keys, rest = [], reach
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            grow = (left[c] > 0) - sum(left[u] == 1 for u in nbrs[c] if not unplaced >> u & 1)
            keys.append((grow, left[c], c))
        grow, _, v = min(keys)
        size += grow
        if size > width:
            return None
        order.append(v)
        unplaced ^= 1 << v
        reach = (reach | adj[v]) & unplaced
        for u in nbrs[v]:
            left[u] -= 1
    return order


_OPEN, _DONE = -1, -2  # frontier codes for degree 0 and degree 2


def _degree(code: int) -> int:
    return 1 if code >= 0 else 0 if code == _OPEN else 2


def _frontier_histogram(g: Graph, width: int) -> Counter | None:
    """Cycle-count histogram of the 2-factors of cubic g, by a frontier DP.

    Returns None when `_frontier_order` passes width. Placing a vertex
    decides its edges to placed neighbours one at a time. A state gives each
    frontier vertex a code: _OPEN (degree 0), _DONE (degree 2), or for a
    path end the frontier vertex at the path's other end. Taking an edge
    between the two ends of one path closes a cycle. An edge is left out
    only while both its ends can still reach degree 2, so every vertex
    leaves the frontier with degree 2, and the left-out edges of a partial
    2-factor form a matching whose vertex set the state fixes.

    A state's value is the polynomial sum_c N_c x^c, where N_c counts the
    partial 2-factors that reach the state with c closed cycles, packed in
    one int with fields of n/2 + 3 bits; closing a cycle is a shift by one
    field. N_c is thus at most the number of perfect matchings of a graph
    of maximum degree 3 on at most n vertices, below 6^(n/6) < 2^(n/2)
    (Bregman's bound, extended to all graphs by Kahn and Lovász), so adding
    values never carries from one field into the next.
    """
    order = _frontier_order(g, width)
    if order is None:
        return None
    nbrs = _neighbor_tuples(g)
    shift = g.n // 2 + 3
    left = [len(nb) for nb in nbrs]  # undecided edges of each vertex
    front: list[int] = []
    where: dict[int, int] = {}  # frontier vertex -> its slot in a state
    states = {(): 1}
    for v in order:
        back = [u for u in nbrs[v] if u in where]
        k = where[v] = len(front)
        front.append(v)
        states = {s + (_OPEN,): val for s, val in states.items()}
        for u in back:
            i = where[u]
            left[u] -= 1
            left[v] -= 1
            # Degrees u and v must already have for the edge to be left out.
            need_u, need_v = 2 - left[u], 2 - left[v]
            step: dict[tuple, int] = {}
            for s, val in states.items():
                a, b = s[i], s[k]
                if _degree(a) >= need_u and _degree(b) >= need_v:
                    step[s] = step.get(s, 0) + val
                if a == _DONE or b == _DONE:
                    continue
                t = list(s)
                if a == v:  # u and v end one path: the edge closes a cycle
                    t[i] = t[k] = _DONE
                    val <<= shift
                else:
                    eu = u if a == _OPEN else a
                    ev = v if b == _OPEN else b
                    if a != _OPEN:
                        t[i] = _DONE
                    if b != _OPEN:
                        t[k] = _DONE
                    t[where[eu]], t[where[ev]] = ev, eu
                t = tuple(t)
                step[t] = step.get(t, 0) + val
            states = step
        keep = [i for i, x in enumerate(front) if left[x]]
        if len(keep) < len(front):
            front = [front[i] for i in keep]
            where = {x: i for i, x in enumerate(front)}
            merged: dict[tuple, int] = {}
            for s, val in states.items():
                t = tuple(s[i] for i in keep)
                merged[t] = merged.get(t, 0) + val
            states = merged
    total, mask, hist = states.get((), 0), (1 << shift) - 1, Counter()
    for cycles in range(g.n // 3 + 1):  # a 2-factor's cycles have length >= 3
        count = total >> cycles * shift & mask
        if count:
            hist[cycles] = count
    return hist


def _require_cubic(g: Graph, what: str) -> None:
    for v, m in enumerate(adjacency_masks(g)):
        if m.bit_count() != 3:
            raise GraphError(
                f"{what} needs a cubic graph; vertex {v} has degree {m.bit_count()}")


def two_factors(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Complements of the perfect matchings; requires a cubic graph."""
    _require_cubic(g, "two_factors")
    out = []
    for matching in enumerate_perfect_matchings(g):
        gone = set(matching)
        out.append(tuple(e for e in g.edges if e not in gone))
    return out


def pseudo_2fi(g: Graph) -> TwoFactorReport:
    """Cycle-count parity report over every 2-factor of a cubic graph.

    The histogram comes from the frontier DP when `_frontier_order` keeps
    the frontier at most FRONTIER_WIDTH vertices wide, and from the
    matching walk otherwise. With the width bounded the DP holds a bounded
    number of states, so its work grows linearly in n, while the walk's
    grows with the number of 2-factors, exponentially in n. Above the bound
    the DP's state count grows exponentially in the width and nothing caps
    it, so wider graphs stay on the walk. Both engines count the same
    2-factors, so which one ran never shows in the report.
    """
    _require_cubic(g, "the 2-factor parity report")
    hist = _frontier_histogram(g, FRONTIER_WIDTH)
    if hist is None:
        hist = Counter(cycles for _, cycles in _walk(g))
    return TwoFactorReport(tuple(sorted(hist.items())))
