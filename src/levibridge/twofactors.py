"""2-factors and the cycle-count parity of cubic graphs.

In a cubic graph the 2-factors are exactly the complements of the perfect
matchings, so counting one counts the other. A graph is pseudo 2-factor
isomorphic when every 2-factor has the same parity of cycle count.

The parity report is the histogram of cycle counts over all 2-factors. One
engine computes it without listing them: a frontier dynamic program
(Knuth's SIMPATH, TAOCP 4A 7.1.4; Kawahara et al., "Frontier-based
search", IEICE Trans. Fundamentals E100-A, 2017) places the vertices one
at a time in a greedy order and keeps, per boundary configuration, the
polynomial of closed cycles. Its cost grows with the number of
configurations, exponentially in the widest frontier of that order and
linearly in n, not with the number of 2-factors.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, GraphError, _cached, _neighbor_tuples, adjacency_masks, bfs_layers

ALL_ODD = "AllOdd"
ALL_EVEN = "AllEven"
MIXED = "Mixed"
NO_TWO_FACTOR = "NoTwoFactor"


class TwoFactorReport(namedtuple("TwoFactorReport", "histogram")):
    """Cycle-count histogram over the 2-factors of a cubic graph.

    `histogram` pairs each cycle count with the number of 2-factors that
    have it, in ascending order of cycles. The count, the parity status and
    the per-2-factor list are read off it; only the list grows with the
    number of 2-factors, and it is built only when asked for.
    """

    __slots__ = ()

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


def _frontier_order(g: Graph) -> list[int]:
    """A vertex order with a small frontier.

    The frontier after a step is the set of placed vertices that still have
    an unplaced neighbour. Each component starts at a pseudo-peripheral
    vertex, the end of a double breadth-first sweep from its lowest vertex.
    Every later step places the unplaced neighbour of a placed vertex that
    leaves the smallest frontier, then the one with the fewest unplaced
    neighbours, then the lowest.
    """
    adj = adjacency_masks(g)
    nbrs = _neighbor_tuples(g)
    left = [len(nb) for nb in nbrs]  # unplaced neighbours of each vertex
    unplaced = (1 << g.n) - 1
    order: list[int] = []
    reach = 0  # unplaced vertices next to placed ones
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
        v = min(keys)[2]
        order.append(v)
        unplaced ^= 1 << v
        reach = (reach | adj[v]) & unplaced
        for u in nbrs[v]:
            left[u] -= 1
    return order


_OPEN, _DONE = -1, -2  # frontier codes for degree 0 and degree 2


def _degree(code: int) -> int:
    return 1 if code >= 0 else 0 if code == _OPEN else 2


def _frontier_histogram(g: Graph) -> tuple[tuple[int, int], ...]:
    """Cycle-count histogram of the 2-factors of cubic g, by a frontier DP.

    Returns the (cycles, 2-factors) pairs in ascending order of cycles, as
    TwoFactorReport stores them. The vertices are placed in
    `_frontier_order`, and placing a vertex decides its edges to placed
    neighbours one at a time. A state gives each frontier vertex a code:
    _OPEN (degree 0), _DONE (degree 2), or for a path end the frontier
    vertex at the path's other end. Taking an edge between the two ends of
    one path closes a cycle. An edge is left out only while both its ends
    can still reach degree 2, so every vertex leaves the frontier with
    degree 2, and the left-out edges of a partial 2-factor form a matching
    whose vertex set the state fixes.

    A state's value is the polynomial sum_c N_c x^c, where N_c counts the
    partial 2-factors that reach the state with c closed cycles, packed in
    one int with fields of n/2 + 3 bits; closing a cycle is a shift by one
    field. N_c is thus at most the number of perfect matchings of a graph
    of maximum degree 3 on at most n vertices, below 6^(n/6) < 2^(n/2)
    (Bregman's bound, extended to all graphs by Kahn and Lovász), so adding
    values never carries from one field into the next.
    """
    nbrs = _neighbor_tuples(g)
    shift = g.n // 2 + 3
    left = [len(nb) for nb in nbrs]  # undecided edges of each vertex
    front: list[int] = []
    where: dict[int, int] = {}  # frontier vertex -> its slot in a state
    states = {(): 1}
    for v in _frontier_order(g):
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
    total, mask = states.get((), 0), (1 << shift) - 1
    # A 2-factor's cycles have length >= 3, so it has at most n/3 of them.
    counts = ((c, total >> c * shift & mask) for c in range(g.n // 3 + 1))
    return tuple((c, count) for c, count in counts if count)


def pseudo_2fi(g: Graph) -> TwoFactorReport:
    """Cycle-count parity report over every 2-factor of a cubic graph.

    The histogram comes from the frontier DP. Its state count grows
    exponentially in the widest frontier of the greedy vertex order, and
    nothing caps it: prisms and Möbius ladders (width 4) take milliseconds
    at any n, the 30-vertex joins (widths 7-9) a few milliseconds and
    gp(40, 3) (width 8) about 50 ms, but random cubic graphs on 100
    vertices (widths 14-18) take tens of seconds and hundreds of megabytes.
    """
    for v, m in enumerate(adjacency_masks(g)):
        if m.bit_count() != 3:
            raise GraphError("the 2-factor parity report needs a cubic graph; "
                             f"vertex {v} has degree {m.bit_count()}")
    return TwoFactorReport(_cached(g, _frontier_histogram))
