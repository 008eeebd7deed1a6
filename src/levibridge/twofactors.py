"""2-factors and the cycle-count parity of cubic graphs.

In a cubic graph the 2-factors are exactly the complements of the perfect
matchings, so counting one counts the other. A graph is pseudo 2-factor
isomorphic when every 2-factor has the same parity of cycle count.

The parity report is the histogram of cycle counts over all 2-factors. One
engine computes it without listing them: a frontier dynamic program
(Knuth's SIMPATH, TAOCP 4A 7.1.4; Kawahara et al., "Frontier-based
search", IEICE Trans. Fundamentals E100-A, 2017) places the vertices one
at a time in a greedy order and keeps, per boundary configuration (one
int of slot codes, updated by XOR masks), the polynomial of closed
cycles. Its cost grows with the number of configurations, exponentially
in the widest frontier of that order and linearly in n, not with the
number of 2-factors.
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


def _frontier_order(g: Graph) -> tuple[list[int], int]:
    """A vertex order with a small frontier, and the widest frontier in it.

    The frontier after a step is the set of placed vertices that still have
    an unplaced neighbour. Each component starts at a pseudo-peripheral
    vertex, the end of a double breadth-first sweep from its lowest vertex.
    Every later step places the unplaced neighbour of a placed vertex that
    leaves the smallest frontier, then the one with the fewest unplaced
    neighbours, then the lowest. Placing c grows the frontier by
    (left[c] > 0) - ones[c]: c joins it if it has an unplaced neighbour,
    and the placed neighbours waiting on c alone leave it. A placed vertex
    adds to `ones` once, when it is down to one unplaced neighbour.
    """
    adj = adjacency_masks(g)
    nbrs = _neighbor_tuples(g)
    left = [len(nb) for nb in nbrs]  # unplaced neighbours of each vertex
    ones = [0] * g.n  # placed neighbours of each vertex with one unplaced neighbour
    unplaced = (1 << g.n) - 1
    order: list[int] = []
    reach = size = width = 0  # reach: unplaced vertices next to placed ones
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
            keys.append(((left[c] > 0) - ones[c], left[c], c))
        grow, _, v = min(keys)
        size += grow
        width = max(width, size)
        order.append(v)
        unplaced ^= 1 << v
        reach = (reach | adj[v]) & unplaced
        for u in nbrs[v]:
            left[u] -= 1
        for u in (v, *nbrs[v]):  # v, and its placed neighbours that just lost one
            if left[u] == 1 and not unplaced >> u & 1:
                ones[(adj[u] & unplaced).bit_length() - 1] += 1
    return order, width


_OPEN, _DONE = 0, 1  # slot codes for degree 0 and degree 2; 2 + j is a path end


def _rule(a: int, b: int, i: int, k: int, left_u: int, left_v: int, bits: int):
    """XOR masks that leave out and take an edge from slot i with code a to
    slot k with code b (None if barred), and whether taking it closes a cycle.
    An end with no undecided edge left (left_u, left_v) has its slot cleared."""
    clear = (0 if left_u else _DONE << i * bits) | (0 if left_v else _DONE << k * bits)
    degree_u, degree_v = (1 if a > 1 else 2 * a), (1 if b > 1 else 2 * b)
    keep = clear if degree_u >= 2 - left_u and degree_v >= 2 - left_v else None
    if _DONE in (a, b):
        return keep, None, 0
    # Path ends become _DONE and the far ends eu, ev point at each other. If
    # u and v end one path, eu = k and ev = i: the edge closes a cycle.
    eu, ev = a - 2 if a else i, b - 2 if b else k
    take = clear ^ ((a and 2 + i) ^ 2 + ev) << eu * bits ^ ((b and 2 + k) ^ 2 + eu) << ev * bits
    return keep, take ^ (a and a ^ _DONE) << i * bits ^ (b and b ^ _DONE) << k * bits, eu == k


def _frontier_histogram(g: Graph) -> tuple[tuple[int, int], ...]:
    """Cycle-count histogram of the 2-factors of cubic g, by a frontier DP.

    Returns the (cycles, 2-factors) pairs in ascending order of cycles, as
    TwoFactorReport stores them. The vertices are placed in
    `_frontier_order`, and placing a vertex decides its edges to placed
    neighbours one at a time. An edge is left out only while both its ends
    can still reach degree 2, so every vertex leaves the frontier with
    degree 2, and the left-out edges of a partial 2-factor form a matching
    whose vertex set the state fixes. Taking an edge between the two ends
    of one path closes a cycle.

    A state is one int with a `bits`-bit field per slot. A live vertex owns
    a slot, holding _OPEN, _DONE or, for a path end, 2 + the far end's
    slot. A step's vertex takes the lowest free slot while its placed
    neighbours keep theirs, so at most width + 1 slots are live and codes
    stay below width + 3, which `bits` holds. A free slot holds _OPEN in every
    state, because a vertex's last edge clears its slot by XOR with _DONE. It
    is exact: a vertex's edges leave 2, 1, then 0 undecided. At the second,
    leaving it out needs degree 1, so an _OPEN vertex takes it; at the last,
    leaving it out needs _DONE, and taking it lifts a path end to _DONE. Each
    edge memoises `_rule`, which reads only the codes of its two ends and
    their undecided-edge counts, fixed per edge.

    A state's value is the polynomial sum_c N_c x^c, where N_c counts the
    partial 2-factors that reach the state with c closed cycles, packed in
    one int with fields of n/2 + 3 bits; closing a cycle is a shift by one
    field. N_c is thus at most the number of perfect matchings of a graph
    of maximum degree 3 on at most n vertices, below 6^(n/6) < 2^(n/2)
    (Bregman's bound, extended to all graphs by Kahn and Lovász), so adding
    values never carries from one field into the next.
    """
    nbrs = _neighbor_tuples(g)
    order, width = _frontier_order(g)
    bits = (width + 2).bit_length()
    ones, shift = (1 << bits) - 1, g.n // 2 + 3
    left = [len(nb) for nb in nbrs]  # undecided edges of each vertex
    slot = [-1] * g.n  # a placed vertex's slot
    live, states = 0, {0: 1}  # live: the live slots, as a mask
    for v in order:
        back = [u for u in nbrs[v] if slot[u] >= 0]
        k = slot[v] = (~live & live + 1).bit_length() - 1
        live, sk = live | 1 << k, k * bits
        for u in back:
            i, si = slot[u], slot[u] * bits
            left[u], left[v] = left[u] - 1, left[v] - 1
            rules, step = [None] * (1 << 2 * bits), {}
            for s, val in states.items():
                codes = (s >> si & ones) << bits | s >> sk & ones
                rule = rules[codes]
                if rule is None:
                    rule = rules[codes] = _rule(codes >> bits, codes & ones, i, k,
                                                left[u], left[v], bits)
                keep, take, closed = rule
                if keep is not None:
                    t = s ^ keep
                    step[t] = step.get(t, 0) + val
                if take is not None:
                    t = s ^ take
                    step[t] = step.get(t, 0) + (val << closed * shift)
            states = step
        for x in (v, *back):
            if not left[x]:
                live ^= 1 << slot[x]
    total, mask = sum(states.values()), (1 << shift) - 1
    # A 2-factor's cycles have length >= 3, so it has at most n/3 of them.
    counts = ((c, total >> c * shift & mask) for c in range(g.n // 3 + 1))
    return tuple((c, count) for c, count in counts if count)


def pseudo_2fi(g: Graph) -> TwoFactorReport:
    """Cycle-count parity report over every 2-factor of a cubic graph.

    The histogram comes from the frontier DP. Its state count grows
    exponentially in the widest frontier of the greedy vertex order, and
    nothing caps it: the 30-vertex joins (widths 7-9) take about 2 ms and
    gp(40, 3) (width 8) about 15 ms, but random cubic graphs on 100
    vertices (widths 14-17) take 2-21 s and 80-420 MB. Prisms (width 4)
    take 15 ms at 600 vertices, yet 0.24 s at 2,000 and 2.1 s at 4,000,
    because their counts grow to hundreds of digits.
    """
    for v, m in enumerate(adjacency_masks(g)):
        if m.bit_count() != 3:
            raise GraphError("the 2-factor parity report needs a cubic graph; "
                             f"vertex {v} has degree {m.bit_count()}")
    return TwoFactorReport(_cached(g, _frontier_histogram))
