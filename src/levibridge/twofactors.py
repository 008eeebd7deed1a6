"""Perfect matchings, 2-factors and the cycle-count parity of cubic graphs.

In a cubic graph the 2-factors are exactly the complements of the perfect
matchings, so enumerating matchings enumerates 2-factors. A graph is pseudo
2-factor isomorphic when every 2-factor has the same parity of cycle count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, GraphError, _neighbor_tuples, adjacency_masks

ALL_ODD = "AllOdd"
ALL_EVEN = "AllEven"
MIXED = "Mixed"
NO_TWO_FACTOR = "NoTwoFactor"


@dataclass(frozen=True)
class TwoFactorReport:
    matching_count: int
    cycle_counts: tuple[int, ...]  # sorted, one entry per 2-factor
    status: str


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


def cycle_count(edges, g: Graph) -> int:
    """Number of cycles in a spanning 2-regular subgraph of g."""
    deg = [0] * g.n
    nbr = [[] for _ in range(g.n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        nbr[u].append(v)
        nbr[v].append(u)
    if any(d != 2 for d in deg):
        raise GraphError("edge set is not a spanning 2-regular subgraph")
    seen = [False] * g.n
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        v = start
        while not seen[v]:
            seen[v] = True
            a, b = nbr[v]
            v = a if not seen[a] else b
    return count


def pseudo_2fi(g: Graph) -> TwoFactorReport:
    """Cycle-count parity report over every 2-factor of a cubic graph."""
    _require_cubic(g, "the 2-factor parity report")
    hist = Counter(cycles for _, cycles in _walk(g))
    counts = tuple(c for c in sorted(hist) for _ in range(hist[c]))
    parities = {c % 2 for c in hist}
    status = (NO_TWO_FACTOR if not hist else MIXED if len(parities) == 2
              else ALL_ODD if 1 in parities else ALL_EVEN)
    return TwoFactorReport(len(counts), counts, status)
