"""Perfect matchings, 2-factors, and cycle-count parity.

Three independent oracles: the permanent of the biadjacency matrix (sympy)
counts perfect matchings of bipartite graphs, exhaustive edge-subset
enumeration recovers matchings and 2-factors of any small cubic graph, and
a recursive enumerate-then-count reference checks the parity report of
cubic graphs on up to 30 vertices. An iterative matching walk, the engine
the frontier DP replaced, is the oracle for its cycle-count histogram on
wider inputs, and the DP's first, tuple-keyed form on inputs too wide for
the walk. On disjoint unions the histogram must be the product of the
parts' histograms.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter

import networkx as nx
import pytest
from sympy import Matrix

from levibridge.construction import bridge_census, bridge_graph
from levibridge.graphs import (
    Graph,
    GraphError,
    _neighbor_tuples,
    adjacency_masks,
    bfs_layers,
    bipartition,
    build,
    gp,
    heawood,
    k33,
    lcf,
    pappus,
    petersen,
    prism,
)
from levibridge.twofactors import (
    ALL_EVEN,
    ALL_ODD,
    MIXED,
    NO_TWO_FACTOR,
    TwoFactorReport,
    _frontier_order,
    pseudo_2fi,
)


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


_OPEN, _DONE = -1, -2  # frontier codes for degree 0 and degree 2


def _degree(code: int) -> int:
    return 1 if code >= 0 else 0 if code == _OPEN else 2


def _tuple_frontier_histogram(g: Graph) -> tuple[tuple[int, int], ...]:
    """Cycle-count histogram of the 2-factors of cubic g, by a frontier DP.

    The tuple-keyed form of `twofactors._frontier_histogram`, kept as its
    oracle: the same vertex order and decisions, with states as tuples of
    vertex codes that are copied at every step.

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
    for v in _frontier_order(g)[0]:
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


def _rescanning_frontier_order(g: Graph) -> tuple[list[int], int]:
    """The earlier `twofactors._frontier_order`, kept verbatim as its
    oracle: it recounts every candidate's placed neighbours with one
    unplaced neighbour at every step."""
    adj = adjacency_masks(g)
    nbrs = _neighbor_tuples(g)
    left = [len(nb) for nb in nbrs]  # unplaced neighbours of each vertex
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
            grow = (left[c] > 0) - sum(left[u] == 1 for u in nbrs[c] if not unplaced >> u & 1)
            keys.append((grow, left[c], c))
        grow, _, v = min(keys)
        size += grow
        width = max(width, size)
        order.append(v)
        unplaced ^= 1 << v
        reach = (reach | adj[v]) & unplaced
        for u in nbrs[v]:
            left[u] -= 1
    return order, width


def _permanent_matching_count(g) -> int:
    """Permanent of the biadjacency matrix: bipartite-only oracle."""
    sides = bipartition(g)
    assert sides is not None
    a = sorted(sides.side_a)
    b = sorted(sides.side_b)
    if len(a) != len(b):
        return 0
    index_b = {v: j for j, v in enumerate(b)}
    rows = [[0] * len(b) for _ in a]
    for u, v in g.edges:
        if u in index_b:
            u, v = v, u
        rows[a.index(u)][index_b[v]] = 1
    return int(Matrix(rows).per())


def _subset_matchings(g) -> set:
    """Exhaustive oracle: every n/2-subset of edges that covers each vertex."""
    if g.n % 2:
        return set()
    out = set()
    for subset in itertools.combinations(g.edges, g.n // 2):
        covered = [v for e in subset for v in e]
        if len(set(covered)) == g.n:
            out.add(frozenset(subset))
    return out


def _subset_two_factors(g) -> set:
    """Exhaustive oracle: every n-subset of edges that is 2-regular spanning."""
    out = set()
    for subset in itertools.combinations(g.edges, g.n):
        deg = [0] * g.n
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
        if all(d == 2 for d in deg):
            out.add(frozenset(subset))
    return out


def _recursive_matchings(g) -> list:
    """Reference enumerator: recursion on the lowest unmatched vertex."""
    adj = adjacency_masks(g)
    full = (1 << g.n) - 1
    out, acc = [], []

    def branch(covered: int):
        if covered == full:
            out.append(tuple(acc))
            return
        v = ((~covered) & -(~covered)).bit_length() - 1
        free = adj[v] & ~covered
        while free:
            u = (free & -free).bit_length() - 1
            free &= free - 1
            acc.append((v, u))
            branch(covered | 1 << v | 1 << u)
            acc.pop()

    if g.n % 2 == 0:
        branch(0)
    return out


def _reference_cycle_count(edges, n: int) -> int:
    """Cycles of a spanning 2-regular edge set, walked one by one."""
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    assert all(len(x) == 2 for x in nbr)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        v = start
        while not seen[v]:
            seen[v] = True
            a, b = nbr[v]
            v = a if not seen[a] else b
    return count


def _subset_histogram(g) -> tuple[tuple[int, int], ...]:
    """The exhaustive oracle's 2-factors, counted by their cycles."""
    counts = Counter(_reference_cycle_count(f, g.n) for f in _subset_two_factors(g))
    return tuple(sorted(counts.items()))


def _reference_report(g) -> tuple[TwoFactorReport, tuple[int, ...], str]:
    """Build every 2-factor as the complement of a matching, then count.

    Returns the report of the histogram, the sorted cycle counts one per
    2-factor, and the status read off those counts one by one.
    """
    counts = []
    for matching in _recursive_matchings(g):
        gone = set(matching)
        counts.append(_reference_cycle_count([e for e in g.edges if e not in gone], g.n))
    counts = tuple(sorted(counts))
    if not counts:
        status = NO_TWO_FACTOR
    elif all(c % 2 == 1 for c in counts):
        status = ALL_ODD
    elif all(c % 2 == 0 for c in counts):
        status = ALL_EVEN
    else:
        status = MIXED
    return TwoFactorReport(tuple(sorted(Counter(counts).items()))), counts, status


def _relabelled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return build(n, [(perm[u], perm[v]) for u, v in edges])


def _random_cubic_edges(rng, n):
    return list(nx.random_regular_graph(3, n, seed=rng.randrange(2**32)).edges())


def _bridge_joined(rng, n1, n2):
    """Two random cubic graphs, one edge of each subdivided, the two new
    vertices joined by a bridge."""
    e1 = _random_cubic_edges(rng, n1)
    e2 = [(u + n1, v + n1) for u, v in _random_cubic_edges(rng, n2)]
    x = e1.pop(rng.randrange(len(e1)))
    y = e2.pop(rng.randrange(len(e2)))
    s, t = n1 + n2, n1 + n2 + 1
    edges = e1 + e2 + [(x[0], s), (x[1], s), (y[0], t), (y[1], t), (s, t)]
    return n1 + n2 + 2, edges


def _no_two_factor_gadget():
    """Three subdivided-K4 gadgets hung on one central vertex: deleting the
    center leaves three odd components, so no perfect matching."""
    edges = []
    for i in range(3):
        a, b, c, d, w = range(5 * i, 5 * i + 5)
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (a, w), (w, b)]
        edges.append((w, 15))
    return build(16, edges)


CUBIC_CORPUS = {
    "k4": build(4, itertools.combinations(range(4), 2)),
    "k33": k33(),
    "prism": prism(),
    "cube": gp(4, 1),
    "petersen": petersen(),
    "gp62": gp(6, 2),
}


class TestPerfectMatchings:
    def test_matches_exhaustive_oracle_on_corpus(self):
        for name, g in CUBIC_CORPUS.items():
            assert pseudo_2fi(g).matching_count == len(_subset_matchings(g)), name

    def test_matches_permanent_on_bipartite_graphs(self):
        for g in (k33(), heawood(), pappus(), gp(4, 1), gp(8, 3)):
            assert pseudo_2fi(g).matching_count == _permanent_matching_count(g)

    def test_matches_oracles_on_random_cubic_graphs(self):
        for seed in range(8):
            h = nx.random_regular_graph(3, 10, seed=seed)
            g = build(10, list(h.edges()))
            report = pseudo_2fi(g)
            assert report.matching_count == len(_subset_matchings(g)), seed
            assert report.histogram == _subset_histogram(g), seed

    def test_pinned_counts(self):
        assert pseudo_2fi(k33()).matching_count == 6
        assert pseudo_2fi(heawood()).matching_count == 24
        assert pseudo_2fi(pappus()).matching_count == 42
        assert pseudo_2fi(petersen()).matching_count == 6


class TestTwoFactors:
    def test_matches_exhaustive_oracle_on_corpus(self):
        for name, g in CUBIC_CORPUS.items():
            assert pseudo_2fi(g).histogram == _subset_histogram(g), name

    def test_matches_exhaustive_oracle_on_heawood(self):
        assert pseudo_2fi(heawood()).histogram == _subset_histogram(heawood())

    def test_requires_cubic(self):
        with pytest.raises(GraphError):
            pseudo_2fi(build(6, [(i, (i + 1) % 6) for i in range(6)]))

    def test_parity_report_names_itself_and_the_degree_seen(self):
        g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 less an edge
        with pytest.raises(GraphError, match=r"^the 2-factor parity report needs a "
                           r"cubic graph; vertex 2 has degree 2$"):
            pseudo_2fi(g)


class TestCycleCount:
    """The reference cycle counter that the parity oracles rest on."""

    def test_single_cycle(self):
        g = build(6, [(i, (i + 1) % 6) for i in range(6)])
        assert _reference_cycle_count(g.edges, g.n) == 1

    def test_two_triangles(self):
        g = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert _reference_cycle_count(g.edges, g.n) == 2

    def test_rejects_non_spanning_2_regular(self):
        g = build(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(AssertionError):
            _reference_cycle_count(g.edges[:5], g.n)
        with pytest.raises(AssertionError):
            _reference_cycle_count(g.edges + ((0, 2),), g.n)


class TestParityReport:
    def test_k33_all_odd_hamiltonian(self):
        report = pseudo_2fi(k33())
        assert report.matching_count == 6
        assert report.cycle_counts == (1,) * 6
        assert report.status == ALL_ODD

    def test_heawood_all_odd_hamiltonian(self):
        report = pseudo_2fi(heawood())
        assert report.matching_count == 24
        assert report.cycle_counts == (1,) * 24
        assert report.status == ALL_ODD

    def test_pappus_all_odd(self):
        report = pseudo_2fi(pappus())
        assert report.matching_count == 42
        assert report.cycle_counts == (1,) * 36 + (3,) * 6
        assert report.status == ALL_ODD

    def test_petersen_all_even(self):
        # Every 2-factor of the Petersen graph is a pair of 5-cycles.
        report = pseudo_2fi(petersen())
        assert report.cycle_counts == (2,) * 6
        assert report.status == ALL_EVEN

    def test_gp83_mixed(self):
        report = pseudo_2fi(gp(8, 3))
        assert report.matching_count == 33
        assert report.status == MIXED

    def test_no_two_factor(self):
        g = _no_two_factor_gadget()
        report = pseudo_2fi(g)
        assert report.matching_count == 0
        assert report.status == NO_TWO_FACTOR
        assert not _subset_matchings(g)

    def test_statuses_agree_with_oracle_parities(self):
        for name, g in CUBIC_CORPUS.items():
            factors = _subset_two_factors(g)
            parities = {
                _reference_cycle_count(f, g.n) % 2 for f in factors
            }
            report = pseudo_2fi(g)
            if not factors:
                assert report.status == NO_TWO_FACTOR, name
            elif parities == {1}:
                assert report.status == ALL_ODD, name
            elif parities == {0}:
                assert report.status == ALL_EVEN, name
            else:
                assert report.status == MIXED, name

    def test_matches_recursive_reference(self):
        rng = random.Random(20221)
        graphs = [_relabelled(rng, n, _random_cubic_edges(rng, n))
                  for n in range(12, 31, 2) for _ in range(2)]
        graphs += [_relabelled(rng, *_bridge_joined(rng, n1, n2))
                   for n1, n2 in ((4, 4), (4, 6), (6, 8), (8, 10), (10, 12), (12, 14))]
        graphs += [_relabelled(rng, h.n, h.edges)
                   for h in (heawood(), pappus(), petersen(), gp(12, 1), gp(15, 1))]
        graphs += [_no_two_factor_gadget(), build(0, [])]
        statuses, most_cycles = set(), 0
        for g in graphs:
            expected, counts, status = _reference_report(g)
            report = pseudo_2fi(g)
            assert report == expected, g
            assert report.cycle_counts == counts, g
            assert report.matching_count == len(counts), g
            assert report.status == status, g
            statuses.add(status)
            most_cycles = max(most_cycles, *counts, 0)
        # The set reaches every status and 2-factors of more than 4 cycles.
        assert statuses == {ALL_ODD, ALL_EVEN, MIXED, NO_TWO_FACTOR}
        assert most_cycles > 4


def _status(hist) -> str:
    parities = {c % 2 for c in hist}
    return (NO_TWO_FACTOR if not hist else MIXED if len(parities) == 2
            else ALL_ODD if 1 in parities else ALL_EVEN)


class TestFrontierHistogram:
    def test_matches_the_walk(self):
        rng = random.Random(20261)
        graphs = [_relabelled(rng, n, _random_cubic_edges(rng, n))
                  for n in range(12, 31, 2) for _ in range(2)]
        graphs += [_relabelled(rng, *_bridge_joined(rng, n1, n2))
                   for n1, n2 in ((4, 4), (4, 6), (6, 8), (8, 10), (10, 12), (12, 14))]
        graphs += [gp(n, 1) for n in range(6, 21)]
        graphs += [lcf([m], 2 * m) for m in range(12, 21)]  # Moebius ladders
        graphs += [heawood(), pappus()]  # AllOdd, which none of the others are
        k4 = build(4, itertools.combinations(range(4), 2)).edges
        graphs += [build(8, list(k4) + [(u + 4, v + 4) for u, v in k4]),
                   build(0, []), _no_two_factor_gadget()]
        statuses = set()
        for g in graphs:
            walked = Counter(cycles for _, cycles in _walk(g))
            assert pseudo_2fi(g).histogram == tuple(sorted(walked.items())), g
            statuses.add(_status(walked))
        assert statuses == {ALL_ODD, ALL_EVEN, MIXED, NO_TWO_FACTOR}

    def test_matches_the_tuple_keyed_dp(self):
        rng = random.Random(20262)
        graphs = [bridge_graph(c.representative) for c in bridge_census()]
        graphs += [_relabelled(rng, n, _random_cubic_edges(rng, n))
                   for n in (32, 40, 48, 52, 56, 60) for _ in range(2)]
        # Components after the first start on freed slots.
        parts = [k33(), heawood(), *[build(4, itertools.combinations(range(4), 2))] * 2]
        edges, n = [], 0
        for h in parts:
            edges += [(u + n, v + n) for u, v in h.edges]
            n += h.n
        graphs += [_relabelled(rng, n, edges), _no_two_factor_gadget(), build(0, [])]
        for g in graphs:
            assert pseudo_2fi(g).histogram == _tuple_frontier_histogram(g), g

    def test_disjoint_unions_multiply_histograms(self):
        # A 2-factor of a disjoint union is one 2-factor of each part, so the
        # union's histogram is the product of the parts' as polynomials in
        # the cycle count. Every component after the first starts on slots
        # that earlier components freed.
        def product(histograms):
            poly = {0: 1}
            for hist in histograms:
                step = Counter()
                for c, count in poly.items():
                    for d, m in hist:
                        step[c + d] += count * m
                poly = step
            return tuple(sorted(poly.items()))

        rng = random.Random(20321)
        k4 = build(4, itertools.combinations(range(4), 2))
        named = [k4, k33(), petersen(), heawood(), gp(7, 2), _no_two_factor_gadget()]
        for _ in range(30):
            parts = []
            for _ in range(rng.randrange(2, 6)):
                if rng.random() < 0.25:
                    n = rng.randrange(10, 21, 2)
                    parts.append(build(n, _random_cubic_edges(rng, n)))
                else:
                    parts.append(rng.choice(named))
            edges, n = [], 0
            for h in parts:
                edges += [(u + n, v + n) for u, v in h.edges]
                n += h.n
            expected = product(pseudo_2fi(h).histogram for h in parts)
            assert pseudo_2fi(_relabelled(rng, n, edges)).histogram == expected, parts
        many = build(160, [(u + 4 * j, v + 4 * j) for j in range(40) for u, v in k4.edges])
        assert pseudo_2fi(many).histogram == ((40, 3**40),)

    def test_widths_of_the_greedy_order(self):
        def width(g):
            order, reported = _frontier_order(g)
            nbrs, placed, widest = _neighbor_tuples(g), set(), 0
            for v in order:
                placed.add(v)
                front = [x for x in placed if not placed.issuperset(nbrs[x])]
                widest = max(widest, len(front))
            assert reported == widest, g
            return reported

        assert {width(gp(n, 1)) for n in range(6, 21)} == {4}
        assert {width(lcf([m], 2 * m)) for m in range(12, 21)} == {4}  # Moebius ladders
        assert (width(heawood()), width(gp(40, 3))) == (6, 8)
        assert {width(bridge_graph(c.representative)) for c in bridge_census()} == {7, 8, 9}

    def test_order_matches_the_rescanning_order(self):
        rng = random.Random(20281)
        graphs = [bridge_graph(c.representative) for c in bridge_census()]
        graphs += [_relabelled(rng, n, _random_cubic_edges(rng, n)) for n in range(20, 120, 2)]
        # A second component starts from a fresh pseudo-peripheral vertex.
        graphs.append(_relabelled(rng, 20, list(k33().edges)
                                  + [(u + 6, v + 6) for u, v in heawood().edges]))
        for g in graphs:
            assert _frontier_order(g) == _rescanning_frontier_order(g), g

    def test_generalized_petersen_with_a_million_two_factors_takes_seconds(self):
        # gp(40, 3)'s frontier is 8 wide. Its histogram was confirmed once
        # with the matching walk, which took about five minutes.
        start = time.perf_counter()
        report = pseudo_2fi(gp(40, 3))
        assert time.perf_counter() - start < 10
        assert report.matching_count == 1327248
        assert report.status == MIXED
        assert report.histogram == (
            (1, 89656), (2, 304916), (3, 371600), (4, 314690), (5, 171420),
            (6, 60518), (7, 12540), (8, 1900), (10, 8))

    def test_prism_with_a_million_two_factors_takes_seconds(self):
        # Listing the 1,860,500 2-factors with the matching walk takes about
        # a minute.
        start = time.perf_counter()
        report = pseudo_2fi(gp(30, 1))
        assert time.perf_counter() - start < 10
        assert report.matching_count == 1860500
        assert len(report.cycle_counts) == 1860500
        assert report.status == MIXED

    def test_prism_with_228_million_two_factors_fits_in_a_gigabyte(self):
        # The report keeps the histogram, not one entry per 2-factor, which
        # here would take about 1.8 GB.
        code = (
            "import json, resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from levibridge.graphs import gp\n"
            "from levibridge.twofactors import pseudo_2fi\n"
            "start = time.perf_counter()\n"
            "report = pseudo_2fi(gp(40, 1))\n"
            "print(json.dumps([report.matching_count, report.status,\n"
            "                  len(report.histogram), time.perf_counter() - start]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        count, status, buckets, seconds = json.loads(out.stdout)
        assert (count, status, buckets) == (228826129, MIXED, 20)
        assert seconds < 10
