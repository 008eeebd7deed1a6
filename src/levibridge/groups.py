"""Small permutation groups as tuples, with closure, structure and isomorphism tests.

A permutation of degree n is a tuple p of length n with p[i] = image of i.
A group is its stabilizer chain (Schreier-Sims), which answers order,
membership, subgroup and normality questions; a group given as an element
set is the group those elements generate. `closure` only lists elements,
for the structure tests that need them at orders in the hundreds; it and
the canonical search's orbit pruning close through `_orbit`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

Perm = tuple[int, ...]


class GroupError(ValueError):
    """Raised for invalid group-theoretic input or blown guards."""


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """Permutation a after b: (a*b)[i] = a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def cycles(a: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle led by its minimum."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = a[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = a[x]
        out.append(tuple(cyc))
    return out


def cycle_type(a: Perm) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in cycles(a)))


def perm_order(a: Perm) -> int:
    return math.lcm(*(len(c) for c in cycles(a))) if a else 1


def _orbit(seeds, gens, act) -> set:
    """Union of the seeds' orbits under x -> act(x, g), closed breadth first.

    One FIFO queue adds elements in the order a level-by-level frontier
    would.
    """
    seen = set(seeds)
    queue = list(seen)
    for x in queue:  # grows while the orbit does
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def closure(generators, degree: int) -> frozenset[Perm]:
    """Breadth-first product closure of the generators: the element list."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise GroupError(f"not a permutation of degree {degree}: {g}")
    return frozenset(_orbit([identity(degree)], gens, compose))


class PermGroup:
    """A finite permutation group, kept as its stabilizer chain.

    Built by deterministic incremental Schreier-Sims (Seress, Permutation
    Group Algorithms, 2003, ch. 4). Level i holds a base point b_i, the
    generators of the pointwise stabilizer of b_0..b_{i-1}, and for each
    point x of their orbit through b_i an element sending b_i to x, stored
    with its inverse; the order is the product of the orbit lengths.
    `generators` lists the added elements that enlarged the group, so
    `PermGroup(degree, elements)` is the group the elements generate;
    `elements` closes lazily.
    """

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        self.generators: list[Perm] = []
        self._levels: list[tuple[int, list[Perm], dict[int, tuple[Perm, Perm]]]] = []
        self._elements: frozenset[Perm] | None = None
        for g in generators:
            self.add(g)

    @property
    def order(self) -> int:
        return math.prod(len(trans) for _, _, trans in self._levels)

    @property
    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            self._elements = closure(self.generators, self.degree)
        return self._elements

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def __contains__(self, p: Perm) -> bool:
        return self._sift(p, 0) == identity(self.degree)

    def _sift(self, p: Perm, level: int) -> Perm:
        """Strip p through the levels from `level` on; the identity means
        p lies in that level's group."""
        for b, _, trans in self._levels[level:]:
            u = trans.get(p[b])
            if u is None:
                break
            p = compose(u[1], p)
        return p

    def add(self, g: Perm) -> bool:
        """Extend the group by g; False, changing nothing, if g is in it."""
        g = tuple(g)
        if sorted(g) != list(range(self.degree)):
            raise GroupError(f"not a permutation of degree {self.degree}: {g}")
        if g in self:
            return False
        self.generators.append(g)
        self._elements = None
        self._extend(0, g)
        return True

    def _extend(self, i: int, g: Perm) -> None:
        """Add g, which fixes b_0..b_{i-1}, to the generators of level i.

        Every Schreier generator of level i must lie in level i + 1's
        group; one that does not is added there in turn. Earlier Schreier
        generators lie in that group already (it only grows), so only the
        pairs with g or with a new orbit point are sifted.
        """
        if i == len(self._levels):
            b = next(x for x in range(self.degree) if g[x] != x)
            e = identity(self.degree)
            self._levels.append((b, [], {b: (e, e)}))
        _, gens, trans = self._levels[i]
        gens.append(g)
        pairs = [(x, g) for x in trans]
        for x, s in pairs:  # grows while the orbit does
            y = s[x]
            if y not in trans:
                u = compose(s, trans[x][0])
                trans[y] = (u, inverse(u))
                pairs.extend((y, t) for t in gens)
                continue  # its Schreier generator is the identity
            residue = self._sift(compose(trans[y][1], compose(s, trans[x][0])), i + 1)
            if residue != identity(self.degree):
                self._extend(i + 1, residue)


def is_subgroup(sub: PermGroup, group: PermGroup) -> bool:
    return sub.degree == group.degree and all(x in group for x in sub.generators)


def is_normal(sub: PermGroup, group: PermGroup) -> bool:
    """Check that sub holds the conjugates of its generators by the group's.

    g sub g^-1 is generated by those conjugates and, the group being finite,
    lies in sub for every generator g exactly when sub is normal.
    """
    if not is_subgroup(sub, group):
        raise GroupError("is_normal needs sub <= group")
    return all(
        compose(g, compose(x, inverse(g))) in sub
        for g in group.generators for x in sub.generators
    )


def order_profile(group: PermGroup) -> dict[int, int]:
    """How many elements have each order, highest order first."""
    return dict(sorted(Counter(perm_order(p) for p in group.elements).items(), reverse=True))


def is_abelian(group: PermGroup) -> bool:
    gens = group.generators
    return all(
        compose(a, b) == compose(b, a) for a, b in itertools.combinations(gens, 2)
    )


def edge_action(p: Perm, edges) -> Perm:
    """Project a vertex permutation to its action on an indexed edge list.

    Raises GroupError if the permutation does not map the edge set to itself.
    """
    index = {}
    for i, (u, v) in enumerate(edges):
        index[(u, v) if u < v else (v, u)] = i
    out = []
    for u, v in edges:
        a, b = p[u], p[v]
        key = (a, b) if a < b else (b, a)
        if key not in index:
            raise GroupError(f"edge set not invariant: {(u, v)} -> {key}")
        out.append(index[key])
    return tuple(out)


def _generating_sequence(group: PermGroup) -> tuple[list[Perm], list[int]]:
    """Greedy short generating sequence, deterministic for a given group:
    elements by descending order, each kept if it enlarges the group so far.
    Also returns the order of the group each prefix of the sequence generates."""
    seq, sizes = PermGroup(group.degree), []
    for x in sorted(group.elements, key=lambda p: (-perm_order(p), p)):
        if seq.add(x):
            sizes.append(seq.order)
            if seq.order == group.order:
                break
    return seq.generators, sizes


def groups_isomorphic(a: PermGroup, b: PermGroup) -> bool:
    """Abstract isomorphism test by backtracking over generator images.

    Image h_i of g_i is kept when <g_1..g_i>, <h_1..h_i> and the pair group
    of the g_j beside the h_j (shifted onto points a.degree...) have one
    order. The pair group maps onto both, so the orders agree exactly when
    it is the graph of a bijective homomorphism sending each g_j to h_j.
    """
    if a.order > 200 or b.order > 200:
        raise GroupError("groups_isomorphic guards at order 200")
    if a.order != b.order:
        return False
    if order_profile(a) != order_profile(b):
        return False
    gens, sizes = _generating_sequence(a)
    by_order: dict[int, list[Perm]] = {}
    for p in sorted(b.elements):
        by_order.setdefault(perm_order(p), []).append(p)

    def assign(i: int, imgs: list[Perm]) -> bool:
        if i == len(gens):
            return True
        for cand in by_order.get(perm_order(gens[i]), []):
            trial = imgs + [cand]
            pairs = [g + tuple(x + a.degree for x in h) for g, h in zip(gens, trial)]
            if (PermGroup(b.degree, trial).order == sizes[i]
                    == PermGroup(a.degree + b.degree, pairs).order and assign(i + 1, trial)):
                return True
        return False

    return assign(0, [])


def semidirect_certificate(group: PermGroup, k: PermGroup,
                           h: PermGroup) -> tuple[bool, dict]:
    """Internal semidirect product test: K normal, K meet H trivial, |K||H|=|G|."""
    report = {
        "k_is_subgroup": is_subgroup(k, group),
        "h_is_subgroup": is_subgroup(h, group),
        "orders": {"group": group.order, "k": k.order, "h": h.order},
    }
    report["k_normal"] = (
        report["k_is_subgroup"] and is_normal(k, group)
    )
    report["intersection_trivial"] = (
        k.elements & h.elements == {identity(group.degree)}
    )
    report["order_product_matches"] = k.order * h.order == group.order
    ok = all(
        report[key]
        for key in ("k_is_subgroup", "h_is_subgroup", "k_normal",
                    "intersection_trivial", "order_product_matches")
    )
    return ok, report


# -- model groups ------------------------------------------------------------


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [tuple((i + 1) % n for i in range(n))])


def dihedral(n: int) -> PermGroup:
    """Symmetries of an n-gon on vertices 0..n-1, order 2n."""
    if n < 3:
        raise GroupError("dihedral(n) needs n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup(n, [rot, ref])


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """Product acting on the disjoint union of the two domains."""
    da, db = a.degree, b.degree
    gens = [g + tuple(range(da, da + db)) for g in a.generators]
    gens += [identity(da) + tuple(x + da for x in g) for g in b.generators]
    return PermGroup(da + db, gens)


@functools.cache
def z3z3() -> PermGroup:
    return direct_product(cyclic(3), cyclic(3))


@functools.cache
def d4xz2() -> PermGroup:
    return direct_product(dihedral(4), cyclic(2))
