"""Small permutation groups as tuples, with closure, structure and isomorphism tests.

A permutation of degree n is a tuple p of length n with p[i] = image of i.
A group is its stabilizer chain (Schreier-Sims), which answers order,
membership, subgroup and normality questions; a group given as an element
set is the group those elements generate, and elements are listed off the
chain. `closure`, the breadth-first product closure, is the tests' reference
listing; it and the canonical search's orbit pruning close through `_orbit`.
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

    Level i holds a base point b_i, the generators of the pointwise
    stabilizer of b_0..b_{i-1}, and for each point x of their orbit
    through b_i one element u with u(b_i) = x; the order is the product of
    the orbit lengths. The chain is built one of two ways (Seress,
    Permutation Group Algorithms, 2003, ch. 4):
    - `PermGroup(degree, elements)`, the group the elements generate, by
      deterministic incremental Schreier-Sims; `generators` lists the
      added elements that enlarged the group;
    - `PermGroup.from_base(degree, base, generators)`, for a base and a
      strong generating set already known, by orbits alone; a canonical
      search's group is built so, and its `generators` are every
      automorphism the search found, redundant ones included.
    `add` extends either chain by Schreier-Sims; `elements` lists the group off it.
    """

    def __init__(self, degree: int, generators=()):
        self.degree = degree
        self.generators: list[Perm] = []
        self._levels: list[tuple[int, list[Perm], dict[int, Perm]]] = []
        self._elements: frozenset[Perm] | None = None
        for g in generators:
            self.add(g)

    @classmethod
    def from_base(cls, degree: int, base, generators) -> PermGroup:
        """The chain of base b_0..b_k-1 whose level d is generated by the
        generators fixing b_0..b_d-1, built by orbits with no sifting; a
        level whose orbit is its base point alone is left out.

        This is the group's chain when the generators are strong for the
        base: for every d, those fixing b_0..b_d-1 generate A_d, the
        pointwise stabilizer of b_0..b_d-1 in the group, and A_k is
        trivial. The vertices b_0..b_k-1 that a canonical search
        (`canon._Search`) individualizes on its way to its first leaf, and
        the automorphisms it finds, are such a pair (McKay & Piperno,
        "Practical graph isomorphism, II", 2014). A_k fixes every cell of
        the first leaf's partition, which is discrete, so it is trivial.
        Let F_d be the found automorphisms fixing b_0..b_d-1 and v_d the
        first path's node at depth d; b_d, the least vertex of v_d's target
        cell, is v_d's first child. Take w in the A_d-orbit of b_d:
        - v_d either searches the child w or skips it as the image of a
          searched child w' under F_d; then w' is in the A_d-orbit too;
        - the subtree of a searched child w' != b_d holds g(first leaf)
          for some g in A_d with g(b_d) = w'. Its path invariants are the
          first path's, so the first-path test lets the search reach it,
          or an image of it under automorphisms fixing a longer prefix
          where orbit pruning skips it. Such a leaf equals the first one,
          so the search records an automorphism in F_d sending b_d to w',
          and its backjump returns to v_d's child loop;
        - so the F_d-orbit of b_d is the A_d-orbit. By induction from
          A_k, <F_d> holds <F_d+1> = A_d+1, the stabilizer of b_d in A_d,
          so |<F_d>| >= |A_d-orbit of b_d| |A_d+1| = |A_d| and <F_d> = A_d.
        `_Search._node` argues the same way for orbit pruning and
        backjumping. `generators` keeps every one given, redundant or not.
        """
        group = cls(degree)
        group.generators = fixing = list(generators)
        e = identity(degree)
        for b in base:
            trans, queue = {b: e}, [b]
            for x in queue:  # grows while the orbit does
                for s in fixing:
                    y = s[x]
                    if y not in trans:
                        trans[y] = compose(s, trans[x])
                        queue.append(y)
            if len(queue) > 1:
                # A copy: `add` appends to `generators` and to level 0's list.
                group._levels.append((b, list(fixing), trans))
            fixing = [s for s in fixing if s[b] == b]
        return group

    @property
    def order(self) -> int:
        return math.prod(len(trans) for _, _, trans in self._levels)

    @property
    def elements(self) -> frozenset[Perm]:
        """The products u_0 u_1 ... u_k, u_i in level i's transversal, built
        deepest level first: each g sifts to exactly one, as a transversal
        meets each coset of the next level's group once, so they are the
        group's `order` elements."""
        if self._elements is None:
            elements = [identity(self.degree)]
            for _, _, trans in reversed(self._levels):
                elements = [compose(u, p) for u in trans.values() for p in elements]
            self._elements = frozenset(elements)
        return self._elements

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def __contains__(self, p: Perm) -> bool:
        a, b = self._sift(identity(self.degree), p, 0)
        return a == b

    def _sift(self, a: Perm, b: Perm, level: int) -> tuple[Perm, Perm]:
        """Strip p = a^-1 b through the levels from `level` on, kept as that
        quotient so that no inverse is taken: at base point c, p(c) is
        a.index(b[c]), and stripping by u turns p into (a u)^-1 b. The
        residue a^-1 b is the identity, so p lies in that level's group,
        exactly when the returned a equals the returned b."""
        for c, _, trans in self._levels[level:]:
            u = trans.get(a.index(b[c]))
            if u is None:
                break
            a = compose(a, u)
        return a, b

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

        Every Schreier generator trans[y]^-1 s trans[x] of level i must lie
        in level i + 1's group; one that does not is added there in turn.
        Earlier ones lie in that group already (it only grows), so only the
        pairs with g or with a new orbit point are sifted, as quotients.
        """
        if i == len(self._levels):
            b = next(x for x in range(self.degree) if g[x] != x)
            self._levels.append((b, [], {b: identity(self.degree)}))
        _, gens, trans = self._levels[i]
        gens.append(g)
        pairs = [(x, g) for x in trans]
        for x, s in pairs:  # grows while the orbit does
            y = s[x]
            if y not in trans:
                trans[y] = compose(s, trans[x])
                pairs.extend((y, t) for t in gens)
                continue  # its Schreier generator is the identity
            a, b = self._sift(trans[y], compose(s, trans[x]), i + 1)
            if a != b:
                self._extend(i + 1, compose(inverse(a), b))


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
