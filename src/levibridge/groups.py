"""Small permutation groups as tuples, with closure, structure and isomorphism tests.

A permutation of degree n is a tuple p of length n with p[i] = image of i.
A group is its stabilizer chain, read off a base and a strong generating
set (a canonical search's, or a group's whole element set); it answers
order, membership, subgroup and normality questions and lists the elements.
`closure`, the breadth-first product closure, sizes the subgroups that
`groups_isomorphic` tries and is the tests' reference listing; it and the
canonical search's orbit pruning close through `_orbit`.
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
    the orbit lengths. `PermGroup(degree)` is the trivial group; a chain is
    read off a base and a strong generating set by orbits alone
    (`from_base`): a canonical search's, whose `generators` are every
    automorphism it found, or a group's whole element set (`from_elements`).
    Nothing changes a chain once it is built.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.generators: list[Perm] = []
        self._levels: list[tuple[int, list[Perm], dict[int, Perm]]] = []

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
                group._levels.append((b, fixing, trans))
            fixing = [s for s in fixing if s[b] == b]
        return group

    @classmethod
    def from_elements(cls, degree: int, elements) -> PermGroup:
        """The chain of a group given as its whole element set, which the
        caller has checked is closed under products: `from_base` along the
        points 0..degree-1 with every element as a strong generator, as the
        elements fixing b_0..b_d-1 are that stabilizer itself; a point that
        no element fixing the earlier ones moves gets no level."""
        return cls.from_base(degree, range(degree), elements)

    @property
    def order(self) -> int:
        return math.prod(len(trans) for _, _, trans in self._levels)

    @functools.cached_property
    def elements(self) -> frozenset[Perm]:
        """The products u_0 u_1 ... u_k, u_i in level i's transversal, built
        deepest level first: each g sifts to exactly one, as a transversal
        meets each coset of the next level's group once, so they are the
        group's `order` elements."""
        elements = [identity(self.degree)]
        for _, _, trans in reversed(self._levels):
            elements = [compose(u, p) for u in trans.values() for p in elements]
        return frozenset(elements)

    @functools.cached_property
    def orders(self) -> dict[Perm, int]:
        """Each element's order."""
        return {p: perm_order(p) for p in self.elements}

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def __contains__(self, p: Perm) -> bool:
        """Sift p down the levels. With a = u_0 ... u_i-1 the transversal
        elements stripped so far, the residue a^-1 p is kept as that
        quotient, so no inverse is taken: it sends base point c to
        a.index(p[c]). p lies in the group exactly when every level has
        that point in its orbit and the last residue is the identity, a = p."""
        a = identity(self.degree)
        for c, _, trans in self._levels:
            u = trans.get(a.index(p[c]))
            if u is None:
                return False
            a = compose(a, u)
        return a == p


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
    return dict(sorted(Counter(group.orders.values()).items(), reverse=True))


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
    seq, sizes, span = [], [], {identity(group.degree)}
    for x in sorted(group.elements, key=lambda p: (-group.orders[p], p)):
        if x not in span:
            seq.append(x)
            span = closure(seq, group.degree)
            sizes.append(len(span))
            if len(span) == group.order:
                break
    return seq, sizes


def groups_isomorphic(a: PermGroup, b: PermGroup) -> bool:
    """Abstract isomorphism test by backtracking over generator images.

    Image h_i of g_i is kept when <g_1..g_i>, <h_1..h_i> and the pair group
    of the g_j beside the h_j (shifted onto points a.degree...) have one
    order. The pair group maps onto both, so the orders agree exactly when
    it is the graph of a bijective homomorphism sending each g_j to h_j.
    Each is sized by its closure: under the guard, at most 200 elements,
    and a pair group at most 40,000.
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
        by_order.setdefault(b.orders[p], []).append(p)

    def assign(i: int, imgs: list[Perm]) -> bool:
        if i == len(gens):
            return True
        for cand in by_order.get(a.orders[gens[i]], []):
            trial = imgs + [cand]
            pairs = [g + tuple(x + a.degree for x in h) for g, h in zip(gens, trial)]
            if (len(closure(trial, b.degree)) == sizes[i]
                    == len(closure(pairs, a.degree + b.degree)) and assign(i + 1, trial)):
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

