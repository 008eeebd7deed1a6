"""Incremental Schreier-Sims, the tests' oracle for the library's chains,
and the model groups built with it.

The library reads every chain off a base and a strong generating set
(`PermGroup.from_base`, `PermGroup.from_elements`). `SiftedGroup` builds
one from arbitrary generators instead, by sifting Schreier generators
(Seress, Permutation Group Algorithms, 2003, ch. 4), so it checks those
chains by another route and builds groups no search or element set gives.
"""

import functools

from levibridge.groups import GroupError, PermGroup, compose, identity, inverse


class SiftedGroup(PermGroup):
    """The group the elements generate, by deterministic incremental
    Schreier-Sims; `generators` lists the added elements that enlarged it.
    Its levels have `PermGroup`'s form, so every query is `PermGroup`'s."""

    def __init__(self, degree: int, generators=()):
        super().__init__(degree)
        for g in generators:
            self.add(g)

    def add(self, g) -> bool:
        """Extend the group by g; False, changing nothing, if g is in it."""
        g = tuple(g)
        if sorted(g) != list(range(self.degree)):
            raise GroupError(f"not a permutation of degree {self.degree}: {g}")
        if g in self:
            return False
        self.generators.append(g)
        self.__dict__.pop("elements", None)
        self.__dict__.pop("orders", None)
        self._extend(0, g)
        return True

    def _sift(self, a, b, level: int):
        """Strip p = a^-1 b through the levels from `level` on, kept as that
        quotient: at base point c, p(c) is a.index(b[c]), and stripping by u
        turns p into (a u)^-1 b. The residue a^-1 b is the identity, so p
        lies in that level's group, exactly when the returned a equals the
        returned b."""
        for c, _, trans in self._levels[level:]:
            u = trans.get(a.index(b[c]))
            if u is None:
                break
            a = compose(a, u)
        return a, b

    def _extend(self, i: int, g) -> None:
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


def cyclic(n: int) -> SiftedGroup:
    return SiftedGroup(n, [tuple((i + 1) % n for i in range(n))])


def dihedral(n: int) -> SiftedGroup:
    """Symmetries of an n-gon on vertices 0..n-1, order 2n."""
    if n < 3:
        raise GroupError("dihedral(n) needs n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return SiftedGroup(n, [rot, ref])


def z4_by_z4(twisted: bool) -> SiftedGroup:
    """Z4 x Z4, or Z4 x| Z4 = <a, b | a^4 = b^4 = 1, bab^-1 = a^-1> when
    twisted, acting left-regularly on its 16 elements a^k b^l, point 4k + l."""
    # a^k b^l -> a^(k + 1) b^l, and b a^k b^l = a^(-k if twisted else k) b^(l + 1)
    a = tuple(4 * ((k + 1) % 4) + l for k in range(4) for l in range(4))
    b = tuple(4 * ((-k if twisted else k) % 4) + (l + 1) % 4
              for k in range(4) for l in range(4))
    return SiftedGroup(16, [a, b])


def q8() -> SiftedGroup:
    """The quaternion group, acting left-regularly on +-1, +-i, +-j, +-k,
    point 4s + x."""
    def unit(table):  # table[x] = (sign flip, axis) of the unit times axis x
        return tuple(4 * (s ^ table[x][0]) + table[x][1] for s in range(2) for x in range(4))

    return SiftedGroup(8, [unit(((0, 1), (1, 0), (0, 3), (1, 2))),   # i
                           unit(((0, 2), (1, 3), (1, 0), (0, 1)))])  # j


def pauli() -> SiftedGroup:
    """The Pauli group <X, Z, iI> of order 16, acting on the phased basis
    vectors i^ph e_k, point 2 ph + k."""
    x = tuple(2 * ph + 1 - k for ph in range(4) for k in range(2))
    z = tuple(2 * ((ph + 2 * k) % 4) + k for ph in range(4) for k in range(2))
    i = tuple(2 * ((ph + 1) % 4) + k for ph in range(4) for k in range(2))
    return SiftedGroup(8, [x, z, i])


def regular(group: PermGroup) -> SiftedGroup:
    """The group acting left-regularly on its own sorted elements."""
    elements = sorted(group.elements)
    index = {p: i for i, p in enumerate(elements)}
    return SiftedGroup(len(elements), [tuple(index[compose(g, p)] for p in elements)
                                       for g in group.generators])


def direct_product(*factors: PermGroup) -> SiftedGroup:
    """The product acting on the disjoint union of the factors' domains."""
    degree, gens = sum(f.degree for f in factors), []
    start = 0
    for f in factors:
        for g in f.generators:
            gens.append(identity(start) + tuple(x + start for x in g)
                        + tuple(range(start + f.degree, degree)))
        start += f.degree
    return SiftedGroup(degree, gens)


@functools.cache
def z3z3() -> SiftedGroup:
    return direct_product(cyclic(3), cyclic(3))


@functools.cache
def d4xz2() -> SiftedGroup:
    return direct_product(dihedral(4), cyclic(2))
