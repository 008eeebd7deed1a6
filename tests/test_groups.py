"""Permutation-group machinery, cross-checked against sympy.

sympy's PermutationGroup provides the independent route for closure size,
normality, abelianness, and centre/structure facts on the model groups;
stabilizer-chain orders are checked against both sympy and product closure,
and the chain's subgroup, normality and stabilizer answers against sympy on
random generator sets.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from levibridge.groups import (
    GroupError,
    PermGroup,
    _orbit,
    closure,
    compose,
    cycle_type,
    cycles,
    edge_action,
    groups_isomorphic,
    identity,
    inverse,
    is_abelian,
    is_normal,
    is_subgroup,
    order_profile,
    perm_order,
    semidirect_certificate,
)
from schreier_sims import (SiftedGroup, cyclic, d4xz2, dihedral, direct_product, q8, z3z3,
                           z4_by_z4)

perm_strategy = st.permutations(range(6)).map(tuple)


def _sympy_group(group: PermGroup) -> PermutationGroup:
    return PermutationGroup(
        [Permutation(list(p), size=group.degree) for p in group.elements]
    )


class TestPermBasics:
    @settings(max_examples=100, deadline=None)
    @given(perm_strategy, perm_strategy, perm_strategy)
    def test_compose_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy)
    def test_inverse(self, a):
        assert compose(a, inverse(a)) == identity(6)
        assert compose(inverse(a), a) == identity(6)

    def test_compose_applies_right_factor_first(self):
        # a places 0->1, b places 1->2; (b . a) sends 0 -> 2.
        a = (1, 0, 2)
        b = (0, 2, 1)
        assert compose(b, a)[0] == 2

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy)
    def test_cycles_reconstruct(self, a):
        rebuilt = list(range(6))
        for cyc in cycles(a):
            for i, v in enumerate(cyc):
                rebuilt[v] = cyc[(i + 1) % len(cyc)]
        assert tuple(rebuilt) == a
        assert sorted(len(c) for c in cycles(a) if len(c) > 1) == [
            c for c in cycle_type(a) if c > 1
        ]

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy)
    def test_perm_order_matches_sympy(self, a):
        assert perm_order(a) == Permutation(list(a)).order()


class TestClosureAndGroups:
    def test_closure_sizes_match_sympy(self):
        rng = random.Random(4242)
        for _ in range(25):
            degree = rng.randint(2, 7)
            gens = [
                tuple(rng.sample(range(degree), degree)) for _ in range(2)
            ]
            mine = SiftedGroup(degree, gens).order
            theirs = PermutationGroup(
                [Permutation(list(g), size=degree) for g in gens]
            ).order()
            assert mine == theirs

    def test_named_groups(self):
        assert cyclic(5).order == 5
        assert dihedral(4).order == 8
        assert z3z3().order == 9
        assert d4xz2().order == 16
        assert direct_product(cyclic(3), cyclic(3)).order == 9
        with pytest.raises(GroupError, match="needs n >= 3"):
            dihedral(2)

    def test_named_groups_match_sympy_structure(self):
        assert _sympy_group(z3z3()).is_abelian
        assert not _sympy_group(d4xz2()).is_abelian
        assert _sympy_group(dihedral(4)).is_dihedral
        assert is_abelian(z3z3())
        assert not is_abelian(d4xz2())

    def test_subgroup_and_normality_match_sympy(self):
        g = dihedral(4)
        rotations = SiftedGroup(4, [(1, 2, 3, 0)])
        reflection = SiftedGroup(4, [(3, 2, 1, 0)])
        assert is_subgroup(rotations, g)
        assert is_subgroup(reflection, g)
        assert is_normal(rotations, g)
        assert not is_normal(reflection, g)
        sg, sr, sf = (_sympy_group(h) for h in (g, rotations, reflection))
        assert sr.is_normal(sg, strict=False)
        assert not sf.is_normal(sg, strict=False)

    def test_is_normal_requires_containment(self):
        with pytest.raises(GroupError):
            is_normal(cyclic(5), dihedral(4))

    def test_order_profile(self):
        assert order_profile(cyclic(4)) == {1: 1, 2: 1, 4: 2}
        assert order_profile(z3z3()) == {1: 1, 3: 8}
        assert order_profile(dihedral(4)) == {1: 1, 2: 5, 4: 2}


def _sympy_perms(degree, gens) -> PermutationGroup:
    return PermutationGroup([Permutation(list(g), size=degree) for g in gens]
                            or [Permutation(degree - 1)])


def _sympy_order(degree, gens) -> int:
    return _sympy_perms(degree, gens).order()


@st.composite
def _generator_sets(draw):
    degree = draw(st.integers(min_value=1, max_value=8))
    perm = st.permutations(range(degree)).map(tuple)
    return degree, draw(st.lists(perm, max_size=4))


class TestStabChain:
    @settings(max_examples=300, deadline=None)
    @given(_generator_sets())
    def test_order_matches_closure_and_sympy(self, case):
        """Schreier-Sims's chain and the chain read off the closure
        (`from_elements`) agree with the closure and with sympy."""
        degree, gens = case
        elements = closure(gens, degree)
        chains = SiftedGroup(degree, gens), PermGroup.from_elements(degree, elements)
        for group in chains:
            assert group.order == len(elements) == _sympy_order(degree, gens)
            assert group.elements == elements
        rng = random.Random(repr(case))
        for p in (tuple(rng.sample(range(degree), degree)) for _ in range(5)):
            assert [p in group for group in chains] == [p in elements] * 2

    def test_identity_cyclic_and_symmetric(self):
        for n in range(1, 9):
            shift = tuple((i + 1) % n for i in range(n))
            swap = (1, 0) + tuple(range(2, n)) if n > 1 else (0,)
            cases = (([], 1), ([identity(n)], 1), ([shift], n),
                     ([shift, swap], math.factorial(n)))
            for gens, order in cases:
                assert SiftedGroup(n, gens).order == order
                assert _sympy_order(n, gens) == order

    def test_add_keeps_only_generators_that_enlarge(self):
        rot = (1, 2, 3, 4, 0)
        group = SiftedGroup(5, [identity(5), rot])
        assert group.generators == [rot]
        assert not group.add(compose(rot, rot))
        assert group.add((4, 3, 2, 1, 0))
        assert not group.add((0, 4, 3, 2, 1))  # a reflection already in D5
        assert group.generators == [rot, (4, 3, 2, 1, 0)]
        assert group.order == 10
        assert group.elements == dihedral(5).elements

    def test_add_recomputes_elements(self):
        rot = (1, 2, 3, 4, 0)
        group = SiftedGroup(5, [rot])
        assert group.elements == cyclic(5).elements
        assert not group.add(compose(rot, rot))
        assert group.elements == cyclic(5).elements
        assert group.add((4, 3, 2, 1, 0))
        assert group.elements == dihedral(5).elements

    def test_rejects_non_permutations(self):
        with pytest.raises(GroupError):
            SiftedGroup(3).add((0, 0, 1))
        with pytest.raises(GroupError):
            SiftedGroup(3, [(0, 1)])
        with pytest.raises(GroupError, match="not a permutation of degree 2"):
            closure([(0, 0)], 2)


@st.composite
def _subgroup_cases(draw):
    """A group, a generator set drawn partly from its elements (so often a
    subgroup, often not closed as a set), and a point."""
    degree = draw(st.integers(min_value=1, max_value=6))
    perm = st.permutations(range(degree)).map(tuple)
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    elements = sorted(closure(gens, degree))
    sub = draw(st.lists(st.one_of(st.sampled_from(elements), perm), max_size=3))
    return degree, gens, sub, draw(st.integers(min_value=0, max_value=degree - 1))


class TestChainAnswersMatchSympy:
    @settings(max_examples=300, deadline=None)
    @given(_subgroup_cases())
    # {id, r, s} in D4 is not closed; the group it generates has order 8.
    @example((4, [(1, 2, 3, 0), (3, 2, 1, 0)], [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0)], 0))
    def test_subgroup_normal_stabilizer_and_element_sets(self, case):
        degree, gens, sub_gens, point = case
        group, sub = SiftedGroup(degree, gens), SiftedGroup(degree, sub_gens)
        sg, ss = _sympy_perms(degree, gens), _sympy_perms(degree, sub_gens)
        # The same answers from the chains read off the two closures.
        listed, listed_sub = (PermGroup.from_elements(degree, closure(x, degree))
                              for x in (gens, sub_gens))
        for big, small in ((group, sub), (listed, listed_sub), (group, listed_sub),
                           (listed, sub)):
            assert is_subgroup(small, big) == ss.is_subgroup(sg)
            if ss.is_subgroup(sg):
                assert is_normal(small, big) == ss.is_normal(sg, strict=False)
        stab = [p for p in group.elements if p[point] == point]
        assert (SiftedGroup(degree, stab).order == PermGroup.from_elements(degree, stab).order
                == sg.stabilizer(point).order())
        # An element set need not be closed; the group built from it is the
        # one it generates.
        from_set = SiftedGroup(degree, sub_gens)
        assert from_set.order == ss.order()
        assert from_set.elements == closure(sub_gens, degree)


@st.composite
def _orbit_cases(draw):
    degree = draw(st.integers(min_value=1, max_value=7))
    perm = st.permutations(range(degree)).map(tuple)
    gens = draw(st.lists(perm, max_size=4))
    return degree, gens, draw(st.lists(st.integers(0, degree - 1), max_size=degree))


class TestOrbitRoutine:
    @settings(max_examples=300, deadline=None)
    @given(_orbit_cases())
    def test_union_of_seed_orbits_matches_sympy(self, case):
        degree, gens, seeds = case
        union = _orbit(seeds, gens, lambda x, p: p[x])
        sg = _sympy_perms(degree, gens)
        assert union == set().union(*(sg.orbit(s) for s in seeds))


class TestGroupIsomorphism:
    def test_distinguishes_z9_from_z3z3(self):
        assert not groups_isomorphic(cyclic(9), z3z3())
        assert groups_isomorphic(z3z3(), direct_product(cyclic(3), cyclic(3)))

    def test_d4xz2_model(self):
        assert groups_isomorphic(d4xz2(), direct_product(dihedral(4), cyclic(2)))
        assert not groups_isomorphic(d4xz2(), dihedral(8))
        assert not groups_isomorphic(d4xz2(), direct_product(cyclic(8), cyclic(2)))

    def test_profile_triplets_of_order_16(self):
        """Z4 x Z4, Z4 x| Z4 and Q8 x Z2 share the order profile, so only
        the generator-image search tells them apart; each is isomorphic to a
        random conjugate of itself."""
        groups = [z4_by_z4(False), z4_by_z4(True), direct_product(q8(), cyclic(2))]
        assert [is_abelian(g) for g in groups] == [True, False, False]
        for g in groups:
            assert g.order == 16 and order_profile(g) == {4: 12, 2: 3, 1: 1}
        for a, b in itertools.permutations(groups, 2):
            assert not groups_isomorphic(a, b)
        rng = random.Random(16)
        for group in groups:
            p = list(range(group.degree))
            rng.shuffle(p)
            p = tuple(p)
            conjugate = SiftedGroup(group.degree, [compose(p, compose(g, inverse(p)))
                                                   for g in group.generators])
            assert groups_isomorphic(group, conjugate)
            assert groups_isomorphic(conjugate, group)

    def test_dihedral_vs_quaternion_like(self):
        # Z4 x Z2 and D4 share the order but not the structure.
        assert not groups_isomorphic(
            direct_product(cyclic(4), cyclic(2)), dihedral(4)
        )

    def test_guards_at_order_200(self):
        sym6 = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]  # a 6-cycle and a swap
        with pytest.raises(GroupError, match="guards at order 200"):
            groups_isomorphic(SiftedGroup(6, sym6), SiftedGroup(6, sym6))


class TestActions:
    def test_orbit_stabilizer_theorem(self):
        rng = random.Random(11)
        for _ in range(10):
            gens = [tuple(rng.sample(range(6), 6)) for _ in range(2)]
            g = SiftedGroup(6, gens)
            for point in range(6):
                orbit = _orbit([point], gens, lambda x, p: p[x])
                stab = SiftedGroup(6, (p for p in g.elements if p[point] == point))
                assert len(orbit) * stab.order == g.order

    def test_edge_action_is_homomorphism(self):
        edges = ((0, 1), (1, 2), (2, 3), (3, 0))
        a, b = (1, 2, 3, 0), (3, 2, 1, 0)
        assert edge_action(compose(a, b), edges) == compose(
            edge_action(a, edges), edge_action(b, edges)
        )

    def test_edge_action_rejects_non_invariant(self):
        with pytest.raises(GroupError):
            edge_action((1, 2, 3, 0), ((0, 1), (0, 2)))


class TestSemidirect:
    def test_d4_as_semidirect_of_rotations_and_reflection(self):
        g = dihedral(4)
        k = SiftedGroup(4, [(1, 2, 3, 0)])
        h = SiftedGroup(4, [(3, 2, 1, 0)])
        ok, report = semidirect_certificate(g, k, h)
        assert ok
        assert report["k_normal"] and report["intersection_trivial"]

    def test_rejects_wrong_orders(self):
        g = dihedral(4)
        k = SiftedGroup(4, [(1, 2, 3, 0)])
        ok, report = semidirect_certificate(g, k, k)
        assert not ok
        assert not report["order_product_matches"]
