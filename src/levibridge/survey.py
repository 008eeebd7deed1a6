"""Census of the 576 bridge joins, the distinguished-edge group analysis,
and the parity refutation report.
"""

from __future__ import annotations

import itertools
import json

from .canon import automorphism_group, isomorphism
from .construction import (
    StructureError,
    bridge_census,
    bridge_graph,
    goedgebeur_graph,
    identify_goedgebeur,
    marked_edges,
)
from .cuts import (CYCLIC_MAX_VERTICES, cyclic_edge_connectivity,
                   is_essentially_4_edge_connected)
from .graphs import (Graph, adjacency_masks, bipartition, components, girth, heawood,
                     is_cubic, k33, pappus)
from .groups import (
    PermGroup,
    compose,
    cycle_type,
    cycles,
    edge_action,
    identity,
    inverse,
    is_abelian,
    order_profile,
    semidirect_certificate,
)
from .twofactors import MIXED, NO_TWO_FACTOR, pseudo_2fi


def run_survey(p2fi: bool = False) -> list[dict]:
    """Classify all 576 joins into the rows that survey_json prints,
    ordered by descending automorphism order, then ascending class size,
    then certificate; a row has `p2fi_status` only when p2fi is set."""
    census = bridge_census()
    if sum(len(c.specs) for c in census) != 576:
        raise StructureError("census does not cover all 576 specs")
    rows = []
    for i, cls in enumerate(census):
        row = {
            "class_id": i,
            "size": len(cls.specs),
            "aut_order": cls.aut_order,
            "representative": cls.certificate.decode("ascii"),
            "diagonal": any(s.alpha == s.beta for s in cls.specs),
        }
        if p2fi:
            row["p2fi_status"] = pseudo_2fi(bridge_graph(cls.representative)).status
        rows.append(row)
    return rows


def survey_json(rows: list[dict]) -> str:
    """Deterministic JSON rendering of the survey (byte-identical runs)."""
    return json.dumps({"schema": 1, "rows": rows}, indent=2) + "\n"


def _settle(report: dict, checks: dict, flag: str, what: str) -> dict:
    """Set report[flag] to whether every check holds; otherwise raise,
    naming each failed check with the report's value under its key."""
    failed = [key for key, holds in checks.items() if not holds]
    report[flag] = not failed
    if failed:
        raise StructureError(
            f"{what} failed: " + ", ".join(f"{k} = {report[k]!r}" for k in failed))
    return report


# -- automorphism-group structure of the identified graph --------------------

_F_IDX = frozenset(range(1, 5))  # positions of the f-edges in MarkedEdges.all
_M_IDX = frozenset(range(5, 9))  # positions of the m-edges


def _marked_edges_on(g: Graph) -> tuple[list[tuple[int, int]], PermGroup]:
    """Marked edges transported onto a copy g of the identified graph, and
    Aut(g), from one canonical search per graph."""
    base = goedgebeur_graph()
    phi = isomorphism(base, g)
    if phi is None:
        raise StructureError("structure analysis needs the identified graph")
    moved = [tuple(sorted((phi[u], phi[v]))) for u, v in marked_edges(base).all]
    return moved, automorphism_group(g)


def _subgroup(degree: int, elements, name: str) -> PermGroup:
    """The group whose element set is `elements`, once its product table
    checks that the set is closed; raises StructureError naming the first
    product outside it."""
    members = set(elements)
    for a, b in itertools.product(sorted(members), repeat=2):
        if (ab := compose(a, b)) not in members:
            raise StructureError(f"{name} is not closed: {a} * {b} = {ab} lies outside it")
    return PermGroup.from_elements(degree, members)


def _is_z3xz3(group: PermGroup) -> bool:
    """Order 9 and exponent 3: a group of order p^2 is abelian, so it is
    Z3 x Z3, and Z9 has elements of order 9."""
    return group.order == 9 and set(group.orders.values()) <= {1, 3}


def _is_d4xz2(group: PermGroup) -> bool:
    """Order 16, an element a of order 4, an involution b outside <a> with
    ab an involution, and an involution c outside D = <a> u <a>b commuting
    with a and b. Then <a, b> is a quotient of the dihedral group of order
    8 holding more than <a>, so it is D, dihedral of order 8; c centralizes
    D, so D<c> = D x <c> has order 16 and is the group: D4 x Z2."""
    if group.order != 16:
        return False
    orders, e = group.orders, identity(group.degree)
    involutions = [p for p, k in orders.items() if k == 2]
    for a in (p for p, k in orders.items() if k == 4):
        rotations = {e, a, compose(a, a), inverse(a)}
        for b in (b for b in involutions if b not in rotations and orders[compose(a, b)] == 2):
            d = rotations | {compose(r, b) for r in rotations}
            if any(c not in d and compose(a, c) == compose(c, a)
                   and compose(b, c) == compose(c, b) for c in involutions):
                return True
    return False


def aut_structure(g: Graph | None = None) -> dict:
    """Full analysis of the automorphism group acting on the nine
    distinguished edges; raises StructureError when any pinned structural
    fact fails.
    """
    if g is None:
        g = goedgebeur_graph()
    marked, aut = _marked_edges_on(g)

    # How each element permutes the nine marked edges; edge_action raises
    # GroupError on an element that moves a marked edge off the set.
    projections = {p: edge_action(p, tuple(marked)) for p in aut.elements}

    K = _subgroup(aut.degree, (p for p, k in aut.orders.items() if k in (1, 3, 9)), "K")
    # Rows that miss an edge, or K's rows that miss one, fail those checks
    # before H is read off the rows. `first` maps each edge to the earliest
    # row sending e there: the comprehension runs in reverse, so it wins.
    first = {proj[0]: p for p, proj in reversed(projections.items())}
    regular = {projections[p][0] for p in K.elements} == set(range(9)) and K.order == 9
    rows = {"k_regular_on_marked": regular, "stabilizers_conjugate": len(first) == 9}
    _settle(rows, rows, "rows_ok", "structure analysis")
    stabilizer_orders = [sum(proj[i] == i for proj in projections.values()) for i in range(9)]
    H = _subgroup(aut.degree, (p for p, proj in projections.items() if proj[0] == 0), "H")  # fixes e
    sd_ok, sd_report = semidirect_certificate(aut, K, H)

    sigma_two_m = sigma_two_f = rho = delta = False
    for proj in projections.values():
        ct = cycle_type(proj)
        if ct == (3, 3, 3):
            in_e_cycle = next(set(c) for c in cycles(proj) if 0 in c) - {0}
            sigma_two_m |= in_e_cycle <= _M_IDX
            sigma_two_f |= in_e_cycle <= _F_IDX
        if proj[0] == 0 and ct == (1, 4, 4):
            rho = True
        if proj[0] == 0 and ct == (1, 1, 1, 2, 2, 2):
            fixed = {i for i in range(9) if proj[i] == i}
            swaps = [set(c) for c in cycles(proj) if len(c) == 2]
            kinds = sorted(
                "f" if s <= _F_IDX else "m" if s <= _M_IDX else "mixed"
                for s in swaps
            )
            delta |= len(fixed & _F_IDX) == 2 and kinds == ["f", "m", "m"]

    sides = bipartition(g)
    side_a = set(sides.side_a)
    tau_found = sum(
        1
        for p, proj in projections.items()
        if all(proj[i] == i for i in range(9))
        and all(p[v] not in side_a for v in side_a)
    )

    # The elements sending e to edge i form one coset pH, and Stab(pe) =
    # pHp^-1 for each of them, so one element per target decides: it does
    # when Stab(pe) has H's order and each p q p^-1, for H's generators q,
    # fixes edge i. p q p^-1 lies in Aut, so it has a row in the table.
    conjugate = all(stabilizer_orders[i] == H.order and all(
        projections[compose(compose(first[i], q), inverse(first[i]))][i] == i
        for q in H.generators) for i in range(1, 9))

    report = {
        "aut_order": aut.order,
        "marked_edges": [list(x) for x in marked],
        # edge_action enforces it: every element has its row in the table
        "marked_set_invariant": len(projections) == aut.order,
        "k_order": K.order,
        "k_is_subgroup": sd_report["k_is_subgroup"],
        "k_normal": sd_report["k_normal"],
        "k_profile": order_profile(K),
        "k_abelian": is_abelian(K),
        "k_iso_z3xz3": _is_z3xz3(K),
        "k_regular_on_marked": regular,
        "h_order": H.order,
        "h_abelian": is_abelian(H),
        "h_profile": order_profile(H),
        "h_iso_d4xz2": _is_d4xz2(H),
        "semidirect": sd_ok,
        "semidirect_report": sd_report,
        "sigma_two_m": sigma_two_m,
        "sigma_two_f": sigma_two_f,
        "rho": rho,
        "delta": delta,
        "tau_count": tau_found,
        "stabilizer_orders": stabilizer_orders,
        "stabilizers_conjugate": conjugate,
    }
    return _settle(report, {
        "marked_set_invariant": report["marked_set_invariant"],
        "k_order": report["k_order"] == 9,
        "k_normal": report["k_normal"],
        "k_iso_z3xz3": report["k_iso_z3xz3"],
        "k_regular_on_marked": report["k_regular_on_marked"],
        "h_order": report["h_order"] == 16,
        "h_abelian": not report["h_abelian"],
        "h_iso_d4xz2": report["h_iso_d4xz2"],
        "semidirect": report["semidirect"],
        "sigma_two_m": report["sigma_two_m"],
        "sigma_two_f": report["sigma_two_f"],
        "rho": report["rho"],
        "delta": report["delta"],
        "tau_count": report["tau_count"] >= 1,
        "stabilizers_conjugate": report["stabilizers_conjugate"],
    }, "all_ok", "structure analysis")


def graph_properties(g: Graph) -> dict:
    """The property battery that `props` and `refutation_check` share.

    The two cut values are None unless g is cubic and connected, and the
    cyclic one also above CYCLIC_MAX_VERTICES, where its search refuses.
    """
    cubic = is_cubic(g)
    ess4 = cyc = None
    if cubic and len(components(adjacency_masks(g))) == 1:
        ess4, _ = is_essentially_4_edge_connected(g)
        if g.n <= CYCLIC_MAX_VERTICES:
            cyc = cyclic_edge_connectivity(g)
    return {
        "vertices": g.n,
        "edges": len(g.edges),
        "cubic": cubic,
        "bipartite": bipartition(g) is not None,
        "girth": girth(g),
        "essentially_4_edge_connected": ess4,
        "cyclic_edge_connectivity": cyc,
    }


def refutation_check() -> dict:
    """End-to-end check that the identified graph defeats the parity
    conjecture for essentially 4-edge-connected cubic bipartite graphs:
    it has all the hypotheses yet is none of the three known graphs.
    """
    _, g = identify_goedgebeur()
    parity = pseudo_2fi(g)
    others = {
        "k33": k33(),
        "heawood": heawood(),
        "pappus": pappus(),
    }
    report = {
        **graph_properties(g),
        "matching_count": parity.matching_count,
        "p2fi_status": parity.status,
        "distinct_from": {
            name: isomorphism(g, other) is None
            for name, other in others.items()
        },
    }
    return _settle(report, {
        "cubic": report["cubic"],
        "bipartite": report["bipartite"],
        "essentially_4_edge_connected": report["essentially_4_edge_connected"],
        "p2fi_status": report["p2fi_status"] not in (MIXED, NO_TWO_FACTOR),
        "distinct_from": all(report["distinct_from"].values()),
    }, "refutation_holds", "refutation check")
