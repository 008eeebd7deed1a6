"""Acceptance suite: the seven headline guarantees of the package.

Each criterion is one test function, so `pytest -v` prints exactly one
pass/fail line per criterion. Every numeric claim here is an exact integer
equality; nothing is approximate.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter

from levibridge.canon import automorphism_group, canonical_form, isomorphism
from levibridge.construction import (
    bridge_census,
    goedgebeur_configuration,
    goedgebeur_graph,
    marked_edges,
)
from levibridge.cuts import cyclic_edge_connectivity
from levibridge.graphs import (
    build,
    gp,
    graph6_decode,
    graph6_encode,
    heawood,
    k33,
    lcf,
    pappus,
    petersen,
    prism,
)
from levibridge.incidence import (
    automorphism_order,
    fano,
    is_self_dual,
    levi_graph,
    moebius_kantor,
)
from levibridge.survey import aut_structure, refutation_check, run_survey
from levibridge.twofactors import (
    ALL_ODD,
    MIXED,
    NO_TWO_FACTOR,
    pseudo_2fi,
)


def _check(name: str, conditions: dict):
    failed = [key for key, ok in conditions.items() if not ok]
    verdict = "FAIL" if failed else "PASS"
    detail = f" (failed: {', '.join(failed)})" if failed else ""
    print(f"criterion {name}: {verdict}{detail}")
    assert not failed, f"criterion {name} failed: {failed}"


def test_criterion_1_reconstruction_under_two_minutes():
    script = (
        "import json\n"
        "from levibridge.construction import identify_goedgebeur\n"
        "from levibridge.canon import automorphism_group\n"
        "from levibridge.cuts import (cyclic_edge_connectivity,\n"
        "    is_essentially_4_edge_connected)\n"
        "from levibridge.graphs import bipartition, girth, is_cubic\n"
        "spec, g = identify_goedgebeur()\n"
        "print(json.dumps({\n"
        "    'spec': str(spec),\n"
        "    'vertices': g.n,\n"
        "    'edges': len(g.edges),\n"
        "    'cubic': is_cubic(g),\n"
        "    'bipartite': bipartition(g) is not None,\n"
        "    'girth': girth(g),\n"
        "    'ess4ec': is_essentially_4_edge_connected(g)[0],\n"
        "    'cyclic': cyclic_edge_connectivity(g),\n"
        "    'aut': automorphism_group(g).order,\n"
        "}))\n"
    )
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=240,
    )
    elapsed = time.perf_counter() - start
    assert run.returncode == 0, run.stderr
    props = json.loads(run.stdout)
    _check(
        "1 (reconstruction)",
        {
            "identify_succeeds": props["spec"] == "0123 0123",
            "vertices_30": props["vertices"] == 30,
            "edges_45": props["edges"] == 45,
            "cubic": props["cubic"],
            "bipartite": props["bipartite"],
            "girth_6": props["girth"] == 6,
            "essentially_4_edge_connected": props["ess4ec"],
            "cyclic_edge_connectivity_6": props["cyclic"] == 6,
            "aut_order_144": props["aut"] == 144,
            "under_two_minutes_cold": elapsed < 120.0,
        },
    )


def test_criterion_2_group_structure():
    report = aut_structure()
    _check(
        "2 (group structure)",
        {
            "semidirect": report["semidirect"],
            "k_order_9": report["k_order"] == 9,
            "k_iso_z3xz3": report["k_iso_z3xz3"],
            "k_profile": report["k_profile"] == {1: 1, 3: 8},
            "k_normal": report["k_normal"],
            "h_is_e_stabilizer_of_order_16": report["h_order"] == 16,
            "h_non_abelian": not report["h_abelian"],
            "h_profile": report["h_profile"] == {1: 1, 2: 11, 4: 4},
            "h_iso_d4xz2": report["h_iso_d4xz2"],
            "nine_stabilizers_conjugate": report["stabilizers_conjugate"]
            and report["stabilizer_orders"] == [16] * 9,
        },
    )


def test_criterion_3_marked_edge_structure():
    g = goedgebeur_graph()
    me = marked_edges(g)
    report = aut_structure(g)
    m_endpoints = [v for e in me.m for v in e]
    _check(
        "3 (marked-edge structure)",
        {
            "unique_e": me.e == (1, 15),
            "four_independent_m_edges": len(me.m) == 4
            and len(set(m_endpoints)) == 8,
            "sigma_type_333_through_m": report["sigma_two_m"],
            "sigma_type_333_through_f": report["sigma_two_f"],
            "rho_fixes_e_two_4_cycles": report["rho"],
            "delta_fixes_e_involution": report["delta"],
            "tau_side_swap_fixing_all_nine": report["tau_count"] >= 1,
        },
    )


def test_criterion_4_census():
    rows = run_survey()
    census = bridge_census()
    diagonal_by_class = {}
    for cls in census:
        diag = sum(1 for s in cls.specs if s.alpha == s.beta)
        if diag:
            diagonal_by_class[cls.aut_order] = diagonal_by_class.get(
                cls.aut_order, 0
            ) + diag
    off_diagonal = {}
    for cls in census:
        if all(s.alpha != s.beta for s in cls.specs):
            key = (cls.aut_order, len(cls.specs))
            off_diagonal[key] = off_diagonal.get(key, 0) + 1
    _check(
        "4 (census)",
        {
            "sizes_sum_576": sum(r["size"] for r in rows) == 576,
            "diagonal_8_in_identified_class": diagonal_by_class.get(144) == 8,
            "diagonal_16_in_one_aut24_class": diagonal_by_class.get(24) == 16
            and sum(
                1
                for cls in census
                if cls.aut_order == 24
                and any(s.alpha == s.beta for s in cls.specs)
            )
            == 1,
            "off_diagonal_histogram": off_diagonal
            == {
                (16, 8): 1,
                (8, 16): 6,
                (4, 64): 1,
                (4, 32): 4,
                (2, 64): 2,
                (1, 128): 1,
            },
        },
    )


def test_criterion_5_parity_suite():
    k33_report = pseudo_2fi(k33())
    statuses = {
        "heawood": pseudo_2fi(heawood()).status,
        "pappus": pseudo_2fi(pappus()).status,
        "identified": pseudo_2fi(goedgebeur_graph()).status,
    }
    refutation = refutation_check()
    _check(
        "5 (parity suite)",
        {
            "k33_all_odd": k33_report.status == ALL_ODD,
            "k33_six_two_factors": k33_report.matching_count == 6,
            "heawood_non_mixed": statuses["heawood"]
            not in (MIXED, NO_TWO_FACTOR),
            "pappus_non_mixed": statuses["pappus"]
            not in (MIXED, NO_TWO_FACTOR),
            "identified_non_mixed": statuses["identified"]
            not in (MIXED, NO_TWO_FACTOR),
            "refutation_holds": refutation["refutation_holds"],
        },
    )


def test_criterion_6_geometry_identities():
    fano_levi = levi_graph(fano())
    mk_levi = levi_graph(moebius_kantor())
    joined = goedgebeur_configuration()
    joined_levi = levi_graph(joined)
    _check(
        "6 (geometry identities)",
        {
            "fano_levi_is_lcf_5_5_7": isomorphism(fano_levi, lcf([5, -5], 7)) is not None,
            "mk_levi_is_gp83": isomorphism(mk_levi, gp(8, 3)) is not None,
            "gp83_is_lcf_5_5_8": isomorphism(gp(8, 3), lcf([5, -5], 8)) is not None,
            "fano_self_dual": is_self_dual(fano()),
            "mk_self_dual": is_self_dual(moebius_kantor()),
            "joined_self_dual": is_self_dual(joined),
            "fano_aut_ratio_336_168": automorphism_group(fano_levi).order
            == 336
            and automorphism_order(fano()) == 168,
            "mk_aut_ratio_96_48": automorphism_group(mk_levi).order == 96
            and automorphism_order(moebius_kantor()) == 48,
            "joined_aut_ratio_144_72": automorphism_group(joined_levi).order
            == 144
            and automorphism_order(joined) == 72,
        },
    )


def _random_graph(rng: random.Random, n: int):
    p = rng.choice((0.1, 0.3, 0.6))
    return build(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n)
         if rng.random() < p],
    )


def _exhaustive_two_factors(g):
    out = set()
    for subset in itertools.combinations(g.edges, g.n):
        deg = [0] * g.n
        for u, v in subset:
            deg[u] += 1
            deg[v] += 1
        if all(d == 2 for d in deg):
            out.add(frozenset(subset))
    return out


def _brute_cyclic_connectivity(g, max_k):
    for k in range(1, max_k + 1):
        for subset in itertools.combinations(g.edges, k):
            kept = [e for e in g.edges if e not in set(subset)]
            comp = _components(g.n, kept)
            if len(comp) < 2:
                continue
            with_cycle = sum(
                1
                for part in comp
                if sum(1 for u, v in kept if u in part and v in part)
                >= len(part)
            )
            if with_cycle >= 2:
                return k
    return None


def _components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def test_criterion_7_oracle_suites():
    rng = random.Random(1234)
    roundtrip_ok = all(
        graph6_decode(graph6_encode(g)) == g
        for g in (_random_graph(rng, rng.randint(1, 30)) for _ in range(1000))
    )

    named = (k33(), petersen(), heawood(), pappus(), prism())
    invariance_ok = True
    for g in named:
        reference = canonical_form(g).certificate
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            invariance_ok &= canonical_form(h).certificate == reference

    k4 = build(4, itertools.combinations(range(4), 2))
    corpus = [k4, k33(), prism(), gp(4, 1), petersen(), gp(6, 2)]
    assert all(g.n <= 12 for g in corpus)
    two_factor_ok = all(
        pseudo_2fi(g).histogram == tuple(sorted(Counter(
            len(_components(g.n, f)) for f in _exhaustive_two_factors(g)).items()))
        for g in corpus
    )

    petersen_cc = cyclic_edge_connectivity(petersen())
    prism_cc = cyclic_edge_connectivity(prism())
    cyclic_ok = (
        petersen_cc == _brute_cyclic_connectivity(petersen(), 5) == 5
        and prism_cc == _brute_cyclic_connectivity(prism(), 3) == 3
    )

    _check(
        "7 (oracle suites)",
        {
            "graph6_roundtrip_1000": roundtrip_ok,
            "certificate_invariance_100_relabelings": invariance_ok,
            "two_factor_histograms_match_exhaustive_enumeration": two_factor_ok,
            "cyclic_connectivity_matches_brute_force": cyclic_ok,
        },
    )
