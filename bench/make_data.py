"""Regenerate the pinned inputs and expected outputs under ``data/``.

Run from the repository root on the commit whose outputs are to be pinned:

    python3 bench/make_data.py

It writes the certify and iso base-graph pools, each with the results the
program gives on the unrelabelled base graph, and the stdout of the four
paper commands. Where networkx is importable, bipartiteness, girth and
automorphism orders are cross-checked against it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import levibridge as lb  # noqa: E402
from inputs import DATA, PAPER_COMMANDS  # noqa: E402

try:
    import networkx as nx
except ImportError:  # the cross-checks are optional
    nx = None

# Literature orders of the automorphism groups of the iso workload's graphs.
AUT_ORDERS = {
    "heawood": 336, "gp7_2": 14, "moebius_kantor": 96, "gp8_1": 32,
    "pappus": 216, "gp9_2": 18, "desargues": 240, "dodecahedron": 120,
    "nauru": 144, "mcgee": 32, "f26a": 78, "gp13_5": 52,
    "tutte_8_cage": 1440, "goedgebeur": 144, "gp24_5": 288, "gp24_7": 96,
    "gray": 1296, "gp27_4": 54,
}


def named_graphs() -> dict:
    lcf = lb.parse_lcf
    return {
        "heawood": lb.heawood(), "gp7_2": lb.gp(7, 2),
        "moebius_kantor": lb.moebius_kantor_graph(), "gp8_1": lb.gp(8, 1),
        "pappus": lb.pappus(), "gp9_2": lb.gp(9, 2),
        "desargues": lb.gp(10, 3), "dodecahedron": lb.gp(10, 2),
        "nauru": lb.gp(12, 5), "mcgee": lcf("[12,7,-7]^8"),
        "f26a": lcf("[-7,7]^13"), "gp13_5": lb.gp(13, 5),
        "tutte_8_cage": lcf("[-13,-9,7,-7,9,13]^5"),
        "goedgebeur": lb.bridge_graph(lb.BridgeSpec.from_strings("0123", "0123")),
        "gp24_5": lb.gp(24, 5), "gp24_7": lb.gp(24, 7),
        "gray": lcf("[-25,7,-7,13,-13,25]^9"), "gp27_4": lb.gp(27, 4),
    }


def nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def nx_aut_order(g) -> int:
    h = nx_graph(g)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


def g6(g) -> str:
    return lb.graph6_encode(g).decode("ascii")


def certify_expect(g) -> dict:
    report = lb.pseudo_2fi(g)
    hist: dict[str, int] = {}
    for c in report.cycle_counts:
        hist[str(c)] = hist.get(str(c), 0) + 1
    ess4, _ = lb.is_essentially_4_edge_connected(g)
    expect = {
        "bipartite": lb.bipartition(g) is not None,
        "girth": lb.girth(g),
        "matchings": report.matching_count,
        "cycle_hist": hist,
        "status": report.status,
        "ess4": ess4,
        "cyclic": lb.cyclic_edge_connectivity(g),
    }
    if nx is not None:
        h = nx_graph(g)
        assert nx.is_bipartite(h) == expect["bipartite"]
        assert nx.girth(h) == expect["girth"]
    return expect


def two_cut(a, b, ea, eb):
    """Delete edge ea of a and eb of b, then cross-connect their endpoints."""
    off = a.n
    edges = [e for e in a.edges if e != ea]
    edges += [(u + off, v + off) for u, v in b.edges if (u, v) != eb]
    edges += [(ea[0], eb[0] + off), (ea[1], eb[1] + off)]
    return lb.build(a.n + b.n, edges)


def three_cut(a, b, va, vb):
    """Delete vertex va of a and vb of b, then match their neighbours."""
    keep_a = [v for v in range(a.n) if v != va]
    keep_b = [v for v in range(b.n) if v != vb]
    ia = {v: i for i, v in enumerate(keep_a)}
    ib = {v: len(keep_a) + i for i, v in enumerate(keep_b)}
    edges = [(ia[u], ia[v]) for u, v in a.edges if va not in (u, v)]
    edges += [(ib[u], ib[v]) for u, v in b.edges if vb not in (u, v)]
    na, nb = a.neighbors(va), b.neighbors(vb)
    edges += [(ia[x], ib[y]) for x, y in zip(na, nb)]
    return lb.build(a.n + b.n - 2, edges)


def certify_pool() -> list[dict]:
    rng = random.Random(20221017)
    pool: list[tuple[str, str, object]] = []
    specs = rng.sample(lb.all_bridge_specs(), 48)
    for spec in sorted(specs, key=lambda s: s.rank):
        pool.append(("join", f"join {spec}", lb.bridge_graph(spec)))
    for n in (10, 12, 13, 15, 17):
        for k in range(2, (n + 1) // 2):
            pool.append(("gp", f"gp({n},{k})", lb.gp(n, k)))
    for n in (24, 34, 40):
        pool.append(("ladder", f"prism {n}", lb.gp(n // 2, 1)))
        pool.append(("ladder", f"moebius ladder {n}", lb.lcf([n // 2], n)))
    for n in (20, 24, 26, 30, 34):
        for a in range(3, n // 2 + 1, 2):
            pool.append(("lcf2", f"[{a},-{a}]^{n // 2}", lb.lcf([a, -a], n // 2)))
    pieces = {
        "k4": lb.build(4, itertools.combinations(range(4), 2)),
        "k33": lb.k33(), "prism": lb.prism(), "cube": lb.gp(4, 1),
        "wagner": lb.lcf([4], 8), "petersen": lb.petersen(),
        "heawood": lb.heawood(), "gp(7,2)": lb.gp(7, 2),
        "moebius_kantor": lb.moebius_kantor_graph(), "pappus": lb.pappus(),
        "gp(9,2)": lb.gp(9, 2), "dodecahedron": lb.gp(10, 2),
        "desargues": lb.gp(10, 3), "gp(11,3)": lb.gp(11, 3),
    }
    for (na, a), (nb, b) in itertools.combinations_with_replacement(pieces.items(), 2):
        if a.n + b.n in (22, 28, 34):
            ea, eb = rng.choice(a.edges), rng.choice(b.edges)
            pool.append(("cut2", f"{na}|{nb}", two_cut(a, b, ea, eb)))
        if a.n + b.n - 2 in (22, 28, 34):
            va, vb = rng.randrange(a.n), rng.randrange(b.n)
            pool.append(("cut3", f"{na}/{nb}", three_cut(a, b, va, vb)))
    out = []
    for family, name, g in pool:
        assert lb.is_cubic(g), name
        out.append({"family": family, "name": name, "n": g.n, "g6": g6(g),
                    "expect": certify_expect(g)})
        if family.startswith("cut"):
            assert not out[-1]["expect"]["ess4"], name
    return out


def iso_pool() -> dict:
    named = []
    for name, g in named_graphs().items():
        order = lb.automorphism_group(g).order
        assert order == AUT_ORDERS[name], (name, order)
        if nx is not None:
            assert nx_aut_order(g) == order, name
        named.append({"name": name, "n": g.n, "g6": g6(g), "aut_order": order})
    joins = []
    rng = random.Random(20221018)
    census = lb.bridge_census()
    for cls_id, cls in enumerate(census):
        for spec in rng.sample(cls.specs, min(4, len(cls.specs))):
            joins.append({"name": f"join {spec}", "cls": cls_id,
                          "g6": g6(lb.bridge_graph(spec)), "aut_order": cls.aut_order})
    return {"named": named, "joins": joins}


def paper_outputs():
    out_dir = DATA / "paper"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, argv in PAPER_COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "levibridge.cli", *argv],
                              capture_output=True, env=env, cwd=ROOT, check=True)
        (out_dir / f"{name}.out").write_bytes(proc.stdout)


def main():
    DATA.mkdir(exist_ok=True)
    for name, payload in (("certify_pool.json", certify_pool()),
                          ("iso_pool.json", iso_pool())):
        with open(DATA / name, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=1, ensure_ascii=True)
            fh.write("\n")
    paper_outputs()

if __name__ == "__main__":
    main()
