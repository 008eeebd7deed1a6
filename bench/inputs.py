"""Seeded inputs for the benchmark workloads.

Every input is a pinned base graph from ``data/`` under a random vertex
relabelling drawn from ``(seed, pass, slot, variant)``, so one seed always
yields the same stream. Each slot of a pass rotates through its candidate
base graphs by pass number, the same way for every seed: seeds differ in
labellings, not in the mix, which keeps the cost of a pass steady. Nothing
here imports levibridge: the program under test only ever sees the graph6
text produced here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Paper workload: the four end-to-end commands, named by their metric.
PAPER_COMMANDS = {
    "gen_goedgebeur": ["gen", "goedgebeur"],
    "survey_p2fi": ["survey", "--p2fi"],
    "refute": ["refute"],
    "aut_structure": ["aut", "--structure"],
}

# Certify workload: one pass draws one base graph per slot, a family at a
# fixed vertex count. Fixing n keeps a pass's cost nearly seed-independent:
# the ess4 triple scan, which dominates, grows with the cube of the edge
# count. The slots are laid out so that the percentiles fall in cost bands,
# not in the gaps between them: eight cheap 20-22 vertex graphs, then eight
# 24-vertex graphs of about equal cost (where op_p50 falls), then larger
# ones, with ranks 2-4 from the top (where op_p90 falls) all at 34 vertices.
CERTIFY_SLOTS = (
    ("cut2", 22), ("cut2", 22), ("cut3", 22), ("cut3", 22),
    ("lcf2", 20), ("lcf2", 20), ("gp", 20), ("gp", 20),
    ("ladder", 24), ("ladder", 24), ("ladder", 24),
    ("gp", 24), ("gp", 24), ("gp", 24), ("lcf2", 24), ("lcf2", 24),
    ("lcf2", 26), ("gp", 26), ("cut2", 28), ("cut3", 28),
    ("cut2", 34), ("cut3", 34), ("lcf2", 30), ("gp", 30),
    ("join", 30), ("join", 30),
    ("gp", 34), ("lcf2", 34), ("ladder", 34), ("ladder", 40),
)

# Iso workload: (graph, partner) slots. A partner of None asks for a second
# relabelling of the same graph; "join" draws from the pinned join pool.
ISO_SLOTS = (
    ("heawood", None), ("heawood", "gp7_2"),
    ("moebius_kantor", None), ("moebius_kantor", "gp8_1"),
    ("pappus", None), ("pappus", "gp9_2"),
    ("desargues", None), ("desargues", "dodecahedron"),
    ("dodecahedron", None), ("dodecahedron", "desargues"),
    ("nauru", None), ("nauru", "mcgee"),
    ("mcgee", None), ("mcgee", "nauru"),
    ("f26a", None), ("f26a", "gp13_5"),
    ("tutte_8_cage", None), ("tutte_8_cage", "goedgebeur"),
    ("gp24_5", None), ("gp24_5", "gp24_7"),
    ("gray", None), ("gray", "gp27_4"),
    ("join", None), ("join", "join"),
)


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a graph6 line (n <= 62 only)."""
    data = text.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 header in {text!r}")
    bits = []
    for b in data[1:]:
        v = b - 63
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def g6_encode(n: int, edges) -> str:
    """graph6 line for a simple graph on vertices 0..n-1 (n <= 62)."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    out = [chr(n + 63)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | ((i, j) in present)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def load(name: str):
    with open(DATA / name, encoding="ascii") as fh:
        return json.load(fh)


def _rng(seed: int, *key) -> random.Random:
    return random.Random("/".join(map(str, (seed,) + key)))


def _relabelled(base: dict, rng: random.Random) -> dict:
    n, edges = g6_decode(base["g6"])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    return {"n": n, "edges": edges, "g6": g6_encode(n, edges)}


class Stream:
    """Seeded input stream for one workload.

    ``batch(pass_no, variant)`` returns one pass: a list of items, one per
    slot. Two variants of a pass draw the same base graphs under different
    relabellings, which is how traced and untraced twins stay comparable.
    Labelled graphs never repeat within a stream; a repeat is redrawn.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._seen: set[str] = set()
        if workload == "certify":
            pool = load("certify_pool.json")
            self._slots = [
                [g for g in pool if g["family"] == fam and g["n"] == n]
                for fam, n in CERTIFY_SLOTS
            ]
        elif workload == "iso":
            pool = load("iso_pool.json")
            self._named = {g["name"]: g for g in pool["named"]}
            self._joins = pool["joins"]
        else:
            raise ValueError(f"no input stream for workload {workload!r}")

    def _fresh(self, base: dict, rng: random.Random) -> dict:
        for _ in range(100):
            g = _relabelled(base, rng)
            if g["g6"] not in self._seen:
                self._seen.add(g["g6"])
                return g
        raise RuntimeError(f"cannot draw an unseen relabelling of {base['name']}")

    def batch(self, pass_no: int, variant: int = 0) -> list[dict]:
        if self.workload == "certify":
            return [
                self._certify_item(pass_no, slot, variant)
                for slot in range(len(self._slots))
            ]
        return [self._iso_item(pass_no, slot, variant) for slot in range(len(ISO_SLOTS))]

    def _certify_item(self, pass_no: int, slot: int, variant: int) -> dict:
        candidates = self._slots[slot]
        base = candidates[(pass_no + slot) % len(candidates)]
        g = self._fresh(base, _rng(self.seed, pass_no, slot, variant))
        return {"name": base["name"], "family": base["family"], "g6": g["g6"],
                "n": g["n"], "edges": g["edges"], "expect": base["expect"]}

    def _iso_item(self, pass_no: int, slot: int, variant: int) -> dict:
        first, second = ISO_SLOTS[slot]
        if first == "join":
            a = self._joins[(pass_no + slot) % len(self._joins)]
            if second == "join":
                others = [j for j in self._joins if j["cls"] != a["cls"]]
                b = others[pass_no % len(others)]
            else:
                b = a
        else:
            a = self._named[first]
            b = a if second is None else self._named[second]
        rng = _rng(self.seed, pass_no, slot, variant)
        g = self._fresh(a, rng)
        h = self._fresh(b, rng)
        return {"name": f"{a['name']}~{b['name']}", "g": g, "h": h,
                "isomorphic": second is None, "aut_order": a["aut_order"]}
