"""Output checks. Each returns a list of problems; an empty list means correct.

The checks use only the benchmark's own inputs and pinned data, never the
program: a mapping is verified edge by edge, a cut by removing it.
"""

from __future__ import annotations

_CERTIFY_FIELDS = ("bipartite", "girth", "matchings", "cycle_hist", "status",
                   "ess4", "cyclic")


def check_paper(name: str, returncode: int, stdout: bytes, expected: bytes) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"{name}: exit code {returncode}")
    if stdout != expected:
        problems.append(f"{name}: stdout differs from the pinned output")
    return problems


def _components(n: int, edges) -> list[set[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen: set[int] = set()
    comps = []
    for root in range(n):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            for u in nbrs[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def check_certify(item: dict, result: dict) -> list[str]:
    name = item["name"]
    expect = item["expect"]
    problems = [
        f"{name}: {key} is {result.get(key)!r}, pinned {expect[key]!r}"
        for key in _CERTIFY_FIELDS if result.get(key) != expect[key]
    ]
    cut = result.get("cut")
    if expect["ess4"]:
        if cut is not None:
            problems.append(f"{name}: certificate returned for an ess4 graph")
        return problems
    if cut is None:
        problems.append(f"{name}: no cut certificate")
        return problems
    edges = {tuple(e) for e in item["edges"]}
    removed = {tuple(sorted(e)) for e in cut["edges"]}
    comps = _components(item["n"], edges - removed)
    if not removed <= edges or not 1 <= len(removed) <= 3:
        problems.append(f"{name}: certificate {sorted(removed)} is not a small edge cut")
    elif len(comps) != 2 or set(cut["side_a"]) not in comps:
        problems.append(f"{name}: certificate does not split the graph in two")
    elif min(len(c) for c in comps) < 2:
        problems.append(f"{name}: certificate is a trivial cut")
    return problems


def check_iso(item: dict, result: dict) -> list[str]:
    name = item["name"]
    problems = []
    if result["aut_order"] != item["aut_order"]:
        problems.append(f"{name}: |Aut| {result['aut_order']}, table {item['aut_order']}")
    phi = result["mapping"]
    if not item["isomorphic"]:
        if phi is not None:
            problems.append(f"{name}: mapping returned for a non-isomorphic pair")
        return problems
    n = item["g"]["n"]
    if phi is None or sorted(phi) != list(range(n)):
        problems.append(f"{name}: no bijection returned for an isomorphic pair")
        return problems
    h_edges = {tuple(e) for e in item["h"]["edges"]}
    for u, v in item["g"]["edges"]:
        if tuple(sorted((phi[u], phi[v]))) not in h_edges:
            problems.append(f"{name}: mapping sends edge {(u, v)} to a non-edge")
            break
    return problems
