"""Canonical labeling, isomorphism and automorphisms by individualization-refinement.

The search refines an ordered partition to equitability (neighbor-count
splitting), individualizes vertices from the first largest cell, and keeps
the lexicographically least leaf certificate. Refinement traces prune
branches that cannot win; automorphisms fall out whenever two leaves carry
identical certificates. One is kept only if it enlarges the group found so
far (a stabilizer chain decides), and at every node the kept automorphisms
that fix the individualized vertices prune children in the orbit of a
child already searched. Built for graphs up to a few dozen vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, GraphError, adjacency_masks, build, graph6_encode
from .groups import PermGroup, StabChain


@dataclass(frozen=True)
class CanonicalForm:
    graph: Graph
    certificate: bytes
    order: tuple[int, ...]  # order[p] = original vertex at canonical position p
    color_sizes: tuple[int, ...]
    # The automorphisms the same search kept, with its stabilizer chain;
    # elements close lazily.
    group: PermGroup = field(compare=False, repr=False)


def _mask(cell) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(adj, cells, queue):
    """Split cells by neighbor counts into queued splitter sets until stable.

    Returns the refined ordered partition and a trace of the splits made;
    the trace depends only on the isomorphism type of the partitioned graph.
    """
    cells = list(cells)
    trace = []
    qi = 0
    while qi < len(queue):
        smask = queue[qi]
        qi += 1
        out = []
        for pos, cell in enumerate(cells):
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
                continue
            shape = []
            for cnt in sorted(buckets):
                sub = tuple(buckets[cnt])
                out.append(sub)
                queue.append(_mask(sub))
                shape.append((cnt, len(sub)))
            trace.append((pos, tuple(shape)))
        cells = out
    return cells, tuple(trace)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class _Search:
    def __init__(self, g: Graph, cells):
        self.n = g.n
        self.adj = adjacency_masks(g)
        self.edges = g.edges
        self.edge_set = set(g.edges)
        self.tri = self.n * (self.n - 1) // 2
        self.best = None  # (path, cert, labeling)
        self.first = None
        self.chain = StabChain(self.n)  # chain.generators: the kept automorphisms
        root, trace = _refine(self.adj, cells, [_mask(c) for c in cells])
        inv = (tuple(len(c) for c in root), trace)
        self._node(root, (inv,), ())

    def _leaf_cert(self, cells) -> tuple[int, tuple[int, ...]]:
        lab = tuple(c[0] for c in cells)
        pos = [0] * self.n
        for p, v in enumerate(lab):
            pos[v] = p
        cert = 0
        top = self.tri - 1
        for u, v in self.edges:
            i, j = pos[u], pos[v]
            if i > j:
                i, j = j, i
            cert |= 1 << (top - (j * (j - 1) // 2 + i))
        return cert, lab

    def _record_auto(self, lab_a, lab_b):
        if lab_a == lab_b:
            return
        perm = [0] * self.n
        for p in range(self.n):
            perm[lab_a[p]] = lab_b[p]
        perm = tuple(perm)
        for u, v in self.edges:
            a, b = perm[u], perm[v]
            if ((a, b) if a < b else (b, a)) not in self.edge_set:
                raise AssertionError("harvested mapping is not an automorphism")
        self.chain.add(perm)

    def _prefix_beats(self, path, ref) -> bool:
        """True when ref (a stored full path) is still reachable from path."""
        return ref is None or path <= ref[0][: len(path)]

    def _node(self, cells, path, prefix):
        ok_best = self._prefix_beats(path, self.best)
        ok_first = self.first is not None and path == self.first[0][: len(path)]
        if not ok_best and not ok_first:
            return
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) > len(cells[target])):
                target = idx
        if target is None:
            cert, lab = self._leaf_cert(cells)
            key = (path, cert)
            if self.first is None:
                self.first = (path, cert, lab)
                self.best = (path, cert, lab)
                return
            if key == (self.first[0], self.first[1]):
                self._record_auto(self.first[2], lab)
                if (self.best[0], self.best[1]) == key:
                    return
            if self.best is None or key < (self.best[0], self.best[1]):
                self.best = (path, cert, lab)
            elif key == (self.best[0], self.best[1]):
                self._record_auto(self.best[2], lab)
            return
        cell = cells[target]
        children = []
        for v in cell:
            rest = tuple(u for u in cell if u != v)
            child = list(cells)
            child[target:target + 1] = [(v,), rest]
            refined, trace = _refine(self.adj, child, [1 << v, _mask(rest)])
            inv = (tuple(len(c) for c in refined), trace)
            children.append((inv, v, refined))
        children.sort(key=lambda item: (item[0], item[1]))
        # An automorphism fixing the prefix maps the subtree of a searched
        # child w onto that of v; skipping v loses no leaf certificate and,
        # the subtree being an image, no generator the group lacks.
        autos = self.chain.generators
        uf, seen, tried = _UnionFind(self.n), 0, []
        for inv, v, refined in children:
            for p in autos[seen:]:
                if all(p[x] == x for x in prefix):
                    for x in range(self.n):
                        uf.union(x, p[x])
            seen = len(autos)
            if any(uf.find(v) == uf.find(w) for w in tried):
                continue
            tried.append(v)
            self._node(refined, path + (inv,), prefix + (v,))


def _normalize_cells(g: Graph, cells):
    if cells is None:
        cells = [tuple(range(g.n))] if g.n else []
    cells = [tuple(c) for c in cells if len(tuple(c))]
    flat = sorted(v for c in cells for v in c)
    if flat != list(range(g.n)):
        raise GraphError("cells must partition the vertex set")
    return cells


def canonical_form(g: Graph, cells=None) -> CanonicalForm:
    """Canonically relabel g; equal certificates characterize isomorphism.

    Optional cells fix an ordered vertex coloring that any relabeling must
    respect; canonical positions then stay grouped by color.
    """
    cells = _normalize_cells(g, cells)
    if g.n == 0:
        empty = build(0, [])
        return CanonicalForm(empty, graph6_encode(empty), (), (), PermGroup(0, []))
    search = _Search(g, cells)
    lab = search.best[2]
    pos = [0] * g.n
    for p, v in enumerate(lab):
        pos[v] = p
    canon = build(g.n, [(pos[u], pos[v]) for u, v in g.edges])
    return CanonicalForm(
        canon, graph6_encode(canon), lab, tuple(len(c) for c in cells),
        PermGroup.from_chain(search.chain),
    )


def isomorphism(g: Graph, h: Graph, cells_g=None, cells_h=None):
    """Vertex bijection g -> h respecting edges (and colors), or None."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    cf_g = canonical_form(g, cells_g)
    cf_h = canonical_form(h, cells_h)
    if cf_g.certificate != cf_h.certificate or cf_g.color_sizes != cf_h.color_sizes:
        return None
    phi = [0] * g.n
    for p in range(g.n):
        phi[cf_g.order[p]] = cf_h.order[p]
    h_edges = set(h.edges)
    for u, v in g.edges:
        a, b = phi[u], phi[v]
        if ((a, b) if a < b else (b, a)) not in h_edges:
            raise AssertionError("certificate match produced a bad mapping")
    return tuple(phi)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return isomorphism(g, h) is not None


def automorphism_group(g: Graph, cells=None) -> PermGroup:
    """Automorphisms harvested from the canonical search, as a PermGroup."""
    return canonical_form(g, cells).group
