"""Canonical labeling, isomorphism and automorphisms by individualization-refinement.

Cells and splitters are vertex bitmasks. Refinement to equitability touches
only the cells that meet a splitter's neighbourhood and counts only the
vertices there; a one-vertex splitter, the first of every child, splits by
mask operations alone, and a split queues every fragment but the last,
which splits nothing. The search individualizes vertices of the first
largest cell and keeps the least leaf key: the refinement path, then the
graph6 bytes of the graph the leaf relabels (`graphs._graph6`). The best
leaf's bytes are the certificate. Two leaves have equal keys exactly when
their paths are equal and lab_a[p] -> lab_b[p] sends edges to edges, so a
leaf on the first or best leaf's path is tested as an automorphism of that
leaf before it is encoded; each one found is kept in a plain list. Children
are visited in ascending vertex order and refined only when entered, after
the orbit test: the found automorphisms fixing the individualized vertices,
a list each child inherits from its parent, skip a child in the orbit of
one already searched. Traces prune branches that cannot win. A leaf equal
to the first leaf backjumps to the node where the two paths diverge, as in
nauty (McKay & Piperno, "Practical graph isomorphism, II", 2014), since the
automorphism just found maps the first path's subtree onto the rest of the
current one. The vertices individualized on the first path are a base for
which the found automorphisms are a strong generating set, so the group's
stabilizer chain is read off that path by orbits alone, with no sifting
(`PermGroup.from_base`). It is built on each read of `CanonicalForm.group`,
so an isomorphism test builds none.

None of this changes the result: the least key does not depend on the
order of the search, the labelling returned is the least vertex sequence
among the leaves carrying it, and every skipped subtree is the image of a
searched one with a smaller vertex sequence (see `_Search._node`).
Refinement stops once the partition is discrete, since a singleton cell
never splits. Each form is kept in its graph's one cache
(`graphs._cached`), keyed by the cells, so every question asked of one
graph object reads one search. Built for graphs up to a few hundred
vertices.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, _cached, _graph6, _mask, _Record, adjacency_masks
from .groups import PermGroup, _orbit


class CanonicalForm(_Record):
    """`certificate` is the canonical graph's graph6 bytes; `order[p]` is the
    original vertex at canonical position p. `automorphisms`, every one the
    same search found in the order it found them, and `base`, the vertices
    the search individualized on its way to its first leaf, are not
    compared; together they give `group` its stabilizer chain."""

    def __init__(self, certificate: bytes, order: tuple[int, ...], color_sizes: tuple[int, ...],
                 automorphisms: tuple[tuple[int, ...], ...], base: tuple[int, ...]):
        super().__init__(certificate=certificate, order=order, color_sizes=color_sizes,
                         automorphisms=automorphisms, base=base)

    def _key(self):
        return self.certificate, self.order, self.color_sizes

    @property
    def group(self) -> PermGroup:
        """The group the found automorphisms generate, as a stabilizer chain
        along `base`, built on each read."""
        return PermGroup.from_base(len(self.order), self.base, self.automorphisms)


def _edge_map(lab_a, lab_b, edges, target_edges):
    """The map lab_a[p] -> lab_b[p] if it sends edges into target_edges, else None."""
    phi = [0] * len(lab_a)
    for a, b in zip(lab_a, lab_b):
        phi[a] = b
    for u, v in edges:
        a, b = phi[u], phi[v]
        if ((a, b) if a < b else (b, a)) not in target_edges:
            return None
    return tuple(phi)


def _labelling_map(lab_a, lab_b, edges, target_edges) -> tuple[int, ...]:
    """`_edge_map`, which two labellings giving one certificate must pass."""
    phi = _edge_map(lab_a, lab_b, edges, target_edges)
    if phi is None:
        raise AssertionError("labellings with equal certificates gave a non-isomorphism")
    return phi


def _refine(adj, cells, queue):
    """Split cells by neighbor counts into queued splitters until stable.

    Cells and splitters are vertex bitmasks. A one-vertex splitter v splits
    a cell C into C & ~adj[v] (count 0) and C & adj[v] (count 1) by mask
    operations alone; a larger one counts only the vertices of C & hit, hit
    being its neighbourhood, and the rest of C is the count-0 fragment.
    Splits apply after the pass: `pos` in the trace is the index before it.
    Returns the refined ordered partition and its trace of splits, which
    depends only on the isomorphism type of the partitioned graph.

    A cell C split into fragments F1..Fk (in count order) queues F1..F(k-1)
    but not Fk, which would split nothing. By the time Fk would be popped:
    - the partition is equitable with respect to C: C was a cell of the
      equitable partition the caller refines from, or was queued ahead of
      its fragments and so processed first, or is itself a dropped last
      fragment (by induction);
    - F1..F(k-1), queued ahead of Fk, have all been processed.
    Cells only split further after that, so for a vertex x of any current
    cell |N(x) & Fk| = |N(x) & C| - sum over i < k of |N(x) & Fi| is
    constant on the cell: Fk splits nothing and writes no trace entry.
    Cells and trace are those of a queue holding every fragment. A child
    queues only its individualized vertex: the rest of its cell is the
    last fragment of a cell of an equitable partition. Once every cell is
    a singleton no splitter splits anything, so the pass stops there.
    """
    cells = list(cells)
    trace = []
    for splitter in queue:  # grows while cells split
        if len(cells) == len(adj):
            break
        splits = []
        if not splitter & (splitter - 1):  # one vertex: counts are 0 and 1
            hit = adj[splitter.bit_length() - 1]
            for pos, cell in enumerate(cells):
                inside = cell & hit
                if inside and inside != cell:
                    out = cell ^ inside
                    queue.append(out)
                    trace.append((pos, ((0, out.bit_count()), (1, inside.bit_count()))))
                    splits.append((pos, (out, inside)))
        else:
            hit, rest = 0, splitter
            while rest:
                v = rest.bit_length() - 1
                hit |= adj[v]
                rest ^= 1 << v
            for pos, cell in enumerate(cells):
                inside = cell & hit
                if not inside:
                    continue
                buckets = {0: cell ^ inside} if inside != cell else {}
                while inside:  # count only the vertices the splitter reaches
                    v = inside.bit_length() - 1
                    inside ^= 1 << v
                    k = (adj[v] & splitter).bit_count()
                    buckets[k] = buckets.get(k, 0) | 1 << v
                if len(buckets) > 1:
                    counts = sorted(buckets)
                    frags = [buckets[k] for k in counts]
                    queue.extend(frags[:-1])  # frags[-1] splits nothing; see above
                    trace.append((pos, tuple(zip(counts, map(int.bit_count, frags)))))
                    splits.append((pos, frags))
        for pos, frags in reversed(splits):
            cells[pos:pos + 1] = frags
    return cells, tuple(trace)


class _Search:
    def __init__(self, g: Graph, cells):
        self.n = g.n
        self.adj = adjacency_masks(g)
        self.edges = g.edges
        self.edge_set = set(g.edges)
        self.best = None  # (path, cert, labeling)
        self.first = None  # (path, cert, labeling, prefix) of the first leaf
        self.autos = []  # every automorphism found, in order
        masks = [_mask(c) for c in cells]
        root, trace = _refine(self.adj, masks, list(masks))
        self._node(root, ((tuple(map(int.bit_count, root)), trace),), (), [])

    def _node(self, cells, path, prefix, fixing):
        """Search the subtree below `prefix`, children in ascending vertex order.

        `fixing`, the node's own list, holds the found automorphisms fixing the
        prefix: the parent's that fix the node's vertex, then those found since
        entry that fix the whole prefix (a leaf off the first path can give one
        moving it). A leaf on the first or best leaf's path is first tested as
        an automorphism of it: equal path and edge map is equal key.

        Returns None, or the depth to backjump to. The returned labelling
        is the one children sorted by (inv, v) would give:
        - the best key (path, cert) is the least over the whole tree,
          whatever order the children are visited in;
        - leaves sharing that key have equal invs all along their paths,
          so (inv, v) order meets them in lexicographic order of their
          vertex sequences, and so does vertex order, which meets the
          least one first;
        - orbit pruning and backjumping skip only subtrees that are
          images, under a found automorphism fixing the node's prefix,
          of subtrees searched before; each skipped leaf has the key of
          its preimage, whose vertex sequence is smaller, so they hide
          neither the least leaf nor an automorphism outside the group
          generated by those found.
        Certificate, labelling and |Aut| are therefore unchanged.
        """
        first, best = self.first, self.best
        if first is not None and path != first[0][: len(path)] and path > best[0][: len(path)]:
            return None  # off the first path, and it cannot beat the best
        if len(cells) == self.n:  # discrete: a leaf
            lab = tuple(c.bit_length() - 1 for c in cells)
            for ref in () if first is None else (first, best):
                if path == ref[0] and (phi := _edge_map(ref[2], lab, self.edges,
                                                        self.edge_set)) is not None:
                    self.autos.append(phi)
                    if ref is not first:
                        return None
                    # The automorphism maps the first leaf here, and the first
                    # path's subtree below the divergence onto this one.
                    return next(d for d, (a, b) in enumerate(zip(first[3], prefix)) if a != b)
            pos = [0] * self.n
            for p, v in enumerate(lab):
                pos[v] = p
            key = (path, _graph6(self.n, [(pos[u], pos[v]) for u, v in self.edges]))
            if first is None:
                self.first = key + (lab, prefix)
                self.best = key + (lab,)
            elif key < best[:2]:
                self.best = key + (lab,)
            return None
        sizes = tuple(map(int.bit_count, cells))
        target = sizes.index(max(sizes))
        cell = cells[target]
        before, after = cells[:target], cells[target + 1:]
        # A found automorphism fixing the prefix maps the subtree of a
        # searched child w onto that of v; skipping v loses no leaf
        # certificate and, the subtree being an image, no automorphism the
        # found ones do not generate. `covered`, the union of the tried
        # children's orbits under them, re-closes from itself as they grow.
        autos = self.autos
        seen, covered, last, rest = len(autos), set(), None, cell
        while rest:  # the cell's vertices, lowest first
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            if seen != len(autos):  # a child found automorphisms: orbits may merge
                fixing += [p for p in autos[seen:] if all(p[x] == x for x in prefix)]
                seen = len(autos)
                last, covered = None, _orbit(covered, fixing, lambda x, p: p[x])
            elif last is not None:  # the last child's orbit, closed once it is needed
                last, covered = None, covered | _orbit((last,), fixing, lambda x, p: p[x])
            if v in covered:
                continue
            covered.add(v)
            last = v
            refined, trace = _refine(self.adj, before + [bit, cell ^ bit] + after, [bit])
            jump = self._node(refined, path + ((tuple(map(int.bit_count, refined)), trace),),
                              prefix + (v,), [p for p in fixing if p[v] == v])
            if jump is not None and jump < len(prefix):
                return jump
        return None


def _normalize_cells(g: Graph, cells) -> tuple[tuple[int, ...], ...]:
    if cells is None:
        cells = [tuple(range(g.n))] if g.n else []
    cells = tuple(c for c in map(tuple, cells) if c)
    flat = sorted(v for c in cells for v in c)
    if flat != list(range(g.n)):
        raise GraphError("cells must partition the vertex set")
    return cells


def _search_form(g: Graph, cells) -> CanonicalForm:
    search = _Search(g, cells)  # best = (path, certificate, labelling)
    return CanonicalForm(*search.best[1:], tuple(len(c) for c in cells), tuple(search.autos),
                         search.first[3])


def canonical_form(g: Graph, cells=None) -> CanonicalForm:
    """Canonically relabel g; equal certificates characterize isomorphism.

    Optional cells fix an ordered vertex coloring that any relabeling must
    respect; canonical positions then stay grouped by color. The form is
    held in g's one cache (`graphs._cached`), one entry per coloring.
    """
    return _cached(g, _search_form, _normalize_cells(g, cells))


def isomorphism(g: Graph, h: Graph, cells_g=None, cells_h=None):
    """Vertex bijection g -> h respecting edges (and colors), or None."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    cf_g = canonical_form(g, cells_g)
    cf_h = canonical_form(h, cells_h)
    if cf_g.certificate != cf_h.certificate or cf_g.color_sizes != cf_h.color_sizes:
        return None
    return _labelling_map(cf_g.order, cf_h.order, g.edges, set(h.edges))


def automorphism_group(g: Graph, cells=None) -> PermGroup:
    """Automorphisms harvested from the canonical search, as a PermGroup."""
    return canonical_form(g, cells).group
