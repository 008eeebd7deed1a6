"""Canonical labeling, isomorphism and automorphisms by individualization-refinement.

Cells and splitters are vertex bitmasks. Refinement to equitability
touches only the cells that meet a splitter's neighbourhood and counts
only the vertices there; a one-vertex splitter, the first of every child,
splits by mask operations alone, and a split queues every fragment but the
last, which splits nothing. The search individualizes vertices of the
first largest cell and keeps the least leaf key: the refinement path, then
the graph6 bytes of the graph the leaf relabels (`graphs._graph6`). The
best leaf's bytes are the certificate. Children are visited in ascending
vertex order and refined only when entered, after the orbit test: the
found automorphisms that fix the individualized vertices skip a child in
the orbit of one already searched. Traces prune branches that cannot win,
and automorphisms fall out whenever two leaves carry equal keys; each one
found is kept in a plain list. A leaf equal to the first leaf backjumps to
the node where the two paths diverge, as in nauty (McKay & Piperno,
"Practical graph isomorphism, II", 2014), since the automorphism just
found maps the first path's subtree onto the rest of the current one.
The vertices individualized on the first path are a base for which the
found automorphisms are a strong generating set, so the group's
stabilizer chain is read off that path by orbits alone, with no sifting
(`PermGroup.from_base`). It is built on each read of
`CanonicalForm.group`, so an isomorphism test builds none.

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
        """The group the found automorphisms generate; a new stabilizer
        chain along `base` is built on each read, so every caller owns the
        group it gets, and elements close lazily."""
        return PermGroup.from_base(len(self.order), self.base, self.automorphisms)


def _labelling_map(lab_a, lab_b, edges, target_edges) -> tuple[int, ...]:
    """The vertex map lab_a[p] -> lab_b[p], checked to send every edge into
    target_edges: two labellings giving one certificate must yield it."""
    phi = [0] * len(lab_a)
    for a, b in zip(lab_a, lab_b):
        phi[a] = b
    for u, v in edges:
        a, b = phi[u], phi[v]
        if ((a, b) if a < b else (b, a)) not in target_edges:
            raise AssertionError("labellings with equal certificates gave a non-isomorphism")
    return tuple(phi)


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
        inv = (tuple(c.bit_count() for c in root), trace)
        self._node(root, (inv,), ())

    def _leaf_cert(self, cells) -> tuple[bytes, tuple[int, ...]]:
        lab = tuple(c.bit_length() - 1 for c in cells)
        pos = [0] * self.n
        for p, v in enumerate(lab):
            pos[v] = p
        return _graph6(self.n, [(pos[u], pos[v]) for u, v in self.edges]), lab

    def _record_auto(self, lab_a, lab_b):
        if lab_a != lab_b:
            self.autos.append(_labelling_map(lab_a, lab_b, self.edges, self.edge_set))

    def _prefix_beats(self, path, ref) -> bool:
        """True when ref (a stored full path) is still reachable from path."""
        return ref is None or path <= ref[0][: len(path)]

    def _node(self, cells, path, prefix):
        """Search the subtree below `prefix`, children in ascending vertex order.

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
        ok_best = self._prefix_beats(path, self.best)
        ok_first = self.first is not None and path == self.first[0][: len(path)]
        if not ok_best and not ok_first:
            return None
        if len(cells) == self.n:  # discrete: a leaf
            cert, lab = self._leaf_cert(cells)
            key = (path, cert)
            if self.first is None:
                self.first = (path, cert, lab, prefix)
                self.best = (path, cert, lab)
            elif key == self.first[:2]:
                # The automorphism maps the first leaf here, and the first
                # path's subtree below the divergence onto this one.
                self._record_auto(self.first[2], lab)
                return next(d for d, (a, b) in enumerate(zip(self.first[3], prefix)) if a != b)
            elif key < self.best[:2]:
                self.best = (path, cert, lab)
            elif key == self.best[:2]:
                self._record_auto(self.best[2], lab)
            return None
        sizes = [c.bit_count() for c in cells]
        target = sizes.index(max(sizes))
        cell = cells[target]
        # A found automorphism fixing the prefix maps the subtree of a
        # searched child w onto that of v; skipping v loses no leaf
        # certificate and, the subtree being an image, no automorphism the
        # found ones do not generate. `covered` is the union of the tried
        # children's orbits under those automorphisms.
        tried, covered, seen = [], set(), None
        autos = self.autos
        for v in (v for v in range(self.n) if cell >> v & 1):
            if seen != len(autos):  # a child found automorphisms: orbits may merge
                seen = len(autos)
                fixing = [p for p in autos if all(p[x] == x for x in prefix)]
                covered = _orbit(tried, fixing, lambda x, p: p[x])
            if v in covered:
                continue
            tried.append(v)
            covered |= _orbit((v,), fixing, lambda x, p: p[x])
            child = cells[:target] + [1 << v, cell & ~(1 << v)] + cells[target + 1:]
            refined, trace = _refine(self.adj, child, [1 << v])
            inv = (tuple(c.bit_count() for c in refined), trace)
            jump = self._node(refined, path + (inv,), prefix + (v,))
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
