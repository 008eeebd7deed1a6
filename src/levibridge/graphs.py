"""Immutable simple graphs on dense integer vertices, plus the standard codecs.

Vertices are 0..n-1. Edges are stored as a sorted tuple of (u, v) pairs with
u < v, so two graphs compare equal iff they have the same order and edge set.
An optional label table maps vertices to display strings; it never takes part
in equality, hashing or encoding. The graph6 codec's upper-triangle bit
layout is written once, in `_graph6`, and `graph6_decode` reads it back.
"""

from __future__ import annotations

import binascii
import math
import re
from collections import namedtuple


class GraphError(ValueError):
    """Raised for invalid graph construction or codec input."""


class Graph6Error(GraphError):
    """Malformed graph6 data. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


Edge = tuple[int, int]


class _Record:
    """Base of the immutable records that a named tuple cannot hold.

    A subclass's __init__ hands its fields to this one, which sets each
    once; assigning or deleting an attribute afterwards raises
    AttributeError. Equality, hashing and repr read only `_key()`, so a
    field it leaves out (labels, found automorphisms) is not compared. The
    `__dict__` stays, for the per-graph cache only.
    """

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return type(self).__name__ + repr(self._key())


class Graph(_Record):
    def __init__(self, n: int, edges: tuple[Edge, ...], labels: dict[int, str] | None = None):
        super().__init__(n=n, edges=edges, labels=labels)

    def _key(self):
        return self.n, self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _neighbor_tuples(self)[v]


def build(n: int, edges, labels: dict[int, str] | None = None) -> Graph:
    """Normalize and validate an edge list into a Graph.

    Endpoints must lie in 0..n-1, loops are rejected, duplicates collapse.
    """
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    seen = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e} out of range for n={n}")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    if labels is not None:
        labels = dict(labels)
    return Graph(n, tuple(sorted(seen)), labels)


def _cached(g: Graph, make, *args):
    """make(g, *args), computed once per graph and kept on g.

    This is the one per-graph cache and the only code that reads or writes
    a Graph's __dict__. Graph is immutable and make is a pure function of
    g.n, g.edges and args, so an entry never goes stale. The cache lives and
    dies with g, so a stream of graphs keeps none alive.
    """
    cache = g.__dict__.setdefault("_cache", {})
    key = (make, args)
    if key not in cache:
        cache[key] = make(g, *args)
    return cache[key]


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _masks(g: Graph) -> tuple[int, ...]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _neighbors(g: Graph) -> tuple[tuple[int, ...], ...]:
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:  # sorted, so each vertex meets its neighbours in ascending order
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(map(tuple, nbrs))


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Per-vertex neighbor bitmasks, cached on g."""
    return _cached(g, _masks)


def _neighbor_tuples(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per-vertex ascending neighbor tuples, cached on g."""
    return _cached(g, _neighbors)


def is_cubic(g: Graph) -> bool:
    return all(m.bit_count() == 3 for m in adjacency_masks(g))


def bfs_layers(adj, root: int):
    """Yield the breadth-first layers around root as vertex bitmasks.

    adj holds one neighbor bitmask per vertex; layer d is the set of
    vertices at distance exactly d from root, starting with {root}.
    """
    layer = seen = 1 << root
    while layer:
        yield layer
        reach = 0
        while layer:
            low = layer & -layer
            reach |= adj[low.bit_length() - 1]
            layer ^= low
        layer = reach & ~seen
        seen |= layer


def components(adj) -> list[int]:
    """Vertex bitmasks of the connected components, by least vertex."""
    left = (1 << len(adj)) - 1
    comps = []
    while left:
        comp = 0
        for layer in bfs_layers(adj, (left & -left).bit_length() - 1):
            comp |= layer
        comps.append(comp)
        left &= ~comp
    return comps


Bipartition = namedtuple("Bipartition", "side_a side_b")  # frozensets of vertices


def bipartition(g: Graph) -> Bipartition | None:
    """2-color by BFS layers: even layers of each component go to side A,
    odd layers to side B, so each component's least vertex lands in A.
    None if an edge joins two vertices of one side (an odd cycle).
    """
    adj = adjacency_masks(g)
    side_a = side_b = 0
    for comp in components(adj):
        for d, layer in enumerate(bfs_layers(adj, (comp & -comp).bit_length() - 1)):
            if d % 2:
                side_b |= layer
            else:
                side_a |= layer
    if any(adj[v] & (side_a if side_a >> v & 1 else side_b) for v in range(g.n)):
        return None
    return Bipartition(
        frozenset(v for v in range(g.n) if side_a >> v & 1),
        frozenset(v for v in range(g.n) if side_b >> v & 1),
    )


def shortest_cycle(adj) -> tuple[int, ...] | None:
    """A shortest cycle of the graph with neighbor bitmasks adj, as its
    vertices in cycle order from a BFS root; None if acyclic.

    In the BFS layers around r, a layer-d vertex with two neighbors in layer
    d-1 closes a cycle of length at most 2d, and an edge inside layer d one
    of length at most 2d+1. Rooted on a shortest cycle, the first such layer
    gives its exact length, so the minimum over all roots is exact. The two
    ends (the two lower neighbors, or the edge's endpoints) each walk down
    the stored layers to the root. At a root that attains the minimum the
    walks meet only at the root: had they met first at depth k > 0, they
    would close a cycle 2k shorter than the minimum.
    """
    def down(top, layers):  # top's highest vertex, then a neighbor in each layer below
        path = [top.bit_length() - 1]
        for layer in reversed(layers):
            path.append((adj[path[-1]] & layer).bit_length() - 1)
        return path

    best = None
    for root in range(len(adj)):
        layers: list[int] = []
        for d, layer in enumerate(bfs_layers(adj, root)):
            if best is not None and 2 * d >= len(best):
                break
            prev = layers[-1] if layers else 0
            ends = None
            m = layer
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                lower = adj[v] & prev
                if lower.bit_count() > 1:
                    ends = lower & -lower, [v], lower, layers[:-1]
                    break
                if ends is None and adj[v] & layer:
                    ends = 1 << v, [], adj[v] & layer, layers
            if ends is not None:
                x, middle, y, below = ends
                best = tuple(down(x, below)[::-1] + middle + down(y, below)[:-1])
                break
            layers.append(layer)
    return best


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle (see `shortest_cycle`); None if acyclic."""
    found = shortest_cycle(adjacency_masks(g))
    return None if found is None else len(found)


# -- constructors ------------------------------------------------------------


def k33() -> Graph:
    return build(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def lcf(jumps, repeats: int) -> Graph:
    """Cubic graph from LCF notation: a Hamiltonian cycle plus chords.

    The jump list is repeated `repeats` times around an n-cycle; vertex i
    gets a chord to (i + jumps[i mod len]) mod n. Every vertex must end up
    with degree exactly 3.
    """
    jumps = list(jumps)
    n = len(jumps) * repeats
    if n == 0 or n % 2 != 0:
        raise GraphError(f"LCF needs a positive even vertex count, got {n}")
    for j in jumps:
        if not (2 <= j % n <= n - 2):
            raise GraphError(f"LCF jump {j} out of range [2, n-2] for n={n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        edges.append(tuple(sorted((i, (i + jumps[i % len(jumps)]) % n))))
    g = build(n, edges)
    if not is_cubic(g):
        raise GraphError("LCF chords collide: result is not cubic")
    return g


_LCF_JUMP = r"\s*[+-]?[0-9]+\s*"
_LCF_RE = re.compile(rf"^\[({_LCF_JUMP}(?:,{_LCF_JUMP})*)\]\^(\d+)$")


def parse_lcf(text: str) -> Graph:
    """Parse strings like "[5,-5]^7" into the corresponding LCF graph."""
    m = _LCF_RE.match(text.strip())
    if not m:
        raise GraphError(f"cannot parse LCF spec {text!r}")
    jumps = [int(t) for t in m.group(1).split(",")]
    return lcf(jumps, int(m.group(2)))


def gp(n: int, k: int) -> Graph:
    """Generalized Petersen graph: outer n-cycle 0..n-1, inner star polygon.

    Vertices n..2n-1 form the inner set; u_i ~ u_{i+1}, u_i ~ v_i,
    v_i ~ v_{i+k}. Requires 1 <= k < n/2.
    """
    if not (1 <= k and 2 * k < n):
        raise GraphError(f"gp({n}, {k}) needs 1 <= k < n/2")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + k) % n))
    return build(2 * n, edges)


def petersen() -> Graph:
    return gp(5, 2)


def prism() -> Graph:
    return gp(3, 1)


def heawood() -> Graph:
    return lcf([5, -5], 7)


def pappus() -> Graph:
    return lcf([5, 7, -7, 7, -7, -5], 3)


def moebius_kantor_graph() -> Graph:
    return gp(8, 3)


# -- graph6 codec ------------------------------------------------------------


def _g6_bytes_for_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise GraphError(f"graph6 supports n <= 258047, got {n}")


_SIX_BITS = bytes.maketrans(  # base64 digit d -> graph6 byte d + 63
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def _graph6(n: int, pairs) -> bytes:
    """graph6 bytes of the graph on 0..n-1 with these vertex pairs as edges.

    The header for n precedes the upper triangle: pair (i, j), i < j, is bit
    j(j-1)/2 + i, the first pair the highest. The bits are set in zeroed
    whole base64 quanta (24 bits), which base64 cuts into six-bit groups,
    each emitted as value + 63. For one n the bytes sort as the bits do.
    """
    size = (n * (n - 1) // 2 + 5) // 6
    bits = bytearray(-(-size // 4) * 3)
    for i, j in pairs:
        if i > j:
            i, j = j, i
        k = j * (j - 1) // 2 + i
        bits[k >> 3] |= 128 >> (k & 7)
    body = binascii.b2a_base64(bits, newline=False)
    del bits  # so that no more than two copies of the line are alive at once
    body = body.translate(_SIX_BITS)
    return _g6_bytes_for_n(n) + memoryview(body)[:size]


def graph6_encode(g: Graph) -> bytes:
    """Encode as graph6 (see `_graph6`)."""
    return _graph6(g.n, g.edges)


def graph6_decode(data: bytes | str) -> Graph:
    """Decode one graph6 line: the inverse of `_graph6`, whose docstring has
    the bit layout. Labels are not part of the format."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII character in graph6 input", exc.start) from None
    data = data.rstrip(b"\r\n")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    if data[:2] == b"~~":
        raise Graph6Error("graph6 8-byte vertex counts not supported", 1)
    pos = 4 if data[0] == 126 else 1
    if len(data) < pos:
        raise Graph6Error("truncated graph6 vertex count", len(data))
    bad = re.match(rb"[?-~]*", data).end()  # the first byte outside graph6's range, if any
    if bad < pos:
        raise Graph6Error(f"byte {data[bad]} outside graph6 range", bad)
    n = data[0] - 63 if pos == 1 else (data[1] - 63) << 12 | (data[2] - 63) << 6 | data[3] - 63
    if data[:pos] != _g6_bytes_for_n(n):
        raise Graph6Error(f"non-minimal multibyte count {n}", 1)
    if bad < len(data):
        raise Graph6Error(f"byte {data[bad]} outside graph6 range", bad)
    need = n * (n - 1) // 2
    size = (need + 5) // 6
    if len(data) - pos != size:
        raise Graph6Error(f"graph6 body for n={n} needs {size} bytes, got {len(data) - pos}", pos)
    if data[-1] - 63 & (1 << 6 * size - need) - 1:  # the bits past the triangle
        raise Graph6Error("nonzero padding bits", len(data) - 1)
    edges = []
    for group in re.compile(rb"[^?]").finditer(data, pos):  # the six-bit groups with a bit set
        x, last = data[group.start()] - 63, 6 * (group.start() - pos) + 5
        while x:
            b = x.bit_length() - 1  # bit k = last - b of the triangle
            x ^= 1 << b
            k = last - b
            j = (math.isqrt(8 * k + 1) + 1) // 2  # the column: j(j-1)/2 <= k < j(j+1)/2
            edges.append((k - j * (j - 1) // 2, j))
    return build(n, edges)
