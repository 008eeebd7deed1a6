"""Graph container, generators, and the graph6 codec.

The codec is tested two ways: against networkx's encoder/decoder as an
independent reference, and by randomized/property-based round-trips.
"""

import gc
import random
import weakref
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levibridge import canon, cuts, graphs, twofactors
from levibridge.canon import canonical_form
from levibridge.graphs import (
    Graph6Error,
    GraphError,
    adjacency_masks,
    bfs_layers,
    bipartition,
    build,
    girth,
    gp,
    graph6_decode,
    graph6_encode,
    heawood,
    is_cubic,
    k33,
    lcf,
    moebius_kantor_graph,
    pappus,
    parse_lcf,
    petersen,
    prism,
    shortest_cycle,
)
from levibridge.survey import graph_properties
from levibridge.twofactors import pseudo_2fi


def _random_graph(rng: random.Random, n: int):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice((0.1, 0.3, 0.6))
    ]
    return build(n, edges)


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _bytewise_graph6_decode(data: bytes | str):
    """The decoder `graph6_decode` replaced, kept as its oracle: a Python
    loop over the body bytes, each set bit carried from its byte's first
    vertex pair to its own. Like `graph6_decode`, it checks the body's
    byte range before its length."""
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
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph6 8-byte vertex counts not supported", 1)
        if len(data) < 4:
            raise Graph6Error("truncated graph6 vertex count", len(data))
        vals = []
        for pos in range(1, 4):
            b = data[pos]
            if not (63 <= b <= 126):
                raise Graph6Error(f"byte {b} outside graph6 range", pos)
            vals.append(b - 63)
        n = vals[0] << 12 | vals[1] << 6 | vals[2]
        if n <= 62:
            raise Graph6Error(f"non-minimal multibyte count {n}", 1)
        pos = 4
    else:
        b = data[0]
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} outside graph6 range", 0)
        n = b - 63
        pos = 1
    need = n * (n - 1) // 2
    body = data[pos:]
    for off, b in enumerate(body):
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} outside graph6 range", pos + off)
    if len(body) != (need + 5) // 6:
        raise Graph6Error(
            f"graph6 body for n={n} needs {(need + 5) // 6} bytes, got {len(body)}",
            pos,
        )
    edges = []
    i, j = 0, 1  # the vertex pair of the current byte's first bit
    for b in body:
        x = b - 63
        for k in range(6 if x else 0):  # bit k: pair (i + k, j), carried into later columns
            if x >> (5 - k) & 1:
                u, v = i + k, j
                while u >= v:
                    u, v = u - v, v + 1
                if v >= n:
                    raise Graph6Error("nonzero padding bits", pos + len(body) - 1)
                edges.append((u, v))
        i += 6
        while i >= j:
            i, j = i - j, j + 1
    return build(n, edges)


@st.composite
def _damaged_graph6_lines(draw):
    """The graph6 line of a random graph on up to 70 vertices (so both header
    forms occur), then at most one edit a broken writer or a damaged file
    could make, as bytes or as text."""
    n = draw(st.integers(min_value=0, max_value=70))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    line = bytearray(graph6_encode(_random_graph(random.Random(seed), n)))
    head = 1 if n <= 62 else 4
    at = draw(st.integers(min_value=0, max_value=len(line) - 1))
    byte = draw(st.integers(min_value=0, max_value=255))
    edit = draw(st.sampled_from(["none", "change", "drop", "append", "padding",
                                 "long count", "tilde", "prefix", "line end"]))
    if edit == "change":
        line[at] = byte
    elif edit == "drop":
        del line[at]
    elif edit == "append":
        line.append(byte)
    elif edit == "padding":  # set some of the low bits of the last six-bit group
        line[-1] = 63 + ((line[-1] - 63) | byte & 63)
    elif edit == "long count":  # the four-byte header, non-minimal when n <= 62
        line[:head] = b"~" + bytes(63 + (n >> s & 63) for s in (12, 6, 0))
    elif edit == "tilde":  # "~" and whatever follows: "~~", truncated, out of range
        line[:head] = b"~" + draw(st.binary(max_size=4))
    elif edit == "prefix":
        line[:0] = b">>graph6<<"
    elif edit == "line end":
        line += draw(st.sampled_from([b"\n", b"\r\n", b"\n\n"]))
    if draw(st.booleans()):  # as text, where a byte above 127 is a non-ASCII character
        return line.decode("latin-1")
    return bytes(line)


def _decoded(decode, data):
    """The graph decode returns, or the message and offset of its Graph6Error.
    Any other exception propagates."""
    try:
        return decode(data)
    except Graph6Error as exc:
        return str(exc), exc.offset


class TestGraph6:
    def test_k33_reference_bytes(self):
        assert graph6_encode(k33()) == b"EFz_"

    def test_roundtrip_1000_random_graphs(self):
        rng = random.Random(20260816)
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(1, 30))
            assert graph6_decode(graph6_encode(g)) == g

    def test_matches_networkx_on_random_graphs(self):
        """Random orders, then the ends of the one-byte header (0-2, 62, 63)
        and orders whose triangle ends a 24-bit base64 quantum after 4, 1, 2
        or 3 six-bit groups (n(n-1)/2 = 0, 6, 12, 18 mod 24)."""
        rng = random.Random(99)
        boundary = [0, 1, 2, 62, 63, 16, 33, 48, 4, 13, 36, 9, 24, 25, 12, 21, 28]
        for n in [rng.randint(1, 34) for _ in range(120)] + boundary:
            g = _random_graph(rng, n)
            mine = graph6_encode(g)
            theirs = nx.to_graph6_bytes(_to_nx(g), header=False).strip()
            assert mine == theirs
            back = nx.from_graph6_bytes(mine)
            assert {frozenset(e) for e in back.edges()} == {
                frozenset(e) for e in g.edges
            }

    def test_multibyte_size_prefix(self):
        g = build(70, [(i, (i + 1) % 70) for i in range(70)])
        assert graph6_decode(graph6_encode(g)) == g
        assert graph6_encode(g)[:1] == b"~"
        theirs = nx.to_graph6_bytes(_to_nx(g), header=False).strip()
        assert graph6_encode(g) == theirs

    def test_decode_rejects_garbage(self):
        with pytest.raises(Graph6Error):
            graph6_decode(b"E\x01z_")
        with pytest.raises(Graph6Error):
            graph6_decode(b"EFz")  # truncated body
        with pytest.raises(Graph6Error) as err:
            graph6_decode("A\u00e9")  # non-ASCII text
        assert err.value.offset == 1

    def test_decode_error_offsets(self):
        cases = {
            b"EFz\x01": ("byte 1 outside", 3),
            b"EFz": ("needs 3 bytes, got 2", 1),
            b"EFz`": ("nonzero padding", 3),  # K3,3 with the last of 3 pad bits set
            b"~??@": ("non-minimal", 1),
        }
        for data, (text, offset) in cases.items():
            with pytest.raises(Graph6Error) as err:
                graph6_decode(data)
            assert text in str(err.value) and err.value.offset == offset, data

    def test_roundtrip_1200_vertex_prism(self):
        """A 1200-vertex line decodes in well under a second."""
        g = gp(600, 1)
        data = graph6_encode(g)
        assert graph6_decode(data) == g
        back = nx.from_graph6_bytes(data)
        assert {frozenset(e) for e in back.edges()} == {frozenset(e) for e in g.edges}

    def test_decode_accepts_prefix(self):
        assert graph6_decode(b">>graph6<<EFz_") == k33()

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.binary(max_size=40), _damaged_graph6_lines()))
    def test_decode_agrees_with_the_bytewise_decoder(self, data):
        """graph6_decode against the byte-by-byte decoder it replaced."""
        assert _decoded(graph6_decode, data) == _decoded(_bytewise_graph6_decode, data)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                  max_size=len(pairs)))
        g = build(n, [p for p, keep in zip(pairs, mask) if keep])
        assert graph6_decode(graph6_encode(g)) == g


class TestBuild:
    def test_rejects_loops_and_range(self):
        with pytest.raises(GraphError):
            build(3, [(0, 0)])
        with pytest.raises(GraphError):
            build(3, [(0, 3)])
        with pytest.raises(GraphError, match="negative vertex count -1"):
            build(-1, [])

    def test_deduplicates_and_sorts(self):
        g = build(3, [(2, 1), (1, 2), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))

    def test_mask_cache_does_not_keep_graphs_alive(self):
        g = build(4, [(0, 1), (1, 2), (2, 3)])
        assert adjacency_masks(g) == (0b10, 0b101, 0b1010, 0b100)
        assert adjacency_masks(g) is adjacency_masks(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_neighbour_tuples_match_the_mask_scan(self):
        # The tuples are built from the sorted edge list; scanning each
        # vertex's mask is the definition, checked on relabelled graphs and
        # past 62 vertices.
        rng = random.Random(29)
        for n in (0, 1, 2, 5, 17, 63, 64, 70, 130):
            g = _random_graph(rng, n)
            p = list(range(n))
            rng.shuffle(p)
            for h in (g, build(n, [(p[u], p[v]) for u, v in g.edges])):
                scan = tuple(tuple(u for u in range(n) if m >> u & 1) for m in adjacency_masks(h))
                assert tuple(h.neighbors(v) for v in range(n)) == scan

    def test_every_layer_caches_through_the_one_helper(self):
        """After the property battery, two colourings, the parity report and
        a neighbour lookup, the graph carries one attribute besides its
        fields: the cache `graphs._cached` keeps, holding all six."""
        g = petersen()
        graph_properties(g)
        canonical_form(g)
        canonical_form(g, [range(5), range(5, 10)])
        pseudo_2fi(g)
        g.neighbors(0)
        fields = {"n", "edges", "labels"}
        (extra,) = set(vars(g)) - fields
        assert Counter(make for make, _ in vars(g)[extra]) == {
            graphs._masks: 1, graphs._neighbors: 1, canon._search_form: 2, cuts._cyclic_cut: 1,
            twofactors._frontier_histogram: 1}
        assert adjacency_masks(g) is adjacency_masks(g)


def _girth_oracle(g):
    h = _to_nx(g)
    value = nx.girth(h)
    return None if value == float("inf") else value


def _check_bipartition(g):
    """bipartition against networkx, plus the side rule: a proper 2-coloring
    with the least vertex of every component on side A."""
    h = _to_nx(g)
    sides = bipartition(g)
    assert (sides is not None) == nx.is_bipartite(h)
    if sides is None:
        return False
    assert sides.side_a | sides.side_b == frozenset(range(g.n))
    assert not sides.side_a & sides.side_b
    for u, v in g.edges:
        assert (u in sides.side_a) != (v in sides.side_a)
    for comp in nx.connected_components(h):
        assert min(comp) in sides.side_a
    return True


class TestGirth:
    def test_against_networkx_oracle(self):
        rng = random.Random(7)
        bipartite = 0
        for _ in range(80):
            g = _random_graph(rng, rng.randint(3, 14))
            assert girth(g) == _girth_oracle(g)
            # A genuine shortest cycle, then one of what is left without its
            # edges: the second source of the cut layer's edge route.
            adj = list(adjacency_masks(g))
            for _ in range(2):
                found = shortest_cycle(adj)
                edges = [(u, v) for u in range(g.n) for v in range(u) if adj[u] >> v & 1]
                if found is None:
                    assert _girth_oracle(build(g.n, edges)) is None
                    break
                assert len(set(found)) == len(found) == _girth_oracle(build(g.n, edges))
                for u, v in zip(found, found[1:] + found[:1]):
                    assert adj[u] >> v & 1
                    adj[u] &= ~(1 << v)
                    adj[v] &= ~(1 << u)
            bipartite += _check_bipartition(g)
            for root in range(g.n):
                dist = {}
                for d, layer in enumerate(bfs_layers(adjacency_masks(g), root)):
                    dist.update((v, d) for v in range(g.n) if layer >> v & 1)
                assert dist == nx.single_source_shortest_path_length(_to_nx(g), root)
        assert bipartite > 0

    def test_known_girths(self):
        assert girth(k33()) == 4
        assert girth(petersen()) == 5
        assert girth(heawood()) == 6
        assert girth(pappus()) == 6
        assert girth(build(9, [(i, (i + 1) % 9) for i in range(9)])) == 9
        assert girth(build(4, [(0, 1), (1, 2)])) is None


class TestGenerators:
    def test_lcf_heawood_definition(self):
        assert heawood() == parse_lcf("[5,-5]^7")
        assert heawood() == parse_lcf(" [ +5 , -5 ]^7 ")
        assert heawood() == lcf([5, -5], 7)

    def test_gp_examples(self):
        assert petersen() == gp(5, 2)
        assert moebius_kantor_graph() == gp(8, 3)
        assert is_cubic(gp(8, 3))

    def test_prism_is_cubic_girth3(self):
        assert is_cubic(prism())
        assert girth(prism()) == 3

    def test_named_graphs_match_networkx(self):
        pairs = [
            (heawood(), nx.heawood_graph()),
            (pappus(), nx.pappus_graph()),
            (petersen(), nx.petersen_graph()),
            (k33(), nx.complete_bipartite_graph(3, 3)),
        ]
        for mine, theirs in pairs:
            assert nx.is_isomorphic(_to_nx(mine), theirs)

    def test_lcf_rejects_bad_jumps(self):
        with pytest.raises(GraphError):
            lcf([1, 1, 1, 1], 1)  # jump 1 collides with rim edges
        with pytest.raises(GraphError):
            lcf([5, -5], 3)  # jump 5 out of range for n = 6
        with pytest.raises(GraphError, match="positive even vertex count, got 3"):
            lcf([4], 3)  # odd vertex count, checked before the jump range
        with pytest.raises(GraphError, match="chords collide"):
            lcf([2, 3], 3)  # jumps in range whose chords double up

    @pytest.mark.parametrize("text", ["[5,,-5]^7", "[5 5]^7", "[+]^3", "[-]^2", "[5,-5,]^7"])
    def test_parse_lcf_rejects_malformed_jump_lists(self, text):
        # A malformed jump list is a GraphError, never int()'s bare ValueError.
        with pytest.raises(GraphError, match="cannot parse LCF spec"):
            parse_lcf(text)

    def test_bipartition(self):
        sides = bipartition(k33())
        assert sides is not None
        assert {len(sides.side_a), len(sides.side_b)} == {3}
        assert bipartition(petersen()) is None
