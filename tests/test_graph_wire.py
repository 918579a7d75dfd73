"""Graph wire-format round-trip suite (``to_bytes``/``from_bytes``/
``__reduce__``).

Pins the serialization contracts the fan-out fabric relies on:
round-trip ``content_hash`` equality, weight preservation (including
``math.inf`` and weight-only-mutated graphs), label types beyond
``str``/``int``, blob size independent of warmed cache state, and clean
:class:`GraphError` failures on corrupt or truncated frames.
"""

import math
import pickle
import random

import pytest

from repro.graphs import (
    DiGraph,
    Graph,
    GraphError,
    graph_from_bytes,
    graph_to_bytes,
    random_graph,
)


class CustomLabel:
    """A vertex label the compact stream can't encode (pickle path)."""

    def __init__(self, tag):
        self.tag = tag

    def __hash__(self):
        return hash(self.tag)

    def __eq__(self, other):
        return isinstance(other, CustomLabel) and other.tag == self.tag

    def __lt__(self, other):
        return self.tag < other.tag

    def __repr__(self):
        # stable repr: content_hash folds label reprs in, so the
        # default address-bearing repr would never round-trip
        return f"CustomLabel({self.tag!r})"


class TaggedGraph(Graph):
    """Graph subclass with extra state (exercises the pickle slow path)."""

    def __init__(self):
        super().__init__()
        self.tag = "kept"


def _assert_roundtrip(g):
    clone = graph_from_bytes(g.to_bytes())
    assert type(clone) is type(g)
    assert clone.content_hash() == g.content_hash()
    assert sorted(map(repr, clone.vertices())) == \
        sorted(map(repr, g.vertices()))
    assert clone.edge_weights() == g.edge_weights()
    return clone


def test_roundtrip_undirected_random():
    g = random_graph(24, 0.3, random.Random(5))
    _assert_roundtrip(g)


def test_roundtrip_directed():
    g = DiGraph()
    for v in range(6):
        g.add_vertex(v)
    g.add_edge(0, 1)
    g.add_edge(1, 2, weight=2.5)
    g.add_edge(5, 0)
    _assert_roundtrip(g)


def test_roundtrip_empty_and_isolated():
    _assert_roundtrip(Graph())
    g = Graph()
    g.add_vertex("lonely")
    clone = _assert_roundtrip(g)
    assert list(clone.vertices()) == ["lonely"]


def test_pickle_uses_wire_format():
    g = random_graph(12, 0.4, random.Random(2))
    clone = pickle.loads(pickle.dumps(g))
    assert clone.content_hash() == g.content_hash()


def test_weights_preserved_including_inf():
    g = Graph()
    g.add_edge("a", "b", weight=math.inf)
    g.add_edge("b", "c", weight=0.0)
    g.add_edge("c", "a", weight=-7.25)
    g.add_vertex("d", weight=math.inf)
    g.set_vertex_weight("a", 3.5)
    clone = _assert_roundtrip(g)
    assert clone.edge_weight("a", "b") == math.inf
    assert clone.edge_weight("c", "a") == -7.25
    assert clone.vertex_weight("d") == math.inf
    assert clone.vertex_weight("a") == 3.5


def test_weight_only_mutated_graph_roundtrips():
    # a graph whose weights were rewritten after construction (the
    # apply_inputs pattern) must serialize its *current* weights
    g = Graph()
    g.add_edge(0, 1, weight=1.0)
    g.add_edge(1, 2, weight=1.0)
    g.content_hash()  # warm caches before the mutation
    g.set_edge_weight(0, 1, 42.0)
    clone = _assert_roundtrip(g)
    assert clone.edge_weight(0, 1) == 42.0


@pytest.mark.parametrize("labels", [
    [("alice", 3), ("bob", 4), ("alice", 5)],          # tuples
    [b"\x00raw", b"", b"bytes"],                        # bytes
    [None, True, False],                                # singletons
    [1.5, -0.0, 2.25],                                  # floats
    [(("nested",), 1), ((2,), (3, "x"))],               # nested tuples
    [1 << 80, -(1 << 90), 0],                           # bigint fallback
])
def test_label_types_beyond_str_int(labels):
    g = Graph()
    for v in labels:
        g.add_vertex(v)
    g.add_edge(labels[0], labels[1])
    clone = _assert_roundtrip(g)
    assert set(map(repr, clone.vertices())) == set(map(repr, labels))


def test_unencodable_labels_fall_back_to_pickle():
    g = Graph()
    a, b = CustomLabel("a"), CustomLabel("b")
    g.add_edge(a, b)
    clone = graph_from_bytes(g.to_bytes())
    assert clone.content_hash() == g.content_hash()
    assert {v.tag for v in clone.vertices()} == {"a", "b"}


def test_blob_independent_of_warmed_state():
    # caches must never be serialized: however warmed the graph is, the
    # frame is byte-identical
    g = random_graph(20, 0.3, random.Random(9))
    cold = g.to_bytes()
    g.content_hash()
    g.edges()
    g.edge_weights()
    g.bits()
    g.sorted_vertices()
    warmed = g.to_bytes()
    assert warmed == cold
    # and a round-tripped clone re-serializes to the same frame
    assert graph_from_bytes(cold).to_bytes() == cold


def test_reduce_preserves_subclass_state():
    g = TaggedGraph()
    g.add_edge(1, 2)
    clone = pickle.loads(pickle.dumps(g))
    assert isinstance(clone, TaggedGraph)
    assert clone.tag == "kept"
    assert clone.content_hash() == g.content_hash()


def test_bad_magic_raises_graph_error():
    with pytest.raises(GraphError):
        graph_from_bytes(b"NOTAGRAPHFRAME--------------")


def test_unsupported_version_raises_graph_error():
    blob = bytearray(random_graph(6, 0.5, random.Random(1)).to_bytes())
    blob[7] = 0xEE  # version byte follows the 7-byte magic
    with pytest.raises(GraphError):
        graph_from_bytes(bytes(blob))


def test_truncated_frame_raises_graph_error():
    blob = random_graph(10, 0.4, random.Random(3)).to_bytes()
    for cut in (0, 5, len(blob) // 2, len(blob) - 1):
        with pytest.raises(GraphError):
            graph_from_bytes(blob[:cut])


def test_corrupt_payload_raises_graph_error():
    blob = bytearray(random_graph(10, 0.4, random.Random(4)).to_bytes())
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(GraphError):
        graph_from_bytes(bytes(blob))


def test_wire_roundtrip_of_family_skeleton():
    # the exact broadcast path of the warm pool: warmed skeleton out,
    # rebuilt skeleton in, equal content hash
    from repro.core.hamiltonian import HamiltonianCycleFamily

    fam = HamiltonianCycleFamily(2)
    fam.skeleton()
    skel = fam._skeleton_store
    clone = graph_from_bytes(skel.to_bytes())
    assert clone.content_hash() == skel.content_hash()


# Frames pinned byte for byte: the encoder builds its row arrays from
# the adjacency itself, and these guard that the layout (insertion-order
# labels, sorted rows, explicit weights in dict order) never drifts.
GOLDEN_GRAPH_FRAME = (
    "5250524f4752460100060000000a000000000000000103000000010000006101"
    "000000660200000041313300000000000000010000000000070000000000000002"
    "030101000000010200000000000000000000000003010000007a04050000000000"
    "0004400002040608090a010300020103000205040300000001000000000000000000"
    "000000000c40030000000200000000000000000000000400000005000000000000"
    "000000f07f0200000000000000000000000000004002000000000000000000e03f"
    "d4c6719f")
GOLDEN_DIGRAPH_FRAME = (
    "5250524f475246010104000000040000000000000001030000000100000073010000"
    "007401000000752a00000000000000010000000002020101000000000100000000"
    "00000001020000000202010100000000020000000000000000020304040102020002"
    "000000000000000100000000000000000010400200000000000000000000000000f8"
    "3f02000000000000000000000000000000030000000000000000001c4093ca985a")


def _golden_graph():
    # str, int, tuple, bytes, None and float labels; explicit weights
    # including 0.0 and inf
    g = Graph()
    g.add_vertex("a", weight=2.0)
    g.add_edge("a", 7, weight=3.5)
    g.add_edge(7, ("f", "A1", 0))
    g.add_edge(("f", "A1", 0), b"z", weight=0.0)
    g.add_edge(b"z", "a")
    g.add_vertex(None)
    g.add_edge(None, 2.5, weight=math.inf)
    g.set_vertex_weight(("f", "A1", 0), 0.5)
    return g


def _golden_digraph():
    d = DiGraph()
    d.add_vertex("s", weight=0.0)
    d.add_edge("s", ("t", 1), weight=4.0)
    d.add_edge(("t", 1), "u")
    d.add_edge("u", "s", weight=1.5)
    d.add_edge("s", "u")
    d.add_vertex(("t", 2), weight=7.0)
    return d


@pytest.mark.parametrize("build, frame", [
    (_golden_graph, GOLDEN_GRAPH_FRAME),
    (_golden_digraph, GOLDEN_DIGRAPH_FRAME),
], ids=["graph", "digraph"])
def test_golden_frame(build, frame):
    g = build()
    assert graph_to_bytes(g).hex() == frame
    if not g.directed:
        g.bits()  # a warmed view changes nothing
        assert graph_to_bytes(g).hex() == frame
    clone = graph_from_bytes(bytes.fromhex(frame))
    assert clone.content_hash() == g.content_hash()
    assert graph_to_bytes(clone).hex() == frame
