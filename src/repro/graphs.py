"""Lightweight graph structures used throughout the reproduction.

The paper's constructions are described over vertices with rich symbolic
names (row vertices ``('a', 1, i)``, bit-gadget vertices ``('f', 'A1', h)``,
and so on).  We therefore use hashable labels as vertices and keep explicit
adjacency dictionaries, with optional vertex weights and edge weights.

Two classes are provided:

- :class:`Graph` — simple undirected graphs with optional weights.
- :class:`DiGraph` — simple directed graphs with optional weights.

Both intentionally stay small and dependency-free; conversion helpers to
``networkx`` exist for cross-checking in tests.
"""

from __future__ import annotations

import copyreg
import hashlib
import pickle
import struct
import sys
import zlib
from array import array
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, \
    Set, Tuple, Union

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class GraphError(Exception):
    """Raised on structurally invalid graph operations."""


#: Bounded memo for :func:`label_sort_key`.  Only *repr-faithful* labels
#: participate (see :func:`_repr_faithful`): shapes for which two equal
#: values necessarily have equal reprs, so the ``(type, value)`` key can
#: never serve a wrong repr.  Counter-examples kept out of the cache:
#: ``(True, 2) == (1, 2)`` are equal tuples with different reprs (so
#: ``bool`` elements disqualify a tuple), as are ``-0.0 == 0.0`` floats.
_SORT_KEY_CACHE: Dict[Any, Tuple[str, str]] = {}
_SORT_KEY_CACHE_MAX = 1 << 16


def _repr_faithful(v: Any) -> bool:
    tp = type(v)
    if tp is int or tp is str or tp is bytes:
        return True
    if tp is tuple:
        for x in v:
            if not _repr_faithful(x):
                return False
        return True
    return False


def label_sort_key(v: Vertex) -> Tuple[str, str]:
    """The canonical vertex ordering key: ``(type name, repr)``.

    Every place that needs a total order over arbitrary hashable labels
    (edge-weight keys, CONGEST uid assignment, content hashing) sorts by
    this key.  The type name prefix keeps labels of different types from
    colliding when their ``repr`` happens to coincide; within a type the
    order is *repr order*, which for integers is lexicographic
    (``repr(10) < repr(2)``), not numeric.

    Keys for the common label shapes (ints, strings, tuples thereof) are
    memoized — constructions rebuild graphs over the same label
    vocabulary thousands of times, and ``repr`` of nested tuples is a
    measurable cost in the family-validation hot path.
    """
    tp = type(v)
    if tp is tuple:
        # depth-1 elements are checked inline; only nested tuples recurse
        for x in v:
            tx = type(x)
            if tx is int or tx is str or tx is bytes:
                continue
            if tx is tuple and _repr_faithful(x):
                continue
            return (tp.__name__, repr(v))
    elif not (tp is int or tp is str):
        return (tp.__name__, repr(v))
    key = (tp, v)
    sk = _SORT_KEY_CACHE.get(key)
    if sk is None:
        if len(_SORT_KEY_CACHE) >= _SORT_KEY_CACHE_MAX:
            _SORT_KEY_CACHE.clear()
        sk = _SORT_KEY_CACHE[key] = (tp.__name__, repr(v))
    return sk


def _sort_key_maps(graph) -> Tuple[Dict[Any, Tuple[str, str]],
                                   Dict[Any, int]]:
    """Cached ``({vertex: label_sort_key}, {vertex: canonical position})``
    for ``graph`` — vertex-set-derived (kept in ``_vcache``), so it
    survives edge mutations and rides along in ``copy()``."""
    vcache = graph._vcache
    maps = vcache.get("sort_keys")
    if maps is None:
        verts = vcache.get("sorted_vertices")
        if verts is None:
            verts = tuple(sorted(graph.vertices(), key=label_sort_key))
            vcache["sorted_vertices"] = verts
        keys = {v: label_sort_key(v) for v in verts}
        pos = {v: i for i, v in enumerate(verts)}
        maps = vcache["sort_keys"] = (keys, pos)
    return maps


class BitGraph:
    """Immutable bitmask snapshot of an undirected graph's structure,
    obtained via :meth:`Graph.bits`.

    Vertices are indexed ``0..n-1`` in the graph's (deterministic)
    insertion order: ``vertices[i]`` is the label of index ``i`` and
    ``index`` the inverse map.  ``adj[i]`` is the neighbour mask of
    ``i`` (bit ``j`` iff edge ``{i, j}``).  It holds no weights, which a
    weight-only delta may change under it.  Every solver on one graph
    reads the same object, so nothing writes to it: ``adj`` is a tuple,
    and a solver that rewrites masks (the α search folds vertices) works
    on its own copy.
    """

    __slots__ = ("vertices", "index", "n", "adj", "full_mask", "_balls")

    def __init__(self, adj: Dict[Vertex, Set[Vertex]]) -> None:
        self.vertices: Tuple[Vertex, ...] = tuple(adj)
        self.index: Dict[Vertex, int] = {
            v: i for i, v in enumerate(self.vertices)}
        self.n = len(self.vertices)
        index = self.index
        masks = []
        for v in self.vertices:
            m = 0
            for w in adj[v]:
                m |= 1 << index[w]
            masks.append(m)
        self.adj: Tuple[int, ...] = tuple(masks)
        self.full_mask = (1 << self.n) - 1
        self._balls: Dict[int, Tuple[int, ...]] = {}

    def closed(self, i: int) -> int:
        """Closed neighbourhood of vertex index ``i`` as a mask."""
        return self.adj[i] | (1 << i)

    def mask_of(self, vs: Iterable[Vertex]) -> int:
        mask = 0
        for v in vs:
            mask |= 1 << self.index[v]
        return mask

    def unmask(self, mask: int) -> List[Vertex]:
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self.vertices[i])
            mask >>= 1
            i += 1
        return out

    def ball_masks(self, k: int) -> Tuple[int, ...]:
        """Distance-``k`` closed balls of every vertex, as bitmasks.

        Bit ``j`` of mask ``i`` iff ``dist(i, j) <= k``.  Computed by a
        bitmask BFS truncated at depth ``k`` — frontiers are expanded by
        OR-ing neighbour masks, so no per-vertex distance arrays are
        built and the sweep stops as soon as the ball saturates.  Cached
        per ``k``.
        """
        balls = self._balls.get(k)
        if balls is not None:
            return balls
        masks = self.adj
        out = []
        for i in range(self.n):
            ball = frontier = 1 << i
            for __ in range(k):
                new = 0
                m = frontier
                while m:
                    low = m & -m
                    new |= masks[low.bit_length() - 1]
                    m ^= low
                frontier = new & ~ball
                if not frontier:
                    break
                ball |= frontier
            out.append(ball)
        balls = self._balls[k] = tuple(out)
        return balls


# ----------------------------------------------------------------------
# compact binary wire format
# ----------------------------------------------------------------------
#
# Frame layout (version 1, all integers little-endian):
#
#   magic        7 bytes   b"RPROGRF"
#   version      u8        1
#   flags        u8        bit0 = directed, bit1 = label table pickled
#   n            u32       vertex count
#   nnz          u64       len(indices)
#   width        u8        bytes per row-array entry (1, 2, or 8): the
#                          narrowest unsigned width holding every
#                          indptr/indices value
#   intern table           (absent when bit1 set)
#       count    u32
#       entry*   u32 byte length + UTF-8 bytes, id = entry position
#   label blob   u64 length + tagged label stream (or a pickle of the
#                label tuple when bit1 is set — exotic label types)
#   indptr       (n+1) * width raw: row i is indices[indptr[i]:indptr[i+1]]
#   indices      nnz * width raw: neighbour (successor) indices, rows
#                in vertex insertion order, each row sorted
#   edge weights u32 count + (u32 ui, u32 vi, f64)* — the explicit
#                ``_edge_weight`` entries only, in dict order, endpoint
#                indices preserving the canonical key orientation
#   vert weights u32 count + (u32 vi, f64)*
#   crc32        u32       over every preceding byte of the frame
#
# The label stream reuses the string-interning trick from the ``.rtb``
# trace format (:mod:`repro.obs.binary`): each distinct string is
# written once in the intern table and referenced by id.  Only the
# *explicit* weight dicts are serialized — never the derived caches —
# so the frame size is independent of how warmed the source graph was.

_WIRE_MAGIC = b"RPROGRF"
_WIRE_VERSION = 1
_FLAG_DIRECTED = 0x01
_FLAG_LABELS_PICKLED = 0x02

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_EDGE_W = struct.Struct("<IId")
_VERT_W = struct.Struct("<Id")

#: label stream tags
(_L_INT, _L_STR, _L_TUPLE, _L_BYTES, _L_NONE, _L_FLOAT,
 _L_FALSE, _L_TRUE) = range(8)

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


class _WireFallback(Exception):
    """Internal: a label shape the compact stream cannot encode."""


def _encode_label(v: Any, out: bytearray, intern: Dict[str, int]) -> None:
    tp = type(v)
    if tp is int:
        # exact type check: bool is an int subclass but must round-trip
        # as bool, and arbitrary-precision ints overflow the i64 slot
        if _I64_MIN <= v <= _I64_MAX:
            out += _U8.pack(_L_INT)
            out += _I64.pack(v)
        else:
            raise _WireFallback
    elif tp is str:
        sid = intern.get(v)
        if sid is None:
            sid = intern[v] = len(intern)
        out += _U8.pack(_L_STR)
        out += _U32.pack(sid)
    elif tp is tuple:
        if len(v) > 0xFF:
            raise _WireFallback
        out += _U8.pack(_L_TUPLE)
        out += _U8.pack(len(v))
        for x in v:
            _encode_label(x, out, intern)
    elif tp is bytes:
        out += _U8.pack(_L_BYTES)
        out += _U32.pack(len(v))
        out += v
    elif v is None:
        out += _U8.pack(_L_NONE)
    elif tp is float:
        out += _U8.pack(_L_FLOAT)
        out += _F64.pack(v)
    elif tp is bool:
        out += _U8.pack(_L_TRUE if v else _L_FALSE)
    else:
        raise _WireFallback


def _decode_label(buf: bytes, pos: int,
                  strings: List[str]) -> Tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _L_INT:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _L_STR:
        return strings[_U32.unpack_from(buf, pos)[0]], pos + 4
    if tag == _L_TUPLE:
        arity = buf[pos]
        pos += 1
        items = []
        for __ in range(arity):
            x, pos = _decode_label(buf, pos, strings)
            items.append(x)
        return tuple(items), pos
    if tag == _L_BYTES:
        k = _U32.unpack_from(buf, pos)[0]
        pos += 4
        if pos + k > len(buf):
            raise GraphError("graph wire: truncated bytes label")
        return buf[pos:pos + k], pos + k
    if tag == _L_NONE:
        return None, pos
    if tag == _L_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _L_FALSE:
        return False, pos
    if tag == _L_TRUE:
        return True, pos
    raise GraphError(f"graph wire: unknown label tag {tag}")


def _array_le_bytes(arr: array) -> bytes:
    if sys.byteorder == "little":
        return arr.tobytes()
    swapped = array(arr.typecode, arr)  # pragma: no cover - big endian
    swapped.byteswap()
    return swapped.tobytes()


def _index_width(maxval: int) -> int:
    if maxval < 0x100:
        return 1
    if maxval < 0x10000:
        return 2
    return 8


def _pack_index_array(arr: array, width: int) -> bytes:
    if width == 8:
        return _array_le_bytes(arr)
    narrow = array("B" if width == 1 else "H", arr)
    if width == 2:
        return _array_le_bytes(narrow)
    return narrow.tobytes()


def _unpack_index_array(buf: bytes, pos: int, count: int,
                        width: int) -> Tuple[array, int]:
    span = count * width
    chunk = buf[pos:pos + span]
    if len(chunk) != span:
        raise GraphError("graph wire: truncated row arrays")
    if width == 8:
        out = array("q")
        out.frombytes(chunk)
        if sys.byteorder != "little":  # pragma: no cover - big endian
            out.byteswap()
    else:
        narrow = array("B" if width == 1 else "H")
        narrow.frombytes(chunk)
        if width == 2 and sys.byteorder != "little":  # pragma: no cover
            narrow.byteswap()
        out = array("q", narrow)
    return out, pos + span


def graph_to_bytes(graph: Union["Graph", "DiGraph"]) -> bytes:
    """Serialize ``graph`` to the versioned compact wire format.

    The row arrays are built here from the adjacency (successors, for
    a digraph): vertices in insertion order, each row sorted.  Only the
    graph's content goes in, never a cache, so the blob is
    byte-identical however warmed the source graph is.
    """
    adj = graph._succ if graph.directed else graph._adj
    labels = tuple(adj)
    index = {v: i for i, v in enumerate(labels)}
    indptr = array("q", [0])
    indices = array("q")
    for v in labels:
        indices.extend(sorted(index[w] for w in adj[v]))
        indptr.append(len(indices))
    n = len(labels)
    flags = _FLAG_DIRECTED if graph.directed else 0
    intern: Dict[str, int] = {}
    lbuf = bytearray()
    try:
        for v in labels:
            _encode_label(v, lbuf, intern)
    except _WireFallback:
        lbuf = bytearray(pickle.dumps(labels,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        flags |= _FLAG_LABELS_PICKLED
        intern = {}
    nnz = len(indices)
    width = _index_width(max(nnz, n - 1 if n else 0))
    out = bytearray(_WIRE_MAGIC)
    out += _U8.pack(_WIRE_VERSION)
    out += _U8.pack(flags)
    out += _U32.pack(n)
    out += _U64.pack(nnz)
    out += _U8.pack(width)
    if not flags & _FLAG_LABELS_PICKLED:
        out += _U32.pack(len(intern))
        for s in intern:  # insertion order == intern id order
            sb = s.encode("utf-8")
            out += _U32.pack(len(sb))
            out += sb
    out += _U64.pack(len(lbuf))
    out += lbuf
    out += _pack_index_array(indptr, width)
    out += _pack_index_array(indices, width)
    ew = graph._edge_weight
    out += _U32.pack(len(ew))
    for (u, v), w in ew.items():
        out += _EDGE_W.pack(index[u], index[v], w)
    vw = graph._vertex_weight
    out += _U32.pack(len(vw))
    for v, w in vw.items():
        out += _VERT_W.pack(index[v], w)
    out += _U32.pack(zlib.crc32(out) & 0xFFFFFFFF)
    return bytes(out)


def graph_from_bytes(data: bytes) -> Union["Graph", "DiGraph"]:
    """Decode a :func:`graph_to_bytes` frame into a fresh graph.

    Returns a :class:`Graph` or :class:`DiGraph` according to the frame's
    directedness flag; its derived caches start empty.  Any corrupt,
    truncated, or foreign input raises a clean :class:`GraphError` —
    never an arbitrary decoding exception.
    """
    buf = bytes(data)
    if len(buf) < len(_WIRE_MAGIC) + 2 + 4 + 8 + 1 + 4:
        raise GraphError("graph wire: truncated frame")
    if buf[:len(_WIRE_MAGIC)] != _WIRE_MAGIC:
        raise GraphError("graph wire: bad magic")
    if buf[len(_WIRE_MAGIC)] != _WIRE_VERSION:
        raise GraphError(
            f"graph wire: unsupported version {buf[len(_WIRE_MAGIC)]}")
    stored = _U32.unpack_from(buf, len(buf) - 4)[0]
    if zlib.crc32(memoryview(buf)[:-4]) & 0xFFFFFFFF != stored:
        raise GraphError("graph wire: checksum mismatch (corrupt frame)")
    try:
        return _decode_frame(buf)
    except GraphError:
        raise
    except Exception as exc:
        raise GraphError(f"graph wire: malformed frame ({exc!r})") from exc


def _decode_frame(buf: bytes) -> Union["Graph", "DiGraph"]:
    pos = len(_WIRE_MAGIC) + 1
    flags = buf[pos]
    pos += 1
    n = _U32.unpack_from(buf, pos)[0]
    pos += 4
    nnz = _U64.unpack_from(buf, pos)[0]
    pos += 8
    width = buf[pos]
    pos += 1
    if width not in (1, 2, 8):
        raise GraphError(f"graph wire: bad index width {width}")
    strings: List[str] = []
    if not flags & _FLAG_LABELS_PICKLED:
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        for __ in range(count):
            k = _U32.unpack_from(buf, pos)[0]
            pos += 4
            strings.append(buf[pos:pos + k].decode("utf-8"))
            pos += k
    lblob_len = _U64.unpack_from(buf, pos)[0]
    pos += 8
    lblob = buf[pos:pos + lblob_len]
    pos += lblob_len
    if len(lblob) != lblob_len:
        raise GraphError("graph wire: truncated label table")
    if flags & _FLAG_LABELS_PICKLED:
        labels = tuple(pickle.loads(lblob))
    else:
        decoded = []
        lpos = 0
        while lpos < lblob_len:
            v, lpos = _decode_label(lblob, lpos, strings)
            decoded.append(v)
        labels = tuple(decoded)
    if len(labels) != n:
        raise GraphError(
            f"graph wire: label table has {len(labels)} entries for n={n}")
    indptr, pos = _unpack_index_array(buf, pos, n + 1, width)
    indices, pos = _unpack_index_array(buf, pos, nnz, width)
    if len(indptr) != n + 1 or len(indices) != nnz \
            or indptr[0] != 0 or indptr[-1] != nnz:
        raise GraphError("graph wire: inconsistent row arrays")
    index = {v: i for i, v in enumerate(labels)}
    if len(index) != n:
        raise GraphError("graph wire: duplicate labels")
    ew_count = _U32.unpack_from(buf, pos)[0]
    pos += 4
    edge_w = []
    for __ in range(ew_count):
        edge_w.append(_EDGE_W.unpack_from(buf, pos))
        pos += _EDGE_W.size
    vw_count = _U32.unpack_from(buf, pos)[0]
    pos += 4
    vert_w = []
    for __ in range(vw_count):
        vert_w.append(_VERT_W.unpack_from(buf, pos))
        pos += _VERT_W.size
    if pos != len(buf) - 4:
        raise GraphError("graph wire: trailing bytes in frame")
    g: Union[Graph, DiGraph]
    if flags & _FLAG_DIRECTED:
        g = DiGraph()
        pred: Dict[Vertex, Set[Vertex]] = {v: set() for v in labels}
        succ: Dict[Vertex, Set[Vertex]] = {}
        for i, u in enumerate(labels):
            row = indices[indptr[i]:indptr[i + 1]]
            out_set = set()
            for j in row:
                w = labels[j]
                out_set.add(w)
                pred[w].add(u)
            succ[u] = out_set
        g._succ = succ
        g._pred = pred
    else:
        g = Graph()
        g._adj = {u: {labels[j] for j in indices[indptr[i]:indptr[i + 1]]}
                  for i, u in enumerate(labels)}
    # indices preserve the canonical key orientation, so the decoded
    # dicts reproduce the originals exactly (keys and insertion order)
    g._edge_weight = {(labels[ui], labels[vi]): w for ui, vi, w in edge_w}
    g._vertex_weight = {labels[vi]: w for vi, w in vert_w}
    return g


class Graph:
    """A simple undirected graph with optional vertex and edge weights.

    Vertices are arbitrary hashable labels.  Parallel edges and self loops
    are rejected: none of the paper's constructions use them, and rejecting
    them catches construction bugs early.
    """

    directed = False

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._edge_weight: Dict[Edge, float] = {}
        self._vertex_weight: Dict[Vertex, float] = {}
        #: derived-data cache (bitmask view, edge list, edge weights,
        #: content hash); structural mutations clear all of it,
        #: weight-only mutations clear just the entries that depend on
        #: weights (see the _dirty* methods)
        self._cache: Dict[str, Any] = {}
        #: caches that depend only on the vertex *set* (canonical order
        #: ``sorted_vertices``, per-label ``sort_keys``): only adding or
        #: removing a vertex clears them, so edge deltas never touch them
        self._vcache: Dict[str, Any] = {}

    def _dirty(self) -> None:
        """Invalidate every derived cache; called when the vertex set
        changes."""
        self._cache.clear()
        self._vcache.clear()

    def _dirty_edges_only(self) -> None:
        """Invalidate for an edge insert/removal between *existing*
        vertices: everything adjacency-derived dies, but ``_vcache``
        (canonical order, per-label sort keys) stays valid — it depends
        only on which vertices exist.  This is the delta-build hot path:
        ``apply_inputs`` toggles a handful of edges on a skeleton copy,
        and after the first insert the cache is empty, so the rest cost
        no cache work."""
        self._cache.clear()

    def _dirty_vertex_weights(self) -> None:
        """Invalidate only vertex-weight-dependent caches.  Adjacency,
        edge lists and the bitmask view are untouched by a vertex weight
        change; only the content hash covers it."""
        self._cache.pop("content_hash", None)

    def _dirty_edge_weights(self) -> None:
        """Invalidate only edge-weight-dependent caches (the edge *list*
        and everything adjacency-derived stay valid)."""
        self._cache.pop("content_hash", None)
        self._cache.pop("edge_weights", None)

    def bits(self) -> BitGraph:
        """The cached :class:`BitGraph` view of the current structure.

        Built once per structure and shared by :meth:`copy`; a weight-only
        mutation keeps it, a structural one drops it, and the next call
        builds a new one (a view obtained earlier still describes the
        graph as it was).
        """
        view = self._cache.get("bits")
        if view is None:
            view = self._cache["bits"] = BitGraph(self._adj)
        return view

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex, weight: Optional[float] = None) -> None:
        """Add ``v`` (idempotent); optionally (re)set its weight."""
        if v not in self._adj:
            self._adj[v] = set()
            self._dirty()
        if weight is not None and self._vertex_weight.get(v) != weight:
            self._vertex_weight[v] = weight
            self._dirty_vertex_weights()

    def add_vertices(self, vs: Iterable[Vertex], weight: Optional[float] = None) -> None:
        for v in vs:
            self.add_vertex(v, weight=weight)

    def add_edge(self, u: Vertex, v: Vertex, weight: Optional[float] = None) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed."""
        if u == v:
            raise GraphError(f"self loop on {u!r} rejected")
        adj = self._adj
        if u in adj and v in adj:
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                self._dirty_edges_only()
        else:
            self.add_vertex(u)
            self.add_vertex(v)
            adj[u].add(v)
            adj[v].add(u)
        if weight is not None:
            key = self._key(u, v)
            if self._edge_weight.get(key) != weight:
                self._edge_weight[key] = weight
                self._dirty_edge_weights()

    def add_clique(self, vs: Iterable[Vertex], weight: Optional[float] = None) -> None:
        vs = list(vs)
        for i, u in enumerate(vs):
            self.add_vertex(u)
            for v in vs[i + 1:]:
                self.add_edge(u, v, weight=weight)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_weight.pop(self._key(u, v), None)
        self._dirty_edges_only()

    def remove_vertex(self, v: Vertex) -> None:
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not present")
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        self._vertex_weight.pop(v, None)
        self._dirty()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def _key(u: Vertex, v: Vertex) -> Edge:
        ku, kv = label_sort_key(u), label_sort_key(v)
        if ku == kv and u != v:
            # Two distinct labels with identical type and repr would
            # silently share one edge-weight key; refuse early.
            raise GraphError(
                f"label collision: distinct vertices {u!r} and {v!r} have "
                f"identical sort key {ku}")
        return (u, v) if ku <= kv else (v, u)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> List[Vertex]:
        return list(self._adj)

    def sorted_vertices(self) -> Tuple[Vertex, ...]:
        """Vertices in canonical :func:`label_sort_key` order (cached)."""
        verts = self._vcache.get("sorted_vertices")
        if verts is None:
            verts = tuple(sorted(self._adj, key=label_sort_key))
            self._vcache["sorted_vertices"] = verts
        return verts

    def edges(self) -> List[Edge]:
        # neighbour sets iterate in hash order, which for str/tuple labels
        # varies with PYTHONHASHSEED; sort so the edge list (and every
        # construction built by iterating it) is process-independent.
        # The computed list is cached until the next mutation; callers
        # get a fresh shallow copy so they may mutate their list freely.
        cached = self._cache.get("edges")
        if cached is None:
            # one sort key per vertex instead of one per adjacency entry
            sk = {v: label_sort_key(v) for v in self._adj}
            get = sk.__getitem__
            seen = set()
            cached = []
            for u, nbrs in self._adj.items():
                ku = sk[u]
                for v in sorted(nbrs, key=get):
                    kv = sk[v]
                    if ku == kv:
                        # same guard as _key: distinct labels with one
                        # sort key would share an edge-weight slot
                        raise GraphError(
                            f"label collision: distinct vertices {u!r} "
                            f"and {v!r} have identical sort key {ku}")
                    key = (u, v) if ku < kv else (v, u)
                    if key not in seen:
                        seen.add(key)
                        cached.append(key)
            self._cache["edges"] = cached
        return list(cached)

    def edge_weights(self) -> Dict[Edge, float]:
        """``{canonical edge key: weight}`` for every edge, in
        :meth:`edges` order (cached; callers get a fresh shallow copy).
        One dict lookup per edge replaces the per-call label sorting of
        repeated :meth:`edge_weight` queries."""
        ew = self._cache.get("edge_weights")
        if ew is None:
            weights = self._edge_weight
            ew = {key: weights.get(key, 1.0) for key in self.edges()}
            self._cache["edge_weights"] = ew
        return dict(ew)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        return set(self._adj[v])

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def closed_neighborhood(self, v: Vertex) -> Set[Vertex]:
        return self._adj[v] | {v}

    def edge_weight(self, u: Vertex, v: Vertex, default: float = 1.0) -> float:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not present")
        return self._edge_weight.get(self._key(u, v), default)

    def vertex_weight(self, v: Vertex, default: float = 1.0) -> float:
        if v not in self._adj:
            raise GraphError(f"vertex {v!r} not present")
        return self._vertex_weight.get(v, default)

    def set_vertex_weight(self, v: Vertex, weight: float) -> None:
        self.add_vertex(v, weight=weight)

    def set_edge_weight(self, u: Vertex, v: Vertex, weight: float) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not present")
        key = self._key(u, v)
        if self._edge_weight.get(key) != weight:
            self._edge_weight[key] = weight
            self._dirty_edge_weights()

    def total_edge_weight(self) -> float:
        return sum(self.edge_weight(u, v) for u, v in self.edges())

    def content_hash(self) -> str:
        """Canonical SHA-256 of the graph's full content.

        Covers directedness, every vertex with its effective weight, and
        every edge with its effective weight, all in :func:`label_sort_key`
        order — so two graphs built in different insertion orders hash
        identically iff they are the same weighted graph.  It keys the
        sweep store's family key, the batch kernels' skeleton state, and
        the delta ≡ scratch graph-identity checks.

        The digest is memoized and invalidated on mutation, so repeated
        reads of an unchanged graph hash it once.
        """
        digest = self._cache.get("content_hash")
        if digest is None:
            digest = self._cache["content_hash"] = _content_hash(self)
        return digest

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Versioned compact binary frame of this graph's full content
        (see :func:`graph_to_bytes`); decode with :meth:`from_bytes`."""
        return graph_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Graph":
        """Decode a :meth:`to_bytes` frame; raises :class:`GraphError`
        on corrupt input or a frame that encodes a digraph."""
        g = graph_from_bytes(data)
        if g.directed:
            raise GraphError("graph wire: frame encodes a DiGraph, "
                             "not a Graph")
        return g

    def __reduce__(self):
        # every pickle site (fork payloads, sweep shards) rides the
        # compact wire format; subclasses fall back to the generic
        # reconstructor since their extra state is unknown here
        if type(self) is Graph:
            return (graph_from_bytes, (graph_to_bytes(self),))
        return (copyreg._reconstructor, (type(self), object, None),
                self.__dict__)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        # direct structural copy (no per-edge mutation API round trips);
        # vertex insertion order — the deterministic iteration order —
        # is preserved by the dict comprehension
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._vertex_weight = dict(self._vertex_weight)
        g._edge_weight = dict(self._edge_weight)
        # Identical content means identical derived values, so the copy
        # shares every cache entry: each is read-only (edges() and
        # edge_weights() hand out copies; the bitmask view is immutable)
        g._cache = dict(self._cache)
        g._vcache = dict(self._vcache)
        return g

    def induced_subgraph(self, vs: Iterable[Vertex]) -> "Graph":
        keep = set(vs)
        for v in keep:
            if v not in self._adj:
                raise GraphError(f"vertex {v!r} not present")
        g = Graph()
        # insert in the parent's (deterministic) vertex order, not in
        # hash order of `keep`, so the subgraph is process-independent
        for v in self.vertices():
            if v in keep:
                g.add_vertex(v, weight=self._vertex_weight.get(v))
        for u, v in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v, weight=self._edge_weight.get(self._key(u, v)))
        return g

    def bfs_distances(self, source: Vertex) -> Dict[Vertex, int]:
        """Unweighted hop distances from ``source`` (unreachable omitted),
        keyed in vertex insertion order.  A level-by-level BFS over the
        neighbour masks of :meth:`bits`."""
        bg = self.bits()
        adj = bg.adj
        row = [-1] * bg.n
        seen = frontier = 1 << bg.index[source]
        d = 0
        while frontier:
            new = 0
            m = frontier
            while m:
                low = m & -m
                j = low.bit_length() - 1
                row[j] = d
                new |= adj[j]
                m ^= low
            frontier = new & ~seen
            seen |= frontier
            d += 1
        verts = bg.vertices
        return {verts[j]: d for j, d in enumerate(row) if d >= 0}

    def connected_components(self) -> List[Set[Vertex]]:
        remaining = set(self._adj)
        comps = []
        while remaining:
            src = next(iter(remaining))
            comp = set(self.bfs_distances(src))
            comps.append(comp)
            remaining -= comp
        return comps

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self.bfs_distances(next(iter(self._adj)))) == self.n

    def diameter(self) -> int:
        """Hop diameter; raises on disconnected graphs.

        All sources at once by bitmask ball growth: ``balls[i]`` starts
        as the closed neighbourhood of ``i`` (its radius-1 ball), and
        each pass ORs the balls of ``i``'s neighbours into it, which
        grows every radius by one.  The diameter is the radius at which
        every ball is the whole vertex set.

        Disconnection is detected first, by one BFS from the first
        vertex, so a disconnected graph fails after one sweep and no
        ball is grown.
        """
        if not self.is_connected():
            raise GraphError("diameter of a disconnected graph")
        bg = self.bits()
        n = bg.n
        if n <= 1:
            return 0
        nbr_lists = []
        for m in bg.adj:
            row = []
            while m:
                low = m & -m
                row.append(low.bit_length() - 1)
                m ^= low
            nbr_lists.append(row)
        full = bg.full_mask
        balls = [bg.closed(i) for i in range(n)]
        d = 1
        while not all(b == full for b in balls):
            prev = balls
            balls = []
            for i, nbrs in enumerate(nbr_lists):
                b = prev[i]
                if b != full:
                    for j in nbrs:
                        b |= prev[j]
                balls.append(b)
            d += 1
        return d

    def relabel(self, mapping: Dict[Vertex, Vertex]) -> "Graph":
        """Return a copy with vertices renamed through ``mapping``.

        Vertices absent from ``mapping`` keep their labels.  The mapping
        must be injective on the vertex set.
        """
        full = {v: mapping.get(v, v) for v in self._adj}
        if len(set(full.values())) != len(full):
            raise GraphError("relabel mapping is not injective")
        g = Graph()
        for v in self._adj:
            g.add_vertex(full[v], weight=self._vertex_weight.get(v))
        for u, v in self.edges():
            g.add_edge(full[u], full[v],
                       weight=self._edge_weight.get(self._key(u, v)))
        return g

    def to_networkx(self):
        import networkx as nx

        g = nx.Graph()
        for v in self._adj:
            g.add_node(v, weight=self.vertex_weight(v))
        for u, v in self.edges():
            g.add_edge(u, v, weight=self.edge_weight(u, v))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


class DiGraph:
    """A simple directed graph with optional vertex and edge weights."""

    directed = True

    def __init__(self) -> None:
        self._succ: Dict[Vertex, Set[Vertex]] = {}
        self._pred: Dict[Vertex, Set[Vertex]] = {}
        self._edge_weight: Dict[Edge, float] = {}
        self._vertex_weight: Dict[Vertex, float] = {}
        # the same two cache tiers as Graph's _cache and _vcache
        self._cache: Dict[str, Any] = {}
        self._vcache: Dict[str, Any] = {}

    def _dirty(self) -> None:
        self._cache.clear()
        self._vcache.clear()

    def _dirty_edges_only(self) -> None:
        # same contract as Graph._dirty_edges_only: arc flips between
        # existing vertices keep the vertex-set caches alive
        self._cache.clear()

    def _dirty_vertex_weights(self) -> None:
        # Same invalidation classes as Graph: vertex-weight changes only
        # affect the content hash, not any adjacency-derived cache.
        self._cache.pop("content_hash", None)

    def _dirty_edge_weights(self) -> None:
        self._cache.pop("content_hash", None)
        self._cache.pop("edge_weights", None)

    def add_vertex(self, v: Vertex, weight: Optional[float] = None) -> None:
        if v not in self._succ:
            self._succ[v] = set()
            self._pred[v] = set()
            self._dirty()
        if weight is not None and self._vertex_weight.get(v) != weight:
            self._vertex_weight[v] = weight
            self._dirty_vertex_weights()

    def add_vertices(self, vs: Iterable[Vertex], weight: Optional[float] = None) -> None:
        for v in vs:
            self.add_vertex(v, weight=weight)

    def add_edge(self, u: Vertex, v: Vertex, weight: Optional[float] = None) -> None:
        if u == v:
            raise GraphError(f"self loop on {u!r} rejected")
        succ = self._succ
        if u in succ and v in succ:
            if v not in succ[u]:
                succ[u].add(v)
                self._pred[v].add(u)
                self._dirty_edges_only()
        else:
            self.add_vertex(u)
            self.add_vertex(v)
            succ[u].add(v)
            self._pred[v].add(u)
        if weight is not None and self._edge_weight.get((u, v)) != weight:
            self._edge_weight[(u, v)] = weight
            self._dirty_edge_weights()

    def add_edges(self, edges: Iterable[Edge], weight: Optional[float] = None) -> None:
        """Add every arc of ``edges`` as :meth:`add_edge` would, in order,
        but invalidate the caches once for the whole call: the vertex-set
        tier if a vertex was created, the adjacency tier if an arc was,
        else the edge-weight entries if a weight changed.  An arc that
        raises (a self loop) leaves the arcs before it added and the
        caches invalidated for them."""
        succ, pred = self._succ, self._pred
        eweights = self._edge_weight
        new_vertex = new_arc = new_weight = False
        try:
            for u, v in edges:
                if u == v:
                    raise GraphError(f"self loop on {u!r} rejected")
                if u not in succ or v not in succ:
                    for w in (u, v):
                        if w not in succ:
                            succ[w] = set()
                            pred[w] = set()
                    new_vertex = True
                out = succ[u]
                if v not in out:
                    out.add(v)
                    pred[v].add(u)
                    new_arc = True
                if weight is not None and eweights.get((u, v)) != weight:
                    eweights[(u, v)] = weight
                    new_weight = True
        finally:
            if new_vertex:
                self._dirty()
            elif new_arc:
                self._dirty_edges_only()
            elif new_weight:
                self._dirty_edge_weights()

    def __contains__(self, v: Vertex) -> bool:
        return v in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def n(self) -> int:
        return len(self._succ)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def vertices(self) -> List[Vertex]:
        return list(self._succ)

    def edges(self) -> Iterator[Edge]:
        # sorted for the same process-independence as Graph.edges()
        for u, succ in self._succ.items():
            for v in sorted(succ, key=label_sort_key):
                yield (u, v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._succ and v in self._succ[u]

    def successors(self, v: Vertex) -> Set[Vertex]:
        return set(self._succ[v])

    def predecessors(self, v: Vertex) -> Set[Vertex]:
        return set(self._pred[v])

    def out_degree(self, v: Vertex) -> int:
        return len(self._succ[v])

    def in_degree(self, v: Vertex) -> int:
        return len(self._pred[v])

    def edge_weight(self, u: Vertex, v: Vertex, default: float = 1.0) -> float:
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not present")
        return self._edge_weight.get((u, v), default)

    def edge_weights(self) -> Dict[Edge, float]:
        """``{(u, v): weight}`` for every arc, in :meth:`edges` order
        (cached; callers get a fresh shallow copy)."""
        ew = self._cache.get("edge_weights")
        if ew is None:
            weights = self._edge_weight
            ew = {arc: weights.get(arc, 1.0) for arc in self.edges()}
            self._cache["edge_weights"] = ew
        return dict(ew)

    def vertex_weight(self, v: Vertex, default: float = 1.0) -> float:
        if v not in self._succ:
            raise GraphError(f"vertex {v!r} not present")
        return self._vertex_weight.get(v, default)

    def content_hash(self) -> str:
        """Canonical SHA-256 of the digraph's content (see
        :meth:`Graph.content_hash`; arc direction is part of the key).
        Memoized until the next mutation."""
        digest = self._cache.get("content_hash")
        if digest is None:
            digest = self._cache["content_hash"] = _content_hash(self)
        return digest

    def to_bytes(self) -> bytes:
        """Versioned compact binary frame (see :func:`graph_to_bytes`);
        decode with :meth:`from_bytes`."""
        return graph_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DiGraph":
        """Decode a :meth:`to_bytes` frame; raises :class:`GraphError`
        on corrupt input or a frame that encodes an undirected graph."""
        g = graph_from_bytes(data)
        if not g.directed:
            raise GraphError("graph wire: frame encodes a Graph, "
                             "not a DiGraph")
        return g

    def __reduce__(self):
        if type(self) is DiGraph:
            return (graph_from_bytes, (graph_to_bytes(self),))
        return (copyreg._reconstructor, (type(self), object, None),
                self.__dict__)

    def copy(self) -> "DiGraph":
        """Structural copy that carries over still-valid caches (see
        :meth:`Graph.copy`; all DiGraph caches are plain values, so every
        populated entry is shareable)."""
        g = DiGraph()
        g._succ = {v: set(s) for v, s in self._succ.items()}
        g._pred = {v: set(p) for v, p in self._pred.items()}
        g._vertex_weight = dict(self._vertex_weight)
        g._edge_weight = dict(self._edge_weight)
        g._cache = dict(self._cache)
        g._vcache = dict(self._vcache)
        return g

    def to_undirected(self) -> Graph:
        """Forget orientations (edge weights are kept; conflicts resolve
        arbitrarily to the last edge seen)."""
        g = Graph()
        for v in self._succ:
            g.add_vertex(v, weight=self._vertex_weight.get(v))
        for u, v in self.edges():
            g.add_edge(u, v, weight=self._edge_weight.get((u, v)))
        return g

    def to_networkx(self):
        import networkx as nx

        g = nx.DiGraph()
        for v in self._succ:
            g.add_node(v, weight=self.vertex_weight(v))
        for u, v in self.edges():
            g.add_edge(u, v, weight=self.edge_weight(u, v))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(n={self.n}, m={self.m})"


def _content_hash(graph) -> str:
    """Shared :meth:`Graph.content_hash` / :meth:`DiGraph.content_hash`
    implementation: hash vertices and edges with their effective weights
    in canonical label order, guarding against label-key collisions."""
    h = hashlib.sha256()
    h.update(b"digraph;" if graph.directed else b"graph;")
    keys, pos = _sort_key_maps(graph)
    verts = graph._vcache["sorted_vertices"]
    for a, b in zip(verts, verts[1:]):
        if keys[a] == keys[b]:
            raise GraphError(
                f"label collision: distinct vertices {a!r} and {b!r} have "
                f"identical sort key {keys[a]}")
    vweights = graph._vertex_weight
    for v in verts:
        tname, rep = keys[v]
        h.update(f"V|{tname}|{rep}|{vweights.get(v, 1.0)!r};".encode())
    # Edges in (position of u, position of v) order, u the tail of an
    # arc or the lower-keyed endpoint of an edge (the canonical key).
    # Sorting by cached canonical *position* is equivalent to sorting by
    # label_sort_key (the positions are assigned in key order and the
    # collision guard above makes the order strict), so each vertex's
    # out-neighbours are sorted by position alone.
    eweights = graph._edge_weight
    getpos = pos.__getitem__
    directed = graph.directed
    out = graph._succ if directed else graph._adj
    for u in verts:
        tu, ru = keys[u]
        nbrs = out[u]
        if not directed:
            pu = pos[u]
            nbrs = [v for v in nbrs if pos[v] > pu]
        for v in sorted(nbrs, key=getpos):
            tv, rv = keys[v]
            h.update(f"E|{tu}|{ru}|{tv}|{rv}|{eweights.get((u, v), 1.0)!r};".encode())
    return h.hexdigest()


def complete_graph(n: int) -> Graph:
    """K_n on vertices ``0..n-1``."""
    g = Graph()
    g.add_clique(range(n))
    if n == 1:
        g.add_vertex(0)
    return g


def cycle_graph(n: int) -> Graph:
    """C_n on vertices ``0..n-1``."""
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    g = Graph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def path_graph(n: int) -> Graph:
    """P_n on vertices ``0..n-1``."""
    g = Graph()
    g.add_vertex(0)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def random_graph(n: int, p: float, rng) -> Graph:
    """Erdős–Rényi G(n, p) using the supplied ``random.Random``."""
    g = Graph()
    g.add_vertices(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g
