"""Exact maximum (weighted) cut.

Uses Gray-code enumeration with incremental weight updates: consecutive
subsets differ by one vertex, so each step costs one degree.  Vertex
n−1 (in :meth:`Graph.bits` index order) is fixed on one side by
symmetry, so only 2^(n−1) sides are enumerated.  Practical up to
roughly n = 26, which covers the k = 2 instance of the Figure 3 family
(Theorem 2.8).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.graphs import Graph, Vertex
from repro.obs.profile import profiled


def cut_weight(graph: Graph, side: Sequence[Vertex]) -> float:
    """Total weight of edges crossing the cut ``(side, V - side)``."""
    s: Set[Vertex] = set(side)
    return sum(graph.edge_weight(u, v)
               for u, v in graph.edges() if (u in s) != (v in s))


#: Entries per block of every 2^(n-1)-cut table in this module: the
#: meet-in-the-middle cross table (:func:`cut_table_blocks`) and the
#: masks of the vectorized sweep.  One float64 block is 512 KiB, so a
#: table's peak memory does not grow with n.
_BLOCK = 1 << 16


def cut_table_blocks(high, low, cross, low_bits):
    """Yield ``(r0, block)`` over the meet-in-the-middle cut table
    ``T[t, m] = high[t] + low[m] - 2 * (cross[t] @ low_bits[:, m])`` in
    ascending blocks of rows: ``block`` is ``T[r0:r1]``.

    ``cross`` is ``(2^h, b)`` and ``low_bits`` the ``(b, 2^b)`` bit
    matrix of the low block.  Each block is one matmul into a single
    reused buffer of at most ``max(_BLOCK, 2^b)`` float64 entries,
    finished in place, so the caller must consume a block before asking
    for the next.  Every value is an integer below 2^53, so each entry
    is exact whatever the summation order.
    """
    import numpy as np

    low_bits = np.ascontiguousarray(low_bits)
    H, L = high.shape[0], low.shape[0]
    rows_per = min(H, max(1, _BLOCK // L))
    buf = np.empty((rows_per, L))
    for r0 in range(0, H, rows_per):
        r1 = min(r0 + rows_per, H)
        block = buf[:r1 - r0]
        np.matmul(cross[r0:r1], low_bits, out=block)
        block *= -2.0
        block += high[r0:r1, None]
        block += low
        yield r0, block


def max_cut_vectorized(graph: Graph, limit: int = 25) -> Tuple[float, List[Vertex]]:
    """Exact max cut via a vectorized sweep over all 2^(n-1) sides.

    The sweep is chunked into ``_BLOCK`` masks at a time, so it holds
    ``n`` uint8 rows of 64 KiB whatever n: for each chunk it extracts
    one uint8 membership row per vertex, XORs the two endpoint rows per
    edge, and accumulates.  When every weight is integral (the Figure 3
    instances are unweighted) edges are grouped by weight and crossing
    edges are *counted* in int16 before one multiply per distinct
    weight — every intermediate is an integer below 2^53, so the float64
    totals are exact and identical to per-edge accumulation.  Otherwise
    it falls back to accumulating ``w * xor`` per edge in
    ``graph.edges()`` order, reproducing the historical float rounding
    bit-for-bit.  Either way the first-maximum tie-breaking of a single
    whole-array ``argmax`` is preserved: chunks are scanned in ascending
    mask order and a later chunk wins only on a strictly greater total.
    """
    import numpy as np

    n = graph.n
    if n > limit:
        raise ValueError(f"vectorized max-cut limited to {limit} vertices, got {n}")
    if n <= 1:
        return 0.0, []
    bg = graph.bits()
    edges = [(bg.index[u], bg.index[v], graph.edge_weight(u, v))
             for u, v in graph.edges()]
    integral = (all(float(w).is_integer() for __, __, w in edges)
                and sum(abs(w) for __, __, w in edges) < 2.0 ** 53)
    if integral:
        # group by weight, preserving edges() order within groups
        groups: Dict[float, List[Tuple[int, int]]] = {}
        for iu, iv, w in edges:
            groups.setdefault(w, []).append((iu, iv))

    total_masks = 1 << (n - 1)
    best = 0.0
    best_idx = 0
    have_best = False
    for lo in range(0, total_masks, _BLOCK):
        hi = min(lo + _BLOCK, total_masks)
        masks = np.arange(lo, hi, dtype=np.int64)
        # membership rows; vertex n-1 is pinned to side 0 so its row is 0
        rows = [((masks >> i) & 1).astype(np.uint8) for i in range(n - 1)]
        rows.append(np.zeros(hi - lo, dtype=np.uint8))
        totals = np.zeros(hi - lo, dtype=np.float64)
        if integral:
            for w, pairs in groups.items():
                counts = np.zeros(hi - lo, dtype=np.int16)
                for iu, iv in pairs:
                    counts += rows[iu] ^ rows[iv]
                totals += w * counts
        else:
            for iu, iv, w in edges:
                totals += w * (rows[iu] ^ rows[iv])
        idx = int(np.argmax(totals))
        value = float(totals[idx])
        if not have_best or value > best:
            best = value
            best_idx = lo + idx
            have_best = True
    side = [bg.vertices[i] for i in range(n - 1) if (best_idx >> i) & 1]
    return best, side


def _max_cut_mitm(graph: Graph) -> Tuple[float, List[Vertex]]:
    """Exact max cut by meet-in-the-middle, bit-identical to the
    enumeration paths it accelerates.

    The ``n - 1`` free vertices (vertex ``n - 1`` is pinned to side 0)
    are split into ``b`` low bits and ``h`` high bits; a side mask is
    ``hi << b | lo``.  The cut value decomposes as

        totals[hi, lo] = (cutL + SL)[lo] + (cutH + SH)[hi] - 2·Q[hi, lo]

    where ``cutL``/``cutH`` are the within-block cuts (enumerated over
    only ``2^b``/``2^h`` masks), ``SL``/``SH`` the linear cross terms
    (``Σ w·a_i`` over cross edges; edges to the pinned vertex contribute
    to ``SL``/``SH`` only), and ``Q`` the bilinear term ``Σ w·a_i·c_j``
    — BLAS matmuls over the bit matrices.  Everything is held in
    float64 whose values are integers below 2^53, so each total is
    *exactly* the cut weight and comparisons agree bit-for-bit with the
    incremental Gray-code walk and the chunked sweep.

    The table is evaluated in ascending row blocks of at most
    ``_BLOCK`` totals by :func:`cut_table_blocks`, never whole.
    Tie-breaking replicates the historical path for each size window:
    for ``n <= 16`` the table fits in one block, whose totals are
    permuted into Gray-visit order and the first argmax taken (the Gray
    walk keeps the earliest strict maximum, starting from mask 0 at
    value 0.0); above ``n = 16`` one path scans the ascending blocks
    with a strictly-greater running best, matching
    :func:`max_cut_vectorized`.  Requires integral weights (checked by
    the caller).
    """
    import numpy as np

    n = graph.n
    bg = graph.bits()
    free = n - 1
    b = (free + 1) // 2
    L = 1 << b
    h = free - b
    H = 1 << h

    low_edges: List[Tuple[int, int, float]] = []
    high_edges: List[Tuple[int, int, float]] = []
    sl = np.zeros(b)
    sh = np.zeros(h)
    W = np.zeros((h, b))
    for u, v in graph.edges():
        iu, iv = bg.index[u], bg.index[v]
        if iu > iv:
            iu, iv = iv, iu
        w = graph.edge_weight(u, v)
        if iv < b:
            low_edges.append((iu, iv, w))
        elif iu >= b:
            # both high; vertex n-1 keeps its (pinned, all-zero) row
            high_edges.append((iu - b, iv - b, w))
        else:
            sl[iu] += w
            if iv < n - 1:
                jv = iv - b
                sh[jv] += w
                W[jv, iu] += w
            # an edge to the pinned vertex has c_j = 0: only its
            # linear a_i term (already in sl) survives

    def block_cuts(nbits: int, total: int, edges_local, pinned: bool):
        masks = np.arange(total, dtype=np.int64)
        rows = [((masks >> i) & 1).astype(np.float64)
                for i in range(nbits)]
        if pinned:
            rows.append(np.zeros(total))
        cuts = np.zeros(total)
        for i, j, w in edges_local:
            cuts += w * np.abs(rows[i] - rows[j])
        bits = np.stack(rows[:nbits], axis=1) if nbits else \
            np.zeros((total, 0))
        return cuts, bits

    cut_l, A = block_cuts(b, L, low_edges, False)
    cut_h, C = block_cuts(h, H, high_edges, True)
    low_totals = cut_l + A @ sl
    high_totals = cut_h + C @ sh
    CW = C @ W  # (H, b); cross term of row hi is CW[hi] @ A.T

    blocks = cut_table_blocks(high_totals, low_totals, CW, A.T)
    if n <= 16:
        # one block holds all 2^15 or fewer totals; take them in
        # Gray-visit order: the mask at step s is s ^ (s >> 1)
        __, table = next(blocks)
        g = np.arange(1 << free, dtype=np.int64)
        g ^= g >> 1
        vals = table.ravel()[g]
        idx = int(np.argmax(vals))
        return float(vals[idx]), bg.unmask(int(g[idx]))

    # ascending blocks, strictly-greater running best: the same first
    # argmax the chunked sweep computes
    best = 0.0
    best_mask = 0
    have_best = False
    for r0, block in blocks:
        idx = int(np.argmax(block))
        value = float(block.flat[idx])
        if not have_best or value > best:
            best = value
            best_mask = r0 * L + idx
            have_best = True
    return best, bg.unmask(best_mask)


def _integral_weights(graph: Graph) -> bool:
    """True when every edge weight is integral with total magnitude
    below 2^53 — the regime where float64 cut totals are exact and the
    meet-in-the-middle path is bit-identical to enumeration."""
    total = 0.0
    for w in graph.edge_weights().values():
        if not float(w).is_integer():
            return False
        total += abs(w)
    return total < 2.0 ** 53


@profiled
def max_cut(graph: Graph, limit: int = 28) -> Tuple[float, List[Vertex]]:
    """Return ``(weight, side)`` of a maximum weight cut.

    Raises ``ValueError`` above ``limit`` vertices; the enumeration is
    Θ(2^n) steps and callers should not trip into it by accident.
    """
    n = graph.n
    if n > limit:
        raise ValueError(f"exact max-cut limited to {limit} vertices, got {n}")
    if n <= 1:
        return 0.0, []
    if n <= 25 and _integral_weights(graph):
        return _max_cut_mitm(graph)
    if 16 < n <= 25:
        return max_cut_vectorized(graph, limit=limit)
    bg = graph.bits()
    # weighted adjacency lists over indices
    wadj: List[List[Tuple[int, float]]] = [[] for __ in range(n)]
    for u, v in graph.edges():
        iu, iv = bg.index[u], bg.index[v]
        w = graph.edge_weight(u, v)
        wadj[iu].append((iv, w))
        wadj[iv].append((iu, w))

    side = [0] * n  # side[i] in {0, 1}; vertex n-1 pinned to side 0
    current = 0.0
    best = 0.0
    best_mask = 0
    mask = 0
    steps = 1 << (n - 1)
    for step in range(1, steps):
        # Gray code: flip the position of the lowest set bit of `step`
        flip = (step & -step).bit_length() - 1
        delta = 0.0
        sv = side[flip]
        for j, w in wadj[flip]:
            if side[j] == sv:
                delta += w  # becomes a cut edge
            else:
                delta -= w  # stops being a cut edge
        side[flip] ^= 1
        mask ^= 1 << flip
        current += delta
        if current > best:
            best = current
            best_mask = mask
    return best, bg.unmask(best_mask)


def max_cut_value(graph: Graph, limit: int = 28) -> float:
    value, __ = max_cut(graph, limit=limit)
    return value
