"""Bitmask indexing shared by the exact solvers.

Solvers index the vertex set as ``0..n-1`` and represent vertex subsets as
Python integers, which keeps the branch-and-bound inner loops allocation
free.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.graphs import Graph, Vertex


class BitGraph:
    """Adjacency-in-bitmask view of an undirected :class:`Graph`."""

    def __init__(self, graph: Graph) -> None:
        # The CSR substrate indexes vertices in the same (insertion)
        # order this class always used, so its labels, index and cached
        # neighbour bitmasks are shared, not copied.  Solvers only read
        # them (the α search folds vertices on a copy of ``adj``).  A
        # weight-only delta keeps the CSR, so weights are read per call.
        csr = graph.csr()
        self.vertices: Sequence[Vertex] = csr.labels
        self.index: Dict[Vertex, int] = csr.index
        self.n = csr.n
        self.adj: List[int] = csr.masks()
        get = graph._vertex_weight.get
        self.weights: List[float] = [get(v, 1.0) for v in self.vertices]
        self.full_mask = (1 << self.n) - 1

    def closed(self, i: int) -> int:
        """Closed neighbourhood of vertex index ``i`` as a mask."""
        return self.adj[i] | (1 << i)

    def mask_of(self, vs: Sequence[Vertex]) -> int:
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


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order.

    Walks set bits only (isolate the lowest bit, clear it) instead of
    shifting through every position, so sparse masks — the common case
    in the branch-and-bound inner loops — cost O(popcount) not O(n).
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


if hasattr(int, "bit_count"):  # Python >= 3.10
    # the builtin method itself: no Python frame per call in hot loops
    popcount = int.bit_count
else:  # pragma: no cover - exercised only on older interpreters
    def popcount(mask: int) -> int:
        return bin(mask).count("1")


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
