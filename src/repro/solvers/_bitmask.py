"""Bitmask helpers shared by the exact solvers.

Solvers read a graph through its cached :class:`repro.graphs.BitGraph`
view (:meth:`Graph.bits`): the vertex set indexed ``0..n-1`` and vertex
subsets as Python integers, which keeps the branch-and-bound inner loops
allocation free.
"""

from __future__ import annotations

from typing import List

from repro.graphs import Graph


def vertex_weights(graph: Graph) -> List[float]:
    """Vertex weights in :meth:`Graph.bits` index order (default 1.0).

    Read afresh on every call: a weight-only delta keeps the shared
    view, so the weights cannot live in it.
    """
    get = graph._vertex_weight.get
    return [get(v, 1.0) for v in graph.bits().vertices]


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
