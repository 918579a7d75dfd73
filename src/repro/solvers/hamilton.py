"""Exact Hamiltonian path / cycle search for directed and undirected graphs.

Every question goes through one cycle search over bitmask rows,
:func:`_solve_cycle_masks`.  The Figure 2 family (Theorem 2.2) is highly
corridor-like: most vertices have in- or out-degree 1, so forced-edge
contraction collapses most of the graph before any search, and an
iterative DFS with two structural prunes — every unvisited vertex keeps
an admissible successor, and all of them stay reachable from the head —
decides the small residue.  A path is a cycle through a hub vertex with
arcs to and from every vertex (:func:`with_hub`), which the path family's
batch kernel shares.

A Held–Karp dynamic program (n ≤ 18) is included as an independent
cross-check used by the invariants and the test-suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.graphs import DiGraph, Graph, Vertex
from repro.solvers._bitmask import popcount
from repro.obs.profile import profiled

AnyGraph = Union[Graph, DiGraph]


def _as_digraph(graph: AnyGraph) -> DiGraph:
    if isinstance(graph, DiGraph):
        return graph
    dg = DiGraph()
    for v in graph.vertices():
        dg.add_vertex(v)
    for u, v in graph.edges():
        dg.add_edge(u, v)
        dg.add_edge(v, u)
    return dg


def is_hamiltonian_path(graph: AnyGraph, path: Sequence[Vertex]) -> bool:
    """Check that ``path`` visits every vertex exactly once along edges."""
    dg = _as_digraph(graph)
    path = list(path)
    if len(path) != dg.n or len(set(path)) != dg.n:
        return False
    return all(dg.has_edge(u, v) for u, v in zip(path, path[1:]))


def is_hamiltonian_cycle(graph: AnyGraph, cycle: Sequence[Vertex]) -> bool:
    """Check that ``cycle`` (without repeated first vertex) is Hamiltonian."""
    cycle = list(cycle)
    dg = _as_digraph(graph)
    if len(cycle) != dg.n:
        return False
    return (is_hamiltonian_path(graph, cycle)
            and dg.has_edge(cycle[-1], cycle[0]))


def _masks(dg: DiGraph) -> Tuple[List[Vertex], List[int], List[int]]:
    """``dg``'s vertices with their successor and predecessor bitmask
    rows: bit ``j`` of ``succ[i]`` is set iff ``vertices[i] ->
    vertices[j]`` is an arc, and ``pred`` is its transpose."""
    vertices = dg.vertices()
    index = {v: i for i, v in enumerate(vertices)}
    succ = [0] * len(vertices)
    pred = [0] * len(vertices)
    for u, v in dg.edges():
        iu, iv = index[u], index[v]
        succ[iu] |= 1 << iv
        pred[iv] |= 1 << iu
    return vertices, succ, pred


def with_hub(succ: Sequence[int],
             pred: Sequence[int]) -> Tuple[List[int], List[int]]:
    """New rows with a hub vertex, index ``len(succ)``, that has arcs to
    and from every vertex.  G has a Hamiltonian path iff G plus the hub
    has a Hamiltonian cycle: the cycle enters the hub after the path's
    last vertex and leaves it into the first.  A vertex with in-degree 0
    in G keeps only the hub's arc in, so contraction forces the path to
    start there."""
    hub = 1 << len(succ)
    return ([m | hub for m in succ] + [hub - 1],
            [m | hub for m in pred] + [hub - 1])


def _byte_union_tables(masks: List[int], n: int) -> List[List[int]]:
    """Per-byte union tables over ``masks``: ``tables[c][b]`` is the
    union of ``masks[8c + i]`` for every bit ``i`` set in byte ``b``.
    The union over an arbitrary vertex set then costs one table lookup
    per byte chunk instead of one list access per set bit.
    """
    tables = []
    for c in range((n + 7) >> 3):
        base = c << 3
        top = min(8, n - base)
        # doubling: each bit ORs its mask over the half-table built so
        # far, so the whole table is `top` C-level list comprehensions
        t = [0]
        for i in range(top):
            m = masks[base + i]
            t += [x | m for x in t]
        tables.append(t)
    return tables


def _solve_cycle_masks(succ_mask: Sequence[int],
                       pred_mask: Sequence[int]) -> Optional[List[int]]:
    """Hamiltonian cycle over a bitmask adjacency, as an index list
    rotated to start at vertex 0, or None.

    Forced-edge contraction first: a vertex with out-degree 1 must use
    its only out-edge in *every* Hamiltonian cycle (the cycle leaves
    each vertex exactly once), and symmetrically a vertex with in-degree
    1 must be entered by its only in-edge.  The forced edges therefore
    appear in any solution, and three cheap outcomes fall out before any
    search: a vertex needing two distinct forced out-edges (or in-edges)
    proves no cycle exists; forced edges closing a loop shorter than
    ``n`` prove the same; forced edges closing a single loop of length
    ``n`` *are* the cycle.  Otherwise the forced edges form disjoint
    chains that any solution traverses contiguously, so the problem
    contracts to the chain-entry/exit quotient graph — on the paper's
    corridor-gadget families this collapses most of the graph, since
    almost every vertex sits on a degree-1 corridor — and the DFS only
    runs on the (much smaller) residue.  Contraction repeats via
    recursion until no forced edges remain, then :func:`_search_cycle_
    masks` finishes.
    """
    n = len(succ_mask)
    # --- forced edges: nxt[u] = the successor every cycle must use
    nxt = [-1] * n
    for u in range(n):
        m = succ_mask[u]
        if not m:
            return None
        if not m & (m - 1):
            nxt[u] = m.bit_length() - 1
    for v in range(n):
        m = pred_mask[v]
        if not m:
            return None
        if not m & (m - 1):
            u = m.bit_length() - 1
            w = nxt[u]
            if w == -1:
                nxt[u] = v
            elif w != v:
                return None  # u would need two distinct out-edges
    prv = [-1] * n
    forced = 0
    for u in range(n):
        v = nxt[u]
        if v != -1:
            if prv[v] != -1:
                return None  # v would need two distinct in-edges
            prv[v] = u
            forced += 1
    if not forced:
        return _search_cycle_masks(succ_mask, pred_mask, n)
    # --- maximal forced chains, walked from their heads.  `nxt` is
    # functional with functional inverse, so it decomposes into
    # vertex-disjoint simple paths and loops.
    chains = []
    covered = 0
    for u in range(n):
        if prv[u] == -1:
            chain = [u]
            w = nxt[u]
            while w != -1:
                chain.append(w)
                w = nxt[w]
            chains.append(chain)
            covered += len(chain)
    if covered != n:
        # the uncovered vertices sit on closed forced loops
        if chains:
            return None  # a loop shorter than n can't extend to a cycle
        loop = [0]
        w = nxt[0]
        while w != 0:
            loop.append(w)
            w = nxt[w]
        return loop if len(loop) == n else None
    if len(chains) == 1:
        chain = chains[0]
        if succ_mask[chain[-1]] >> chain[0] & 1:
            k = chain.index(0)
            return chain[k:] + chain[:k]
        return None
    # --- quotient graph: chain i -> chain j iff exit(i) -> entry(j).
    # Edges into chain interiors are unusable (interior vertices are
    # entered by their forced edge), so they are dropped; the self-edge
    # exit(i) -> entry(i) would close a short loop and is dropped too.
    r = len(chains)
    entry_rid = {chain[0]: i for i, chain in enumerate(chains)}
    rsucc = [0] * r
    rpred = [0] * r
    for i, chain in enumerate(chains):
        m = succ_mask[chain[-1]]
        bits = 0
        while m:
            low = m & -m
            j = entry_rid.get(low.bit_length() - 1)
            if j is not None and j != i:
                bits |= 1 << j
            m ^= low
        rsucc[i] = bits
        mm = bits
        while mm:
            low = mm & -mm
            rpred[low.bit_length() - 1] |= 1 << i
            mm ^= low
    sub = _solve_cycle_masks(rsucc, rpred)
    if sub is None:
        return None
    out: List[int] = []
    for j in sub:
        out.extend(chains[j])
    k = out.index(0)
    return out[k:] + out[:k]


def _search_cycle_masks(succ_mask: Sequence[int], pred_mask: Sequence[int],
                        n: int) -> Optional[List[int]]:
    """DFS for a Hamiltonian cycle from vertex 0 over bitmask adjacency
    — iterative with an explicit backtrack stack (this loop is the
    hottest code in the repo).  Forced moves walk without a viability
    check; branch points prune (dead-end test via pred union tables,
    reachability BFS) then try options in ascending-index order under a
    stable most-constrained sort.  Returns the cycle or None.
    """
    sbl = {1 << i: m for i, m in enumerate(succ_mask)}
    pt = _byte_union_tables(pred_mask, n)
    full = (1 << n) - 1
    pc = popcount
    path = [0]
    append = path.append
    visited = 1
    head = 0
    depth = 1
    # one frame per branch point: untried options, the visited mask
    # and depth on *entry* to the node
    stack: List[Tuple[List[int], int, int]] = []
    while True:
        ok = True
        if depth == n:
            if succ_mask[head] & 1:
                return path
            ok = False
        else:
            avail = succ_mask[head] & ~visited
            if not avail:
                ok = False
            elif avail & (avail - 1):  # branch point
                # dead-end test via the pred union tables: every
                # unvisited vertex needs a successor that is either
                # unvisited or the start vertex (closing the cycle)
                unvisited = full & ~visited
                allowed = unvisited | 1
                live = 0
                c = 0
                while allowed:
                    live |= pt[c][allowed & 255]
                    allowed >>= 8
                    c += 1
                if unvisited & ~live:
                    ok = False
                else:
                    # reachability BFS over unvisited vertices
                    seen = 0
                    frontier = succ_mask[head] & unvisited
                    while frontier:
                        seen |= frontier
                        if frontier & (frontier - 1):
                            new = 0
                            m = frontier
                            while m:
                                low = m & -m
                                new |= sbl[low]
                                m ^= low
                        else:
                            new = sbl[frontier]
                        frontier = new & unvisited & ~seen
                    if unvisited & ~seen:
                        ok = False
                    else:
                        options = []
                        m = avail
                        while m:
                            low = m & -m
                            options.append(low.bit_length() - 1)
                            m ^= low
                        if len(options) == 2:
                            # stable 2-sort without sort() machinery
                            a, b = options
                            if pc(succ_mask[b] & unvisited) \
                                    < pc(succ_mask[a] & unvisited):
                                options = [b, a]
                        else:
                            options.sort(key=lambda w: pc(
                                succ_mask[w] & unvisited))
                        options.reverse()  # pop() takes them in order
                        w = options.pop()
                        stack.append((options, visited, depth))
                        visited |= 1 << w
                        append(w)
                        depth += 1
                        head = w
                        continue
            else:
                # forced move — walk it without a viability check
                w = avail.bit_length() - 1
                visited |= avail
                append(w)
                depth += 1
                head = w
                continue
        # backtrack to the nearest branch point with untried options
        while stack:
            options, vis0, depth0 = stack[-1]
            if options:
                w = options.pop()
                del path[depth0:]
                append(w)
                depth = depth0 + 1
                visited = vis0 | 1 << w
                head = w
                break
            stack.pop()
        else:
            return None


@profiled
def find_hamiltonian_path(graph: AnyGraph) -> Optional[List[Vertex]]:
    """Find a Hamiltonian path, or None: the cycle search on the graph
    plus a hub (:func:`with_hub`), with the hub cut out of the cycle."""
    vertices, succ, pred = _masks(_as_digraph(graph))
    cycle = _solve_cycle_masks(*with_hub(succ, pred))
    if cycle is None:
        return None
    k = cycle.index(len(vertices))
    return [vertices[i] for i in cycle[k + 1:] + cycle[:k]]


@profiled
def find_hamiltonian_cycle(graph: AnyGraph) -> Optional[List[Vertex]]:
    """Find a Hamiltonian cycle (returned without repeating the start)."""
    vertices, succ, pred = _masks(_as_digraph(graph))
    if len(vertices) < 2:
        return None
    cycle = _solve_cycle_masks(succ, pred)
    if cycle is None:
        return None
    return [vertices[i] for i in cycle]


def has_hamiltonian_path(graph: AnyGraph) -> bool:
    return find_hamiltonian_path(graph) is not None


def has_hamiltonian_cycle(graph: AnyGraph) -> bool:
    return find_hamiltonian_cycle(graph) is not None


@profiled
def held_karp_has_path(graph: AnyGraph) -> bool:
    """O(2^n n^2) dynamic program; independent cross-check for n ≤ 18."""
    dg = _as_digraph(graph)
    n = dg.n
    if n > 18:
        raise ValueError("Held-Karp cross-check limited to 18 vertices")
    if n == 0:
        return False
    vertices = list(dg.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    succ = [[index[w] for w in dg.successors(v)] for v in vertices]
    # reach[mask] = set of possible path heads visiting exactly `mask`
    reach: Dict[int, int] = {1 << i: 1 << i for i in range(n)}
    frontier = dict(reach)
    for __ in range(n - 1):
        nxt: Dict[int, int] = {}
        for mask, heads in frontier.items():
            h = heads
            while h:
                i = (h & -h).bit_length() - 1
                h &= h - 1
                for w in succ[i]:
                    bit = 1 << w
                    if not mask & bit:
                        key = mask | bit
                        nxt[key] = nxt.get(key, 0) | bit
        frontier = nxt
        if not frontier:
            return False
    full = (1 << n) - 1
    return bool(frontier.get(full, 0))
