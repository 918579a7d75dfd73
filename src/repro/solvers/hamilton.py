"""Exact Hamiltonian path / cycle search for directed and undirected graphs.

The Figure 2 family (Theorem 2.2) is highly corridor-like: most vertices
have out-degree 2-3 and wrong turns strand a vertex quickly.  A DFS with
two structural prunes — reachability of all unvisited vertices from the
current head, and at most one unvisited vertex with no remaining
out-neighbour — decides these instances fast despite their size.

A Held–Karp dynamic program (n ≤ 18) is included as an independent
cross-check used by the test-suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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


class _HamSolver:
    """Bitmask DFS core.

    The visited set and all adjacency live in integer bitmasks, so the
    two structural prunes run as word-parallel mask algebra instead of
    per-vertex list BFS — the dominant cost of the Figure 2 sweeps:

    - *dead ends*: a vertex stripped of every admissible successor is
      detected via ``unvisited & ~live`` where ``live`` (the union of
      predecessor masks over the admissible set) comes from per-byte
      union tables — a handful of lookups per check;
    - *reachability*: every unvisited vertex must stay reachable from
      the head; a frontier BFS ORs successor masks per round.

    Both prunes are *sound* (they only cut subtrees that provably
    contain no completion), so the solver may also skip them where they
    cannot pay: forced moves (a single unvisited successor) are walked
    iteratively without re-checking viability — each skipped check costs
    at most the one forced step the prune could have saved, so the
    search cannot blow up, and the first completion found is identical.

    ``succ`` keeps the label-sorted successor *lists* as well: branch
    points iterate options in that order with a stable most-constrained
    sort, so the returned path/cycle is exactly what the historical
    list-based implementation produced.
    """

    def __init__(self, dg: DiGraph) -> None:
        self.vertices = list(dg.vertices())
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.n = len(self.vertices)
        self.succ: List[List[int]] = [[] for __ in range(self.n)]
        self.succ_mask: List[int] = [0] * self.n
        self.pred_mask: List[int] = [0] * self.n
        for u, v in dg.edges():
            iu, iv = self.index[u], self.index[v]
            self.succ[iu].append(iv)
            self.succ_mask[iu] |= 1 << iv
            self.pred_mask[iv] |= 1 << iu
        self.full = (1 << self.n) - 1
        #: successor mask keyed by isolated low bit — the BFS inner loop
        #: avoids a bit_length() + list index per expanded vertex
        self.succ_by_low: Dict[int, int] = {
            1 << i: m for i, m in enumerate(self.succ_mask)}
        self._pred_tables: Optional[List[List[int]]] = None
        self._succ_tables: Optional[List[List[int]]] = None
        self.nodes_expanded = 0

    def _live_mask(self, allowed: int) -> int:
        """Union of ``pred_mask`` over ``allowed``: every vertex with at
        least one successor inside ``allowed``."""
        pt = self._pred_tables
        if pt is None:
            pt = self._pred_tables = _byte_union_tables(self.pred_mask,
                                                        self.n)
        live = 0
        c = 0
        while allowed:
            live |= pt[c][allowed & 255]
            allowed >>= 8
            c += 1
        return live

    def _reach_all(self, unvisited: int, head: int) -> bool:
        """Is every ``unvisited`` vertex reachable from ``head`` through
        unvisited vertices?  Bitmask BFS: each round ORs the successor
        masks of the current frontier."""
        sbl = self.succ_by_low
        seen = 0
        frontier = self.succ_mask[head] & unvisited
        while frontier:
            seen |= frontier
            new = 0
            m = frontier
            while m:
                low = m & -m
                new |= sbl[low]
                m ^= low
            frontier = new & unvisited & ~seen
        return not unvisited & ~seen

    def _viable(self, visited: int, head: int, target: Optional[int]) -> bool:
        """Prunes: at most one unvisited dead end (which must be
        ``target`` if specified); every unvisited vertex reachable from
        ``head``."""
        unvisited = self.full & ~visited
        dead = unvisited & ~self._live_mask(unvisited)
        if dead:
            if dead & (dead - 1):
                return False
            if target is not None and dead != 1 << target:
                return False
        return self._reach_all(unvisited, head)

    def path(self, source: Optional[int], target: Optional[int]) -> Optional[List[int]]:
        starts = [source] if source is not None else list(range(self.n))
        for s in starts:
            path = [s]
            if self._dfs(1 << s, path, target):
                return path
        return None

    def _dfs(self, visited: int, path: List[int],
             target: Optional[int]) -> bool:
        n = self.n
        succ_mask = self.succ_mask
        head = path[-1]
        base_len = len(path)
        while True:
            self.nodes_expanded += 1
            if len(path) == n:
                if target is None or head == target:
                    return True
                break
            avail = succ_mask[head] & ~visited
            if not avail:
                break
            if avail & (avail - 1):  # branch point: prune, order, recurse
                if not self._viable(visited, head, target):
                    break
                unvisited = self.full & ~visited
                # most-constrained-successor ordering (stable, so ties
                # keep the label-sorted successor order)
                options = [w for w in self.succ[head]
                           if not visited >> w & 1]
                options.sort(key=lambda w: popcount(succ_mask[w] & unvisited))
                for w in options:
                    if target is not None and w == target \
                            and len(path) != n - 1:
                        continue
                    path.append(w)
                    if self._dfs(visited | 1 << w, path, target):
                        return True
                    path.pop()
                break
            # forced move — walk it without a viability check
            w = avail.bit_length() - 1
            if target is not None and w == target and len(path) != n - 1:
                break
            visited |= avail
            path.append(w)
            head = w
        del path[base_len:]
        return False

    def cycle(self) -> Optional[List[int]]:
        """Hamiltonian cycle as an index list (starting at vertex 0), or
        None — forced-edge contraction plus the mask DFS, see
        :func:`_solve_cycle_masks`."""
        if self.n == 0:
            return None
        counter = [0]
        path = _solve_cycle_masks(self.succ_mask, self.pred_mask, self.n,
                                  counter)
        self.nodes_expanded += counter[0]
        return path

    def _viable_cycle(self, visited: int, head: int, start: int) -> bool:
        unvisited = self.full & ~visited
        # in a cycle, an unvisited vertex may step back to `start`
        if unvisited & ~self._live_mask(unvisited | 1 << start):
            return False
        return self._reach_all(unvisited, head)


def _solve_cycle_masks(succ_mask: List[int], pred_mask: List[int], n: int,
                       counter: List[int]) -> Optional[List[int]]:
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
    masks` finishes.  ``counter[0]`` accrues expanded search nodes.
    """
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
        path, expanded = _search_cycle_masks(succ_mask, pred_mask, n)
        counter[0] += expanded
        return path
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
    sub = _solve_cycle_masks(rsucc, rpred, r, counter)
    if sub is None:
        return None
    out: List[int] = []
    for j in sub:
        out.extend(chains[j])
    k = out.index(0)
    return out[k:] + out[:k]


def _search_cycle_masks(succ_mask: List[int], pred_mask: List[int],
                        n: int) -> Tuple[Optional[List[int]], int]:
    """DFS for a Hamiltonian cycle from vertex 0 over bitmask adjacency
    — iterative with an explicit backtrack stack (this loop is the
    hottest code in the repo).  Forced moves walk without a viability
    check; branch points prune (dead-end test via pred union tables,
    reachability BFS) then try options in ascending-index order under a
    stable most-constrained sort.  Returns ``(cycle or None, expanded)``.
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
    expanded = 0
    # one frame per branch point: untried options, the visited mask
    # and depth on *entry* to the node
    stack: List[Tuple[List[int], int, int]] = []
    while True:
        expanded += 1
        ok = True
        if depth == n:
            if succ_mask[head] & 1:
                return path, expanded
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
            return None, expanded


@profiled
def find_hamiltonian_path(
    graph: AnyGraph,
    source: Optional[Vertex] = None,
    target: Optional[Vertex] = None,
) -> Optional[List[Vertex]]:
    """Find a Hamiltonian path (optionally with fixed endpoints), or None."""
    dg = _as_digraph(graph)
    if dg.n == 0:
        return None
    if dg.n == 1:
        only = dg.vertices()[0]
        if source not in (None, only) or target not in (None, only):
            return None
        return [only]
    solver = _HamSolver(dg)
    src = solver.index[source] if source is not None else None
    tgt = solver.index[target] if target is not None else None
    if src is None:
        # a vertex with in-degree 0 must start any Hamiltonian path
        zero_in = [i for i in range(solver.n) if not solver.pred_mask[i]]
        if len(zero_in) > 1:
            return None
        if len(zero_in) == 1:
            src = zero_in[0]
    result = solver.path(src, tgt)
    if result is None:
        return None
    return [solver.vertices[i] for i in result]


@profiled
def find_hamiltonian_cycle(graph: AnyGraph) -> Optional[List[Vertex]]:
    """Find a Hamiltonian cycle (returned without repeating the start)."""
    dg = _as_digraph(graph)
    if dg.n < 2:
        return None
    solver = _HamSolver(dg)
    result = solver.cycle()
    if result is None:
        return None
    return [solver.vertices[i] for i in result]


def has_hamiltonian_path(graph: AnyGraph, source: Optional[Vertex] = None,
                         target: Optional[Vertex] = None) -> bool:
    return find_hamiltonian_path(graph, source=source, target=target) is not None


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
