"""Batched decision kernels: skeleton-derived solver state, delta-only
per-pair evaluation.

Every lower-bound family decides a threshold predicate on
``G_{x,y} = skeleton + delta(x, y)`` where the delta is a vanishing
fraction of the instance (Definition 1.1; the split
:class:`repro.core.family.DeltaBuildMixin` makes explicit).  The
per-pair solver path still pays the full instance on every call:
rebuild the graph, re-derive adjacency masks / ball tables / partition
enumerations, then search.  The kernels here hoist everything
input-independent out of the loop **once per skeleton**:

- :class:`HamiltonianCycleBatchKernel` / :class:`HamiltonianPathBatchKernel`
  precompute the skeleton's successor/predecessor bitmask rows (the path
  kernel's with the hub of :func:`repro.solvers.hamilton.with_hub`) and
  the index pairs of each input arc; a pair costs two list copies and a
  few OR's before the mask-level cycle search that the family's
  ``predicate`` also runs;
- :class:`DominationBatchKernel` precomputes the closed-neighbourhood
  ball masks of the fixed gadget; a pair patches the few balls its
  delta edges touch and runs the set-cover branch-and-bound directly;
- :class:`WeightedDominationBatchKernel` builds the set-cover index of
  the distance-k balls once (the adjacency is input-independent for the
  k-MDS family — inputs only re-weight the S_i / S̄_i vertices, which
  the family checks before it hands out the kernel); a pair fills 2T
  weights and searches a reweighted solver that shares the index;
- :class:`ThresholdCutBatchKernel` enumerates the skeleton's cut
  weights with a blocked meet-in-the-middle matmul *grouped by the
  assignment of the delta-touched vertices D*, collapsing the
  input-independent remainder into one ``g[d] = max fixed cut given
  D-assignment d`` table; a pair reduces to
  ``max_d(g[d] + delta_cut_d)`` over numpy rows of length ``2^|D|``;
- :class:`SteinerBatchKernel` holds the ball masks of the MDS graph
  that the Claim 2.8 family recovers from its skeleton; a pair patches
  the two balls of each input edge and runs the four-case constrained
  domination search that the family's ``predicate`` also runs
  (:func:`repro.solvers.dominating.min_size_over_cases`), with no G′
  build and no base-graph recovery;
- :class:`DirectedSteinerBatchKernel` and
  :class:`NodeWeightedSteinerBatchKernel` decide Lemmas 4.6 and 4.5
  from a certificate table read once from the skeleton: every subset of
  at most two sets (cover sets and fallbacks) whose element masks cover
  the universe, or of at most two paid vertices that connect the
  terminals.  A pair is TRUE iff some tabled subset is affordable under
  its weights, so it costs a few bit tests and no search;
  the families' ``predicate`` keeps the set-cover search and the
  capped subset scan, so the two are independent deciders;
- :class:`RowChoiceBatchKernel` runs the approx-MaxIS families'
  structured solver on the input bits themselves, which are exactly
  the row pairs the solver may take together.

A kernel instance is valid for exactly one skeleton (the family layer
keys it on ``content_hash`` and rebuilds on mismatch) and must treat
the skeleton as read-only.  ``monotone = True`` declares that the
family's predicate is monotone non-decreasing in every input bit —
1-bits only ever *add* edges (Hamiltonian, MDS) or *lower* weights
(k-MDS) — which lets the generic ``decide_batch`` driver infer most of
a grid from a few extremal solves.  Max-cut's predicate is not
edge-monotone (0-bits add row edges, 1-bits add N-weight), so its
kernel stays ``monotone = False`` and every pair is evaluated — still
cheap, because only the delta term varies.  The Steiner and
approx-MaxIS kernels are ``monotone = False`` too: every pair is decided
and none is inferred.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graphs import Vertex

Bits = Tuple[int, ...]


class _HamiltonianKernelBase:
    """Shared succ/pred bitmask plumbing for the Figure 2 families.

    ``x_arcs``/``y_arcs`` list the directed input arc per bit position
    (``x_arcs[p]`` is added iff ``x[p] = 1``), mirroring
    ``apply_inputs`` exactly.
    """

    monotone = True  # more arcs can only create Hamiltonian traversals

    def __init__(self, skeleton, x_arcs: Sequence[Tuple[Vertex, Vertex]],
                 y_arcs: Sequence[Tuple[Vertex, Vertex]]) -> None:
        from repro.solvers.hamilton import _masks
        vertices, self._succ, self._pred = _masks(skeleton)
        index = {v: i for i, v in enumerate(vertices)}
        self._x_arcs = [(index[u], index[v]) for u, v in x_arcs]
        self._y_arcs = [(index[u], index[v]) for u, v in y_arcs]

    def decide(self, x: Bits, y: Bits) -> bool:
        from repro.solvers.hamilton import _solve_cycle_masks
        succ = list(self._succ)
        pred = list(self._pred)
        for bits, arcs in ((x, self._x_arcs), (y, self._y_arcs)):
            for bit, (iu, iv) in zip(bits, arcs):
                if bit:
                    succ[iu] |= 1 << iv
                    pred[iv] |= 1 << iu
        return _solve_cycle_masks(succ, pred) is not None


class HamiltonianCycleBatchKernel(_HamiltonianKernelBase):
    """Directed Hamiltonian cycle existence over delta-patched masks."""


class HamiltonianPathBatchKernel(_HamiltonianKernelBase):
    """Directed Hamiltonian path existence via the hub reduction.

    The skeleton's rows get the hub of
    :func:`repro.solvers.hamilton.with_hub` once; input arcs never touch
    the hub, so each pair patches the hubbed rows and runs the same
    cycle search as :func:`repro.solvers.hamilton.find_hamiltonian_path`.
    """

    def __init__(self, skeleton, x_arcs, y_arcs) -> None:
        from repro.solvers.hamilton import with_hub
        super().__init__(skeleton, x_arcs, y_arcs)
        self._succ, self._pred = with_hub(self._succ, self._pred)


def _patched_balls(balls: Sequence[int], x: Bits, y: Bits,
                   x_edges: Sequence[Tuple[int, int]],
                   y_edges: Sequence[Tuple[int, int]]) -> List[int]:
    """A copy of the closed-neighbourhood masks ``balls`` with the input
    edge of every 1-bit added: edge {u, v} grows exactly ``ball[u]`` and
    ``ball[v]``."""
    out = list(balls)
    for bits, edges in ((x, x_edges), (y, y_edges)):
        for bit, (iu, iv) in zip(bits, edges):
            if bit:
                out[iu] |= 1 << iv
                out[iv] |= 1 << iu
    return out


class DominationBatchKernel:
    """Size-bounded domination (Figure 1 MDS) over patched ball masks.

    ``x_edges``/``y_edges`` list the undirected input edge per bit
    position.  Adding edge {u, v} grows exactly two closed
    neighbourhoods — ``ball[u] |= v`` and ``ball[v] |= u`` — so a pair
    costs one list copy plus the set-cover branch-and-bound, with no
    graph build, hash, or ball recomputation.  Radius is fixed at 1
    (the only radius whose balls patch locally under edge insertion).
    """

    monotone = True  # extra edges only enlarge neighbourhoods

    def __init__(self, skeleton, x_edges: Sequence[Tuple[Vertex, Vertex]],
                 y_edges: Sequence[Tuple[Vertex, Vertex]],
                 target_size: int) -> None:
        bg = skeleton.bits()
        self._n = bg.n
        self._balls = list(bg.ball_masks(1))
        index = bg.index
        self._x_edges = [(index[u], index[v]) for u, v in x_edges]
        self._y_edges = [(index[u], index[v]) for u, v in y_edges]
        # same acceptance threshold as has_dominating_set_of_size:
        # a cover strictly below size + 0.5 means cardinality <= size
        self._budget = target_size + 0.5

    def decide(self, x: Bits, y: Bits) -> bool:
        from repro.solvers.dominating import _SetCoverSolver
        balls = _patched_balls(self._balls, x, y, self._x_edges,
                               self._y_edges)
        solver = _SetCoverSolver(
            self._n, [(balls[i], 1.0, i) for i in range(self._n)])
        __, choice = solver.solve(self._budget)
        return choice is not None


class _InputWeights:
    """The vertex weights of G_{x,y} for a Figure 5 skeleton, whose
    deltas are weight-only: ``weights`` (the skeleton's, in its
    ``bits()`` order) with the S_i / S̄_i vertices at 1 for a 1-bit and
    α for a 0-bit.  The family checks against ``build`` that these are
    the weights ``apply_inputs`` installs before it hands out a kernel."""

    def __init__(self, skeleton, weights: Sequence[float],
                 x_vertices: Sequence[Vertex], y_vertices: Sequence[Vertex],
                 alpha: float) -> None:
        index = skeleton.bits().index
        self._weights = list(weights)
        self._x_idx = [index[v] for v in x_vertices]
        self._y_idx = [index[v] for v in y_vertices]
        self._alpha = alpha

    def weights(self, x: Bits, y: Bits) -> List[float]:
        """The vertex weights of G_{x,y} in the skeleton's ``bits()``
        order."""
        weights = list(self._weights)
        alpha = self._alpha
        for bits, idxs in ((x, self._x_idx), (y, self._y_idx)):
            for bit, i in zip(bits, idxs):
                weights[i] = 1.0 if bit else alpha
        return weights


class WeightedDominationBatchKernel(_InputWeights):
    """Weight-bounded distance-k domination (Figure 5 k-MDS).

    The k-MDS deltas are weight-only (``apply_inputs`` re-weights the
    S_i / S̄_i vertices), so the whole set-cover index — one set per
    distance-k ball of the skeleton, filed under every element it
    covers — is built once, here.  A pair fills the 2T input weights
    (:meth:`weights`) and solves a :meth:`_SetCoverSolver.reweighted`
    copy that shares that index.  The family checks the weight-only
    claim before it hands out a kernel
    (:meth:`repro.core.kmds.KMdsFamily.make_batch_kernel`).
    """

    monotone = True  # 1-bits lower weights, so the optimum only drops

    def __init__(self, skeleton, x_vertices: Sequence[Vertex],
                 y_vertices: Sequence[Vertex], alpha: int, k: int,
                 yes_weight: int) -> None:
        from repro.solvers.dominating import _SetCoverSolver
        bg = skeleton.bits()
        weights = [float(skeleton.vertex_weight(v)) for v in bg.vertices]
        super().__init__(skeleton, weights, x_vertices, y_vertices,
                         float(alpha))
        self._cover = _SetCoverSolver(
            bg.n, [(ball, w, i) for i, (ball, w)
                   in enumerate(zip(bg.ball_masks(k), weights))])
        # integer weights: min weight <= yes_weight iff a cover strictly
        # below yes_weight + 0.5 exists
        self._budget = yes_weight + 0.5

    def decide(self, x: Bits, y: Bits) -> bool:
        __, choice = self._cover.reweighted(
            self.weights(x, y)).solve(self._budget)
        return choice is not None


class SteinerBatchKernel:
    """Theorem 2.7 / Claim 2.8 decisions over patched MDS ball masks.

    ``balls`` are the closed neighbourhoods of the MDS graph G that the
    family recovers from its skeleton, and ``x_edges``/``y_edges`` the
    index pair of the input edge per bit position.  A pair patches the
    two balls of each installed edge, as :class:`DominationBatchKernel`
    does, then runs :func:`repro.solvers.dominating.min_size_over_cases`
    over the family's connectivity ``cases``: the search behind
    ``SteinerTreeFamily.min_steiner_size``.  TRUE iff some case
    dominates with at most ``max_size`` vertices, searched below
    ``budget``.
    """

    monotone = False  # every pair is solved, none is inferred

    def __init__(self, balls: Sequence[int],
                 x_edges: Sequence[Tuple[int, int]],
                 y_edges: Sequence[Tuple[int, int]],
                 cases: Sequence[Tuple[int, Sequence[int]]],
                 max_size: int, budget: float) -> None:
        self._balls = list(balls)
        self._x_edges = list(x_edges)
        self._y_edges = list(y_edges)
        self._cases = list(cases)
        self._max_size = max_size
        self._budget = budget

    def balls(self, x: Bits, y: Bits) -> List[int]:
        """The ball masks of G_{x,y}, in the skeleton's vertex order."""
        return _patched_balls(self._balls, x, y, self._x_edges,
                              self._y_edges)

    def decide(self, x: Bits, y: Bits) -> bool:
        from repro.solvers.dominating import min_size_over_cases
        size = min_size_over_cases(self.balls(x, y), self._cases,
                                   self._budget)
        return size is not None and size <= self._max_size


class ThresholdCutBatchKernel:
    """Exact ``max-cut >= target`` decisions with the skeleton's cut
    landscape pre-collapsed onto the delta-touched vertices.

    Let D be the vertices any input-dependent edge can touch
    (``delta_vertices``; the Figure 3 rows plus NA/NB).  For a cut
    side S, ``cut(S) = fixed(S) + delta(S ∩ D)``, so

        ``max_S cut(S) = max_d [ g(d) + delta_cut(d) ]``,
        ``g(d) = max { fixed(S) : S ∩ D = d }``.

    ``g`` is input-independent and is built once by a meet-in-the-middle
    enumeration (D-assignments are the low block, the free remainder
    the high block, one non-D vertex pinned to side 0 by complement
    symmetry); each pair then evaluates its delta edges — weights from
    ``delta_edges_fn(x, y)``, all endpoints required to lie in D — as a
    numpy row over the ``2^|D|`` D-assignments.  Exact for integral
    edge weights (everything stays far below 2^53 in float64).

    The ``2^h x 2^|D|`` cross table behind ``g`` is never held whole:
    :func:`repro.solvers.maxcut.cut_table_blocks` yields it in row
    blocks of at most ``max(2^16, 2^|D|)`` entries, and ``g`` keeps a
    running column maximum, so the build holds a few ``2^h``- and
    ``2^|D|``-long vectors plus one block (a 1 MiB traced peak at k = 2).

    Raises :class:`ValueError` when the instance is out of range
    (non-integral weights, blocks beyond ``2^20`` or their product
    beyond ``2^22``) and ``ImportError`` without numpy — callers degrade
    to the per-pair path.
    """

    monotone = False  # 0-bits add row edges, 1-bits add N-weight

    _MAX_BLOCK_BITS = 20
    # bounds the work: 2^(b+h) cut totals per build, about 4× the k=2
    # max-cut table (2^20); the blocked table keeps memory flat anyway
    _MAX_TOTAL_BITS = 22

    def __init__(self, skeleton, delta_vertices: Sequence[Vertex],
                 target: float,
                 delta_edges_fn: Callable[[Bits, Bits],
                                          Iterable[Tuple[Vertex, Vertex,
                                                         float]]]) -> None:
        import numpy as np

        from repro.solvers.maxcut import cut_table_blocks

        order = list(skeleton.vertices())
        dset = set(delta_vertices)
        if len(dset) != len(delta_vertices):
            raise ValueError("duplicate delta vertices")
        free = [v for v in order if v not in dset]
        if not free:
            raise ValueError("need at least one non-delta vertex to pin")
        low = list(delta_vertices)   # deterministic: caller's bit order
        high = free[:-1]
        pinned = free[-1]            # fixed to side 0 (WLOG by symmetry)
        b, h = len(low), len(high)
        if b > self._MAX_BLOCK_BITS or h > self._MAX_BLOCK_BITS:
            raise ValueError(f"blocks 2^{b} x 2^{h} too large to enumerate")
        if b + h > self._MAX_TOTAL_BITS:
            raise ValueError(f"cross table 2^{b} x 2^{h} too large")
        pos: Dict[Vertex, int] = {}
        for i, v in enumerate(low):
            pos[v] = i
        for j, v in enumerate(high):
            pos[v] = b + j

        low_lin = np.zeros(b, dtype=np.float64)    # w towards pinned
        high_lin = np.zeros(h, dtype=np.float64)
        low_pairs: List[Tuple[int, int, float]] = []
        high_pairs: List[Tuple[int, int, float]] = []
        W = np.zeros((h, b), dtype=np.float64)     # cross weights
        for (u, v), w in skeleton.edge_weights().items():
            if not float(w).is_integer():
                raise ValueError(f"non-integral weight {w!r}")
            w = float(w)
            if u == pinned or v == pinned:
                other = v if u == pinned else u
                p = pos[other]
                if p < b:
                    low_lin[p] += w
                else:
                    high_lin[p - b] += w
                continue
            pu, pv = pos[u], pos[v]
            if pu > pv:
                pu, pv = pv, pu
            if pv < b:
                low_pairs.append((pu, pv, w))
            elif pu >= b:
                high_pairs.append((pu - b, pv - b, w))
            else:
                W[pv - b, pu] += w

        def bit_rows(nbits: int) -> "np.ndarray":
            masks = np.arange(1 << nbits, dtype=np.int64)
            return np.stack([(masks >> i) & 1 for i in range(nbits)]
                            ) if nbits else np.zeros((0, 1), dtype=np.int64)

        S_low = bit_rows(b).astype(np.float64)     # (b, 2^b)
        S_high = bit_rows(h).astype(np.float64)    # (h, 2^h)
        low_cut = np.zeros(1 << b, dtype=np.float64)
        for i, j, w in low_pairs:
            low_cut += w * np.abs(S_low[i] - S_low[j])
        low_cut += low_lin @ S_low                 # pinned is side 0
        high_cut = np.zeros(1 << h, dtype=np.float64)
        for i, j, w in high_pairs:
            high_cut += w * np.abs(S_high[i] - S_high[j])
        high_cut += high_lin @ S_high
        # cross(t, m) = sum_ij W[j,i] (hi_j + lo_i - 2 hi_j lo_i)
        row_w = W.sum(axis=1)                      # per high bit
        col_w = W.sum(axis=0)                      # per low bit
        hi_vec = high_cut + row_w @ S_high         # (2^h,)
        lo_vec = low_cut + col_w @ S_low           # (2^b,)
        # g[m] = max_t (hi_vec[t] + lo_vec[m] - 2 Q[t, m]) with
        # Q = S_high.T @ W @ S_low, one block of rows t at a time
        g = np.full(1 << b, -np.inf)
        for __, block in cut_table_blocks(hi_vec, lo_vec, S_high.T @ W,
                                          S_low):
            np.maximum(g, block.max(axis=0), out=g)
        self._g = g
        self._low_bits = S_low                     # (b, 2^b) float rows
        self._dpos = {v: i for i, v in enumerate(low)}
        self._target = float(target)
        self._delta_edges_fn = delta_edges_fn
        self._np = np

    def decide(self, x: Bits, y: Bits) -> bool:
        np = self._np
        acc = np.zeros(self._g.shape[0], dtype=np.float64)
        rows = self._low_bits
        dpos = self._dpos
        for u, v, w in self._delta_edges_fn(x, y):
            if w:
                acc += float(w) * np.abs(rows[dpos[u]] - rows[dpos[v]])
        # integral arithmetic in float64: >= target iff > target - 0.5
        return bool(np.max(self._g + acc) > self._target - 0.5)


class _CertificateTable:
    """The yes-side of a Section 4.4 iff lemma as a table of subsets.

    ``subsets`` are the subsets of at most two candidates that certify
    a cheap tree whatever their weights (they cover, or connect), each
    a tuple of candidate indices.  ``costs[c]`` is ``(pos, one, zero)``:
    the position of candidate c's input bit in ``x + y`` and its weight
    when that bit is 1 and when it is 0, or ``(None, w, w)`` for a
    candidate no bit re-weights.  A pair is TRUE iff some subset costs
    at most ``cap`` under its weights.

    Only subsets of at most two candidates are tabled, so the table is
    exact only when no subset of three fits under ``cap``: every weight
    must be at least ``cap / 2``, else :class:`ValueError`.  The
    subsets' bit assignments that fit are filed once, as clauses of
    ``(pos, bit)`` literals, so a pair only tests its bits against
    them."""

    def __init__(self, subsets: Sequence[Tuple[int, ...]],
                 costs: Sequence[Tuple[Optional[int], float, float]],
                 cap: float) -> None:
        if any(min(one, zero) < cap / 2 for __, one, zero in costs):
            raise ValueError("a weight below half the threshold: three "
                             "sets could fit under it")
        clauses = set()
        for subset in subsets:
            for bits in product((1, 0), repeat=len(subset)):
                cost, clause = 0, set()
                for c, bit in zip(subset, bits):
                    pos, one, zero = costs[c]
                    cost += one if bit else zero
                    if pos is not None:
                        clause.add((pos, bit))
                if cost <= cap:
                    clauses.add(tuple(sorted(clause)))
        self.clauses = sorted(clauses)

    def affordable(self, x: Bits, y: Bits) -> bool:
        """Whether some tabled subset costs at most the cap under the
        pair's bits."""
        bits = tuple(x) + tuple(y)
        return any(all(bits[pos] == bit for pos, bit in clause)
                   for clause in self.clauses)


def _small_subsets(n: int, certifies: Callable[[Tuple[int, ...]], bool]
                   ) -> List[Tuple[int, ...]]:
    """Every subset of at most two of ``range(n)`` that ``certifies``."""
    return [subset for size in range(3)
            for subset in combinations(range(n), size) if certifies(subset)]


class NodeWeightedSteinerBatchKernel(_InputWeights):
    """Theorem 4.6 / Lemma 4.5 decisions from a table of connectors.

    The node-weighted Steiner deltas are weight-only (``apply_inputs``
    re-weights the S_i / S̄_i vertices), so which vertex sets connect
    the terminals is fixed by the skeleton.  The kernel tables, once,
    every subset of at most two paid vertices that connects the
    terminals together with the free vertices (one bitmask BFS over
    ``bits().adj`` each), and a pair is TRUE iff one of them costs at
    most ``yes_cost`` under its weights: 1 for a 1-bit, α for a 0-bit
    (:meth:`weights`).  On the paper's collection the table holds
    exactly the T complementary pairs {S_i, S̄_i}.

    The table is exact only when the paid set is the same for every
    pair, the terminals are free and every paid weight is at least
    ``yes_cost / 2``, so that no three paid vertices fit; otherwise the
    constructor raises :class:`ValueError`.  The family's ``predicate``
    keeps the capped best-first scan
    (:func:`repro.solvers.steiner.node_weighted_steiner_masks`), and it
    checks the weight-only claim before it hands out a kernel
    (:meth:`repro.core.steiner_approx.NodeWeightedSteinerFamily.make_batch_kernel`).
    """

    monotone = False  # every pair is decided, none is inferred

    def __init__(self, skeleton, terminals: Sequence[Vertex],
                 x_vertices: Sequence[Vertex], y_vertices: Sequence[Vertex],
                 alpha: float, yes_cost: float) -> None:
        from repro.solvers._bitmask import vertex_weights
        from repro.solvers.steiner import _reach
        weights = vertex_weights(skeleton)
        super().__init__(skeleton, weights, x_vertices, y_vertices, alpha)
        bg = skeleton.bits()
        bit_of = {i: pos for pos, i
                  in enumerate(self._x_idx + self._y_idx)}
        terms = [bg.index[v] for v in dict.fromkeys(terminals)]
        if not terms or any(i in bit_of or weights[i] for i in terms):
            raise ValueError("the terminals are not free")
        free = 0
        for i, w in enumerate(weights):
            if (w == 0 and i not in bit_of) or i in terms:
                free |= 1 << i
        term_mask = 0
        for i in terms:
            term_mask |= 1 << i
        #: the paid vertices, in index order; every one is paid in every
        #: pair, since the table check refuses a weight of 0
        self.paid = [i for i in range(bg.n) if not free >> i & 1]
        costs = [(bit_of[i], 1.0, alpha) if i in bit_of
                 else (None, weights[i], weights[i]) for i in self.paid]
        start = 1 << terms[0]

        def connects(subset):
            allowed = free
            for c in subset:
                allowed |= 1 << self.paid[c]
            return _reach(bg.adj, allowed, start) & term_mask == term_mask

        #: the tabled connectors, as tuples of indices into :attr:`paid`
        self.table = _small_subsets(len(self.paid), connects)
        self._certificates = _CertificateTable(self.table, costs, yes_cost)

    def decide(self, x: Bits, y: Bits) -> bool:
        return self._certificates.affordable(x, y)


class RowChoiceBatchKernel:
    """Section 4.1 (Theorems 4.1-4.3) decisions from the input bits.

    The approx-MaxIS families' structured solver reads a graph only
    through which row pairs are adjacent, and an input edge joins a row
    pair exactly when its bit is 0.  So a pair's bits are the solver's
    input as they are: ``max_weight(x, y)`` is the family's
    ``max_weight_of_rows``, and a pair is TRUE iff it reaches
    ``threshold``.  The family checks the bits-for-adjacency claim
    through ``build`` before it hands out a kernel.
    """

    monotone = False  # every pair is solved, none is inferred

    def __init__(self, max_weight: Callable[[Bits, Bits], int],
                 threshold: int) -> None:
        self._max_weight = max_weight
        self._threshold = threshold

    def decide(self, x: Bits, y: Bits) -> bool:
        return self._max_weight(x, y) >= self._threshold


def unit_cover_solver(ell: int, masks: Sequence[int],
                      fallbacks: Sequence[Tuple[int, float, int]]):
    """The set cover over ``ell`` elements behind the Theorem 4.7
    family: one weight-1 set per element mask in ``masks`` (in order),
    then the ``fallbacks`` as given."""
    from repro.solvers.dominating import _SetCoverSolver
    sets: List[Tuple[int, float, int]] = [
        (mask, 1.0, i) for i, mask in enumerate(masks)]
    sets.extend(fallbacks)
    return _SetCoverSolver(ell, sets)


#: the search budget of :func:`cover_within_two`
_WITHIN_TWO_BUDGET = 3


def cover_within_two(solver) -> bool:
    """Whether ``solver``'s cover costs at most 2, decided at the
    threshold: the search only looks for a cover cheaper than 3, so it
    prunes every branch that cannot beat 3 instead of proving the exact
    optimum.  A cover it returns is the cheapest one, and the ``<= 2``
    test keeps the answer exact for non-integral fallback weights too.
    The decision of ``DirectedSteinerFamily.predicate`` (on a
    :func:`unit_cover_solver`); :class:`DirectedSteinerBatchKernel`
    decides from its certificate table instead, so the two check each
    other."""
    weight, choice = solver.solve(_WITHIN_TWO_BUDGET)
    return choice is not None and weight <= 2


class DirectedSteinerBatchKernel:
    """Theorem 4.7 / Lemma 4.6 decisions from a table of covers.

    The cover sets come in pairs per bit position i, S_i then S̄_i (the
    family's ``_cover_sides`` order).  ``x_masks[i]`` is the pair of
    element masks of S_i with x_i = 0 and with x_i = 1, read once from
    the skeleton and the input-arc table; likewise ``y_masks[i]`` for
    S̄_i.  Every 0-bit mask must be empty (else :class:`ValueError`), so
    a set is in a pair's cover only when its bit is 1, at weight 1.

    The kernel tables, once, every subset of at most two of the 2T
    1-bit masks and the ℓ fallbacks whose element masks cover the
    universe (:attr:`table`, indices into that order).  A pair is TRUE
    iff one of them costs at most ``yes_cost``: all its sets' bits are
    1 and the fallbacks' weights fit.  That is exact while every
    fallback weighs at least ``yes_cost / 2``, so that no three sets
    fit; otherwise the constructor raises :class:`ValueError`.  The
    family's ``predicate`` keeps the set-cover search of
    :func:`cover_within_two`.
    """

    monotone = False  # every pair is decided, none is inferred

    def __init__(self, ell: int, x_masks: Sequence[Tuple[int, int]],
                 y_masks: Sequence[Tuple[int, int]],
                 fallbacks: Sequence[Tuple[int, float, int]],
                 yes_cost: float) -> None:
        T = len(x_masks)
        on: List[int] = []
        costs: List[Tuple[Optional[int], float, float]] = []
        for i, ((x_off, x_on), (y_off, y_on)) in enumerate(
                zip(x_masks, y_masks)):
            if x_off or y_off:
                raise ValueError("a 0-bit cover mask is not empty")
            on += [x_on, y_on]
            # a 0-bit set covers nothing: it is in no pair's cover
            costs += [(i, 1.0, float("inf")), (T + i, 1.0, float("inf"))]
        self._on = on
        masks = on + [mask for mask, __, __ in fallbacks]
        costs += [(None, w, w) for __, w, __ in fallbacks]
        full = (1 << ell) - 1

        def covers(subset):
            covered = 0
            for c in subset:
                covered |= masks[c]
            return covered == full

        self.table = _small_subsets(len(masks), covers)
        self._certificates = _CertificateTable(self.table, costs, yes_cost)

    def masks(self, x: Bits, y: Bits) -> List[int]:
        """The element mask of every cover set of G_{x,y}, in order:
        its 1-bit mask for a 1-bit, empty for a 0-bit."""
        bits = [b for pair in zip(x, y) for b in pair]
        return [mask if bit else 0 for mask, bit in zip(self._on, bits)]

    def decide(self, x: Bits, y: Bits) -> bool:
        return self._certificates.affordable(x, y)
