"""Families of lower bound graphs (Definition 1.1) and Theorem 1.1.

A family is, for fixed K and n, a map (x, y) ↦ G_{x,y} over a *fixed*
vertex set with a *fixed* partition (VA, VB) such that

1. only G[VA] (edges/weights inside VA) depends on x,
2. only G[VB] depends on y,
3. the cut edge set E(VA, VB) is the same for all inputs, and
4. G_{x,y} satisfies the predicate P iff f(x, y) = TRUE.

Theorem 1.1 then gives a CONGEST round lower bound of
Ω(CC(f) / (|Ecut| · log n)) for deciding P.

:func:`validate_family` machine-checks items 1-3 on sampled inputs and
:func:`verify_iff` checks item 4 with an exact predicate decision.

Incremental builds.  Definition 1.1 makes every family a fixed skeleton
perturbed per input pair, so :class:`DeltaBuildMixin` splits ``build``
into ``build_skeleton()`` (the input-independent graph, built and
cache-warmed once per family instance) and ``apply_inputs(g, x, y)``
(the x/y-dependent edge/weight deltas applied to a cache-carrying
copy).  Sweeps over many pairs then cost one skeleton construction plus
one cheap delta per pair; :func:`sweep` additionally memoizes predicate
decisions on the ``(x, y)`` delta signature so repeated pairs — the
common case across ``validate_family`` / ``verify_iff`` / witness
checks — never rebuild or re-solve at all.
"""

from __future__ import annotations

import math
import os
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.cc.functions import CCFunction, DISJ, random_input_pairs
from repro.graphs import DiGraph, Graph, Vertex

Bits = Tuple[int, ...]
AnyGraph = Union[Graph, DiGraph]


class FamilyValidationError(AssertionError):
    """A Definition 1.1 requirement failed on concrete inputs."""


#: module default for sweep fan-out; set via :func:`configure_sweep`
#: (the CLI's ``--sweep-jobs``).  ``verify_iff``/``sweep`` callers that
#: pass ``jobs=None`` use this value.
_DEFAULT_SWEEP_JOBS = 1

_UNSET = object()

#: default persistent result store directory for sweeps (None = no
#: store); set via :func:`configure_sweep`.  Explicit ``store=`` args
#: to :func:`sweep` / :func:`verify_iff` override it per call.
_SWEEP_STORE_DIR: Optional[str] = None
_SWEEP_STORE_CACHE: Dict[str, Any] = {}

#: whether sweeps consult a family's batched decision kernel
#: (:meth:`DeltaBuildMixin.decide_batch`) for pairs that survive
#: memo/store dedup; set via :func:`configure_sweep` (``--no-batch``).
_DEFAULT_SWEEP_BATCH = True


def configure_sweep(jobs: Optional[int] = None,
                    store_dir: Any = _UNSET,
                    batch: Optional[bool] = None) -> None:
    """Set sweep defaults: ``jobs`` workers for predicate fan-out
    (``1`` is serial), a persistent result-store directory (``None``
    disables the store), and/or ``batch`` use of batched decision
    kernels.  Fork-based experiment workers inherit all three
    settings."""
    global _DEFAULT_SWEEP_JOBS, _SWEEP_STORE_DIR, _DEFAULT_SWEEP_BATCH
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        _DEFAULT_SWEEP_JOBS = jobs
    if store_dir is not _UNSET:
        _SWEEP_STORE_DIR = os.fspath(store_dir) if store_dir else None
    if batch is not None:
        _DEFAULT_SWEEP_BATCH = bool(batch)


def _configured_store():
    """The module-default :class:`~repro.experiments.sweep_store.SweepStore`
    (one instance per directory), or None when no store is configured."""
    if _SWEEP_STORE_DIR is None:
        return None
    store = _SWEEP_STORE_CACHE.get(_SWEEP_STORE_DIR)
    if store is None:
        from repro.experiments.sweep_store import SweepStore
        store = SweepStore(_SWEEP_STORE_DIR)
        _SWEEP_STORE_CACHE[_SWEEP_STORE_DIR] = store
    return store


def _warm_graph_caches(graph: AnyGraph) -> None:
    """Precompute the derived caches a cache-carrying ``copy()`` shares,
    so every per-input build starts with them populated (the trick
    KMdsFamily proved out before it was hoisted here).  A ``Graph``'s
    bitmask view (:meth:`Graph.bits`) survives weight-only deltas, so a
    family whose ``apply_inputs`` only re-weights (node-weighted
    Steiner, k-MDS) builds it once per skeleton, not per pair.  A
    ``DiGraph`` has no such view: the directed family reads successor
    sets straight from the graph."""
    if isinstance(graph, Graph):
        graph.sorted_vertices()
        graph.edges()
        graph.bits()
    graph.edge_weights()
    # populates the vertex-set caches (sorted order, sort-key maps) that
    # survive the weight/edge deltas apply_inputs makes on each copy
    graph.content_hash()


class DeltaBuildMixin:
    """The skeleton/delta incremental-build protocol.

    Implementors provide :meth:`build_skeleton` (input-independent
    graph) and :meth:`apply_inputs` (x/y-dependent deltas); the mixin
    supplies a ``build`` that copies a cached, cache-warmed skeleton
    and applies the deltas.  Structural deltas (``add_edge``) drop the
    copy's derived caches; weight-only deltas (``set_vertex_weight`` /
    weighted ``add_edge`` re-weights) keep the adjacency-derived caches
    alive via the class-based invalidation in :mod:`repro.graphs`.

    Classes that cannot split their construction (transform wrappers,
    varying vertex sets) simply override ``build`` directly; everything
    here degrades gracefully to that.
    """

    #: per-instance caches that :meth:`skeleton` and :func:`sweep`
    #: accrete over a family's lifetime.  They are pure derived state,
    #: so pickling strips them — a fan-out payload must not grow with
    #: sweep history (workers rebuild the skeleton once each, and
    #: shipping thousands of memoized decisions they never read would
    #: dwarf the family itself).  Batch-kernel state rides along:
    #: kernels hold solver tables derived from the skeleton, so workers
    #: rebuild them once per lane rather than unpickling them.
    _PICKLE_TRANSIENT = ("_skeleton_store", "_sweep_memo",
                         "_batch_kernel", "_kernel_events")

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        for key in self._PICKLE_TRANSIENT:
            state.pop(key, None)
        return state

    def build_skeleton(self) -> AnyGraph:
        """Construct the input-independent part of G_{x,y} from scratch."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the skeleton/delta "
            f"protocol; override build() directly or provide "
            f"build_skeleton() + apply_inputs()")

    def apply_inputs(self, graph: AnyGraph, x: Sequence[int],
                     y: Sequence[int]) -> None:
        """Install the x/y-dependent edge/weight deltas on ``graph``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement apply_inputs()")

    def delta_key(self) -> str:
        """Every parameter that :meth:`apply_inputs` reads and the
        skeleton does not show, as a string; the sweep-store key folds it
        in (see :func:`repro.experiments.sweep_store.family_key`).  Empty
        when the skeleton shows them all."""
        return ""

    def _skeleton_base(self) -> AnyGraph:
        """The cached skeleton itself (built once per instance, derived
        caches warmed); read-only — :meth:`skeleton` hands out copies."""
        store = getattr(self, "_skeleton_store", None)
        if store is None:
            store = self.build_skeleton()
            _warm_graph_caches(store)
            self._skeleton_store = store
        return store

    def skeleton(self) -> AnyGraph:
        """A fresh copy of the cached skeleton (built once per instance,
        derived caches warmed; the copy is safe to mutate)."""
        return self._skeleton_base().copy()

    def fixed_graph(self) -> AnyGraph:
        """Historical name for :meth:`skeleton` (a warmed mutable copy
        of the input-independent graph)."""
        return self.skeleton()

    def _require_inputs(self, x: Sequence[int], y: Sequence[int]) -> None:
        k_bits = self.k_bits  # type: ignore[attr-defined]
        if len(x) != k_bits or len(y) != k_bits:
            raise ValueError(f"input length must be {k_bits}")

    def build(self, x: Sequence[int], y: Sequence[int]) -> AnyGraph:
        """Construct G_{x,y} as skeleton-copy + delta."""
        self._require_inputs(x, y)
        g = self.skeleton()
        self.apply_inputs(g, x, y)
        return g

    def build_scratch(self, x: Sequence[int], y: Sequence[int]) -> AnyGraph:
        """Reference build that bypasses the skeleton cache entirely —
        the differential baseline the ``family:delta-equivalence`` check
        pins ``build`` against.  Falls back to ``build`` for families
        that override it directly."""
        try:
            g = self.build_skeleton()
        except NotImplementedError:
            return self.build(x, y)
        self._require_inputs(x, y)
        self.apply_inputs(g, x, y)
        return g

    # ------------------------------------------------------------------
    # batched decision kernels
    # ------------------------------------------------------------------
    def make_batch_kernel(self, skeleton: AnyGraph) -> Optional[Any]:
        """Build a batched decision kernel from ``skeleton``, or None.

        A kernel carries solver-side state precomputed from the
        input-independent skeleton (ball-mask tables, successor
        bitmasks, cut-landscape tables — see
        :mod:`repro.solvers.batch_kernels`) and exposes
        ``decide(x, y) -> bool`` answering the family predicate by
        evaluating only the delta, plus a ``monotone`` flag declaring
        the predicate monotone non-decreasing in every input bit.
        Returning None (the default, and the escape hatch for
        parameter regimes a kernel cannot handle) sends every pair down
        the per-pair ``predicate(build(x, y))`` path.
        """
        return None

    def supports_batch(self) -> bool:
        """Whether this family can answer through a batched kernel.

        A kernel bakes in the predicate semantics of the class that
        defined :meth:`make_batch_kernel`; a subclass (or instance
        monkeypatch) that changes ``predicate`` or ``build`` without
        also overriding the kernel factory would silently get the
        *parent's* answers, so those cases decline batching and fall
        back to the per-pair path.
        """
        cls = type(self)
        if cls.make_batch_kernel is DeltaBuildMixin.make_batch_kernel:
            return False
        if "predicate" in self.__dict__ or "build" in self.__dict__:
            return False
        kernel_owner = next(c for c in cls.__mro__
                            if "make_batch_kernel" in vars(c))
        for meth in ("predicate", "build"):
            owner = next((c for c in cls.__mro__ if meth in vars(c)), None)
            if (owner is not None and owner is not kernel_owner
                    and issubclass(owner, kernel_owner)):
                return False
        return True

    def kernel_events(self) -> Dict[str, int]:
        """Lifetime kernel-state counters for this instance:
        ``state_hits`` (a cached kernel matched the current skeleton's
        content hash) and ``state_misses`` (a kernel was built — first
        use or hash change)."""
        events = getattr(self, "_kernel_events", None)
        if events is None:
            events = self._kernel_events = {"state_hits": 0,
                                            "state_misses": 0}
        return events

    def _batch_kernel_for(self, skeleton: AnyGraph) -> Optional[Any]:
        """The cached kernel for ``skeleton``, keyed on its content
        hash — a skeleton whose content changed (or a different
        skeleton object) invalidates the cache and rebuilds."""
        chash = skeleton.content_hash()
        cached = getattr(self, "_batch_kernel", None)
        events = self.kernel_events()
        if cached is not None and cached[0] == chash:
            events["state_hits"] += 1
            return cached[1]
        events["state_misses"] += 1
        kernel = self.make_batch_kernel(skeleton)
        self._batch_kernel = (chash, kernel)
        return kernel

    def decide_batch(
        self,
        skeleton: Optional[AnyGraph],
        pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        timings: Optional[Dict[Tuple[Bits, Bits], float]] = None,
    ) -> Optional[Dict[Tuple[Bits, Bits], bool]]:
        """Decide the predicate for ``pairs`` through the batched
        kernel, or return None when no kernel applies.

        ``skeleton`` defaults to this instance's cached skeleton store
        (read-only — kernels must not mutate it).  The kernel is built
        at most once per skeleton content hash (:meth:`_batch_kernel_for`)
        and reused across calls; ``timings`` (when given) receives the
        per-pair decision seconds for latency reporting.  Inferred
        decisions on monotone kernels are recorded at zero cost.

        For ``monotone`` kernels the driver exploits that the predicate
        is monotone non-decreasing in every bit: pairs are solved in
        ascending popcount order and a pair that dominates a known-TRUE
        pair bitwise (or is dominated by a known-FALSE one) is inferred
        without touching the solver.  On the paper's gadget grids this
        collapses most of the 2^K × 2^K lattice into a few extremal
        solver calls.
        """
        if not self.supports_batch():
            return None
        if skeleton is None:
            skeleton = self._skeleton_base()
        kernel = self._batch_kernel_for(skeleton)
        if kernel is None:
            return None

        import time as _time

        for x, y in pairs:
            self._require_inputs(x, y)
        keys = [(tuple(x), tuple(y)) for x, y in pairs]
        out: Dict[Tuple[Bits, Bits], bool] = {}
        if not getattr(kernel, "monotone", False):
            for key in keys:
                if key in out:
                    continue
                t0 = _time.perf_counter()
                out[key] = bool(kernel.decide(*key))
                if timings is not None:
                    timings[key] = _time.perf_counter() - t0
            return out

        def mask(bits: Bits) -> int:
            m = 0
            for i, b in enumerate(bits):
                if b:
                    m |= 1 << i
            return m

        order = sorted(set(keys), key=lambda kv: sum(kv[0]) + sum(kv[1]))
        true_mins: List[Tuple[int, int]] = []
        false_maxs: List[Tuple[int, int]] = []
        for key in order:
            t0 = _time.perf_counter()
            xm, ym = mask(key[0]), mask(key[1])
            dec: Optional[bool] = None
            for txm, tym in true_mins:
                if txm & xm == txm and tym & ym == tym:
                    dec = True  # dominates a TRUE pair
                    break
            if dec is None:
                for fxm, fym in false_maxs:
                    if xm | fxm == fxm and ym | fym == fym:
                        dec = False  # dominated by a FALSE pair
                        break
            if dec is None:
                dec = bool(kernel.decide(*key))
                # ascending-popcount order makes solved TRUEs minimal
                # and solved FALSEs maximal among solved pairs so far
                (true_mins if dec else false_maxs).append((xm, ym))
            out[key] = dec
            if timings is not None:
                timings[key] = _time.perf_counter() - t0
        return out


class LowerBoundGraphFamily(DeltaBuildMixin, ABC):
    """Abstract base for every construction in the paper.

    Subclasses fix K (``k_bits``), the reduced-from function
    (``function``, usually DISJ), the partition, the builder — either
    ``build_skeleton`` + ``apply_inputs`` (preferred, see
    :class:`DeltaBuildMixin`) or a direct ``build`` override — and an
    exact predicate decision procedure.
    """

    #: the two-party function reduced from (Definition 1.1's f)
    function: CCFunction = DISJ

    #: ``repro verify`` registry name, when the family is constructible
    #: from the CLI — lets verify_iff emit one-line repro commands.
    cli_name: Optional[str] = None

    @property
    @abstractmethod
    def k_bits(self) -> int:
        """Input length K of each player's bit string."""

    @abstractmethod
    def alice_vertices(self) -> Set[Vertex]:
        """The fixed part VA simulated by Alice."""

    @abstractmethod
    def predicate(self, graph: AnyGraph) -> bool:
        """Decide P on a graph of this family, exactly."""

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def bob_vertices(self) -> Set[Vertex]:
        g = self.build(self.zero_input(), self.zero_input())
        return set(g.vertices()) - self.alice_vertices()

    def zero_input(self) -> Bits:
        return tuple([0] * self.k_bits)

    def cut_edges(self, graph: Optional[AnyGraph] = None) -> List[Tuple[Vertex, Vertex]]:
        if graph is None:
            graph = self.build(self.zero_input(), self.zero_input())
        va = self.alice_vertices()
        edges = graph.edges() if isinstance(graph, Graph) else list(graph.edges())
        return [(u, v) for u, v in edges if (u in va) != (v in va)]

    def n_vertices(self) -> int:
        return self.build(self.zero_input(), self.zero_input()).n

    def describe(self) -> Dict[str, Any]:
        g = self.build(self.zero_input(), self.zero_input())
        return {
            "family": type(self).__name__,
            "K": self.k_bits,
            "n": g.n,
            "m": g.m,
            "ecut": len(self.cut_edges(g)),
            "function": self.function.name,
            "implied_bound": theorem_1_1_bound(self),
        }


def theorem_1_1_bound(family: LowerBoundGraphFamily) -> float:
    """Evaluate Ω(CC(f)/(|Ecut| log n)) for a family instance (the
    constant-free value of the Theorem 1.1 round lower bound)."""
    n = family.n_vertices()
    ecut = len(family.cut_edges())
    cc = family.function.cc(family.k_bits)
    return cc / (ecut * math.log2(max(2, n)))


# ----------------------------------------------------------------------
# structural comparison helpers
# ----------------------------------------------------------------------
def _edge_key(u: Vertex, v: Vertex) -> FrozenSet:
    return frozenset((u, v))


def _signature(graph: AnyGraph, inside: Set[Vertex]) -> Dict[Any, float]:
    """Weighted edge multiset of G[inside] plus vertex weights of inside."""
    sig: Dict[Any, float] = {}
    if isinstance(graph, DiGraph):
        for (u, v), w in graph.edge_weights().items():
            if u in inside and v in inside:
                sig[("e", u, v)] = w
    else:
        for (u, v), w in graph.edge_weights().items():
            if u in inside and v in inside:
                sig[("e", _edge_key(u, v))] = w
    for v in inside:
        sig[("w", v)] = graph.vertex_weight(v)
    return sig


def _cut_signature(graph: AnyGraph, va: Set[Vertex]) -> Dict[Any, float]:
    sig: Dict[Any, float] = {}
    if isinstance(graph, DiGraph):
        for (u, v), w in graph.edge_weights().items():
            if (u in va) != (v in va):
                sig[("e", u, v)] = w
    else:
        for (u, v), w in graph.edge_weights().items():
            if (u in va) != (v in va):
                sig[("e", _edge_key(u, v))] = w
    return sig


def validate_family(
    family: LowerBoundGraphFamily,
    input_pairs: Optional[Sequence[Tuple[Bits, Bits]]] = None,
    rng: Optional[random.Random] = None,
    samples: int = 6,
) -> None:
    """Machine-check Definition 1.1's structural requirements (items 1-3).

    For sampled inputs: the vertex set is fixed; G[VA] is identical for
    equal x (any y); G[VB] is identical for equal y (any x); and the cut
    (with weights) is identical for all inputs.  Raises
    :class:`FamilyValidationError` on violation.
    """
    rng = rng or random.Random(0xC0FFEE)
    if input_pairs is None:
        input_pairs = random_input_pairs(family.k_bits, samples, rng)
    xs = [p[0] for p in input_pairs]
    ys = [p[1] for p in input_pairs]

    # the three scans below revisit the same (x, y) combinations; build
    # each graph once (deltas are cheap but solver-free builds are not
    # always, e.g. transform wrappers)
    built: Dict[Tuple[Bits, Bits], AnyGraph] = {}

    def build(x: Bits, y: Bits) -> AnyGraph:
        key = (tuple(x), tuple(y))
        g = built.get(key)
        if g is None:
            g = built[key] = family.build(x, y)
        return g

    va = family.alice_vertices()
    base = build(xs[0], ys[0])
    vertex_set = set(base.vertices())
    vb = vertex_set - va
    if not va <= vertex_set:
        raise FamilyValidationError("VA is not a subset of the vertex set")
    cut_sig = _cut_signature(base, va)

    for x in xs[:3]:
        sigs = {frozenset(_signature(build(x, y), va).items())
                for y in ys}
        if len(sigs) != 1:
            raise FamilyValidationError("G[VA] depends on y")
    for y in ys[:3]:
        sigs = {frozenset(_signature(build(x, y), vb).items())
                for x in xs}
        if len(sigs) != 1:
            raise FamilyValidationError("G[VB] depends on x")
    for x, y in zip(xs, ys):
        g = build(x, y)
        if set(g.vertices()) != vertex_set:
            raise FamilyValidationError("vertex set varies with the input")
        if _cut_signature(g, va) != cut_sig:
            raise FamilyValidationError("Ecut varies with the input")


@dataclass
class SweepReport:
    """Outcome of a batched predicate sweep (see :func:`sweep`).

    ``decisions[i]`` is the predicate value for ``pairs[i]``; reports
    are order-preserving and byte-identical regardless of memoization,
    store restores, or worker fan-out.  ``unique_pairs`` splits into
    ``store_hits`` (restored from the persistent result store) plus
    ``solved`` (freshly decided this sweep) — coverage reporting relies
    on the two being distinguishable.
    """

    decisions: List[bool]
    pairs: int
    unique_pairs: int
    memo_hits: int
    solved: int
    store_hits: int = 0
    #: of ``solved``, how many were answered by a batched decision
    #: kernel (:meth:`DeltaBuildMixin.decide_batch`) instead of the
    #: per-pair ``predicate(build(x, y))`` path
    batched: int = 0
    #: per-pair decision latencies in milliseconds for the pairs this
    #: sweep actually decided (serial path only; None when the sweep
    #: solved nothing locally or fanned out to workers)
    solve_ms: Optional[List[float]] = None

    def __str__(self) -> str:
        stored = (f", {self.store_hits} store hits"
                  if self.store_hits else "")
        via = f", {self.batched} batched" if self.batched else ""
        return (f"{self.pairs} pairs swept "
                f"({self.unique_pairs} unique, {self.memo_hits} memo hits"
                f"{stored}, {self.solved} solved{via})")


def sweep(
    family: LowerBoundGraphFamily,
    input_pairs: Sequence[Tuple[Bits, Bits]],
    jobs: Optional[int] = None,
    memo: bool = True,
    store: Any = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    batch: Optional[bool] = None,
) -> SweepReport:
    """Decide P(G_{x,y}) for a batch of input pairs through the
    incremental-build path.

    The per-instance memo keys decisions on the ``(x, y)`` delta
    signature — for a fixed family instance the graph, and hence the
    predicate, is a pure function of the pair, so equal pairs (within
    this batch or across earlier sweeps on the same instance) are never
    rebuilt or re-solved.

    ``store`` is a :class:`repro.experiments.sweep_store.SweepStore`
    (default: the one configured via :func:`configure_sweep`, usually
    none): undecided pairs found there are *restored* instead of
    re-solved (counted as ``store_hits``), and every fresh decision is
    persisted the moment it lands — serially or inside a fork worker —
    so a sweep killed mid-batch resumes where it stopped.

    ``jobs > 1`` fans the remaining pairs over the persistent warm
    worker pool (:mod:`repro.experiments.warm_pool` — skeleton
    broadcast once per :class:`~repro.experiments.sweep_store.FamilyKey`,
    per-pair payloads reduced to the bit strings).  Where warm fan-out
    is impossible (this is not the main process, say) it falls back to
    fresh lanes (:mod:`repro.experiments.sweep`), and then to the serial
    loop.  Both fan-outs run on the one lane scheduler
    (:func:`repro.experiments.parallel.drain`), so they share the
    per-shard ``timeout``/``retries`` crash semantics and return
    decisions in request order.

    ``batch`` (default: the :func:`configure_sweep` setting, on)
    consults the family's batched decision kernel
    (:meth:`DeltaBuildMixin.decide_batch`) for pairs that survive
    memo/store dedup — in the serial loop, inside cold fork shards, and
    inside warm-pool lanes alike — falling back per pair for families
    (or parameter regimes) without a kernel.
    """
    if jobs is None:
        jobs = _DEFAULT_SWEEP_JOBS
    if batch is None:
        batch = _DEFAULT_SWEEP_BATCH
    if store is None:
        store = _configured_store()
    memo_store: Dict[Tuple[Bits, Bits], bool]
    if memo:
        memo_store = getattr(family, "_sweep_memo", None)
        if memo_store is None:
            memo_store = family._sweep_memo = {}
    else:
        memo_store = {}

    keys = [(tuple(x), tuple(y)) for x, y in input_pairs]
    todo: List[Tuple[Bits, Bits]] = []
    seen: Set[Tuple[Bits, Bits]] = set()
    for key in keys:
        if key not in memo_store and key not in seen:
            seen.add(key)
            todo.append(key)
    # prior-sweep hits and in-batch duplicates both skip the solver
    memo_hits = len(keys) - len(todo)

    fkey = None
    store_hits = 0
    if store is not None and todo:
        from repro.experiments.sweep_store import family_key
        fkey = family_key(family)
        stored = store.load_pairs(fkey)
        if stored:
            remaining: List[Tuple[Bits, Bits]] = []
            for key in todo:
                decision = stored.get(key)
                if decision is None:
                    remaining.append(key)
                else:
                    memo_store[key] = decision
                    store_hits += 1
            todo = remaining

    decided: Optional[List[bool]] = None
    timings: Dict[Tuple[Bits, Bits], float] = {}
    counters = {"batched": 0}
    if jobs > 1 and len(todo) > 1:
        from repro.experiments.warm_pool import pool_decisions
        decided = pool_decisions(family, todo, jobs, timeout=timeout,
                                 retries=retries, store=store, fkey=fkey,
                                 batch=batch)
        if decided is None:
            from repro.experiments.sweep import parallel_decisions
            decided = parallel_decisions(family, todo, jobs, timeout=timeout,
                                         retries=retries, store=store,
                                         fkey=fkey, batch=batch)
    if decided is None:
        from repro.experiments.sweep import _decide_serial
        decided = _decide_serial(family, todo, store=store, fkey=fkey,
                                 batch=batch, timings=timings,
                                 counters=counters)
    for key, decision in zip(todo, decided):
        memo_store[key] = decision

    solve_ms = ([timings[key] * 1000.0 for key in todo if key in timings]
                or None)
    return SweepReport(
        decisions=[memo_store[key] for key in keys],
        pairs=len(keys),
        unique_pairs=len(todo) + store_hits,
        memo_hits=memo_hits,
        solved=len(todo),
        store_hits=store_hits,
        batched=counters["batched"],
        solve_ms=solve_ms,
    )


def pair_repro_command(
    family: LowerBoundGraphFamily,
    x: Sequence[int],
    y: Sequence[int],
) -> str:
    """A copy-pasteable one-liner re-checking one (x, y) pair, in the
    ``repro check`` repro-command convention.

    Only meaningful for CLI-registered families (``cli_name`` set);
    collection-backed families assume the CLI's default covering
    collection, which matches the experiment defaults.
    """
    name = getattr(family, "cli_name", None)
    if name is None:
        return (f"(no CLI repro available for {type(family).__name__}; "
                f"x={tuple(x)}, y={tuple(y)})")
    xbits = "".join(str(int(b)) for b in x)
    ybits = "".join(str(int(b)) for b in y)
    cmd = f"python -m repro verify {name}"
    k = getattr(family, "k", None)
    if isinstance(k, int):
        cmd += f" -k {k}"
    return f"{cmd} --x {xbits} --y {ybits}"


@dataclass
class IffReport:
    """Outcome of a predicate ⇔ f sweep."""

    checked: int
    true_instances: int
    false_instances: int

    def __str__(self) -> str:
        return (f"{self.checked} input pairs checked "
                f"({self.true_instances} TRUE / {self.false_instances} FALSE)")


def verify_iff(
    family: LowerBoundGraphFamily,
    input_pairs: Sequence[Tuple[Bits, Bits]],
    negate: bool = False,
    jobs: Optional[int] = None,
    memo: bool = True,
    store: Any = None,
    batch: Optional[bool] = None,
) -> IffReport:
    """Check item 4 of Definition 1.1: P(G_{x,y}) ⇔ f(x, y).

    Most constructions in the paper satisfy P iff DISJ = FALSE; they pass
    ``negate=True`` (the predicate then tracks ¬f, which is the same
    family up to renaming the predicate).

    Decisions run through :func:`sweep` (delta builds, per-pair
    memoization, optional ``jobs`` fan-out and persistent ``store``
    restores).  On failure, *all*
    mismatching pairs are collected into the
    :class:`FamilyValidationError`, each with a one-line repro command.
    """
    report = sweep(family, input_pairs, jobs=jobs, memo=memo, store=store,
                   batch=batch)
    true_count = 0
    false_count = 0
    mismatches: List[str] = []
    for (x, y), actual in zip(input_pairs, report.decisions):
        expected = family.function(x, y)
        if negate:
            expected = not expected
        if actual != expected:
            mismatches.append(
                f"  x={tuple(x)}, y={tuple(y)}: "
                f"predicate={actual}, expected={expected}\n"
                f"    reproduce: {pair_repro_command(family, x, y)}")
        if expected:
            true_count += 1
        else:
            false_count += 1
    if mismatches:
        raise FamilyValidationError(
            f"{len(mismatches)} predicate mismatch(es) over "
            f"{len(input_pairs)} pairs on {type(family).__name__}:\n"
            + "\n".join(mismatches))
    return IffReport(checked=len(input_pairs),
                     true_instances=true_count,
                     false_instances=false_count)
