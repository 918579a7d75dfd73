"""The universal collect-and-solve CONGEST algorithm.

This is the paper's folklore O(m + D)-round upper bound ("any natural
graph problem can be solved in O(m) rounds ... by letting the vertices
learn the whole graph", Section 1): elect a leader, build a BFS tree,
pipeline every edge record up the tree, solve locally at the leader, and
pipeline per-vertex answers back down.  On the Section 2 families
m = Θ(n²), matching the Ω̃(n²) lower bounds up to polylog factors.

The same machinery, with an edge *filter*, implements the sampling
upload of the (1 − ε)-approximate max-cut algorithm (Theorem 2.9).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.congest.model import CongestSimulator, Message, NodeAlgorithm, NodeContext
from repro.graphs import Graph, Vertex

# message tags (ints keep messages within O(log n) bits)
_T_FLOOD = 0
_T_BFS = 1
_T_CHILD = 2
_T_REC = 3
_T_UPDONE = 4
_T_SOL = 5
_T_EOT = 6

EdgeFilter = Callable[[int, int, random.Random], bool]
# solve(n, edge_records, vertex_records) -> (global_value, {uid: value})
Solver = Callable[[int, List[Tuple[int, int, Optional[int]]],
                   List[Tuple[int, Optional[int]]]],
                  Tuple[Any, Dict[int, Any]]]


class CollectAndSolve(NodeAlgorithm):
    """Leader election → BFS → pipelined upcast → solve → pipelined downcast.

    Parameters
    ----------
    solver : leader-side callback computing the answer from the collected
        records (local computation is free in CONGEST).
    edge_filter : optional predicate ``(u, v, rng) -> bool`` applied by the
        owner (smaller uid) of each edge; unsampled edges are not uploaded.
    include_vertex_weights : also upload ``(uid, weight)`` records.
    seed : base seed for the per-vertex randomness given to the filter.
    """

    def __init__(self, solver: Solver,
                 edge_filter: Optional[EdgeFilter] = None,
                 include_vertex_weights: bool = False,
                 seed: int = 0) -> None:
        self.solver = solver
        self.edge_filter = edge_filter
        self.include_vertex_weights = include_vertex_weights
        self.seed = seed
        self.leader: Optional[int] = None
        self.parent: Optional[int] = None
        self.depth: Optional[int] = None
        self.children: List[int] = []
        self.queue: List[Tuple] = []
        self.children_done: set = set()
        #: children that have not yet sent ``UPDONE``
        self.owed = 0
        self.sent_done = False
        self.edge_records: List[Tuple[int, int, Optional[int]]] = []
        self.vertex_records: List[Tuple[int, Optional[int]]] = []
        #: wire messages (``SOL``/``EOT`` tuples) still to send to the
        #: children, oldest first
        self.down_queue: Deque[Message] = deque()
        self.my_value: Any = None
        self.global_value: Any = None
        self.got_eot = False

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        self.best = ctx.uid
        ctx.sleep(until=ctx.n)
        return {w: (_T_FLOOD, self.best) for w in ctx.neighbors}

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        # Between phase boundaries only a message can give a vertex
        # something to do, so it sleeps until the next boundary: round
        # n ends the flood, 2n the BFS, 2n + 1 announces children.  The
        # pipeline (past round 2n + 1) is nearly every call, so it is
        # tested first.
        n = ctx.n
        r = ctx.round
        if r > 2 * n + 1:
            out = self._pipeline(ctx, messages)
        elif r <= n:
            out = self._flood(ctx, messages, final=(r == n))
            ctx.sleep(until=n if r < n else 2 * n)
            return out
        elif r <= 2 * n:
            out = self._bfs(ctx, messages, final=(r == 2 * n))
            ctx.sleep(until=2 * n if r < 2 * n else 2 * n + 1)
            return out
        else:
            out = self._announce_child(ctx, messages)
        # sleep unless there is something to send: ``not
        # self._owes_done()`` spelled out, as this runs on every call
        if not (self.queue or self.down_queue) and \
                (self.sent_done or self.owed):
            ctx.sleep()
        return out

    def _owes_done(self) -> bool:
        """Every child reported done, but this vertex has not yet sent
        its own ``UPDONE`` (or, at the leader, solved)."""
        return not (self.sent_done or self.owed)

    # -- phase A: leader election ---------------------------------------
    def _flood(self, ctx: NodeContext, messages: Dict[int, Message], final: bool) -> Dict[int, Message]:
        improved = False
        for __, (tag, val) in messages.items():
            assert tag == _T_FLOOD
            if val < self.best:
                self.best = val
                improved = True
        if final:
            self.leader = self.best
            if ctx.uid == self.leader:
                self.depth = 0
                return {w: (_T_BFS, 0) for w in ctx.neighbors}
            return {}
        if improved:
            return {w: (_T_FLOOD, self.best) for w in ctx.neighbors}
        return {}

    # -- phase B: BFS ----------------------------------------------------
    def _bfs(self, ctx: NodeContext, messages: Dict[int, Message], final: bool) -> Dict[int, Message]:
        out: Dict[int, Message] = {}
        if self.depth is None and messages:
            sender = min(messages)
            self.parent = sender
            self.depth = messages[sender][1] + 1
            if not final:
                out = {w: (_T_BFS, self.depth) for w in ctx.neighbors if w != sender}
        if final:
            # next round is the child announcement
            if self.parent is not None:
                return {self.parent: (_T_CHILD, 0)}
        return out

    # -- phase C: learn children, seed the upload queue ------------------
    def _announce_child(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        self.children = sorted(s for s, (tag, __) in messages.items()
                               if tag == _T_CHILD)
        self.owed = len(self.children)
        rng = random.Random(self.seed * 1_000_003 + ctx.uid)
        for w in ctx.neighbors:
            if ctx.uid < w:  # edge owner
                if self.edge_filter is None or self.edge_filter(ctx.uid, w, rng):
                    weight = ctx.edge_weights.get(w)
                    wint = None if weight is None else int(weight)
                    self.queue.append(("E", ctx.uid, w, wint))
        if self.include_vertex_weights:
            self.queue.append(("V", ctx.uid, int(ctx.vertex_weight)))
        return self._pump_up(ctx)

    # -- phase D/E: pipelined upcast, solve, pipelined downcast ----------
    def _pipeline(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        for sender, msg in messages.items():
            tag = msg[0]
            if tag == _T_REC:
                self.queue.append(msg[1])
            elif tag == _T_SOL:
                if msg[1] == ctx.uid:
                    self.my_value = msg[2]
                self.down_queue.append(msg)
            elif tag == _T_UPDONE:
                if sender not in self.children_done:
                    self.children_done.add(sender)
                    self.owed -= 1
            elif tag == _T_EOT:
                self.got_eot = True
                self.global_value = msg[1]
                self.down_queue.append(msg)

        if ctx.uid == self.leader:
            if not self.sent_done:
                # absorb arriving records directly
                self._absorb_own(ctx)
                if self._owes_done():
                    self.sent_done = True
                    gvalue, values = self.solver(ctx.n, self.edge_records,
                                                 self.vertex_records)
                    self.my_value = values.get(ctx.uid)
                    self.global_value = gvalue
                    for uid in sorted(values):
                        if uid != ctx.uid:
                            self.down_queue.append((_T_SOL, uid, values[uid]))
                    self.down_queue.append((_T_EOT, gvalue))
            return self._pump_down(ctx) if self.down_queue else {}

        # non-leader: keep uploading, then forward downloads.  The leader
        # solves only after every vertex sent UPDONE, so once anything
        # comes down the uploads are over and at most one of the two
        # pumps sends.
        out = self._pump_up(ctx) if self.queue or self._owes_done() else {}
        if self.down_queue:
            down = self._pump_down(ctx)
            if out:
                out.update(down)
            else:
                out = down
        if self.got_eot and not self.down_queue:
            ctx.halt({"value": self.my_value, "global": self.global_value})
        return out

    def _absorb_own(self, ctx: NodeContext) -> None:
        while self.queue:
            rec = self.queue.pop()
            if rec[0] == "E":
                self.edge_records.append((rec[1], rec[2], rec[3]))
            else:
                self.vertex_records.append((rec[1], rec[2]))

    def _pump_up(self, ctx: NodeContext) -> Dict[int, Message]:
        if self.parent is None:
            return {}
        if self.queue:
            rec = self.queue.pop()
            return {self.parent: (_T_REC, rec)}
        if self._owes_done():
            self.sent_done = True
            return {self.parent: (_T_UPDONE, 0)}
        return {}

    def _pump_down(self, ctx: NodeContext) -> Dict[int, Message]:
        """Forward the oldest queued wire message to every child; the
        caller checks the queue is non-empty."""
        msg = self.down_queue.popleft()
        if msg[0] == _T_EOT:
            if ctx.uid == self.leader:
                self.got_eot = True
            # after forwarding EOT this vertex is finished
            ctx.halt({"value": self.my_value, "global": self.global_value})
        # one payload object for every child, so the simulator sizes it
        # once per batch (its broadcast fast path)
        return dict.fromkeys(self.children, msg)


def run_collect_and_solve(
    graph: Graph,
    solver: Solver,
    edge_filter: Optional[EdgeFilter] = None,
    include_vertex_weights: bool = False,
    seed: int = 0,
    bandwidth_factor: int = 40,
) -> Tuple[Dict[Vertex, Any], CongestSimulator]:
    """Run :class:`CollectAndSolve`; returns ``(outputs, simulator)``.

    ``bandwidth_factor`` defaults high enough for edge records carrying
    integer weights; it is still O(log n + log W) bits per message.
    """
    sim = CongestSimulator(graph, bandwidth_factor=bandwidth_factor)
    outputs = sim.run(lambda: CollectAndSolve(
        solver, edge_filter=edge_filter,
        include_vertex_weights=include_vertex_weights, seed=seed))
    return outputs, sim


def run_universal_exact(
    graph: Graph,
    local_solver: Callable[[Graph], Tuple[Any, Dict[Vertex, Any]]],
    include_vertex_weights: bool = False,
    bandwidth_factor: int = 40,
) -> Tuple[Dict[Vertex, Any], CongestSimulator]:
    """Learn the whole graph at the leader and solve with ``local_solver``.

    ``local_solver`` receives the reconstructed graph (labels are uids) and
    returns ``(global value, {uid: per-vertex value})``.
    """

    def solver(n: int, edge_records, vertex_records):
        g = Graph()
        g.add_vertices(range(n))
        for u, v, w in edge_records:
            g.add_edge(u, v, weight=w)
        for u, w in vertex_records:
            g.set_vertex_weight(u, w)
        return local_solver(g)

    return run_collect_and_solve(
        graph, solver, include_vertex_weights=include_vertex_weights,
        bandwidth_factor=bandwidth_factor)
