"""Tree aggregation primitives: convergecast and broadcast.

The building blocks behind every "compute a global quantity in O(D)
rounds" step the paper takes for granted — counting the size of a
candidate dominating set (Theorem 2.1's reduction from search to
decision), summing cut weights, electing parameters.  Both run over a
BFS tree built in-band, so a full invocation costs O(n) rounds with the
uniform halting rule (O(D) information-theoretically).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.congest.model import CongestSimulator, Message, NodeAlgorithm, NodeContext
from repro.graphs import Graph, Vertex

# aggregate operators: (identity, combine)
SUM = (0, lambda a, b: a + b)
MAX = (None, lambda a, b: b if a is None else (a if a >= b else b))
MIN = (None, lambda a, b: b if a is None else (a if a <= b else b))

_T_FLOOD = 0
_T_BFS = 1
_T_CHILD = 2
_T_UP = 3
_T_DOWN = 4


class ConvergecastBroadcast(NodeAlgorithm):
    """Elect a leader, build a BFS tree, convergecast an aggregate of the
    per-vertex inputs to the root, broadcast the result back down.

    Each vertex's contribution comes from ``ctx.input`` (an int).  The
    output at every vertex is the global aggregate.
    """

    def __init__(self, identity: Any, combine: Callable[[Any, Any], Any]) -> None:
        self.identity = identity
        self.combine = combine
        self.best = None
        self.leader: Optional[int] = None
        self.parent: Optional[int] = None
        self.depth: Optional[int] = None
        self.children: set = set()
        self.reports: Dict[int, Any] = {}
        self.sent_up = False
        self.result: Any = None

    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        self.best = ctx.uid
        ctx.sleep(until=ctx.n)
        return {w: (_T_FLOOD, self.best) for w in ctx.neighbors}

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        # sleeps like CollectAndSolve: until the next phase boundary (n,
        # 2n, 2n + 1), then, in the convergecast, until a message comes
        # unless this vertex owes its report (or, at the leader, the
        # result)
        out = self._step(ctx, messages)
        n, r = ctx.n, ctx.round
        if r < n:
            ctx.sleep(until=n)
        elif r < 2 * n:
            ctx.sleep(until=2 * n)
        elif r == 2 * n:
            ctx.sleep(until=2 * n + 1)
        elif not self._owes_report(ctx):
            ctx.sleep()
        return out

    def _owes_report(self, ctx: NodeContext) -> bool:
        if not set(self.reports) >= self.children:
            return False
        if ctx.uid == self.leader:
            return True
        return not self.sent_up and self.parent is not None

    def _step(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        n, r = ctx.n, ctx.round
        if r <= n:
            improved = False
            for __, (tag, val) in messages.items():
                if val < self.best:
                    self.best = val
                    improved = True
            if r == n:
                self.leader = self.best
                if ctx.uid == self.leader:
                    self.depth = 0
                    return {w: (_T_BFS, 0) for w in ctx.neighbors}
                return {}
            return ({w: (_T_FLOOD, self.best) for w in ctx.neighbors}
                    if improved else {})
        if r <= 2 * n:
            out: Dict[int, Message] = {}
            if self.depth is None and messages:
                sender = min(messages)
                self.parent = sender
                self.depth = messages[sender][1] + 1
                if r != 2 * n:
                    out = {w: (_T_BFS, self.depth)
                           for w in ctx.neighbors if w != sender}
            if r == 2 * n and self.parent is not None:
                return {self.parent: (_T_CHILD, 0)}
            return out
        if r == 2 * n + 1:
            self.children = {s for s, (tag, __) in messages.items()
                             if tag == _T_CHILD}
            return self._maybe_report(ctx)
        # convergecast up, then broadcast down
        out = {}
        for sender, msg in messages.items():
            if msg[0] == _T_UP:
                self.reports[sender] = msg[1]
            elif msg[0] == _T_DOWN:
                self.result = msg[1]
        if self.result is not None:
            ctx.halt(self.result)
            return {c: (_T_DOWN, self.result) for c in self.children}
        out.update(self._maybe_report(ctx))
        if ctx.uid == self.leader and set(self.reports) >= self.children:
            total = self._local_aggregate(ctx)
            self.result = total
            ctx.halt(total)
            return {c: (_T_DOWN, total) for c in self.children}
        return out

    def _local_aggregate(self, ctx: NodeContext) -> Any:
        total = self.combine(self.identity, int(ctx.input or 0))
        for val in self.reports.values():
            total = self.combine(total, val)
        return total

    def _maybe_report(self, ctx: NodeContext) -> Dict[int, Message]:
        if self.sent_up or self.parent is None:
            return {}
        if set(self.reports) >= self.children:
            self.sent_up = True
            return {self.parent: (_T_UP, self._local_aggregate(ctx))}
        return {}


def run_aggregate(graph: Graph, inputs: Dict[Vertex, int],
                  op: Tuple[Any, Callable[[Any, Any], Any]] = SUM,
                  ) -> Tuple[Any, CongestSimulator]:
    """Convergecast+broadcast ``op`` over per-vertex integer inputs.

    Returns ``(global aggregate, simulator)``; all vertices halt with the
    same output.
    """
    identity, combine = op
    # aggregates of n values fit in O(log n + log max_input) bits; the
    # factor keeps tiny-n instances within the framing overhead
    sim = CongestSimulator(graph, bandwidth_factor=16)
    outputs = sim.run(lambda: ConvergecastBroadcast(identity, combine),
                      inputs=inputs)
    values = set(outputs.values())
    assert len(values) == 1, "aggregation disagreed"
    return values.pop(), sim
