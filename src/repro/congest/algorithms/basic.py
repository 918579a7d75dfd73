"""Leader election and BFS primitives."""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.congest.model import CongestSimulator, Message, NodeAlgorithm, NodeContext
from repro.graphs import Graph, Vertex


class FloodMinId(NodeAlgorithm):
    """Elect the minimum uid by flooding for n rounds (O(D) information
    propagation, n rounds for a uniform, input-oblivious halting rule).

    Output: the elected leader's uid.  Between messages a vertex sleeps
    until round n.
    """

    def __init__(self) -> None:
        self.best: Optional[int] = None

    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        self.best = ctx.uid
        ctx.sleep(until=ctx.n)
        return {w: self.best for w in ctx.neighbors}

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        improved = False
        for val in messages.values():
            if val < self.best:
                self.best = val
                improved = True
        if ctx.round >= ctx.n:
            ctx.halt(self.best)
            return {}
        ctx.sleep(until=ctx.n)
        if improved:
            return {w: self.best for w in ctx.neighbors}
        return {}


class BfsFromRoot(NodeAlgorithm):
    """BFS tree from the vertex whose uid equals its input ``root``.

    Output: ``(parent uid or None, depth)``.  Runs for n rounds so that
    every vertex halts simultaneously; between messages a vertex sleeps
    until round n.
    """

    def __init__(self) -> None:
        self.parent: Optional[int] = None
        self.depth: Optional[int] = None

    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        ctx.sleep(until=ctx.n)
        if ctx.input == ctx.uid:
            self.depth = 0
            return {w: 0 for w in ctx.neighbors}
        return {}

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        out: Dict[int, Message] = {}
        if self.depth is None and messages:
            sender = min(messages)
            self.parent = sender
            self.depth = messages[sender] + 1
            out = {w: self.depth for w in ctx.neighbors if w != sender}
        if ctx.round >= ctx.n:
            ctx.halt((self.parent, self.depth))
        else:
            ctx.sleep(until=ctx.n)
        return out


def run_leader_election(graph: Graph) -> Tuple[int, CongestSimulator]:
    """Run :class:`FloodMinId`; returns ``(leader uid, simulator)``."""
    sim = CongestSimulator(graph)
    outputs = sim.run(FloodMinId)
    leaders = set(outputs.values())
    assert len(leaders) == 1, "leader election disagreed"
    return leaders.pop(), sim


def run_bfs(graph: Graph, root: Vertex) -> Tuple[Dict[Vertex, Any], CongestSimulator]:
    """BFS from ``root``; returns ``({label: (parent uid, depth)}, simulator)``."""
    sim = CongestSimulator(graph)
    root_uid = sim.uid_of[root]
    outputs = sim.run(BfsFromRoot, inputs={v: root_uid for v in graph.vertices()})
    return outputs, sim
