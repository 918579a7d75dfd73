"""Lemma 2.2's distributed simulation, executed.

The reduction from directed to undirected Hamiltonian cycle replaces
every vertex v by the path v_in — v_mid — v_out.  Lemma 2.2's point is
that this is *free* in CONGEST: each original vertex simulates its
three copies, messages between the copies of one vertex need no
communication, and a message on a split-graph edge (u_out, v_in) rides
the real edge (u, v).  One split-graph round therefore costs two real
rounds: the u_out → v_in traffic uses the (u → v) direction of the
slot, and v_in → u_out traffic the other, so both fit the per-edge
bandwidth by spreading over an even/odd round pair.

``run_split_simulation`` executes an undirected-graph algorithm written
against G′ = split(G) on the *original* digraph G, and the tests check
its outputs and 2×(+1) round overhead against running the same
algorithm on G′ directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.congest.model import CongestSimulator, Message, NodeAlgorithm, NodeContext
from repro.core.reductions import directed_to_undirected_hc
from repro.graphs import DiGraph, Graph, Vertex


class _TripleHost(NodeAlgorithm):
    """Hosts the in/mid/out copies of one original vertex.

    ``ctx.input`` supplies the uid-level wiring of the split graph:
    ``{"copies": {tag: uid'}, "nbrs": {uid': [uid', ...]},
    "owner": {uid': real neighbour uid}, "n_prime": int}``.
    """

    def __init__(self, inner_factory: Callable[[], NodeAlgorithm]) -> None:
        self.inner_factory = inner_factory
        self.copies: Dict[str, "_CopyState"] = {}
        self.pending_local: Dict[int, Dict[int, Message]] = {}

    def _boot(self, ctx: NodeContext) -> None:
        wiring = ctx.input
        self.wiring = wiring
        self.uid_by_tag = wiring["copies"]
        self.tag_by_uid = {u: t for t, u in self.uid_by_tag.items()}
        self.copies = {}
        for tag, uid in self.uid_by_tag.items():
            inner_ctx = NodeContext(
                label=(tag, ctx.label), uid=uid,
                neighbors=tuple(sorted(wiring["nbrs"][uid])),
                n=wiring["n_prime"], node_input=None,
                edge_weights={w: 1.0 for w in wiring["nbrs"][uid]},
                vertex_weight=1.0)
            self.copies[tag] = _CopyState(self.inner_factory(), inner_ctx)

    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        self._boot(ctx)
        for state in self.copies.values():
            state.outbox = state.algo.on_start(state.ctx)
        return self._flush(ctx)

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        # collect incoming simulated messages (sender', receiver', payload)
        for payload in messages.values():
            for sender_p, receiver_p, msg in payload:
                self.pending_local.setdefault(receiver_p, {})[sender_p] = msg
        if ctx.round % 2 == 1:
            # odd real round: second delivery slot, no simulated step yet
            return self._flush(ctx, second_slot=True)
        # even real round 2k: simulated round k has been delivered.  The
        # host steps every copy in every simulated round and ignores
        # their sleep, which the sleep contract allows.
        all_halted = True
        for state in self.copies.values():
            if state.ctx.halted:
                continue
            inbox = self.pending_local.pop(state.ctx.uid, {})
            state.ctx.round = ctx.round // 2
            state.outbox = state.algo.on_round(state.ctx, inbox)
            all_halted = all_halted and state.ctx.halted
        if all_halted and not any(s.outbox for s in self.copies.values()):
            ctx.halt({tag: s.ctx.output for tag, s in self.copies.items()})
            return {}
        return self._flush(ctx)

    def _flush(self, ctx: NodeContext, second_slot: bool = False) -> Dict[int, Message]:
        """Route queued simulated messages.

        Copy-to-copy messages of the same vertex are delivered locally;
        cross-vertex messages are bundled per real neighbour.  The first
        slot carries out→in traffic, the second slot in→out traffic —
        one simulated message per real edge-direction per slot, which is
        what keeps Lemma 2.2 bandwidth-faithful.
        """
        out: Dict[int, list] = {}
        for state in self.copies.values():
            remaining: Dict[int, Message] = {}
            for receiver_p, msg in state.outbox.items():
                if receiver_p in self.tag_by_uid:
                    # sibling copy: free local delivery
                    self.pending_local.setdefault(receiver_p, {})[
                        state.ctx.uid] = msg
                    continue
                outgoing_is_out = self.tag_by_uid[state.ctx.uid] == "out" \
                    if state.ctx.uid in self.tag_by_uid else False
                slot_matches = (outgoing_is_out and not second_slot) or \
                    (not outgoing_is_out and second_slot)
                if slot_matches:
                    real_nbr = self.wiring["owner"][receiver_p]
                    out.setdefault(real_nbr, []).append(
                        (state.ctx.uid, receiver_p, msg))
                else:
                    remaining[receiver_p] = msg
            state.outbox = remaining
        return {nbr: tuple(payload) for nbr, payload in out.items()}


class _CopyState:
    def __init__(self, algo: NodeAlgorithm, ctx: NodeContext) -> None:
        self.algo = algo
        self.ctx = ctx
        self.outbox: Dict[int, Message] = {}


def run_split_simulation(
    dgraph: DiGraph,
    inner_factory: Callable[[], NodeAlgorithm],
    max_rounds: int = 100000,
) -> Tuple[Dict[Vertex, Any], CongestSimulator]:
    """Run an algorithm written for split(G) on the original digraph G.

    Returns per-original-vertex dicts ``{"in": ..., "mid": ..., "out":
    ...}`` of the copies' outputs, plus the simulator (whose round count
    is ≈ 2× the algorithm's round count on split(G), Lemma 2.2).
    """
    gprime = directed_to_undirected_hc(dgraph)
    prime_sim = CongestSimulator(gprime)  # for the uid assignment only
    uid_p = prime_sim.uid_of
    base = dgraph.to_undirected()

    wiring: Dict[Vertex, Dict[str, Any]] = {}
    owner_of_copy: Dict[int, Vertex] = {}
    for v in dgraph.vertices():
        for tag in ("in", "mid", "out"):
            owner_of_copy[uid_p[(tag, v)]] = v
    sim = CongestSimulator(base, bandwidth_factor=24)
    for v in dgraph.vertices():
        copies = {tag: uid_p[(tag, v)] for tag in ("in", "mid", "out")}
        nbrs = {copies[tag]: [uid_p[w] for w in gprime.neighbors((tag, v))]
                for tag in ("in", "mid", "out")}
        owner = {}
        for uid_list in nbrs.values():
            for w_p in uid_list:
                owner_vertex = owner_of_copy[w_p]
                if owner_vertex != v:
                    owner[w_p] = sim.uid_of[owner_vertex]
        wiring[v] = {"copies": copies, "nbrs": nbrs, "owner": owner,
                     "n_prime": gprime.n}

    outputs = sim.run(lambda: _TripleHost(inner_factory), inputs=wiring,
                      max_rounds=max_rounds)
    return outputs, sim
