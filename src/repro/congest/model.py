"""The synchronous CONGEST simulator.

Design notes
------------
- Vertices are identified by their graph labels.  CONGEST assumes
  O(log n)-bit identifiers; the simulator assigns each label an integer id
  in ``0..n-1`` and exposes both.  Uids follow the canonical label order
  of :func:`repro.graphs.label_sort_key` — ``(type name, repr)`` — so for
  integer labels the order is *repr order* (``10`` before ``2``), not
  numeric order.
- A round proceeds in lockstep: every awake vertex sees the messages
  delivered on its incident edges, updates state, and emits messages for
  the next round.  Message size is measured by :func:`message_bits` and
  checked against the bandwidth.  ``bandwidth=None`` selects the standard
  CONGEST ``Θ(log n)`` bound; ``bandwidth=math.inf`` is the LOCAL model —
  no bound, message sizes still accounted.
- Algorithms are written by subclassing :class:`NodeAlgorithm`.  One
  instance is created per vertex; the simulator owns scheduling and
  delivery only, so algorithms cannot cheat by sharing state.
"""

from __future__ import annotations

import math
import operator
import os
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union,
)

from repro.graphs import DiGraph, Graph, Vertex, label_sort_key

Message = Any

#: Identity sentinel for the broadcast fast path in ``_check_fast``
#: (``None`` is a legal message, so a private object is required).
_NO_MESSAGE = object()


class BandwidthExceeded(Exception):
    """A message exceeded the per-edge per-round bandwidth."""


def message_bits(msg: Message) -> int:
    """Size accounting for messages.

    Integers cost their two's-complement width, booleans 1 bit, floats 64,
    strings and byte strings 8 bits per character/byte, ``None`` 1 bit,
    and containers (tuples, lists, sets, frozensets, dicts) the sum of
    their items plus 2 bits of framing per item.  This deliberately
    over-counts a little; the paper's bounds are asymptotic and the
    simulator only needs a consistent, conservative measure.
    """
    tp = type(msg)
    # exact-type fast path for the common payloads: plain ints, strings
    # and tuples, with flat ``int``/``bool``/``None``/``str`` tuple items
    # sized inline.  Everything else — subclasses such as ``IntEnum`` or
    # named tuples included — takes :func:`generic_message_bits`.
    if tp is int:
        return msg.bit_length() + 1
    if tp is tuple:
        bits = 0
        for x in msg:
            tx = type(x)
            if tx is int:
                bits += x.bit_length() + 3
            elif tx is bool or x is None:
                bits += 3
            elif tx is str:
                bits += 8 * len(x) + 2
            else:
                bits += message_bits(x) + 2
        return bits
    if tp is str:
        return 8 * len(msg)
    return generic_message_bits(msg)


def generic_message_bits(msg: Message) -> int:
    """:func:`message_bits` by the plain ``isinstance`` chain alone.

    The delivery-side cut tally sizes messages with this, so it shares
    no code with the fast path of the send-side count it checks.
    """
    if msg is None:
        return 1
    if isinstance(msg, bool):
        return 1
    if isinstance(msg, int):
        return max(1, msg.bit_length() + 1)
    if isinstance(msg, float):
        return 64
    if isinstance(msg, str):
        return 8 * len(msg)
    if isinstance(msg, (bytes, bytearray)):
        return 8 * len(msg)
    if isinstance(msg, (tuple, list)):
        return sum(generic_message_bits(x) + 2 for x in msg)
    if isinstance(msg, dict):
        return sum(generic_message_bits(k) + generic_message_bits(v) + 4
                   for k, v in msg.items())
    if isinstance(msg, (set, frozenset)):
        return sum(generic_message_bits(x) + 2 for x in msg)
    raise TypeError(f"unsupported message type {type(msg)!r}")


def default_bandwidth(n: int, c: int = 8) -> int:
    """The standard CONGEST bandwidth ``c · ceil(log2 n)`` bits."""
    return c * max(1, math.ceil(math.log2(max(2, n))))


class NodeContext:
    """Everything a vertex is allowed to see locally.

    Attributes
    ----------
    label : the vertex label in the input graph
    uid : integer identifier in ``0..n-1`` (O(log n) bits)
    neighbors : sorted tuple of neighbour uids
    neighbor_set : the same uids as a frozenset (O(1) membership; the
        simulator's per-message destination check uses this)
    n : number of vertices (standard CONGEST assumption)
    input : per-vertex input (problem specific)
    round : the current round, set by the simulator before every call
        (0 in ``on_start``)
    """

    def __init__(self, label: Vertex, uid: int, neighbors: Tuple[int, ...],
                 n: int, node_input: Any,
                 edge_weights: Dict[int, float],
                 vertex_weight: float) -> None:
        self.label = label
        self.uid = uid
        self.neighbors = neighbors
        self.neighbor_set = frozenset(neighbors)
        self.n = n
        self.input = node_input
        self.edge_weights = edge_weights  # neighbour uid -> weight
        self.vertex_weight = vertex_weight
        self.output: Any = None
        self.halted = False
        self.round = 0
        #: the pending :meth:`sleep`: ``None`` while awake, else the
        #: round that wakes the vertex (``math.inf``: only a message)
        self._wake: Optional[float] = None

    def halt(self, output: Any = None) -> None:
        self.output = output
        self.halted = True

    def sleep(self, until: Optional[int] = None) -> None:
        """Promise to do nothing until a message is delivered to this
        vertex, or until round ``until`` starts, whichever comes first.

        ``until`` must be a round after the current one.  The promise
        covers every round in between: see :class:`NodeAlgorithm`.
        """
        if until is None:
            self._wake = math.inf
            return
        until = operator.index(until)
        if until <= self.round:
            raise ValueError(
                f"vertex {self.uid}: sleep(until={until}) in round "
                f"{self.round} is not in the future")
        self._wake = until


class NodeAlgorithm:
    """Base class for per-vertex CONGEST algorithms.

    Subclasses override :meth:`on_start` (messages for round 1) and
    :meth:`on_round` (invoked each round with the messages received).
    Both return a dict ``{neighbor uid: message}``; omitted neighbours get
    nothing.  Call ``ctx.halt(output)`` to stop; a halted vertex neither
    sends nor processes further messages.

    Sleep contract: a call may end with ``ctx.sleep(until)``, a promise
    that until a message arrives or round ``until`` starts, a call with
    an empty inbox would send nothing, halt nothing and change nothing
    that matters later.  The fast round loop then skips this vertex in
    those rounds; the reference loop calls it anyway and raises if it
    sends or halts.  Read the round from ``ctx.round``, never from a
    count of calls.  An algorithm that never sleeps is called in every
    round until it halts.
    """

    def on_start(self, ctx: NodeContext) -> Dict[int, Message]:
        return {}

    def on_round(self, ctx: NodeContext, messages: Dict[int, Message]) -> Dict[int, Message]:
        raise NotImplementedError


class CongestSimulator:
    """Run a :class:`NodeAlgorithm` over a graph, enforcing bandwidth.

    The counters (``rounds``, ``total_messages``, ``total_bits``,
    ``max_message_bits``, ``node_rounds``) are **per run**: :meth:`run`
    resets them on entry, so a reused simulator reports statistics for
    its latest run only.  ``node_rounds`` counts ``on_round`` calls; it
    is the one counter the two round loops do not share, since the fast
    loop skips sleeping vertices and the reference loop calls them all.  Pass ``tracer=`` (see :mod:`repro.obs.trace`) to capture the
    full structured event stream.

    Pass ``cut=`` (or assign :attr:`cut`) the set of Alice's uids to
    count the Theorem 1.1 traffic across that bipartition.  The message
    check itself keeps ``cut_bits``, ``cut_messages`` and
    ``cut_bits_by_round``, so both round loops count them, traced or
    untraced, and a message counts on the round it is sent (the round of
    its ``message`` event).  ``delivery_cut_bits`` and
    ``delivery_cut_messages`` count the same traffic independently: from
    the precomputed cut edges, as each round's outbox is delivered, plus
    one sweep over the outbox left undelivered when the run ends.  On a
    completed run the two tallies must agree.  All cut counters are per
    run, like the others.
    """

    def __init__(
        self,
        graph: Union[Graph, DiGraph],
        bandwidth: Optional[float] = None,
        bandwidth_factor: int = 8,
        tracer: Optional[Any] = None,
        cut: Optional[Iterable[int]] = None,
    ) -> None:
        """``bandwidth=None`` selects the standard CONGEST
        ``bandwidth_factor·log2 n`` bits; ``math.inf`` gives the LOCAL
        model (no bound, sizes still accounted).  ``tracer=None``
        consults the ambient :func:`repro.obs.trace.default_tracer`
        (active inside ``trace_to_directory`` regions); pass
        ``NullTracer()`` to force tracing off.  A ``str``/path tracer
        writes a :class:`repro.obs.binary.BinaryTracer` (``.rtb``)
        trace at that path.
        ``cut`` is Alice's side of a bipartition, as simulator uids (see
        :attr:`cut`)."""
        self.graph = graph
        base = graph.to_undirected() if isinstance(graph, DiGraph) else graph
        self._base = base
        self.labels = sorted(base.vertices(), key=label_sort_key)
        self.uid_of = {v: i for i, v in enumerate(self.labels)}
        self.n = len(self.labels)
        if bandwidth is None:
            bandwidth = default_bandwidth(self.n, bandwidth_factor)
        self.bandwidth = bandwidth
        self.rounds = 0
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        self.node_rounds = 0
        self.cut_bits = 0
        self.cut_messages = 0
        #: bits crossing the cut per round (round 0 = ``on_start``);
        #: only rounds with cut traffic appear, in ascending order
        self.cut_bits_by_round: Dict[int, int] = {}
        self.delivery_cut_bits = 0
        self.delivery_cut_messages = 0
        self.cut = cut
        if tracer is None:
            from repro.obs.trace import default_tracer
            tracer = default_tracer()
        elif isinstance(tracer, (str, os.PathLike)):
            from repro.obs.binary import BinaryTracer
            tracer = BinaryTracer(tracer)
        self.tracer = tracer
        #: the active event sink during :meth:`run`, or ``None`` when
        #: tracing is disabled (the hot path then skips event
        #: construction entirely).
        self._sink: Optional["Tracer"] = None

    @property
    def cut(self) -> Optional[FrozenSet[int]]:
        """Alice's uids, or ``None`` when no cut is counted.  A message
        crosses the cut iff exactly one endpoint is Alice's."""
        return self._alice

    @cut.setter
    def cut(self, alice_uids: Optional[Iterable[int]]) -> None:
        if alice_uids is None:
            self._alice = None
            #: per-uid side (``True`` = Alice), read by the message check
            self._side: Optional[List[bool]] = None
            #: uid -> the neighbour uids across the cut, read on delivery
            self._cut_adj: Dict[int, Tuple[int, ...]] = {}
            return
        alice = frozenset(alice_uids)
        stray = sorted((u for u in alice
                        if not (type(u) is int and 0 <= u < self.n)), key=repr)
        if stray:
            raise ValueError(f"cut uids {stray} outside 0..{self.n - 1}")
        side = [uid in alice for uid in range(self.n)]
        across: Dict[int, List[int]] = {}
        uid_of = self.uid_of
        for u, v in self._base.edges():
            a, b = uid_of[u], uid_of[v]
            if side[a] != side[b]:
                across.setdefault(a, []).append(b)
                across.setdefault(b, []).append(a)
        self._alice = alice
        self._side = side
        self._cut_adj = {u: tuple(sorted(ws)) for u, ws in across.items()}

    def _emit(self, kind: str, **data: Any) -> None:
        from repro.obs.trace import TraceEvent
        self._sink.emit(TraceEvent(kind, self.rounds, data))

    def run(
        self,
        algorithm_factory: Callable[[], NodeAlgorithm],
        inputs: Optional[Dict[Vertex, Any]] = None,
        max_rounds: int = 100000,
        engine: str = "fast",
    ) -> Dict[Vertex, Any]:
        """Execute until every vertex halts; return outputs by label.

        Counters are reset on entry, so ``sim.rounds`` etc. always
        describe the most recent run.

        ``engine`` selects the round loop: ``"fast"`` (the default) runs
        the wake-on-message scheduler, ``"reference"`` the straight-line
        loop it was derived from, which calls every vertex every round
        and checks each :meth:`NodeContext.sleep` promise.  The two are
        observably identical — same outputs, counters (bar
        ``node_rounds``), error selection, and trace event stream — and
        the ``congest:engine-equivalence`` check in :mod:`repro.check`
        enforces this; ``"reference"`` exists as that check's oracle and
        as executable documentation of the semantics.
        """
        if engine not in ("fast", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        self.rounds = 0
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        self.node_rounds = 0
        self.cut_bits = 0
        self.cut_messages = 0
        self.cut_bits_by_round = {}
        self.delivery_cut_bits = 0
        self.delivery_cut_messages = 0
        inputs = inputs or {}
        base = self._base
        contexts: Dict[int, NodeContext] = {}
        algos: Dict[int, NodeAlgorithm] = {}
        labels = self.labels
        for label in labels:
            uid = self.uid_of[label]
            nbrs = tuple(sorted(self.uid_of[w] for w in base.neighbors(label)))
            # Built from the sorted uid tuple, NOT by iterating the
            # neighbour set: set iteration order varies with
            # PYTHONHASHSEED, and edge_weights must present the same
            # dict order in every process.
            weights = {w: base.edge_weight(label, labels[w]) for w in nbrs}
            contexts[uid] = NodeContext(
                label, uid, nbrs, self.n, inputs.get(label),
                weights, base.vertex_weight(label))
            algos[uid] = algorithm_factory()

        tracer = self.tracer
        sink = tracer if tracer is not None and \
            getattr(tracer, "enabled", True) else None
        self._sink = sink
        if sink is not None:
            algo_name = type(next(iter(algos.values()))).__name__ \
                if algos else "?"
            self._emit("run_start", n=self.n, edges=base.m,
                       bandwidth=self.bandwidth, algorithm=algo_name)
        try:
            if engine == "fast":
                self._loop_fast(contexts, algos, max_rounds, sink)
            else:
                self._loop_reference(contexts, algos, max_rounds, sink)
            if sink is not None:
                self._emit("run_end", rounds=self.rounds,
                           total_messages=self.total_messages,
                           total_bits=self.total_bits,
                           max_message_bits=self.max_message_bits)
        finally:
            if sink is not None:
                sink.flush()
            self._sink = None
        return {ctx.label: ctx.output for ctx in contexts.values()}

    def _loop_fast(
        self,
        contexts: Dict[int, NodeContext],
        algos: Dict[int, NodeAlgorithm],
        max_rounds: int,
        sink: Optional["Tracer"],
    ) -> None:
        """Wake-on-message round loop.

        Each round it calls only the vertices that receive a message,
        whose :meth:`NodeContext.sleep` deadline has come, or that did
        not sleep, in ascending uid order (the reference loop's order,
        so halt/message events and first-error selection are
        identical).  It stores only non-empty outboxes and allocates
        inbox dicts only for uids that actually receive something.  With
        tracing off (``sink is None``) message accounting goes through
        :meth:`_check_fast`, which skips event construction and the
        defensive outbox copy.
        """
        check = self._check if sink is not None else self._check_fast
        inf = math.inf
        # round 0: on_start.  Every vertex participates, and a vertex
        # that halts here still gets its messages delivered next round.
        outbox: List[Tuple[int, Dict[int, Message]]] = []
        awake: List[int] = []
        #: round -> uids whose sleep ends then (stale entries, for
        #: vertices woken earlier by a message, are filtered on use)
        wakeups: Dict[int, List[int]] = {}
        live = 0
        for uid, ctx in contexts.items():
            msgs = algos[uid].on_start(ctx)
            if msgs:
                outbox.append((uid, check(msgs, ctx)))
            if ctx.halted:
                if sink is not None:
                    self._emit("halt", uid=uid)
                continue
            live += 1
            wake = ctx._wake
            if wake is None:
                awake.append(uid)
            elif wake != inf:
                wakeups.setdefault(wake, []).append(uid)

        n = len(contexts)
        tally = self._tally_delivery if self._cut_adj else None
        while live:
            if self.rounds >= max_rounds:
                raise RuntimeError(f"exceeded {max_rounds} rounds")
            self.rounds += 1
            r = self.rounds
            if sink is not None:
                self._emit("round_start", active=live)
                msgs_before = self.total_messages
                bits_before = self.total_bits
            if tally is not None:
                tally(outbox)
            # Deliver.  Senders appear in ascending uid order, so each
            # receiver's inbox is keyed by ascending sender uid exactly
            # as the reference loop builds it.
            inbox: Dict[int, Dict[int, Message]] = {}
            for sender, msgs in outbox:
                for receiver, msg in msgs.items():
                    box = inbox.get(receiver)
                    if box is None:
                        box = inbox[receiver] = {}
                    box[sender] = msg
            outbox = []
            due = wakeups.pop(r, None)
            if inbox or due:
                called = set(awake)
                called.update(inbox)
                if due:
                    called.update(u for u in due if contexts[u]._wake == r)
                order: Iterable[int] = sorted(called)
            else:
                order = awake
            awake = []
            for uid in order:
                ctx = contexts[uid]
                if ctx.halted:  # a halted vertex's inbox is dropped
                    continue
                ctx.round = r
                ctx._wake = None
                self.node_rounds += 1
                # Non-receivers get a fresh empty dict (algorithms own
                # and may mutate their inbox).
                msgs = algos[uid].on_round(ctx, inbox.get(uid) or {})
                if msgs:
                    outbox.append((uid, check(msgs, ctx)))
                if ctx.halted:
                    live -= 1
                    if sink is not None:
                        self._emit("halt", uid=uid)
                    continue
                wake = ctx._wake
                if wake is None:
                    awake.append(uid)
                elif wake != inf:
                    wakeups.setdefault(wake, []).append(uid)
            if sink is not None:
                self._emit("round_end",
                           messages=self.total_messages - msgs_before,
                           bits=self.total_bits - bits_before,
                           halted=n - live)
        if tally is not None:
            tally(outbox)

    def _loop_reference(
        self,
        contexts: Dict[int, NodeContext],
        algos: Dict[int, NodeAlgorithm],
        max_rounds: int,
        sink: Optional["Tracer"],
    ) -> None:
        """The straight-line round loop the fast engine is checked
        against: scans every context each round and allocates an inbox
        per vertex, trading speed for obviousness.

        It calls sleeping vertices too.  A vertex is asleep in round
        ``r`` when its last real call ended in ``ctx.sleep(until)``, no
        message has reached it since, and ``r < until``; such a call
        must send nothing and must not halt, else the promise was false
        and the run fails.  Its sleep stands whatever the call does."""
        # round 0: on_start
        outbox: Dict[int, Dict[int, Message]] = {}
        for uid, ctx in contexts.items():
            outbox[uid] = self._check(algos[uid].on_start(ctx), ctx)
            if sink is not None and ctx.halted:
                self._emit("halt", uid=uid)

        halted_total = sum(1 for ctx in contexts.values() if ctx.halted)
        tally = self._tally_delivery if self._cut_adj else None
        while not all(ctx.halted for ctx in contexts.values()):
            if self.rounds >= max_rounds:
                raise RuntimeError(f"exceeded {max_rounds} rounds")
            self.rounds += 1
            r = self.rounds
            if sink is not None:
                self._emit("round_start",
                           active=len(contexts) - halted_total)
                msgs_before = self.total_messages
                bits_before = self.total_bits
            if tally is not None:
                tally(outbox.items())
            inbox: Dict[int, Dict[int, Message]] = {uid: {} for uid in contexts}
            for sender, msgs in outbox.items():
                for receiver, msg in msgs.items():
                    inbox[receiver][sender] = msg
            outbox = {}
            for uid, ctx in contexts.items():
                outbox[uid] = {}
                if ctx.halted:
                    continue
                ctx.round = r
                self.node_rounds += 1
                wake = ctx._wake
                if wake is not None and not inbox[uid] and r < wake:
                    sent = algos[uid].on_round(ctx, inbox[uid])
                    if sent or ctx.halted:
                        acted = "halted" if ctx.halted else \
                            f"sent to {sorted(sent)}"
                        raise RuntimeError(
                            f"vertex {uid} {acted} in round {r} while "
                            f"asleep")
                    ctx._wake = wake
                    continue
                ctx._wake = None
                outbox[uid] = self._check(
                    algos[uid].on_round(ctx, inbox[uid]), ctx)
                if ctx.halted:
                    halted_total += 1
                    if sink is not None:
                        self._emit("halt", uid=uid)
            if sink is not None:
                self._emit("round_end",
                           messages=self.total_messages - msgs_before,
                           bits=self.total_bits - bits_before,
                           halted=halted_total)
        if tally is not None:
            tally(outbox.items())

    def _tally_delivery(
        self, outbox: Iterable[Tuple[int, Dict[int, Message]]],
    ) -> None:
        """Delivery-side cut tally over one outbox: for each sender,
        look up its cut neighbours and size what it sent them with
        :func:`generic_message_bits`.  Shares nothing with the send-side
        count in :meth:`_count_cut` but the cut itself."""
        cut_adj = self._cut_adj
        for sender, msgs in outbox:
            across = cut_adj.get(sender)
            if across is None:
                continue
            for receiver in across:
                if receiver in msgs:
                    self.delivery_cut_bits += generic_message_bits(
                        msgs[receiver])
                    self.delivery_cut_messages += 1

    def _count_cut(self, bits: int) -> None:
        """Send-side cut count of one message, in the current round."""
        self.cut_bits += bits
        self.cut_messages += 1
        by_round = self.cut_bits_by_round
        by_round[self.rounds] = by_round.get(self.rounds, 0) + bits

    def _check(self, msgs: Dict[int, Message], ctx: NodeContext) -> Dict[int, Message]:
        # A vertex may halt and still deliver the messages it returned in
        # the same round; it is only skipped from the next round onwards.
        #
        # Counter semantics on failure: messages are checked in the
        # batch's iteration order and the counters (``total_messages``,
        # ``total_bits``, ``max_message_bits``) are updated *per message
        # before* its bandwidth check.  When :class:`BandwidthExceeded`
        # is raised the counters therefore include every message checked
        # so far — the offending one included — and exclude the rest of
        # the rejected batch.  A simulator that raised mid-run reports
        # partial counts, not the counts of a completed run.  The
        # send-side cut counters (``cut_bits``, ``cut_messages``,
        # ``cut_bits_by_round``) follow the same rule; the delivery-side
        # tally is only complete for a completed run.
        sink = self._sink
        side = self._side
        my_side = side[ctx.uid] if side is not None else None
        for receiver, msg in msgs.items():
            if receiver not in ctx.neighbor_set:
                raise ValueError(
                    f"vertex {ctx.uid} sending to non-neighbor {receiver}")
            bits = message_bits(msg)
            self.total_messages += 1
            self.total_bits += bits
            self.max_message_bits = max(self.max_message_bits, bits)
            if side is not None and side[receiver] != my_side:
                self._count_cut(bits)
            ok = bits <= self.bandwidth
            if sink is not None:
                self._emit("message", sender=ctx.uid, receiver=receiver,
                           bits=bits, ok=ok)
            if not ok:
                raise BandwidthExceeded(
                    f"{bits}-bit message exceeds bandwidth {self.bandwidth}")
        return dict(msgs)

    def _check_fast(self, msgs: Dict[int, Message], ctx: NodeContext) -> Dict[int, Message]:
        # :meth:`_check` minus event construction and the defensive
        # ``dict(msgs)`` copy (no sink can observe the batch, and the
        # outbox is consumed before the algorithm runs again, so the
        # algorithm's own dict is delivered as-is).  Counters accumulate
        # locally and are flushed both on success and *before* either
        # raise, preserving the partial-counter semantics documented
        # above: on failure they include every message checked so far —
        # for :class:`BandwidthExceeded` the offending message included,
        # for the non-neighbor :class:`ValueError` excluded.  Cut
        # messages are rare, so they go straight to :meth:`_count_cut`
        # as they are checked, which gives the same partial counts.
        side = self._side
        my_side = side[ctx.uid] if side is not None else None
        neighbor_set = ctx.neighbor_set
        bandwidth = self.bandwidth
        batch_messages = 0
        batch_bits = 0
        batch_max = self.max_message_bits
        last_msg: Any = _NO_MESSAGE
        last_bits = 0
        for receiver, msg in msgs.items():
            if receiver not in neighbor_set:
                self.total_messages += batch_messages
                self.total_bits += batch_bits
                self.max_message_bits = batch_max
                raise ValueError(
                    f"vertex {ctx.uid} sending to non-neighbor {receiver}")
            if msg is last_msg:
                # broadcast fast path: the same payload object sent to
                # several neighbors is measured once
                bits = last_bits
            else:
                bits = message_bits(msg)
                last_msg = msg
                last_bits = bits
            batch_messages += 1
            batch_bits += bits
            if bits > batch_max:
                batch_max = bits
            if side is not None and side[receiver] != my_side:
                self._count_cut(bits)
            if bits > bandwidth:
                self.total_messages += batch_messages
                self.total_bits += batch_bits
                self.max_message_bits = batch_max
                raise BandwidthExceeded(
                    f"{bits}-bit message exceeds bandwidth {self.bandwidth}")
        self.total_messages += batch_messages
        self.total_bits += batch_bits
        self.max_message_bits = batch_max
        return msgs
