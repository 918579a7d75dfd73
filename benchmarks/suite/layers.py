"""Layer spans and counters for one traced benchmark pass.

:func:`install` wraps the public entry points of each ``repro`` layer
from outside the program:

- a plain function is wrapped once, and every module-global alias of it
  found in ``sys.modules`` is rebound to the wrapper, so call sites that
  did ``from x import f`` are caught;
- a method is wrapped on the class that defines it (for the family
  protocol: on every class that overrides it).

Each wrapped call opens a span (name, start, end, parent).  Self time is
kept online: a span's duration minus the time its child spans cover,
added to the span's layer.  Spans of at least :data:`MIN_SPAN_S` stay in
memory (up to :data:`SPAN_CAP`) for ``spans.json``; shorter ones still
count toward every metric.  Counters come from the layers' own results
and public APIs (``SweepReport``, ``cache_stats()``,
``warm_pool_stats()``, ``kernel_events()``, ``CheckReport.check_ms``,
the simulator's counters).

An entry point that no longer exists is skipped and listed under
``missing`` in the span records.  Its metrics would read 0, which looks
like a layer that got free, so ``run.py`` names each missing entry point
on standard error and fails the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

#: shortest span kept for ``spans.json`` (seconds)
MIN_SPAN_S = 1e-4
#: most spans kept per pass
SPAN_CAP = 50000

BOUNDED_DEGREE = "E-F4-T3.1-bounded-degree-maxis"


class Recorder:
    """Spans and per-operation counters of one pass, kept in memory."""

    def __init__(self):
        self.t0 = time.perf_counter()
        #: open calls: [seconds covered by child spans, span id]
        self.stack = []
        self.spans = []
        self.next_id = 0
        self.dropped = 0
        self.calls = defaultdict(int)
        #: inclusive seconds of the outermost call of each operation
        self.seconds = defaultdict(float)
        self.depth = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.kernel_families = {}
        self.missing = []
        self.before = {}

    def span_records(self):
        """Kept spans as ``[id, parent id, name, start, end]`` (seconds
        from the pass start; parent -1 for a root span)."""
        return {"spans": self.spans, "dropped": self.dropped,
                "missing": self.missing}


def _timed(rec, op, fn, hook=None):
    layer = op.split(".", 1)[0]
    perf = time.perf_counter
    stack, calls, seconds = rec.stack, rec.calls, rec.seconds
    depth, self_s = rec.depth, rec.self_s

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = rec.next_id
        rec.next_id += 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, span_id]
        stack.append(frame)
        depth[op] += 1
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            depth[op] -= 1
            dur = end - start
            self_s[layer] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            calls[op] += 1
            if not depth[op]:
                seconds[op] += dur
            if dur >= MIN_SPAN_S and len(rec.spans) < SPAN_CAP:
                rec.spans.append([span_id, parent, op,
                                  round(start - rec.t0, 6),
                                  round(end - rec.t0, 6)])
            else:
                rec.dropped += 1
        if hook is not None:
            hook(rec, args, result, dur)
        return result

    return wrapper


def _counted(rec, op, fn):
    calls = rec.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[op] += 1
        return fn(*args, **kwargs)

    return wrapper


# -- hooks: counters read from each layer's results ----------------------
def _simulator(rec, args, result, dur):
    sim = args[0]
    rec.counts["congest.rounds"] += sim.rounds
    rec.counts["congest.messages"] += sim.total_messages
    rec.counts["congest.bits"] += sim.total_bits


def _cut_bits(rec, args, result, dur):
    rec.counts["cc.cut_bits"] += result.cut_bits


def _wire_bytes(rec, args, result, dur):
    rec.counts["graphs.wire_bytes"] += len(result)


def _sweep_report(rec, args, result, dur):
    rec.counts["core.memo_hits"] += result.memo_hits
    rec.counts["store_hits"] += result.store_hits
    rec.counts["unique_pairs"] += result.unique_pairs


def _pairs_loaded(rec, args, result, dur):
    rec.counts["sweep_store.entries_read"] += len(result)


def _pair_looked_up(rec, args, result, dur):
    rec.counts["sweep_store.entries_read"] += result is not None


def _batch_decided(rec, args, result, dur):
    if result:
        rec.counts["batch_kernels.batched_pairs"] += len(result)
    rec.kernel_families[id(args[0])] = args[0]


def _kernel_decided(rec, args, result, dur):
    if rec.depth["batch_kernels.decide_batch"]:
        rec.counts["decided_in_batch"] += 1


def _experiment(rec, args, result, dur):
    if rec.depth["runner.experiment"]:
        return  # a nested call (engine pinning) is timed by its caller
    key = ("runner.bounded_degree_s" if args[0] == BOUNDED_DEGREE
           else "runner.other_experiments_s")
    rec.counts[key] += dur


_CHECK_GROUPS = {
    "congest:engine-equivalence": "check.engine_equivalence_s",
    "family:batch-equivalence": "check.batch_equivalence_s",
    "family:delta-equivalence": "check.delta_equivalence_s",
}


def _check_report(rec, args, result, dur):
    rec.counts["check.checks_run"] += result.checks_run
    for name, samples in result.check_ms.items():
        key = ("check.reference_s" if name.startswith("ref:")
               else _CHECK_GROUPS.get(name))
        if key is not None:
            rec.counts[key] += sum(samples) / 1000.0


#: (operation, module, function, hook)
FUNCTIONS = [
    ("congest.message_bits", "repro.congest.model", "message_bits", None),
    ("cc.two_party", "repro.cc.alice_bob", "simulate_two_party", _cut_bits),
    ("core.sweep", "repro.core.family", "sweep", _sweep_report),
    ("core.verify_iff", "repro.core.family", "verify_iff", None),
    ("sweep_store.family_key", "repro.experiments.sweep_store",
     "family_key", None),
    ("runner.experiment", "repro.experiments.runner", "run_experiment",
     _experiment),
    ("check.run_check", "repro.check.harness", "run_check", _check_report),
    ("fanout.parent", "repro.experiments.warm_pool", "pool_decisions", None),
    ("fanout.parent", "repro.experiments.warm_pool", "run_experiments", None),
    ("fanout.parent", "repro.experiments.sweep", "parallel_decisions", None),
    ("fanout.parent", "repro.experiments.parallel", "run_parallel", None),
    ("fanout.parent", "concurrent.futures", "wait", None),
]

#: (operation, module, class, method, hook)
METHODS = [
    ("congest.run", "repro.congest.model", "CongestSimulator", "run",
     _simulator),
    ("obs.emit", "repro.congest.model", "CongestSimulator", "_emit", None),
    ("graphs.copy", "repro.graphs", "Graph", "copy", None),
    ("graphs.copy", "repro.graphs", "DiGraph", "copy", None),
    ("graphs.content_hash", "repro.graphs", "Graph", "content_hash", None),
    ("graphs.content_hash", "repro.graphs", "DiGraph", "content_hash", None),
    ("graphs.to_bytes", "repro.graphs", "Graph", "to_bytes", _wire_bytes),
    ("graphs.to_bytes", "repro.graphs", "DiGraph", "to_bytes", _wire_bytes),
    ("sweep_store.read", "repro.experiments.sweep_store", "SweepStore",
     "load_pairs", _pairs_loaded),
    ("sweep_store.read", "repro.experiments.sweep_store", "SweepStore",
     "lookup", _pair_looked_up),
    ("sweep_store.write", "repro.experiments.sweep_store", "SweepStore",
     "store", None),
    ("batch_kernels.decide_batch", "repro.core.family", "DeltaBuildMixin",
     "decide_batch", _batch_decided),
    ("fanout.parent", "concurrent.futures", "Future", "result", None),
    ("fanout.submit", "concurrent.futures", "ProcessPoolExecutor", "submit",
     None),
]

#: family-protocol methods, wrapped on every class that defines them
FAMILY_METHODS = [
    ("build_skeleton", "core.skeleton"),
    ("build", "core.build"),
    ("predicate", "core.predicate"),
    ("make_batch_kernel", "batch_kernels.make"),
]

#: operations counted without timing: they run per message, and a
#: timer there would dominate the traced pass
COUNT_ONLY = {"congest.message_bits", "fanout.submit"}


def _import_all(package):
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + ".",
                                      onerror=lambda name: None):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass


def _alias_index():
    """``id(function) -> [(module dict, global name)]`` over sys.modules."""
    index = defaultdict(list)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if inspect.isfunction(value):
                index[id(value)].append((namespace, name))
    return index


def _make(rec, op, fn, hook):
    if op in COUNT_ONLY:
        return _counted(rec, op, fn)
    return _timed(rec, op, fn, hook)


def _wrap_function(rec, aliases, op, fn, hook):
    wrapper = _make(rec, op, fn, hook)
    for namespace, name in aliases.get(id(fn), ()):
        namespace[name] = wrapper


def _wrap_method(rec, op, cls, name, hook):
    fn = vars(cls).get(name)
    if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__",
                                             False):
        return False
    setattr(cls, name, _make(rec, op, fn, hook))
    return True


def _lookup(module, name):
    return getattr(importlib.import_module(module), name)


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def _cache_totals():
    try:
        from repro.solvers import cache_stats
    except ImportError:
        return 0, 0
    stats = cache_stats().values()
    return sum(s.hits for s in stats), sum(s.misses for s in stats)


def _pool_stats():
    try:
        from repro.obs import warm_pool_stats
        return warm_pool_stats()
    except ImportError:  # the warm pool imports lazily, on this call
        return {}


def install():
    """Wrap every layer's entry points; returns the pass's recorder."""
    rec = Recorder()
    _import_all("repro")
    aliases = _alias_index()
    for op, module, name, hook in FUNCTIONS:
        try:
            fn = _lookup(module, name)
        except (ImportError, AttributeError):
            rec.missing.append(f"{module}.{name}")
            continue
        _wrap_function(rec, aliases, op, fn, hook)
    for op, module, cls_name, name, hook in METHODS:
        try:
            cls = _lookup(module, cls_name)
        except (ImportError, AttributeError):
            cls = None
        if cls is None or not _wrap_method(rec, op, cls, name, hook):
            rec.missing.append(f"{module}.{cls_name}.{name}")

    try:
        from repro.core.family import DeltaBuildMixin
    except ImportError:
        rec.missing.append("repro.core.family.DeltaBuildMixin")
    else:
        for cls in _subclasses(DeltaBuildMixin):
            for name, op in FAMILY_METHODS:
                if cls is DeltaBuildMixin and name != "build":
                    continue  # the defaults only raise or decline
                _wrap_method(rec, op, cls, name, None)

    try:
        kernels = importlib.import_module("repro.solvers.batch_kernels")
    except ImportError:
        rec.missing.append("repro.solvers.batch_kernels")
    else:
        for obj in list(vars(kernels).values()):
            if inspect.isclass(obj) and obj.__module__ == kernels.__name__:
                _wrap_method(rec, "batch_kernels.decide", obj, "decide",
                             _kernel_decided)

    import repro.solvers as solvers
    for name in getattr(solvers, "__all__", ()):
        fn = getattr(solvers, name, None)
        module = getattr(fn, "__module__", "") or ""
        if (inspect.isfunction(fn) and module.startswith("repro.solvers.")
                and module != "repro.solvers.cache"):
            _wrap_function(rec, aliases, "solvers.call", fn, None)

    rec.before = {"cache": _cache_totals(), "pool": _pool_stats()}
    rec.t0 = time.perf_counter()
    return rec


def metrics(rec, wall_s):
    """Per-layer metrics of the pass.  ``fanout.shm_leaked``,
    ``fanout.worker_cpu_s`` and ``trace.overhead_frac`` need the
    driver's view of the process tree and are added there."""
    calls, seconds, counts = rec.calls, rec.seconds, rec.counts
    hits, misses = _cache_totals()
    hits -= rec.before["cache"][0]
    misses -= rec.before["cache"][1]
    pool_before = rec.before["pool"]
    pool = {key: value - pool_before.get(key, 0)
            for key, value in _pool_stats().items()}
    batched = counts["batch_kernels.batched_pairs"]
    state_misses = 0
    for family in rec.kernel_families.values():
        state_misses += family.kernel_events().get("state_misses", 0)
    shipped = pool.get("pairs_shipped", 0)
    return {
        "congest.run_calls": calls["congest.run"],
        "congest.run_s": seconds["congest.run"],
        "congest.rounds": counts["congest.rounds"],
        "congest.messages": counts["congest.messages"],
        "congest.bits": counts["congest.bits"],
        "congest.message_bits_calls": calls["congest.message_bits"],
        "cc.two_party_calls": calls["cc.two_party"],
        "cc.two_party_s": seconds["cc.two_party"],
        "cc.cut_bits": counts["cc.cut_bits"],
        "obs.emit_calls": calls["obs.emit"],
        "obs.emit_s": seconds["obs.emit"],
        "graphs.copy_calls": calls["graphs.copy"],
        "graphs.copy_s": seconds["graphs.copy"],
        "graphs.content_hash_s": seconds["graphs.content_hash"],
        "graphs.wire_bytes": counts["graphs.wire_bytes"],
        "core.skeleton_builds": calls["core.skeleton"],
        "core.skeleton_s": seconds["core.skeleton"],
        "core.build_calls": calls["core.build"],
        "core.build_s": seconds["core.build"],
        "core.predicate_calls": calls["core.predicate"],
        "core.predicate_s": seconds["core.predicate"],
        "core.sweep_s": seconds["core.sweep"],
        "core.memo_hits": counts["core.memo_hits"],
        "core.verify_iff_s": seconds["core.verify_iff"],
        "batch_kernels.make_s": seconds["batch_kernels.make"],
        "batch_kernels.decide_calls": calls["batch_kernels.decide"],
        "batch_kernels.decide_s": seconds["batch_kernels.decide"],
        "batch_kernels.batched_pairs": batched,
        "batch_kernels.inferred_pairs": batched - counts["decided_in_batch"],
        "batch_kernels.state_misses": state_misses,
        "solvers.calls": calls["solvers.call"],
        "solvers.self_s": rec.self_s["solvers"],
        "solvers.cache_hits": hits,
        "solvers.cache_misses": misses,
        "solvers.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "sweep_store.family_key_s": seconds["sweep_store.family_key"],
        "sweep_store.read_s": seconds["sweep_store.read"],
        "sweep_store.entries_read": counts["sweep_store.entries_read"],
        "sweep_store.write_s": seconds["sweep_store.write"],
        "sweep_store.entries_written": calls["sweep_store.write"],
        "sweep_store.hit_ratio": (counts["store_hits"] / counts["unique_pairs"]
                                  if counts["unique_pairs"] else 0.0),
        "fanout.parent_s": seconds["fanout.parent"],
        "fanout.shards": calls["fanout.submit"],
        "fanout.broadcasts": pool.get("broadcasts", 0),
        "fanout.payload_bytes_per_pair": (pool.get("pair_payload_bytes", 0)
                                          / shipped if shipped else 0.0),
        "fanout.lane_respawns": pool.get("lane_respawns", 0),
        "runner.bounded_degree_s": counts["runner.bounded_degree_s"],
        "runner.other_experiments_s": counts["runner.other_experiments_s"],
        "check.checks_run": counts["check.checks_run"],
        "check.reference_s": counts["check.reference_s"],
        "check.engine_equivalence_s": counts["check.engine_equivalence_s"],
        "check.batch_equivalence_s": counts["check.batch_equivalence_s"],
        "check.delta_equivalence_s": counts["check.delta_equivalence_s"],
        "trace.attributed_frac": sum(rec.self_s.values()) / wall_s,
    }
