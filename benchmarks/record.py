"""Record simulator/solver benchmark timings into ``BENCH_simulator.json``.

The pytest benchmarks under ``benchmarks/`` are great for interactive
comparison but leave no artifact behind; this script is the perf
*trajectory*: it times the same workloads (full ``quick=False``
experiment pipelines plus a pure-simulator flood microbench), takes the
p50 over ``--reps`` repetitions, and appends one entry per bench —
tagged with the git SHA and date — to ``BENCH_simulator.json`` at the
repository root.

Usage
-----
``python benchmarks/record.py``
    Run every bench (5 reps each), print the table, compare against the
    last recorded entry, and exit nonzero on a >25% regression of any
    bench.  Pass ``--update`` to also append the new measurements to
    ``BENCH_simulator.json``.

``python benchmarks/record.py --quick``
    CI smoke tier: run the pure-simulator bench plus the family-sweep
    bench (3 reps) and fail on a >25% regression against the recorded
    baseline.  Never writes.

``python benchmarks/record.py --compare``
    Print the delta between the last two recorded entries per bench
    (per-SHA trajectory) without running anything.

The regression gate compares against the *latest* entry for each bench,
so after a deliberate perf change you re-run with ``--update`` and
commit the JSON; the next CI run gates against the new numbers.
Sub-200ms benches are topped up to at least 3 reps and gated on
best-of-N (``min_ms``) rather than the noisier p50.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

# delta/regression arithmetic shared with `repro report bench`, so the
# CLI view and this gate can never disagree about what regressed
from repro.obs.profile import percentile  # noqa: E402
from repro.obs.report.bench_view import (  # noqa: E402
    DEFAULT_TOLERANCE,
    BenchHistoryError,
    bench_delta,
    bench_rows,
    format_entry,
    latest_entry,
    load_bench_history,
)

BENCH_FILE = os.path.join(REPO_ROOT, "BENCH_simulator.json")
REGRESSION_TOLERANCE = DEFAULT_TOLERANCE  # fail beyond this p50 growth

#: benches whose p50 sits under this are in scheduler-noise territory:
#: ``time_bench`` tops them up to >=3 reps and the regression gate
#: compares best-of-N (``min_ms``) instead of a single noisy p50
NOISE_FLOOR_MS = 200.0


def _cold_experiment(experiment_id: str) -> Callable[[], None]:
    """The same workload the pytest benches time: one full (quick=False)
    experiment pipeline."""
    def run() -> None:
        from repro.experiments.runner import run_experiment

        record = run_experiment(experiment_id, quick=False)
        assert record.passed, record
    return run


def _family_sweep(scratch: bool) -> Callable[[], None]:
    """A verify_iff sweep over MdsFamily(2): validate, then 16 repeated
    passes over 32 input pairs.

    ``scratch=False`` is the shipping path (cached-skeleton delta builds
    plus the sweep decision memo); ``scratch=True`` pins the pre-delta
    behaviour (every G_{x,y} rebuilt from nothing, every predicate
    re-decided) so the recorded pair documents the speedup.
    """
    def run() -> None:
        import random

        from repro.cc.functions import random_input_pairs
        from repro.core.family import validate_family, verify_iff
        from repro.core.mds import MdsFamily

        fam = MdsFamily(2)
        if scratch:
            fam.build = fam.build_scratch  # type: ignore[method-assign]
        pairs = random_input_pairs(fam.k_bits, 32, random.Random(0xD15C))
        validate_family(fam, input_pairs=pairs[:6])
        for __ in range(16):
            # the batched kernel bypasses build() entirely, so the
            # scratch leg must pin batch=False or the build_scratch
            # monkeypatch would time nothing
            verify_iff(fam, pairs, negate=True, memo=not scratch,
                       batch=not scratch)
    return run


#: lazily-warmed store directory shared by the resumed-sweep bench reps
#: (populated by the first rep's cold pass, then every rep restores)
_GRID_STORE: List[str] = []


def _family_sweep_grid(resumed: bool,
                       batched: bool = False) -> Callable[[], None]:
    """A full 2^k_bits x 2^k_bits grid sweep of HamiltonianCycleFamily(2)
    (256 pairs) through a :class:`SweepStore` — the ``verify --grid``
    workload.

    ``resumed=False`` decides the whole grid cold into a throwaway store
    per rep; ``resumed=True`` sweeps against a store warmed once for the
    process, so every decision is a disk restore.  The recorded pair
    documents the cross-run memo-hit speedup of the result store.

    ``batched`` routes the cold decisions through the family's batched
    decision kernel; the unbatched cold bench pins ``batch=False`` so
    its baseline keeps meaning per-pair solver cost, and the recorded
    cold/batched pair documents the kernel's amortization.
    """
    def run() -> None:
        import shutil
        import tempfile

        from repro.core.family import sweep
        from repro.core.hamiltonian import HamiltonianCycleFamily
        from repro.experiments.sweep_store import SweepStore

        fam = HamiltonianCycleFamily(2)
        kb = fam.k_bits
        pairs = [(tuple(int(b) for b in format(i, f"0{kb}b")),
                  tuple(int(b) for b in format(j, f"0{kb}b")))
                 for i in range(1 << kb) for j in range(1 << kb)]
        if resumed:
            if not _GRID_STORE:
                warm = tempfile.mkdtemp(prefix="bench-sweep-store-")
                sweep(HamiltonianCycleFamily(2), pairs,
                      store=SweepStore(warm), batch=batched)
                _GRID_STORE.append(warm)
            report = sweep(fam, pairs, store=SweepStore(_GRID_STORE[0]),
                           batch=batched)
            assert report.store_hits == report.unique_pairs, report
            assert report.solved == 0, report
        else:
            cold = tempfile.mkdtemp(prefix="bench-sweep-store-")
            try:
                report = sweep(fam, pairs, store=SweepStore(cold),
                               batch=batched)
                assert report.solved == report.unique_pairs, report
                if batched:
                    assert report.batched == report.solved, report
            finally:
                shutil.rmtree(cold, ignore_errors=True)
    return run


#: hard ceiling on steady-state warm-pool payload per pair — the CI
#: assertion (enforced by bench_family_sweep_grid_warm, which --quick
#: runs) that per-pair sweep payload bloat cannot silently return.
#: Measured ~3.3 B/pair (packed bit strings + amortized shard header);
#: the cold path ships ~28 B/pair (family blob per shard + pickled
#: tuples).
PAYLOAD_BUDGET_BYTES = 8.0

#: one-shot latch: the warm-grid bench tears the pool down and primes
#: it (fresh fork + broadcast + enough sweeps that both lanes' memos
#: cover the grid) inside the first rep only, so every rep's measured
#: body is the *steady-state* warm sweep — work stealing splits shards
#: differently per sweep, so one priming pass would leave each lane
#: with holes the other lane filled and the p50 would depend on rep
#: count and bench ordering
_WARM_POOL_RESET: List[bool] = []


def _family_sweep_grid_warm() -> Callable[[], None]:
    """The 256-pair Hamiltonian grid through the persistent warm worker
    pool (2 lanes), a fresh family instance per sweep.

    The pool survives across reps, so the skeleton broadcasts once per
    lane and steady-state sweeps are served from hot worker memos — the
    cross-call reuse ``bench_family_sweep_grid`` (cold, throwaway
    pools) cannot see.  Each rep times several steady sweeps so the
    p50 is out of timer-noise territory.  Also asserts the per-pair
    payload budget.
    """
    def run() -> None:
        from repro.core.family import sweep
        from repro.core.hamiltonian import HamiltonianCycleFamily
        from repro.experiments import warm_pool

        kb = HamiltonianCycleFamily(2).k_bits
        pairs = [(tuple(int(b) for b in format(i, f"0{kb}b")),
                  tuple(int(b) for b in format(j, f"0{kb}b")))
                 for i in range(1 << kb) for j in range(1 << kb)]
        if not _WARM_POOL_RESET:
            warm_pool.shutdown_pool()
            for __ in range(5):  # priming: fork lanes, saturate memos
                sweep(HamiltonianCycleFamily(2), pairs, jobs=2)
            _WARM_POOL_RESET.append(True)
        for __ in range(8):
            report = sweep(HamiltonianCycleFamily(2), pairs, jobs=2)
            assert report.solved == report.unique_pairs == len(pairs), \
                report
        stats = warm_pool.pool_stats()
        if stats["pairs_shipped"]:
            per_pair = (stats["pair_payload_bytes"]
                        / stats["pairs_shipped"])
            assert per_pair <= PAYLOAD_BUDGET_BYTES, (
                f"warm-pool payload {per_pair:.1f} B/pair exceeds the "
                f"{PAYLOAD_BUDGET_BYTES} B budget — payload bloat")
    return run


def _graph_wire() -> Callable[[], None]:
    """Wire-format round-trip throughput: serialize and parse the
    warmed Hamiltonian grid skeleton 200 times, then pin round-trip
    ``content_hash`` equality once."""
    def run() -> None:
        from repro.core.hamiltonian import HamiltonianCycleFamily
        from repro.graphs import graph_from_bytes

        skeleton = HamiltonianCycleFamily(2).skeleton()
        expected = skeleton.content_hash()
        clone = skeleton
        for __ in range(200):
            clone = graph_from_bytes(skeleton.to_bytes())
        assert clone.content_hash() == expected
    return run


def _simulator_flood() -> Callable[[], None]:
    """Pure engine throughput: flood-min-id on a fixed random graph.

    No exact solver involved, so this isolates the CONGEST round loop —
    the bench the CI smoke job gates on.
    """
    def run() -> None:
        import random

        from repro.congest.algorithms.basic import FloodMinId
        from repro.congest.model import CongestSimulator
        from repro.graphs import random_graph

        g = random_graph(64, 0.15, random.Random(0xBE))
        sim = CongestSimulator(g)
        sim.run(FloodMinId)
        assert sim.rounds >= 1
    return run


#: lazily-built event corpus for the tracer write-path benches (one
#: deterministic broadcast, recorded once and replayed per rep)
_TRACE_EVENTS: List = []


def _trace_event_corpus() -> List:
    if not _TRACE_EVENTS:
        import random

        from repro.congest.model import CongestSimulator, NodeAlgorithm
        from repro.graphs import random_graph
        from repro.obs import RecordingTracer

        class Broadcast(NodeAlgorithm):
            """Every informed vertex rebroadcasts each round until a
            fixed horizon — message-heavy, so tracer emit dominates."""

            def __init__(self) -> None:
                self.value = None
                self.round_no = 0

            def on_start(self, ctx):
                if ctx.uid == 0:
                    self.value = 7
                    return {w: self.value for w in ctx.neighbors}
                return {}

            def on_round(self, ctx, messages):
                self.round_no += 1
                if self.value is None and messages:
                    self.value = next(iter(messages.values()))
                if self.round_no >= 20:
                    ctx.halt(self.value)
                    return {}
                if self.value is not None:
                    return {w: self.value for w in ctx.neighbors}
                return {}

        g = random_graph(200, 0.03, random.Random(0x7ACE))
        rec = RecordingTracer()
        CongestSimulator(g, tracer=rec).run(Broadcast)
        _TRACE_EVENTS.extend(rec.events)
    return _TRACE_EVENTS


def _trace_emit(fmt: str) -> Callable[[], None]:
    """Tracer write-path throughput: replay the pre-recorded broadcast
    corpus through a file tracer.  The jsonl/binary pair documents the
    binary format's speedup in the trajectory."""
    def run() -> None:
        import tempfile

        from repro.obs import open_tracer

        events = _trace_event_corpus()
        with tempfile.TemporaryDirectory(prefix="bench-trace-") as tmp:
            suffix = ".jsonl" if fmt == "jsonl" else ".rtb"
            tracer = open_tracer(os.path.join(tmp, "t" + suffix), fmt=fmt)
            emit = tracer.emit
            for event in events:
                emit(event)
            tracer.close()
    return run


BENCHES: Dict[str, Callable[[], None]] = {
    # the two headline benches of the perf acceptance criteria
    "bench_congest_maxcut": _cold_experiment("E-T2.9-congest-maxcut"),
    "bench_kmds": _cold_experiment("E-F6-T4.4-T4.5-kmds"),
    # the remaining simulator-heavy experiment benches
    "bench_universal_upper_bound": _cold_experiment("E-universal-upper-bound"),
    "bench_congest_local_separation":
        _cold_experiment("E-congest-local-separation"),
    # pure simulator microbench (CI regression gate)
    "simulator_flood": _simulator_flood(),
    # delta-build sweep vs the pre-delta scratch path (same workload)
    "bench_family_sweep": _family_sweep(scratch=False),
    "bench_family_sweep_scratch": _family_sweep(scratch=True),
    # full-grid sweep cold vs restored from the content-addressed store
    "bench_family_sweep_grid": _family_sweep_grid(resumed=False),
    # the same cold grid through the batched decision kernel (the
    # per-pair/batched pair documents the kernel's amortization)
    "bench_family_sweep_grid_batched":
        _family_sweep_grid(resumed=False, batched=True),
    "bench_family_sweep_resumed": _family_sweep_grid(resumed=True),
    # the same grid through the persistent warm pool (cross-call reuse)
    "bench_family_sweep_grid_warm": _family_sweep_grid_warm(),
    # compact binary graph wire-format round-trip throughput
    "bench_graph_wire": _graph_wire(),
    # tracer write-path throughput, jsonl vs compact binary
    "bench_trace_jsonl": _trace_emit("jsonl"),
    "bench_trace_binary": _trace_emit("binary"),
}

QUICK_BENCHES = ("simulator_flood", "bench_family_sweep",
                 "bench_family_sweep_resumed",
                 "bench_family_sweep_grid_warm",
                 "bench_family_sweep_grid_batched", "bench_graph_wire")


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=REPO_ROOT, capture_output=True, text=True,
                             check=True)
        return out.stdout.strip()
    except Exception:  # pragma: no cover - no git in exotic environments
        return "unknown"


def time_bench(fn: Callable[[], None], reps: int) -> Dict[str, float]:
    samples: List[float] = []
    for __ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    # sub-200ms benches live in scheduler-noise territory: top up to at
    # least 3 samples so min_ms is a best-of-N, not a single roll
    while (statistics.median(samples) < NOISE_FLOOR_MS
           and len(samples) < max(3, reps)):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return {
        "p50_ms": round(statistics.median(samples), 2),
        "p95_ms": round(percentile(samples, 95), 2),
        "min_ms": round(min(samples), 2),
        "reps": len(samples),
    }


def gate_delta(base: Dict[str, float],
               result: Dict[str, float]) -> "float | None":
    """The fractional growth the regression gate judges.

    Benches at or above :data:`NOISE_FLOOR_MS` gate on the p50 delta
    (same arithmetic as ``repro report bench``).  Sub-floor benches
    gate on best-of-N (``min_ms``) instead — a couple of descheduled
    reps can double a 40ms p50, but the best rep is stable — falling
    back to the p50 delta for histories recorded before ``min_ms``.
    """
    delta = bench_delta(base, result)
    if result.get("p50_ms", NOISE_FLOOR_MS) >= NOISE_FLOOR_MS:
        return delta
    prev_best = base.get("min_ms")
    cur_best = result.get("min_ms")
    if not prev_best or cur_best is None:
        return delta
    return (cur_best - prev_best) / prev_best


def compare_history(history: Dict[str, List[Dict]], names: List[str]) -> None:
    """Print the last two recorded entries per bench — no benches run.

    Same rows as ``repro report bench``, plain-text rather than
    markdown (both sit on :func:`repro.obs.report.bench_rows`).
    """
    print(f"{'bench':<34} {'previous':>16} {'latest':>16} {'delta':>8}")
    for row in bench_rows(history, names=names):
        if not row["current"]:
            print(f"{row['name']:<34} {'-':>16} {'-':>16} {'(none)':>8}")
            continue
        cur_s = format_entry(row["current"])
        if row["delta"] is None:
            print(f"{row['name']:<34} {'-':>16} {cur_s:>16} {'(new)':>8}")
            continue
        prev_s = format_entry(row["previous"])
        print(f"{row['name']:<34} {prev_s:>16} {cur_s:>16} "
              f"{row['delta']:>+8.0%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke tier: simulator bench only, no write")
    parser.add_argument("--update", action="store_true",
                        help="append the new measurements to "
                             "BENCH_simulator.json")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per bench (default 5, quick 3)")
    parser.add_argument("--only", nargs="*", action="extend", default=None,
                        metavar="NAME",
                        help="restrict to these bench names (repeatable: "
                             "--only A --only B, or --only A B)")
    parser.add_argument("--compare", action="store_true",
                        help="print the delta between the last two "
                             "recorded entries per bench; runs nothing")
    parser.add_argument("--file", default=BENCH_FILE,
                        help="bench history file (default: "
                             "BENCH_simulator.json at the repo root)")
    args = parser.parse_args(argv)

    names = list(QUICK_BENCHES) if args.quick else list(BENCHES)
    if args.only:
        unknown = [n for n in args.only if n not in BENCHES]
        if unknown:
            parser.error(f"unknown bench(es) {unknown}; "
                         f"known: {sorted(BENCHES)}")
        names = args.only
    reps = args.reps if args.reps is not None else (3 if args.quick else 5)

    bench_file = args.file
    try:
        history = load_bench_history(bench_file)
    except BenchHistoryError as exc:
        # corrupt/empty/truncated history (e.g. a killed recorder):
        # one-line nonzero exit instead of a raw json traceback
        print(str(exc), file=sys.stderr)
        return 1
    if args.compare:
        if not history:
            print(f"no bench history at {bench_file} "
                  f"(run benchmarks/record.py --update)", file=sys.stderr)
            return 1
        compare_history(history, names)
        return 0
    sha = git_sha()
    today = datetime.date.today().isoformat()
    regressions: List[str] = []

    print(f"{'bench':<34} {'p50 ms':>10} {'baseline':>10} {'delta':>8}")
    for name in names:
        result = time_bench(BENCHES[name], reps)
        base = latest_entry(history, name)
        base_p50 = base.get("p50_ms")
        delta = bench_delta(base, result)
        gated = gate_delta(base, result)
        if delta is not None:
            delta_s = f"{delta:+.0%}"
            if gated is not None and gated > REGRESSION_TOLERANCE:
                via_best = result.get("p50_ms", 0) < NOISE_FLOOR_MS
                regressions.append(
                    f"{name}: "
                    + (f"best-of-{result['reps']} {result['min_ms']}ms vs "
                       f"baseline best {base.get('min_ms')}ms"
                       if via_best and base.get("min_ms") else
                       f"p50 {result['p50_ms']}ms vs baseline "
                       f"{base_p50}ms")
                    + (f" ({gated:+.0%} > "
                       f"{REGRESSION_TOLERANCE:.0%} tolerance, "
                       f"baseline sha {base.get('sha', '?')})"))
        else:
            delta_s = "(new)"
        print(f"{name:<34} {result['p50_ms']:>10.2f} "
              f"{base_p50 if base_p50 else '-':>10} {delta_s:>8}")
        if args.update:
            history.setdefault(name, []).append(
                {"sha": sha, "date": today, **result})

    if args.update:
        with open(bench_file, "w") as fh:
            json.dump(history, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"recorded under sha {sha} in {bench_file}")

    if regressions:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
