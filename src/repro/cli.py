"""Command-line interface: ``python -m repro <command>``.

Commands
--------
families              list every lower-bound family with its parameters
describe FAMILY [-k]  build one family and print its Definition 1.1 data
verify FAMILY [-k] [--pairs N]
                      machine-check the family's iff-lemma on N input pairs
verify FAMILY --grid [--store-dir DIR] [--expect-store-hits PCT]
                      exhaustive 2^k x 2^k grid sweep through the
                      persistent result store: coverage reporting,
                      crash-resumable, repeat sweeps near-free
experiments [--full] [--only ID ...] [--trace-dir DIR] [--profile]
                      run the per-theorem experiments and print the table
paper                 print the theorem-by-theorem coverage index
check [--seed S] [--cases N] [--family F] [--deep] [--jobs N]
      [--report-dir DIR] [--trace-dir DIR]
                      differential correctness harness: fuzz graphs,
                      cross-validate solvers against naive references and
                      metamorphic invariants, shrink failures to minimal
                      reproducers (see repro.check)
report trace TRACE [--run N] [--cut UIDS] [--edges N]
                      render a simulator trace (binary or JSONL,
                      auto-detected) into a round-by-round summary
report fuzz DIR       summarize a `check --report-dir` artifact dir
report convert SRC DST
                      convert a trace between JSONL and binary
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Callable, Dict, Optional

from repro.core.family import LowerBoundGraphFamily, validate_family, verify_iff


#: ``-k`` when it is not given, for the families that scale with k.
_DEFAULT_K = 4

#: The Section 4 covering families are built on one fixed covering
#: collection and do not scale with k, so they take no ``-k``.
_COLLECTION_FAMILIES = ("kmds", "node-weighted-steiner", "directed-steiner")
_COLLECTION_LABEL = "fixed collection: universe 16, T=6, r=2"


def _family_registry() -> Dict[str, Callable[..., LowerBoundGraphFamily]]:
    """Family factories: ``factory(k)``, or ``factory()`` for the
    families in :data:`_COLLECTION_FAMILIES`."""
    from repro import (
        HamiltonianCycleFamily,
        HamiltonianPathFamily,
        KMdsFamily,
        LinearApproxMaxISFamily,
        MaxCutFamily,
        MdsFamily,
        MvcMaxISFamily,
        NodeWeightedSteinerFamily,
        SteinerTreeFamily,
        UnweightedApproxMaxISFamily,
        WeightedApproxMaxISFamily,
    )
    from repro.core.steiner_approx import DirectedSteinerFamily
    from repro.covering import build_covering_collection

    def with_collection(cls):
        def make():
            cc = build_covering_collection(universe_size=16, T=6, r=2, seed=0)
            return cls(cc)
        return make

    return {
        "mds": MdsFamily,
        "hamiltonian-path": HamiltonianPathFamily,
        "hamiltonian-cycle": HamiltonianCycleFamily,
        "steiner": SteinerTreeFamily,
        "maxcut": MaxCutFamily,
        "mvc": MvcMaxISFamily,
        "approx-maxis": WeightedApproxMaxISFamily,
        "approx-maxis-unweighted": UnweightedApproxMaxISFamily,
        "approx-maxis-linear": LinearApproxMaxISFamily,
        "kmds": with_collection(lambda cc: KMdsFamily(cc, k=2)),
        "node-weighted-steiner": with_collection(NodeWeightedSteinerFamily),
        "directed-steiner": with_collection(DirectedSteinerFamily),
    }


def _build(name: str, k: Optional[int]) -> LowerBoundGraphFamily:
    """Build family ``name``; ``k=None`` means the default size."""
    registry = _family_registry()
    if name not in registry:
        raise SystemExit(f"unknown family {name!r}; try: "
                         + ", ".join(sorted(registry)))
    if name in _COLLECTION_FAMILIES:
        if k is not None:
            raise SystemExit(f"{name} does not scale with k "
                             f"({_COLLECTION_LABEL}); drop -k")
        return registry[name]()
    return registry[name](_DEFAULT_K if k is None else k)


def _size_label(name: str, k: Optional[int]) -> str:
    """What fixes the size of family ``name`` built with ``-k k``."""
    if name in _COLLECTION_FAMILIES:
        return _COLLECTION_LABEL
    return f"k={_DEFAULT_K if k is None else k}"


def cmd_families(args: argparse.Namespace) -> None:
    for name in sorted(_family_registry()):
        k = (None if name in _COLLECTION_FAMILIES
             else 2 if "maxcut" in name or "hamiltonian" in name else 4)
        try:
            d = _build(name, k).describe()
            print(f"{name:<26} n={d['n']:5d}  |Ecut|={d['ecut']:4d}  "
                  f"K={d['K']:4d}  bound={d['implied_bound']:.3f}  "
                  f"{_size_label(name, k)}")
        except Exception as exc:  # pragma: no cover - CLI resilience
            print(f"{name:<26} (unavailable at default size: {exc})")


def cmd_describe(args: argparse.Namespace) -> None:
    fam = _build(args.family, args.k)
    for key, value in fam.describe().items():
        print(f"{key:>14}: {value}")


def _parse_bits(text: str, k_bits: int, flag: str) -> tuple:
    if len(text) != k_bits or set(text) - {"0", "1"}:
        raise SystemExit(
            f"{flag} expects a string of {k_bits} bits (0/1), got {text!r}")
    return tuple(int(b) for b in text)


def _grid_pairs(k_bits: int) -> list:
    return [(tuple(int(b) for b in format(i, f"0{k_bits}b")),
             tuple(int(b) for b in format(j, f"0{k_bits}b")))
            for i in range(1 << k_bits) for j in range(1 << k_bits)]


def _verify_grid(fam, args: argparse.Namespace) -> None:
    """``verify --grid``: decide P(G_{x,y}) over the *full* 2^k × 2^k
    input grid through the persistent sweep store, report coverage
    (restored / freshly solved / remaining) instead of sampling, and
    check the iff-lemma on every pair.  Because each decision is
    persisted the moment it lands, a run killed mid-grid resumes from
    the last completed pair."""
    from repro.core.family import sweep as run_sweep
    from repro.core.family import verify_iff
    from repro.experiments.sweep_store import SweepStore, family_key

    k_bits = fam.k_bits
    total = (1 << k_bits) ** 2
    if k_bits > 10:
        raise SystemExit(
            f"--grid would enumerate 2^{k_bits} × 2^{k_bits} = {total} "
            f"pairs; grids beyond k_bits=10 (~1M pairs) need a smaller k")
    store = SweepStore(args.store_dir)  # None -> ~/.cache/repro/sweeps
    fkey = family_key(fam)
    pairs = _grid_pairs(k_bits)
    pre = store.coverage(fkey, pairs)
    print(f"grid sweep {args.family} ({_size_label(args.family, args.k)}): "
          f"2^{k_bits} x 2^{k_bits} = {total} pairs")
    print(f"  store: {store.root}")
    print(f"  coverage before: {pre}/{total} stored, {total - pre} remaining")
    report = run_sweep(fam, pairs, store=store)
    hit_pct = 100.0 * report.store_hits / max(1, report.unique_pairs)
    print(f"  coverage after: {report.unique_pairs}/{total} decided "
          f"({report.store_hits} restored from store, "
          f"{report.solved} freshly solved, 0 remaining)")
    print(f"  store hits: {report.store_hits}/{report.unique_pairs} "
          f"({hit_pct:.1f}%)")
    if report.batched:
        print(f"  batched kernel: {report.batched}/{report.solved} "
              f"solved pairs")
    if report.solve_ms:
        from repro.obs.profile import percentile
        print(f"  decision latency: p50={percentile(report.solve_ms, 50):.3f}ms "
              f"p95={percentile(report.solve_ms, 95):.3f}ms "
              f"over {len(report.solve_ms)} decided pairs")
    # every decision is already memoized, so the iff check re-solves
    # nothing — it only compares each decision against f(x, y)
    iff = verify_iff(fam, pairs, negate=True)
    print(f"  iff-lemma over the full grid: {iff}")
    if (args.expect_store_hits is not None
            and hit_pct < args.expect_store_hits):
        raise SystemExit(
            f"store hit rate {hit_pct:.1f}% below the required "
            f"{args.expect_store_hits:.1f}% (resume/caching regression?)")
    if args.recheck_batch:
        # satellite of the batched-kernel protocol: a *fresh* family's
        # decide_batch over the full grid must match every stored entry
        fresh = _build(args.family, args.k)
        batched = fresh.decide_batch(None, pairs)
        if batched is None:
            raise SystemExit(
                f"--recheck-batch: {type(fresh).__name__} has no batch "
                f"kernel to re-check with")
        stored = store.load_pairs(fkey)
        mismatches = sum(
            1 for key, dec in batched.items()
            if key in stored and stored[key] != dec)
        unstored = sum(1 for key in batched if key not in stored)
        print(f"  batch recheck: {len(batched)} kernel decisions vs "
              f"{len(stored)} stored entries -> {mismatches} mismatches")
        if mismatches or unstored:
            raise SystemExit(
                f"--recheck-batch: {mismatches} kernel/store mismatches, "
                f"{unstored} pairs missing from the store")


def cmd_verify(args: argparse.Namespace) -> None:
    from repro.core.family import configure_sweep

    if args.sweep_jobs:
        configure_sweep(args.sweep_jobs)
    if args.no_batch:
        configure_sweep(batch=False)
    fam = _build(args.family, args.k)
    try:
        if args.grid:
            if args.xbits is not None or args.ybits is not None:
                raise SystemExit("--grid enumerates every pair; it cannot "
                                 "be combined with --x/--y")
            _verify_grid(fam, args)
        elif args.xbits is not None or args.ybits is not None:
            _verify_pair(fam, args)
        else:
            _verify_sample(fam, args)
    except ValueError as exc:
        # e.g. an exact solver declining an instance beyond its size limit
        raise SystemExit(f"cannot verify {args.family} "
                         f"({_size_label(args.family, args.k)}): {exc}")


def _verify_pair(fam, args: argparse.Namespace) -> None:
    """Single-pair mode: re-check one (x, y), as emitted in verify_iff
    mismatch repro commands."""
    if args.xbits is None or args.ybits is None:
        raise SystemExit("--x and --y must be given together")
    x = _parse_bits(args.xbits, fam.k_bits, "--x")
    y = _parse_bits(args.ybits, fam.k_bits, "--y")
    expected = not fam.function(x, y)  # negate=True convention
    actual = fam.predicate(fam.build(x, y))
    status = "OK" if actual == expected else "MISMATCH"
    print(f"x={x}, y={y}: predicate={actual}, expected={expected} "
          f"-> {status}")
    if actual != expected:
        raise SystemExit(1)


def _verify_sample(fam, args: argparse.Namespace) -> None:
    from repro.cc.functions import random_input_pairs

    print(f"validating Definition 1.1 for {args.family} "
          f"({_size_label(args.family, args.k)}) ...")
    validate_family(fam)
    print("  structural requirements: OK")
    rng = random.Random(args.seed)
    pairs = random_input_pairs(fam.k_bits, args.pairs, rng)
    report = verify_iff(fam, pairs, negate=True)
    print(f"  iff-lemma: {report}")


def cmd_paper(args: argparse.Namespace) -> None:
    from repro.paper import coverage_table

    print(coverage_table())


def cmd_experiments(args: argparse.Namespace) -> None:
    from repro.core.family import configure_sweep
    from repro.experiments import format_markdown, run_all

    if args.sweep_jobs:
        configure_sweep(args.sweep_jobs)
    records = run_all(quick=not args.full,
                      only=args.only if args.only else None,
                      trace_dir=args.trace_dir,
                      profile=args.profile,
                      jobs=args.jobs,
                      timeout=args.timeout,
                      retries=args.retries,
                      trace_format=args.trace_format)
    print(format_markdown(records))
    failed = [r.experiment_id for r in records if not r.passed]
    if failed:
        raise SystemExit(f"FAILED: {failed}")


def cmd_check(args: argparse.Namespace) -> None:
    from repro.check import run_check

    report = run_check(seed=args.seed, cases=args.cases, family=args.family,
                       deep=args.deep, jobs=args.jobs,
                       do_shrink=not args.no_shrink,
                       report_dir=args.report_dir,
                       trace_dir=args.trace_dir,
                       trace_format=args.trace_format)
    print(report.summary())
    if not report.ok:
        raise SystemExit(1)


def _report_trace(path: str, args: argparse.Namespace) -> None:
    from repro.obs import iter_trace, render_report
    from repro.obs.binary import TraceFormatError

    alice = None
    if args.cut:
        try:
            alice = {int(u) for u in args.cut.split(",") if u.strip()}
        except ValueError:
            raise SystemExit("--cut expects comma-separated integer uids")
    try:
        report = render_report(iter_trace(path), alice_uids=alice,
                               top_edges=args.edges, run=args.run)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path!r}: {exc}")
    except TraceFormatError as exc:
        raise SystemExit(f"corrupt trace {path!r}: {exc}")
    except ValueError as exc:
        # render_report: empty trace, or --run beyond the last run
        raise SystemExit(f"trace {path!r}: {exc}")
    print(report)


def _report_fuzz(args: argparse.Namespace) -> None:
    from repro.obs.report import render_fuzz_report

    if args.path is None:
        raise SystemExit("usage: repro report fuzz <report-dir>")
    try:
        print(render_fuzz_report(args.path))
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))


def _report_convert(args: argparse.Namespace) -> None:
    from repro.obs import convert_trace

    if args.path is None or args.dst is None:
        raise SystemExit("usage: repro report convert <src> <dst> "
                         "(dst format inferred from extension: "
                         ".jsonl → JSON lines, else binary)")
    try:
        out = convert_trace(args.path, args.dst)
    except OSError as exc:
        raise SystemExit(f"cannot convert {args.path!r}: {exc}")
    print(f"wrote {out}")


def cmd_report(args: argparse.Namespace) -> None:
    what = args.what
    if what == "trace":
        if args.path is None:
            raise SystemExit("usage: repro report trace <trace-file>")
        _report_trace(args.path, args)
    elif what == "fuzz":
        _report_fuzz(args)
    elif what == "convert":
        _report_convert(args)
    else:
        raise SystemExit(f"unknown report view {what!r}; expected "
                         "trace, fuzz, or convert")


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hardness of Distributed Optimization (PODC 2019) "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list available lower-bound families")

    p = sub.add_parser("describe", help="print one family's parameters")
    p.add_argument("family")
    p.add_argument("-k", type=int, default=None,
                   help=f"family size parameter (default {_DEFAULT_K}); "
                        f"the covering families "
                        f"({', '.join(_COLLECTION_FAMILIES)}) take none")

    p = sub.add_parser("verify", help="machine-check a family's iff-lemma")
    p.add_argument("family")
    p.add_argument("-k", type=int, default=None,
                   help=f"family size parameter (default {_DEFAULT_K}); "
                        f"the covering families "
                        f"({', '.join(_COLLECTION_FAMILIES)}) take none")
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x", dest="xbits", default=None, metavar="BITS",
                   help="with --y: check the single input pair given as "
                        "0/1 strings instead of sampling (the repro-"
                        "command form verify_iff emits on mismatch)")
    p.add_argument("--y", dest="ybits", default=None, metavar="BITS")
    p.add_argument("--sweep-jobs", type=int, default=0, metavar="N",
                   help="fan predicate sweeps over N worker processes")
    p.add_argument("--no-batch", action="store_true",
                   help="disable batched decision kernels; every pair "
                        "goes through the per-pair predicate(build(x,y)) "
                        "path")
    p.add_argument("--grid", action="store_true",
                   help="decide the predicate over the FULL 2^k x 2^k "
                        "input grid through the persistent sweep store, "
                        "reporting coverage (restored / freshly solved) "
                        "instead of sampling; resumable after a crash")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="sweep result store directory for --grid "
                        "(default: ~/.cache/repro/sweeps)")
    p.add_argument("--expect-store-hits", type=float, default=None,
                   metavar="PCT",
                   help="with --grid: exit nonzero when the store served "
                        "fewer than PCT%% of the grid (the CI resume gate)")
    p.add_argument("--recheck-batch", action="store_true",
                   help="with --grid: after the sweep, re-decide the full "
                        "grid through a fresh family's batch kernel and "
                        "exit nonzero unless every decision matches the "
                        "stored entries (the CI batched-path gate)")

    p = sub.add_parser("experiments", help="run the per-theorem experiments")
    p.add_argument("--full", action="store_true")
    p.add_argument("--only", nargs="*", default=None)
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write one simulator trace per CONGEST run "
                        "(compact binary by default; see --trace-format)")
    p.add_argument("--trace-format", choices=("binary", "jsonl"),
                   default="binary",
                   help="trace file format for --trace-dir "
                        "(default: binary)")
    p.add_argument("--profile", action="store_true",
                   help="record exact-solver wall-clock/call-count profile "
                        "in each record")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="run experiments over N worker processes "
                        "(default 1 = serial; output order is identical)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="per-experiment wall-clock timeout in seconds "
                        "(parallel runs; an expired experiment FAILs "
                        "instead of stalling the batch)")
    p.add_argument("--retries", type=int, default=1, metavar="N",
                   help="bounded retries for experiments whose worker "
                        "process died (default 1)")
    p.add_argument("--sweep-jobs", type=int, default=0, metavar="N",
                   help="fan each family's predicate sweep over N worker "
                        "processes (independent of --jobs; reports are "
                        "byte-identical to serial sweeps)")

    sub.add_parser("paper", help="theorem-by-theorem coverage index")

    p = sub.add_parser("check", help="differential correctness harness: "
                                     "fuzz, cross-validate, shrink")
    p.add_argument("--seed", type=int, default=0,
                   help="base fuzz seed; (seed, family, index) regenerates "
                        "any case bit-for-bit in any process")
    p.add_argument("--cases", type=int, default=50,
                   help="how many fuzz cases, round-robin over families")
    p.add_argument("--family", default="all",
                   help="restrict to one fuzz family "
                        "(er, bounded, weighted, structured, paper)")
    p.add_argument("--deep", action="store_true",
                   help="larger instances (nightly deep-fuzz tier)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan case chunks over N worker processes")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimising them")
    p.add_argument("--report-dir", default=None, metavar="DIR",
                   help="write check-report.json and one JSON reproducer "
                        "per failure to DIR (render with `repro report "
                        "fuzz DIR`)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write one simulator trace per CONGEST run the "
                        "checks perform")
    p.add_argument("--trace-format", choices=("binary", "jsonl"),
                   default="binary",
                   help="trace file format for --trace-dir "
                        "(default: binary)")

    p = sub.add_parser(
        "report",
        help="analytics studio: render traces and fuzz artifacts",
        description="Views: `report trace FILE` renders a simulator "
                    "trace (binary or JSONL, auto-detected); `report "
                    "fuzz DIR` summarizes a `check --report-dir` "
                    "directory; `report convert SRC DST` converts a "
                    "trace between formats.")
    p.add_argument("what", metavar="VIEW",
                   help="trace | fuzz | convert")
    p.add_argument("path", nargs="?", default=None,
                   help="trace file / fuzz report dir / conversion "
                        "source, per the view")
    p.add_argument("dst", nargs="?", default=None,
                   help="destination path (convert view only; format "
                        "inferred from extension)")
    p.add_argument("--run", type=int, default=None, metavar="N",
                   help="restrict the trace view to the N-th run "
                        "(1-based) of a multi-run trace")
    p.add_argument("--cut", default=None, metavar="UIDS",
                   help="comma-separated Alice-side uids: adds Theorem 1.1 "
                        "cut-bit accounting")
    p.add_argument("--edges", type=int, default=5,
                   help="how many busiest edges to list (default 5)")

    args = parser.parse_args(argv)
    try:
        {
            "families": cmd_families,
            "describe": cmd_describe,
            "verify": cmd_verify,
            "experiments": cmd_experiments,
            "paper": cmd_paper,
            "check": cmd_check,
            "report": cmd_report,
        }[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # reader (head, a pager) went away mid-output: exit quietly, and
        # point stdout at devnull so interpreter shutdown stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(0)


if __name__ == "__main__":  # pragma: no cover
    main()
