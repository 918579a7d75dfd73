"""The differential-check orchestrator behind ``repro check``.

``run_check(seed, cases, family)`` fuzzes graphs
(:mod:`repro.check.fuzz`), runs every applicable check — production
solver vs naive reference (:mod:`repro.check.reference`), metamorphic
invariants (:mod:`repro.check.invariants`), paper-family iff-lemma
ground truth, and CONGEST-vs-centralized agreement
(:mod:`repro.check.congest_check`) — and greedily shrinks every failure
to a minimal reproducer (:mod:`repro.check.shrink`).

Checks reach the production solvers through the ``repro.solvers``
namespace, so a planted mutation (monkeypatching a solver) is observed;
the test-suite uses exactly that to prove the harness catches bugs.

Fan-out runs one chunk of case keys per lane on the lane scheduler
(:func:`repro.experiments.parallel.drain`), so a worker death becomes a
``harness`` failure instead of escaping; results are merged in case
order so parallel output is deterministic.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.check import invariants as inv
from repro.check import reference as ref
from repro.check.fuzz import FAMILIES, Case, generate_cases, make_case
from repro.check.shrink import describe_graph, shrink_graph


def _solvers():
    from repro import solvers
    return solvers


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _check_rng(case: Case, check_name: str) -> random.Random:
    # independent of PYTHONHASHSEED, distinct per (seed, case, check)
    return random.Random(
        f"repro-check:{case.seed}:{case.family}:{case.index}:{check_name}")


# ----------------------------------------------------------------------
# check registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Check:
    """One named differential/metamorphic check over a fuzz case."""

    name: str
    kind: str  # "reference" | "invariant" | "paper" | "congest"
    run: Callable[[Case], Optional[str]]
    applies: Callable[[Case], bool]
    #: shrinking rebuilds the case with candidate graphs; checks whose
    #: meaning is tied to the family construction opt out.
    shrinkable: bool = True


def _ref_check(name: str, prod: Callable[[Case], Any],
               reference: Callable[[Case], Any],
               applies: Callable[[Case], bool],
               exact: bool = True) -> Check:
    def run(case: Case) -> Optional[str]:
        got = prod(case)
        want = reference(case)
        agree = (got == want) if exact else _close(got, want)
        if not agree:
            return f"production={got!r}, reference={want!r}"
        return None
    return Check(name=name, kind="reference", run=run, applies=applies)


def _inv_check(name: str, fn, applies: Callable[[Case], bool],
               with_terminals: bool = False) -> Check:
    def run(case: Case) -> Optional[str]:
        rng = _check_rng(case, name)
        if with_terminals:
            terminals = tuple(t for t in case.terminals
                              if t in case.graph)
            return fn(case.graph, rng, terminals=terminals)
        return fn(case.graph, rng)
    return Check(name=name, kind="invariant", run=run, applies=applies)


def _paper_iff(case: Case) -> Optional[str]:
    s = _solvers()
    target = case.meta["target_size"]
    got = s.has_dominating_set_of_size(case.graph, target)
    want = not case.meta["disjoint"]
    if got != want:
        return (f"Lemma 2.1 iff-lemma violated: dominating set of size "
                f"{target} exists={got}, DISJ(x,y)={case.meta['disjoint']}")
    return None


def _paper_ref_target(case: Case) -> Optional[str]:
    s = _solvers()
    target = case.meta["target_size"]
    got = s.has_dominating_set_of_size(case.graph, target)
    want = ref.ref_has_dominating_set_of_size(case.graph, target)
    if got != want:
        return (f"has_dominating_set_of_size({target}): production={got}, "
                f"reference={want}")
    return None


def _congest_mds(case: Case) -> Optional[str]:
    from repro.check.congest_check import check_congest_mds
    return check_congest_mds(case.graph)


def _engine_equivalence(case: Case) -> Optional[str]:
    from repro.check.engine_check import check_engine_equivalence
    return check_engine_equivalence(case.graph)


def _family_delta(case: Case) -> Optional[str]:
    from repro.check.family_check import check_family_delta
    return check_family_delta(case.seed, case.index)


def _sweep_store(case: Case) -> Optional[str]:
    from repro.check.sweep_check import check_sweep_store
    return check_sweep_store(case.seed, case.index)


def _batch_kernels(case: Case) -> Optional[str]:
    from repro.check.batch_check import check_batch_kernels
    return check_batch_kernels(case.seed, case.index)


def _small(limit_n: int, limit_m: int = 10 ** 9,
           fuzz_only: bool = True) -> Callable[[Case], bool]:
    def applies(case: Case) -> bool:
        if fuzz_only and case.family == "paper":
            return False
        return case.graph.n <= limit_n and case.graph.m <= limit_m
    return applies


def _terminals_ok(base: Callable[[Case], bool]) -> Callable[[Case], bool]:
    def applies(case: Case) -> bool:
        return base(case) and len(case.terminals) >= 2
    return applies


def _build_checks() -> List[Check]:
    s = _solvers  # late-bound namespace, see module docstring
    checks: List[Check] = [
        # -- production vs naive reference --------------------------------
        _ref_check(
            "ref:independence-number",
            lambda c: s().independence_number(c.graph),
            lambda c: ref.ref_independence_number(c.graph),
            _small(10)),
        _ref_check(
            "ref:mis-weight",
            lambda c: s().max_independent_set_weight(c.graph),
            lambda c: ref.ref_max_independent_set_weight(c.graph),
            _small(9), exact=False),
        _ref_check(
            "ref:vertex-cover",
            lambda c: s().min_vertex_cover_size(c.graph),
            lambda c: ref.ref_min_vertex_cover_size(c.graph),
            _small(10)),
        _ref_check(
            "ref:dominating-size",
            lambda c: len(s().min_dominating_set(c.graph)),
            lambda c: ref.ref_min_dominating_set_size(c.graph),
            lambda c: c.family != "paper" and 1 <= c.graph.n <= 10),
        _ref_check(
            "ref:dominating-weight",
            lambda c: s().min_dominating_set_weight(c.graph),
            lambda c: ref.ref_min_dominating_set_weight(c.graph),
            lambda c: c.family != "paper" and 1 <= c.graph.n <= 9,
            exact=False),
        _ref_check(
            "ref:k-dominating",
            lambda c: s().min_k_dominating_set_weight(c.graph, 2),
            lambda c: ref.ref_min_dominating_set_weight(c.graph, 2),
            lambda c: c.family != "paper" and 1 <= c.graph.n <= 9,
            exact=False),
        _ref_check(
            "ref:maxcut",
            lambda c: s().max_cut_value(c.graph),
            lambda c: ref.ref_max_cut_value(c.graph),
            _small(10), exact=False),
        _ref_check(
            "ref:matching",
            lambda c: s().max_matching_size(c.graph),
            lambda c: ref.ref_max_matching_size(c.graph),
            _small(12, limit_m=18)),
        _ref_check(
            "ref:hamiltonian-path",
            lambda c: s().has_hamiltonian_path(c.graph),
            lambda c: ref.ref_has_hamiltonian_path(c.graph),
            _small(7)),
        _ref_check(
            "ref:hamiltonian-cycle",
            lambda c: s().has_hamiltonian_cycle(c.graph),
            lambda c: ref.ref_has_hamiltonian_cycle(c.graph),
            _small(7)),
        _ref_check(
            "ref:steiner",
            lambda c: s().steiner_tree_cost(
                c.graph, [t for t in c.terminals if t in c.graph]),
            lambda c: ref.ref_steiner_tree_cost(
                c.graph, [t for t in c.terminals if t in c.graph]),
            _terminals_ok(_small(10)), exact=False),
        _ref_check(
            "ref:node-weighted-steiner",
            lambda c: s().min_node_weighted_steiner_cost(
                c.graph, [t for t in c.terminals if t in c.graph]),
            lambda c: ref.ref_node_weighted_steiner_cost(
                c.graph, [t for t in c.terminals if t in c.graph]),
            _terminals_ok(_small(10)), exact=False),
        _ref_check(
            "ref:twoecss",
            lambda c: s().min_two_ecss_edges(c.graph),
            lambda c: ref.ref_min_two_ecss_edges(c.graph),
            _small(8, limit_m=11)),
        _ref_check(
            "ref:maxflow",
            lambda c: s().max_flow(c.graph, c.terminals[0],
                                   c.terminals[1])[0],
            lambda c: ref.ref_max_flow_value(c.graph, c.terminals[0],
                                             c.terminals[1]),
            _terminals_ok(_small(10)), exact=False),
        _ref_check(
            "ref:distance",
            lambda c: s().weighted_distance(c.graph, c.terminals[0],
                                            c.terminals[1]),
            lambda c: ref.ref_distance(c.graph, c.terminals[0],
                                       c.terminals[1]),
            _terminals_ok(_small(14)), exact=False),
        # -- metamorphic invariants ---------------------------------------
        _inv_check("inv:relabel-alpha", inv.inv_relabel_alpha, _small(20)),
        _inv_check("inv:relabel-maxcut", inv.inv_relabel_maxcut, _small(14)),
        _inv_check("inv:relabel-dominating", inv.inv_relabel_dominating,
                   lambda c: 1 <= c.graph.n <= 20),
        _inv_check("inv:relabel-matching", inv.inv_relabel_matching,
                   _small(20)),
        _inv_check("inv:scale-edge-weights", inv.inv_scale_edge_weights,
                   _small(12), with_terminals=True),
        _inv_check("inv:scale-vertex-weights", inv.inv_scale_vertex_weights,
                   lambda c: 1 <= c.graph.n <= 12 and c.family != "paper"),
        _inv_check("inv:disjoint-union", inv.inv_disjoint_union, _small(10)),
        _inv_check("inv:alpha-tau", inv.inv_alpha_tau, _small(20)),
        _inv_check("inv:cut-complement", inv.inv_cut_complement, _small(14)),
        _inv_check("inv:certificates", inv.inv_certificates, _small(12),
                   with_terminals=True),
        # -- paper-family ground truth ------------------------------------
        Check("paper:iff-lemma", "paper", _paper_iff,
              lambda c: c.family == "paper", shrinkable=False),
        Check("paper:ref-target", "paper", _paper_ref_target,
              lambda c: c.family == "paper", shrinkable=False),
        # -- CONGEST vs centralized ---------------------------------------
        # precondition: the folklore algorithm floods a leader, so it is
        # only defined on connected graphs (a disconnected paper instance
        # — x = y = 0 — is legitimate input for the iff-lemma but not
        # for the CONGEST run)
        Check("congest:mds", "congest", _congest_mds,
              lambda c: (c.graph.n >= 2
                         and (c.family == "paper" or c.graph.n <= 10)
                         and c.graph.is_connected()),
              shrinkable=False),
        # -- fast engine vs reference loop --------------------------------
        # graph-generic (works on disconnected inputs too); capped so the
        # traced+untraced runs per loop per scenario stay cheap on
        # paper-family instances
        Check("congest:engine-equivalence", "congest", _engine_equivalence,
              lambda c: 1 <= c.graph.n <= 32, shrinkable=False),
        # -- incremental builds vs from-scratch builds ---------------------
        # independent of the fuzz graph (sweeps every migrated family on
        # seeded pairs); piggybacked on a couple of er cases per run
        Check("family:delta-equivalence", "family", _family_delta,
              lambda c: c.family == "er" and c.index < 2, shrinkable=False),
        # -- persistent sweep store vs fresh scratch decisions -------------
        # independent of the fuzz graph (round-trips seeded families
        # through a throwaway store); piggybacked on two er cases so the
        # corruption path and both family parities get exercised per run
        Check("sweep:store-equivalence", "family", _sweep_store,
              lambda c: c.family == "er" and c.index < 2, shrinkable=False),
        # -- batched kernels vs per-pair delta vs scratch -------------------
        # independent of the fuzz graph (seeded kernel-bearing families,
        # promise-violating pairs, invalidation leg); piggybacked on two
        # er cases so both family sets get exercised per run
        Check("family:batch-equivalence", "family", _batch_kernels,
              lambda c: c.family == "er" and c.index < 2, shrinkable=False),
    ]
    return checks


CHECKS: List[Check] = _build_checks()


# ----------------------------------------------------------------------
# failures and reports
# ----------------------------------------------------------------------
@dataclass
class CheckFailure:
    """One check that disagreed, with everything needed to reproduce it."""

    check: str
    family: str
    index: int
    seed: int
    case_name: str
    detail: str
    repro: str = ""
    #: minimal reproducer from greedy shrinking (``describe_graph``
    #: snapshot plus the detail re-observed on the shrunk instance), or
    #: None for non-shrinkable checks.
    shrunk: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "check": self.check, "family": self.family, "index": self.index,
            "seed": self.seed, "case": self.case_name, "detail": self.detail,
            "repro": self.repro, "shrunk": self.shrunk,
        }


@dataclass
class CheckReport:
    """Aggregate outcome of one ``run_check`` invocation."""

    seed: int
    cases: int
    family: str
    deep: bool
    cases_run: int = 0
    checks_run: int = 0
    elapsed: float = 0.0
    failures: List[CheckFailure] = field(default_factory=list)
    #: how many times each named check actually ran (sums to
    #: ``checks_run``) — the coverage table ``repro report fuzz`` shows.
    check_counts: Dict[str, int] = field(default_factory=dict)
    #: per-check wall-clock samples in milliseconds, one per run —
    #: summarized to p50/p95 in the JSON artifact and the fuzz report.
    check_ms: Dict[str, List[float]] = field(default_factory=dict)

    def check_latency(self) -> Dict[str, Dict[str, float]]:
        """p50/p95 per check name, from the collected samples."""
        from repro.obs.profile import percentile
        return {name: {"p50_ms": round(percentile(samples, 50), 3),
                       "p95_ms": round(percentile(samples, 95), 3)}
                for name, samples in sorted(self.check_ms.items())}

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"repro check: seed={self.seed} cases={self.cases_run} "
            f"family={self.family}{' deep' if self.deep else ''} — "
            f"{self.checks_run} checks in {self.elapsed:.1f}s",
        ]
        if self.ok:
            lines.append("all checks passed: every production solver agrees "
                         "with its reference and every invariant holds")
        for f in self.failures:
            lines.append(f"FAIL {f.check} on {f.case_name}: {f.detail}")
            lines.append(f"     reproduce: {f.repro}")
            if f.shrunk is not None:
                g = f.shrunk["graph"]
                edges = ", ".join(f"({e['u']},{e['v']})"
                                  for e in g["edges"][:12])
                more = "" if g["m"] <= 12 else f" …(+{g['m'] - 12})"
                lines.append(f"     shrunk to n={g['n']} m={g['m']}: "
                             f"{edges}{more}")
                lines.append(f"     shrunk detail: {f.shrunk['detail']}")
        if not self.ok:
            lines.append(f"{len(self.failures)} FAILING check(s)")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed, "cases": self.cases, "family": self.family,
            "deep": self.deep, "cases_run": self.cases_run,
            "checks_run": self.checks_run, "elapsed": self.elapsed,
            "check_counts": dict(sorted(self.check_counts.items())),
            "check_latency": self.check_latency(),
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
        }


def _repro_command(case: Case) -> str:
    return (f"python -m repro check --seed {case.seed} "
            f"--cases {case.index + 1} --family {case.family}")


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _run_one(check: Check, case: Case) -> Optional[str]:
    """Run one check; an exception is itself a failure (with traceback)."""
    try:
        return check.run(case)
    except Exception:
        return "EXCEPTION:\n" + traceback.format_exc()


def _shrink_failure(check: Check, case: Case) -> Optional[Dict[str, Any]]:
    if not check.shrinkable:
        return None

    def failing(candidate) -> bool:
        trial = replace(case, graph=candidate)
        try:
            return check.run(trial) is not None
        except Exception:
            return True  # still failing, just louder

    minimal = shrink_graph(case.graph, failing, protected=case.terminals)
    detail = _run_one(check, replace(case, graph=minimal))
    return {
        "graph": describe_graph(minimal),
        "protected": [repr(t) for t in case.terminals],
        "detail": detail if detail is not None
        else "failure did not reproduce on the shrunk graph "
             "(non-deterministic check?)",
    }


def _run_cases(cases: Sequence[Case],
               do_shrink: bool = True,
               ) -> Tuple[Dict[str, int], Dict[str, List[float]],
                          List[CheckFailure]]:
    check_counts: Dict[str, int] = {}
    check_ms: Dict[str, List[float]] = {}
    failures: List[CheckFailure] = []
    for case in cases:
        for check in CHECKS:
            if not check.applies(case):
                continue
            check_counts[check.name] = check_counts.get(check.name, 0) + 1
            t0 = time.perf_counter()
            detail = _run_one(check, case)
            check_ms.setdefault(check.name, []).append(
                (time.perf_counter() - t0) * 1000.0)
            if detail is None:
                continue
            failure = CheckFailure(
                check=check.name, family=case.family, index=case.index,
                seed=case.seed, case_name=case.name, detail=detail,
                repro=_repro_command(case))
            if do_shrink:
                failure.shrunk = _shrink_failure(check, case)
            failures.append(failure)
    return check_counts, check_ms, failures


def _run_cases_traced(cases: Sequence[Case], do_shrink: bool,
                      trace_dir: Optional[str], prefix: str,
                      ) -> Tuple[Dict[str, int], Dict[str, List[float]],
                                 List[CheckFailure]]:
    """``_run_cases`` inside an ambient trace region when requested, so
    every CONGEST simulator the checks construct streams its events to
    ``trace_dir/<prefix>-NNNN.rtb``."""
    if trace_dir is None:
        return _run_cases(cases, do_shrink=do_shrink)
    from repro.obs.trace import trace_to_directory
    with trace_to_directory(trace_dir, prefix=prefix):
        return _run_cases(cases, do_shrink=do_shrink)


def _parallel_worker(args: Tuple[int, str, List[Tuple[str, int]], bool, bool,
                                 Optional[str], int],
                     ) -> Tuple[Dict[str, int], Dict[str, List[float]],
                                List[CheckFailure]]:
    """Rebuild a chunk of cases from their keys and check them."""
    seed, __, keys, deep, do_shrink, trace_dir, chunk_no = args
    cases = [make_case(seed, fam, idx, deep=deep) for fam, idx in keys]
    try:
        # per-chunk prefix: fork workers share the parent's cwd and the
        # trace directory, so sequence numbers alone would collide
        return _run_cases_traced(
            cases, do_shrink, trace_dir,
            prefix=f"check-seed{seed}-w{chunk_no:02d}")
    except Exception:
        failure = CheckFailure(
            check="harness", family="-", index=-1, seed=seed,
            case_name=f"worker chunk {keys!r}",
            detail="EXCEPTION in check worker:\n" + traceback.format_exc())
        return {}, {}, [failure]


def _run_chunks(cases: Sequence[Case], jobs: int, seed: int, family: str,
                deep: bool, do_shrink: bool, trace_dir: Optional[str],
                ) -> Optional[List[Tuple[Dict[str, int],
                                         Dict[str, List[float]],
                                         List[CheckFailure]]]]:
    """One chunk of cases per lane, through the lane scheduler; a chunk
    whose worker died, or whose result could not be collected, becomes
    a ``harness`` failure.  ``None`` when no worker process can start."""
    from repro.experiments.parallel import drain, open_lanes

    keys = [(c.family, c.index) for c in cases]
    size = max(1, (len(keys) + jobs - 1) // jobs)
    chunks = [keys[i:i + size] for i in range(0, len(keys), size)]

    def fallback(idx: int, kind: str, detail: str):
        failure = CheckFailure(
            check="harness", family="-", index=-1, seed=seed,
            case_name=f"worker chunk {chunks[idx]!r}",
            detail=f"{kind.upper()} in check worker: {detail}")
        return {}, {}, [failure]

    with open_lanes(len(chunks)) as lanes:
        return drain(
            lanes, range(len(chunks)),
            lambda lane, no: lane.executor.submit(
                _parallel_worker, (seed, family, chunks[no], deep, do_shrink,
                                   trace_dir, no)),
            fallback)


def run_check(seed: int = 0, cases: int = 50, family: str = "all",
              deep: bool = False, jobs: int = 1, do_shrink: bool = True,
              report_dir: Optional[str] = None,
              trace_dir: Optional[str] = None) -> CheckReport:
    """Run the full differential harness; see the module docstring.

    ``jobs > 1`` fans one case chunk per job over the lane scheduler
    (:func:`repro.experiments.parallel.drain`); a chunk whose worker
    dies is retried once on a fresh lane and then reported as a
    ``harness`` failure.  Results are deterministic and ordered
    regardless of ``jobs``.  ``report_dir`` additionally writes
    ``check-report.json`` and one ``failure-NNN.json`` per failure —
    the artifacts the nightly deep-fuzz job uploads (render them with
    ``repro report fuzz``).  ``trace_dir`` streams every CONGEST
    simulator the checks construct to ``.rtb`` trace files there.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.monotonic()
    report = CheckReport(seed=seed, cases=cases, family=family, deep=deep)
    all_cases = generate_cases(seed, cases, family=family, deep=deep)
    report.cases_run = len(all_cases)
    parts = None
    if jobs > 1 and len(all_cases) > 1:
        parts = _run_chunks(all_cases, jobs, seed, family, deep, do_shrink,
                            trace_dir)
    if parts is None:
        parts = [_run_cases_traced(
            all_cases, do_shrink, trace_dir, prefix=f"check-seed{seed}")]
    for counts, latencies, failures in parts:
        for name, count in counts.items():
            report.check_counts[name] = \
                report.check_counts.get(name, 0) + count
        for name, samples in latencies.items():
            report.check_ms.setdefault(name, []).extend(samples)
        report.checks_run += sum(counts.values())
        report.failures.extend(failures)
    report.elapsed = time.monotonic() - started
    if report_dir is not None:
        os.makedirs(report_dir, exist_ok=True)
        with open(os.path.join(report_dir, "check-report.json"), "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        for i, failure in enumerate(report.failures):
            path = os.path.join(report_dir, f"failure-{i:03d}.json")
            with open(path, "w") as fh:
                json.dump(failure.to_json(), fh, indent=2, sort_keys=True)
    return report
