"""Experiment registry and reporting.

Observability hooks: ``run_experiment(..., trace_dir=...)`` makes every
CONGEST simulator constructed inside the experiment stream its events to
``trace_dir/<experiment id>-NNNN.rtb`` — compact binary by default,
``trace_format="jsonl"`` for JSON lines — render them with ``repro
report trace``; and ``profile=True`` surfaces the exact-solver
wall-clock / call-count profile through
``ExperimentRecord.measured["solver_profile"]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

ExperimentFn = Callable[..., "ExperimentRecord"]

EXPERIMENTS: Dict[str, ExperimentFn] = {}


def _escape_cell(text: Any) -> str:
    """Make a value safe inside one markdown table cell.

    ``|`` would end the cell and newlines would end the row, silently
    corrupting the table; escape the pipe and fold line breaks to
    ``<br>`` (backslashes first, so the escape itself survives).
    """
    s = str(text)
    s = s.replace("\\", "\\\\").replace("|", "\\|")
    return s.replace("\r\n", "<br>").replace("\n", "<br>").replace("\r", "<br>")


@dataclass
class ExperimentRecord:
    """Paper-claim vs measured outcome for one theorem/figure."""

    experiment_id: str
    paper_claim: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)
    passed: bool = True
    notes: str = ""

    def as_row(self) -> str:
        params = ", ".join(f"{_escape_cell(k)}={_escape_cell(v)}"
                           for k, v in self.parameters.items())
        meas = "; ".join(f"{_escape_cell(k)}={_escape_cell(v)}"
                         for k, v in self.measured.items())
        status = "PASS" if self.passed else "FAIL"
        return (f"| {_escape_cell(self.experiment_id)} "
                f"| {_escape_cell(self.paper_claim)} | {params} "
                f"| {meas} | {status} |")


def experiment(experiment_id: str) -> Callable[[ExperimentFn], ExperimentFn]:
    def register(fn: ExperimentFn) -> ExperimentFn:
        EXPERIMENTS[experiment_id] = fn
        return fn
    return register


def run_experiment(experiment_id: str, quick: bool = True,
                   trace_dir: Optional[str] = None,
                   profile: bool = False,
                   trace_format: str = "binary") -> ExperimentRecord:
    fn = EXPERIMENTS[experiment_id]
    if trace_dir is None and not profile:
        return fn(quick=quick)

    from repro.obs.profile import (
        diff_cache_stats,
        diff_profile,
        format_cache_stats,
        format_profile,
        profile_stats,
        solver_cache_stats,
    )
    from repro.obs.trace import trace_to_directory

    before = profile_stats() if profile else {}
    cache_before = solver_cache_stats() if profile else {}
    if trace_dir is not None:
        with trace_to_directory(os.fspath(trace_dir), prefix=experiment_id,
                                fmt=trace_format):
            record = fn(quick=quick)
    else:
        record = fn(quick=quick)
    if profile:
        delta = diff_profile(before, profile_stats())
        record.measured["solver_profile"] = format_profile(delta) or "(none)"
        cache_delta = diff_cache_stats(cache_before, solver_cache_stats())
        record.measured["solver_cache"] = (
            format_cache_stats(cache_delta) or "(none)")
    return record


def run_all(quick: bool = True,
            only: Optional[List[str]] = None,
            trace_dir: Optional[str] = None,
            profile: bool = False,
            jobs: int = 1,
            timeout: Optional[float] = None,
            retries: int = 1,
            trace_format: str = "binary") -> List[ExperimentRecord]:
    """Run experiments and return their records in deterministic order.

    The order is always the request order (``only`` as given, else ids
    sorted) regardless of ``jobs``, so a parallel run's report is
    byte-identical to the serial one modulo wall-clock fields
    (``solver_profile`` / ``solver_cache`` under ``profile=True``).
    ``jobs > 1`` fans out over worker processes with per-experiment
    ``timeout`` seconds and ``retries`` bounded retries on worker death
    (see :mod:`repro.experiments.parallel`): through the persistent warm
    pool, whose worker processes (and their solver caches) survive
    across calls, or through fresh lanes where the warm pool cannot run.
    """
    ids = only if only is not None else sorted(EXPERIMENTS)
    if jobs and jobs > 1:
        from repro.experiments import warm_pool
        records = warm_pool.run_experiments(
            ids, quick=quick, jobs=jobs, timeout=timeout,
            retries=retries, trace_dir=trace_dir, profile=profile,
            trace_format=trace_format)
        if records is not None:
            return records
        from repro.experiments.parallel import run_parallel
        return run_parallel(ids, quick=quick, jobs=jobs, timeout=timeout,
                            retries=retries, trace_dir=trace_dir,
                            profile=profile, trace_format=trace_format)
    return [run_experiment(eid, quick=quick, trace_dir=trace_dir,
                           profile=profile, trace_format=trace_format)
            for eid in ids]


def format_markdown(records: List[ExperimentRecord]) -> str:
    lines = [
        "| experiment | paper claim | parameters | measured | status |",
        "|---|---|---|---|---|",
    ]
    lines.extend(r.as_row() for r in records)
    return "\n".join(lines)
