"""Parallel experiment execution with crash isolation.

``run_parallel`` fans the registered experiments out over a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the
*report* exactly what the serial runner produces:

- **deterministic order** — records come back in request order, so the
  markdown table from ``repro experiments --jobs 4`` is byte-identical
  to the serial one (modulo the wall-clock fields ``solver_profile`` /
  ``solver_cache`` that ``profile=True`` adds);
- **crash isolation** — a worker that dies (hard crash, not a Python
  exception) breaks the pool; the jobs that were in flight are re-run
  one at a time in fresh single-worker pools, so the crasher is
  attributed a ``FAIL`` record after its bounded retries while innocent
  co-runners complete normally.  The batch never aborts;
- **timeouts** — each experiment gets ``timeout`` seconds of wall
  clock; an expired experiment yields a ``FAIL`` record and its stuck
  worker is terminated;
- **exceptions** — an ordinary Python exception inside an experiment is
  caught *in the worker* and returned as a ``FAIL`` record with the
  traceback in ``notes``.

Workers prefer the ``fork`` start method where available so experiments
registered at runtime (tests) exist in the children; on spawn-only
platforms the children re-import :mod:`repro.experiments`, which
registers the built-in suite.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from concurrent import futures
from concurrent.futures import process as futures_process
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import EXPERIMENTS, ExperimentRecord, run_experiment

#: ``measured`` keys that legitimately differ between serial and
#: parallel runs (wall-clock times, per-process cache counters).
WALL_CLOCK_KEYS = ("solver_profile", "solver_cache")


def strip_wallclock(record: ExperimentRecord) -> ExperimentRecord:
    """A copy of ``record`` without the wall-clock ``measured`` fields."""
    measured = {k: v for k, v in record.measured.items()
                if k not in WALL_CLOCK_KEYS}
    return replace(record, measured=measured)


def records_equivalent(a: ExperimentRecord, b: ExperimentRecord) -> bool:
    """Equality modulo wall-clock fields — the parallel-vs-serial
    determinism contract."""
    return strip_wallclock(a) == strip_wallclock(b)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _worker(experiment_id: str, quick: bool, trace_dir: Optional[str],
            profile: bool, trace_format: str, cache_enabled: bool,
            cache_dir: Optional[str]) -> ExperimentRecord:
    """Process-pool entry point: run one experiment, never raise.

    Ordinary exceptions become FAIL records here so only genuine worker
    death (``os._exit``, signals, OOM kills) reaches the pool machinery.
    """
    from repro.solvers import cache as solver_cache
    solver_cache.configure(enabled=cache_enabled, cache_dir=cache_dir)
    try:
        return run_experiment(experiment_id, quick=quick,
                              trace_dir=trace_dir, profile=profile,
                              trace_format=trace_format)
    except Exception:
        return ExperimentRecord(
            experiment_id=experiment_id,
            paper_claim="",
            passed=False,
            notes="EXCEPTION in worker:\n" + traceback.format_exc(),
        )


def _timeout_record(experiment_id: str,
                    timeout: Optional[float]) -> ExperimentRecord:
    return ExperimentRecord(
        experiment_id=experiment_id,
        paper_claim="",
        parameters={"timeout_s": timeout},
        passed=False,
        notes=f"TIMEOUT: exceeded {timeout}s wall clock; worker terminated",
    )


def _crash_record(experiment_id: str, detail: str,
                  retries: int) -> ExperimentRecord:
    return ExperimentRecord(
        experiment_id=experiment_id,
        paper_claim="",
        parameters={"retries": retries},
        passed=False,
        notes=f"CRASH: {detail} (after {retries} bounded "
              f"retr{'y' if retries == 1 else 'ies'})",
    )


def _error_record(experiment_id: str, tb: str) -> ExperimentRecord:
    return ExperimentRecord(
        experiment_id=experiment_id,
        paper_claim="",
        passed=False,
        notes="EXCEPTION dispatching experiment:\n" + tb,
    )


def _terminate(executor: futures.ProcessPoolExecutor) -> None:
    """Abandon a pool fast: cancel queued work and kill live workers
    (needed when a worker is stuck past its timeout)."""
    # snapshot first: shutdown() drops the _processes reference even with
    # wait=False, and a wedged worker left alive keeps the pool's manager
    # thread (and interpreter exit) blocked until its task finishes
    procs = dict(getattr(executor, "_processes", None) or {})
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for proc in procs.values():
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already gone
            pass


def _run_isolated(experiment_id: str, quick: bool, trace_dir: Optional[str],
                  profile: bool, trace_format: str,
                  cache_cfg: Tuple[bool, Optional[str]],
                  timeout: Optional[float], retries: int, ctx,
                  first_error: Optional[BaseException]) -> ExperimentRecord:
    """Re-run one pool-breaking job alone, once per allowed retry."""
    detail = (f"worker process died ({first_error!r})"
              if first_error is not None else "worker process died")
    for __ in range(max(0, retries)):
        executor = futures.ProcessPoolExecutor(max_workers=1, mp_context=ctx)
        try:
            fut = executor.submit(_worker, experiment_id, quick, trace_dir,
                                  profile, trace_format, *cache_cfg)
            try:
                return fut.result(timeout=timeout)
            except futures.TimeoutError:
                return _timeout_record(experiment_id, timeout)
            except futures_process.BrokenProcessPool as exc:
                detail = f"worker process died ({exc!r})"
            except futures.BrokenExecutor as exc:
                detail = f"worker process died ({exc!r})"
            except Exception:
                return _error_record(experiment_id, traceback.format_exc())
        finally:
            _terminate(executor)
    return _crash_record(experiment_id, detail, retries)


def run_parallel(ids: Sequence[str],
                 quick: bool = True,
                 jobs: int = 2,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 trace_dir: Optional[str] = None,
                 profile: bool = False,
                 trace_format: str = "binary") -> List[ExperimentRecord]:
    """Run ``ids`` over ``jobs`` worker processes; records in ``ids`` order.

    ``timeout`` is per-experiment wall clock in seconds (``None`` = no
    limit).  ``retries`` bounds how often a job whose worker *died* is
    re-attempted in isolation before it is recorded as a CRASH FAIL.
    Jobs that merely shared a pool with a dying worker are re-run
    without burning their own retries.
    """
    order = list(ids)
    for eid in order:
        if eid not in EXPERIMENTS:
            raise KeyError(eid)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    from repro.solvers.cache import CACHE
    cache_cfg = (CACHE.enabled, CACHE.cache_dir)
    ctx = _mp_context()

    results: Dict[str, ExperimentRecord] = {}
    pending: deque = deque(order)
    while pending:
        suspects: List[Tuple[str, BaseException]] = []
        executor = futures.ProcessPoolExecutor(max_workers=jobs,
                                               mp_context=ctx)
        inflight: Dict[Any, Tuple[str, Optional[float]]] = {}
        broken = False
        try:
            while (pending or inflight) and not broken:
                # keep at most `jobs` in flight so a submitted job starts
                # immediately and its deadline is meaningful
                while pending and len(inflight) < jobs:
                    eid = pending.popleft()
                    try:
                        fut = executor.submit(_worker, eid, quick, trace_dir,
                                              profile, trace_format,
                                              *cache_cfg)
                    except Exception:
                        pending.appendleft(eid)
                        broken = True
                        break
                    deadline = (None if timeout is None
                                else time.monotonic() + timeout)
                    inflight[fut] = (eid, deadline)
                if broken or not inflight:
                    break
                deadlines = [d for __, d in inflight.values() if d is not None]
                wait_for = (max(0.0, min(deadlines) - time.monotonic())
                            if deadlines else None)
                done, __ = futures.wait(set(inflight), timeout=wait_for,
                                        return_when=futures.FIRST_COMPLETED)
                if not done:
                    now = time.monotonic()
                    expired = [f for f, (__, d) in inflight.items()
                               if d is not None and d <= now]
                    if not expired:
                        continue
                    for fut in expired:
                        eid, __ = inflight.pop(fut)
                        results[eid] = _timeout_record(eid, timeout)
                    # the expired workers are wedged; tear the pool down
                    # to reclaim their slots (co-runners are requeued)
                    broken = True
                    continue
                for fut in done:
                    eid, __ = inflight.pop(fut)
                    try:
                        record = fut.result()
                    except (futures_process.BrokenProcessPool,
                            futures.BrokenExecutor) as exc:
                        suspects.append((eid, exc))
                        broken = True
                    except futures.CancelledError:
                        pending.appendleft(eid)
                    except Exception:
                        results[eid] = _error_record(
                            eid, traceback.format_exc())
                    else:
                        results[eid] = record
        finally:
            for fut, (eid, __) in inflight.items():
                if eid not in results and all(eid != s for s, __ in suspects):
                    pending.appendleft(eid)
            _terminate(executor)
        for eid, exc in suspects:
            results[eid] = _run_isolated(eid, quick, trace_dir, profile,
                                         trace_format, cache_cfg, timeout,
                                         retries, ctx, first_error=exc)
    return [results[eid] for eid in order]
