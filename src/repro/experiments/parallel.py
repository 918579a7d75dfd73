"""One lane scheduler for every process pool, and the experiment fan-out
built on it.

A :class:`Lane` is a single-worker ``ProcessPoolExecutor`` that can be
respawned.  :func:`drain` runs a list of tasks over a list of lanes, one
task per lane at a time, and implements the failure semantics once:

- **exceptions** — an ordinary exception raised by a task (or by
  collecting its result) is handed to the caller's ``fallback`` in the
  parent, with the traceback;
- **worker death** — a lane whose worker dies (hard crash, OOM kill) is
  respawned alone and the task resubmitted until it has used
  ``retries``, then handed to ``fallback``.  Each lane holds one task,
  so blame is exact: co-runners on other lanes are never resubmitted;
- **timeouts** — a task past ``timeout`` seconds of wall clock is
  handed to ``fallback`` and only its wedged lane is respawned;
- **lost lane state** — a warm lane whose worker no longer holds what
  the parent sent it raises :class:`LaneMiss`, which counts as one
  attempt, like a death;
- **no fan-out** — ``None`` comes back only if no task could ever start
  (no lane could be built or forked here), so the caller can run
  serially;
- **deterministic order** — results come back in request order.

Its callers only say how to submit a task and what to do when one
fails: :func:`run_parallel` (experiments, lanes per call),
:func:`repro.experiments.sweep.parallel_decisions` (sweep shards, lanes
per call), :class:`repro.experiments.warm_pool.WarmPool` (persistent
lanes plus a family broadcast) and ``run_check(jobs>1)`` (one case chunk
per lane).

``run_parallel`` keeps the experiment *report* exactly what the serial
runner produces: records in request order, so ``repro experiments
--jobs 4`` prints the serial table byte for byte (modulo the wall-clock
field ``solver_profile`` that ``profile=True`` adds).  An experiment
whose worker died, timed out or could not be collected yields a
CRASH / TIMEOUT / EXCEPTION ``FAIL`` record; an ordinary exception
inside an experiment is caught *in the worker* and returned as a
``FAIL`` record with the traceback in ``notes``.

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
from contextlib import contextmanager
from dataclasses import replace
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.experiments.runner import EXPERIMENTS, ExperimentRecord, run_experiment

#: ``measured`` keys that legitimately differ between serial and
#: parallel runs (wall-clock times).
WALL_CLOCK_KEYS = ("solver_profile",)


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


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
#: ``fallback`` kinds: why a task came back without a worker result
CRASH, TIMEOUT, ERROR = "crash", "timeout", "error"


class LaneMiss(Exception):
    """Raised by a lane task whose worker lacks state the parent believes
    it sent (a warm lane's evicted family); counts as one attempt, like
    a death, and the respawn brings parent and worker back in step."""


class Lane:
    """A single-worker process pool that can be respawned.

    ``loaded`` records what the parent has installed in this lane's
    worker (warm-pool family digests); a respawn clears it along with
    the worker.  The worker forks lazily, on the first submit.
    """

    def __init__(self) -> None:
        self.respawns = 0
        self._spawn()

    def _spawn(self) -> None:
        self.executor = futures.ProcessPoolExecutor(
            max_workers=1, mp_context=_mp_context())
        self.loaded: set = set()

    def respawn(self) -> None:
        self.close()
        self.respawns += 1
        self._spawn()

    def close(self) -> None:
        """Abandon the worker fast: cancel queued work and kill it
        (needed when it is stuck past its timeout)."""
        # snapshot first: shutdown() drops the _processes reference even
        # with wait=False, and a wedged worker left alive keeps the
        # pool's manager thread (and interpreter exit) blocked until its
        # task finishes
        procs = dict(getattr(self.executor, "_processes", None) or {})
        try:
            self.executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in procs.values():
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already gone
                pass


@contextmanager
def open_lanes(count: int) -> Iterator[List[Lane]]:
    """``count`` fresh lanes, closed on exit.  Lanes this process cannot
    build are left out, so :func:`drain` returns ``None`` when none
    could be built."""
    lanes: List[Lane] = []
    try:
        for __ in range(count):
            lanes.append(Lane())
    except Exception:
        pass
    try:
        yield lanes
    finally:
        for lane in lanes:
            lane.close()


def _start(lane: Lane, submit: Callable[[Lane, Any], futures.Future],
           task: Any) -> Optional[futures.Future]:
    """Submit ``task`` on ``lane``, respawning the lane once when it
    cannot take work (its idle worker died, say); None if the fresh
    lane cannot take it either."""
    try:
        return submit(lane, task)
    except Exception:
        pass
    try:
        lane.respawn()
        return submit(lane, task)
    except Exception:
        return None


def drain(lanes: Sequence[Lane], tasks: Sequence[Any],
          submit: Callable[[Lane, Any], futures.Future],
          fallback: Callable[[int, str, str], Any],
          timeout: Optional[float] = None,
          retries: int = 1) -> Optional[List[Any]]:
    """Run ``tasks`` over ``lanes``; results in ``tasks`` order.

    ``submit(lane, task)`` starts one task and returns its future; its
    value is the task's result.  A task that comes back without one is
    answered by ``fallback(index, kind, detail)`` in the parent: kind
    :data:`CRASH` after its lane died (or missed, :class:`LaneMiss`)
    more than ``retries`` times, :data:`TIMEOUT` after ``timeout``
    seconds, :data:`ERROR` for an ordinary exception (``detail`` is the
    traceback).  Returns ``None`` only if no task could ever start.
    """
    if not tasks:
        return []
    retries = max(0, retries)
    results: Dict[int, Any] = {}
    attempts: Dict[int, int] = {}
    pending: deque = deque(range(len(tasks)))
    free: deque = deque(lanes)
    inflight: Dict[futures.Future, Tuple[Lane, int, Optional[float]]] = {}
    started = False

    def release(lane: Lane, respawn: bool) -> None:
        # a lane that cannot even be rebuilt drops out of this drain
        try:
            if respawn:
                lane.respawn()
        except Exception:
            return
        free.append(lane)

    while pending or inflight:
        while pending and free:
            lane = free.popleft()
            idx = pending.popleft()
            fut = _start(lane, submit, tasks[idx])
            if fut is None:  # the lane cannot start work here: drop it
                pending.appendleft(idx)
                continue
            started = True
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            inflight[fut] = (lane, idx, deadline)
        if not inflight:
            # every lane is gone
            if not started:
                return None
            while pending:
                idx = pending.popleft()
                results[idx] = fallback(
                    idx, CRASH, "no worker process could be started")
            break
        deadlines = [d for __, __, d in inflight.values() if d is not None]
        wait_for = (max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None)
        done, __ = futures.wait(set(inflight), timeout=wait_for,
                                return_when=futures.FIRST_COMPLETED)
        now = time.monotonic()
        for fut, (lane, idx, deadline) in list(inflight.items()):
            if fut not in done and deadline is not None and deadline <= now:
                # wedged: the parent answers, only this lane is rebuilt
                del inflight[fut]
                results[idx] = fallback(idx, TIMEOUT,
                                        f"exceeded {timeout}s wall clock")
                release(lane, respawn=True)
        for fut in done:
            lane, idx, __ = inflight.pop(fut)
            try:
                results[idx] = fut.result()
            except (futures.BrokenExecutor, LaneMiss) as exc:
                attempts[idx] = attempts.get(idx, 0) + 1
                if attempts[idx] > retries:
                    what = ("worker process died"
                            if isinstance(exc, futures.BrokenExecutor)
                            else "lane lost its state")
                    results[idx] = fallback(idx, CRASH, f"{what} ({exc!r})")
                else:
                    pending.appendleft(idx)
                release(lane, respawn=True)
                continue
            except Exception:
                results[idx] = fallback(idx, ERROR, traceback.format_exc())
            release(lane, respawn=False)
    return [results[idx] for idx in range(len(tasks))]


# ----------------------------------------------------------------------
# experiment fan-out
# ----------------------------------------------------------------------
def _worker(experiment_id: str, quick: bool, trace_dir: Optional[str],
            profile: bool) -> ExperimentRecord:
    """Lane entry point: run one experiment, never raise.

    Ordinary exceptions become FAIL records here so only genuine worker
    death (``os._exit``, signals, OOM kills) reaches the scheduler.
    """
    try:
        return run_experiment(experiment_id, quick=quick,
                              trace_dir=trace_dir, profile=profile)
    except Exception:
        return ExperimentRecord(
            experiment_id=experiment_id,
            paper_claim="",
            passed=False,
            notes="EXCEPTION in worker:\n" + traceback.format_exc(),
        )


def _fail_record(experiment_id: str, kind: str, detail: str,
                 timeout: Optional[float], retries: int) -> ExperimentRecord:
    """The FAIL record of an experiment that came back without one."""
    if kind == TIMEOUT:
        return ExperimentRecord(
            experiment_id=experiment_id, paper_claim="",
            parameters={"timeout_s": timeout}, passed=False,
            notes=f"TIMEOUT: exceeded {timeout}s wall clock; "
                  f"worker terminated")
    if kind == CRASH:
        return ExperimentRecord(
            experiment_id=experiment_id, paper_claim="",
            parameters={"retries": retries}, passed=False,
            notes=f"CRASH: {detail} (after {retries} bounded "
                  f"retr{'y' if retries == 1 else 'ies'})")
    return ExperimentRecord(
        experiment_id=experiment_id, paper_claim="", passed=False,
        notes="EXCEPTION dispatching experiment:\n" + detail)


def run_on_lanes(lanes: Sequence[Lane], ids: Sequence[str], quick: bool,
                 timeout: Optional[float], retries: int,
                 trace_dir: Optional[str],
                 profile: bool) -> Optional[List[ExperimentRecord]]:
    """Run experiments ``ids`` over ``lanes`` with the record semantics
    of :func:`run_parallel`; ``None`` when no lane could start."""
    args = (quick, trace_dir, profile)
    return drain(
        lanes, ids,
        lambda lane, eid: lane.executor.submit(_worker, eid, *args),
        lambda idx, kind, detail: _fail_record(ids[idx], kind, detail,
                                               timeout, retries),
        timeout=timeout, retries=retries)


def run_parallel(ids: Sequence[str],
                 quick: bool = True,
                 jobs: int = 2,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 trace_dir: Optional[str] = None,
                 profile: bool = False) -> List[ExperimentRecord]:
    """Run ``ids`` over ``jobs`` worker processes; records in ``ids`` order.

    ``timeout`` is per-experiment wall clock in seconds (``None`` = no
    limit).  ``retries`` bounds how often an experiment whose worker
    *died* is resubmitted on a respawned lane before it is recorded as
    a CRASH FAIL.  Where no worker process can start at all, the
    experiments run in this process.
    """
    order = list(ids)
    for eid in order:
        if eid not in EXPERIMENTS:
            raise KeyError(eid)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    with open_lanes(min(jobs, len(order))) as lanes:
        records = run_on_lanes(lanes, order, quick, timeout, retries,
                               trace_dir, profile)
    if records is None:
        records = [_worker(eid, quick, trace_dir, profile) for eid in order]
    return records
