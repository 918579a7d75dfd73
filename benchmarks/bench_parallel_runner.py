"""Parallel runner speedup.

Acceptance gates for the parallel experiment runner, measured as two
separate regimes so fork cost is never conflated with throughput:

- **cold lanes** (:func:`run_parallel`): fresh lanes per call, spin-up
  included — ``run_parallel(jobs=4)`` over a CPU-heavy slice must be
  ≥ 1.5× faster than serial **when 4 cores are available** (single-core CI
  boxes print both timings and only check that the parallel path stays
  correct and roughly no slower than serial plus the pool's fixed
  fork/teardown cost);
- **warm pool** (what ``run_all(jobs>1)`` uses): a second ``run_all``
  against the persistent pool must not re-pay the spin-up its priming
  call paid, and its records must stay byte-identical to serial.

Run directly:
``PYTHONPATH=src python -m pytest benchmarks/bench_parallel_runner.py -q -s``
"""

from __future__ import annotations

import os
import time

from repro.experiments import records_equivalent, run_all, run_parallel

# heavy-ish experiments so the per-job work dwarfs pool overhead
PARALLEL_SLICE = [
    "E-F1-T2.1-mds",
    "E-base-mvc",
    "E-T2.5-two-ecss",
    "E-T2.7-steiner",
    "E-F5-T4.3-T4.1-approx-maxis",
    "E-F6-T4.4-T4.5-kmds",
    "E-T1.1-simulation",
    "E-T5.1-pls-compiler",
]

SPEEDUP_FLOOR = 1.5


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_parallel_speedup_cold(benchmark):
    """Throwaway-pool regime: spin-up cost inside the measurement."""
    serial, t_serial = _timed(run_all, quick=True, only=PARALLEL_SLICE)

    def parallel_run():
        return run_parallel(PARALLEL_SLICE, quick=True, jobs=4)

    start = time.perf_counter()
    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    t_parallel = time.perf_counter() - start

    mismatches = [a.experiment_id for a, b in zip(serial, parallel)
                  if not records_equivalent(a, b)]
    assert not mismatches, f"parallel records diverged: {mismatches}"
    assert all(r.passed for r in parallel), parallel

    speedup = t_serial / t_parallel if t_parallel else float("inf")
    cores = os.cpu_count() or 1
    print(f"\nserial {t_serial:.2f}s, cold jobs=4 {t_parallel:.2f}s, "
          f"speedup {speedup:.2f}x on {cores} cores")
    if cores >= 4:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x speedup on {cores} cores, "
            f"got {speedup:.2f}x")
    else:
        # can't be faster than serial on one core; just bound the overhead
        assert t_parallel <= t_serial * 2 + 5.0


def test_parallel_speedup_warm(benchmark):
    """Persistent-pool regime: lanes forked once by a priming call, the
    measured call reuses them."""
    from repro.experiments import warm_pool

    serial, t_serial = _timed(run_all, quick=True, only=PARALLEL_SLICE)

    warm_pool.shutdown_pool()
    try:
        # priming call: pays the lane forks the cold bench pays per call
        __, t_prime = _timed(run_all, quick=True, only=PARALLEL_SLICE,
                             jobs=4)

        def warm_run():
            return run_all(quick=True, only=PARALLEL_SLICE, jobs=4)

        start = time.perf_counter()
        warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
        t_warm = time.perf_counter() - start
    finally:
        warm_pool.shutdown_pool()

    mismatches = [a.experiment_id for a, b in zip(serial, warm)
                  if not records_equivalent(a, b)]
    assert not mismatches, f"warm-pool records diverged: {mismatches}"
    assert all(r.passed for r in warm), warm

    print(f"\nserial {t_serial:.2f}s, priming jobs=4 {t_prime:.2f}s, "
          f"warm jobs=4 {t_warm:.2f}s")
    # the honest warm-pool gate: the steady-state call must not re-pay
    # the priming call's spin-up (generous slack for 1-core CI noise)
    assert t_warm <= t_prime * 1.25 + 2.0, (
        f"warm run {t_warm:.2f}s vs primed run {t_prime:.2f}s — the "
        f"persistent pool is re-paying per-call spin-up")
