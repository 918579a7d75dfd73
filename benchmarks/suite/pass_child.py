"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Usage: ``python benchmarks/suite/pass_child.py SPEC.json``

The spec is written by the driver and holds only generated inputs:

- ``mode``: ``"pass"`` runs the inputs once and times them; ``"setup"``
  stops after set-up (the driver's extra ``setup_s`` samples);
- ``inputs``: any of ``experiments`` (experiment ids), ``grids`` (family
  name -> grid pair indices, ``x = p >> k``, ``y = p & (2^k - 1)``, bits
  most significant first), ``store`` (a store root shared across passes,
  or ``null`` for no store; default: a fresh store per pass), ``repeat``
  (how many times the grids
  are swept, each time with fresh family instances), ``check`` (seed and
  case count for ``run_check``) and ``jobs`` (1 = serial, 2 = fan-out);
- ``trace``: wrap the layers with ``layers.py`` before the pass;
- ``tmp``: this pass's scratch directory; ``result``: where to write the
  result JSON.

The result holds the set-up timestamp (``time.monotonic``, comparable
with the driver's clock), the pass wall time, the speed probe's readings
(see ``SpeedProbe``), the outputs the driver checks (experiment rows,
grid decisions, the check report) and, when traced, the per-layer
metrics and spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import struct
import sys
import time
from array import array

#: the probe's duration on the reference CPU.  A reference second is a
#: second of a CPU that runs one probe in exactly this long
PROBE_REF_S = 100e-6
PROBE_EVERY_S = 0.005


def _probe_work():
    """A fixed slice of interpreter work: loop, dict store, arithmetic."""
    d = {}
    x = 0
    for i in range(600):
        d[i & 15] = x
        x += (i * i) % 7 + len(d)
    return x


class SpeedProbe:
    """Times ``_probe_work`` every ``PROBE_EVERY_S`` of wall time, in this
    process's main thread, interleaved with the work being measured.

    The host's vCPUs run at a speed that changes from one 10-ms slice to
    the next (frequency, and other tenants on the sibling hyperthread),
    so a pass's wall time moves by ~25% between runs of the same code.
    The probe runs on the same CPU at the same moments as the work, so
    ``elapsed * mean(PROBE_REF_S / probe time)`` -- the reference seconds
    of a window -- cancels the speed and keeps the work.

    In a forked worker (see ``follow_forks``) the probe keeps only running
    totals, which it rewrites to its ``sink`` file after every probe."""

    def __init__(self, sink=None):
        self.at = array("d")
        self.took = array("d")
        self.sink = sink
        #: Σ PROBE_REF_S / probe time, probes, Σ probe time (workers only)
        self.totals = [0.0, 0.0, 0.0]
        self.forks = None

    def _fire(self, signum, frame):
        start = time.monotonic()
        _probe_work()
        took = time.monotonic() - start
        if self.sink is None:
            self.took.append(took)
            self.at.append(start)
            return
        t = self.totals
        t[0] += PROBE_REF_S / took
        t[1] += 1
        t[2] += took
        # the checksum lets a reader tell a torn record from a whole one
        os.pwrite(self.sink, struct.pack("4d", *t, sum(t)), 0)

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def follow_forks(self, directory):
        """Probe every process forked from now on too.  A fanned-out
        pass does its work in pool workers, on CPUs the main process's
        probe samples only by chance.  Each worker writes its totals to a
        file of its own in ``directory``; a killed worker leaves them
        there too."""
        self.forks = directory

        def child():
            path = os.path.join(directory, f"probe-{os.getpid()}")
            SpeedProbe(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                               0o644)).start()

        os.register_at_fork(after_in_child=child)

    def worker_totals(self):
        """The summed ``totals`` of every worker forked so far."""
        total = [0.0, 0.0, 0.0]
        for name in os.listdir(self.forks) if self.forks else ():
            # a live worker may be rewriting its record: read until whole
            for __ in range(100):
                with open(os.path.join(self.forks, name), "rb") as fh:
                    record = fh.read()
                if not record:  # the worker never probed
                    break
                if len(record) == 32:
                    *t, check = struct.unpack("4d", record)
                    if check == sum(t):
                        total = [a + b for a, b in zip(total, t)]
                        break
        return total

    def reading(self, t0=float("-inf"), t1=float("inf"),
                workers=(0.0, 0.0, 0.0)):
        """``{"speed", "probe_s", "probes", "worker_probe_s"}`` of the
        probes fired in ``[t0, t1)`` here plus the workers' ``totals``:
        the mean of ``PROBE_REF_S / probe time``, the time this process's
        probes took, their count, and the time the workers' probes took.
        A window no probe fell in takes the speed of the whole process."""
        took = [c for t, c in zip(self.at, self.took) if t0 <= t < t1]
        every = took or self.took
        n = len(every) + workers[1]
        speed = ((sum(PROBE_REF_S / c for c in every) + workers[0]) / n
                 if n else 1.0)
        return {"speed": speed, "probe_s": sum(took), "probes": len(took),
                "worker_probe_s": workers[2]}


def family_registry():
    """The ``repro verify`` families at k = 2.  Built from the public
    classes rather than the CLI's private registry, so that a refactor of
    the CLI cannot change what the benchmark measures."""
    import repro
    from repro.core.steiner_approx import DirectedSteinerFamily
    from repro.covering import build_covering_collection

    def covering():
        return build_covering_collection(universe_size=16, T=6, r=2, seed=0)

    return {
        "mds": lambda: repro.MdsFamily(2),
        "hamiltonian-path": lambda: repro.HamiltonianPathFamily(2),
        "hamiltonian-cycle": lambda: repro.HamiltonianCycleFamily(2),
        "maxcut": lambda: repro.MaxCutFamily(2),
        "kmds": lambda: repro.KMdsFamily(covering(), k=2),
        "steiner": lambda: repro.SteinerTreeFamily(2),
        "mvc": lambda: repro.MvcMaxISFamily(2),
        "approx-maxis": lambda: repro.WeightedApproxMaxISFamily(2),
        "approx-maxis-unweighted": lambda: repro.UnweightedApproxMaxISFamily(2),
        "approx-maxis-linear": lambda: repro.LinearApproxMaxISFamily(2),
        "node-weighted-steiner":
            lambda: repro.NodeWeightedSteinerFamily(covering()),
        "directed-steiner": lambda: DirectedSteinerFamily(covering()),
    }


def _bits(value, k_bits):
    return tuple((value >> (k_bits - 1 - i)) & 1 for i in range(k_bits))


def run_experiments(ids, jobs):
    from repro.experiments import run_all

    records = run_all(quick=True, only=list(ids), jobs=jobs)
    rows = {}
    for record in records:
        # wall-clock fields only appear under profile=True; drop them
        # anyway so the row digest can only change with the results
        for key in ("solver_profile", "solver_cache"):
            record.measured.pop(key, None)
        digest = hashlib.sha256(record.as_row().encode()).hexdigest()
        rows[record.experiment_id] = [bool(record.passed), digest]
    return rows


def run_grids(grids, jobs, store_root, repeat, tmp):
    """Sweep every grid ``repeat`` times, like ``repro verify --grid``:
    ``sweep`` through a sweep store, then ``verify_iff`` on the memo.
    ``store_root`` is a shared store, ``None`` for none, or ``"pass"``
    for a fresh store per sweep under ``tmp``."""
    from repro.core.family import sweep, verify_iff
    from repro.experiments.sweep_store import SweepStore

    registry = family_registry()
    out = []
    for rep in range(repeat):
        decided = {}
        for name, indices in grids.items():
            family = registry[name]()
            k_bits = family.k_bits
            mask = (1 << k_bits) - 1
            pairs = [(_bits(p >> k_bits, k_bits), _bits(p & mask, k_bits))
                     for p in indices]
            store = None
            if store_root is not None:
                store = SweepStore(os.path.join(tmp, f"store-{rep}-{name}")
                                   if store_root == "pass" else store_root)
            report = sweep(family, pairs, jobs=jobs, store=store)
            verify_iff(family, pairs, negate=True)
            decided[name] = "".join("1" if d else "0"
                                    for d in report.decisions)
        out.append(decided)
    return out


def run_checks(spec, jobs):
    from repro.check import run_check

    report = run_check(seed=spec["seed"], cases=spec["cases"], jobs=jobs)
    return {"checks_run": report.checks_run, "ok": report.ok,
            "failures": [f"{f.check} on {f.case_name}: {f.detail}"
                         for f in report.failures]}


def prepare(inputs):
    """Set-up: import what the pass calls and build the registries."""
    if "experiments" in inputs:
        import repro.experiments  # registers the experiments
    if "grids" in inputs:
        family_registry()
        import repro.core.family
        import repro.experiments.sweep_store
    if "check" in inputs:
        import repro.check


def run_pass(inputs, tmp):
    jobs = inputs.get("jobs", 1)
    out = {}
    if "experiments" in inputs:
        out["rows"] = run_experiments(inputs["experiments"], jobs)
    if "grids" in inputs:
        out["grids"] = run_grids(inputs["grids"], jobs,
                                 inputs.get("store", "pass"),
                                 inputs.get("repeat", 1), tmp)
    if "check" in inputs:
        out["check"] = run_checks(inputs["check"], jobs)
    return out


def main(argv):
    probe = SpeedProbe()
    probe.start()
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import repro

    inputs = spec["inputs"]
    prepare(inputs)
    ready = time.monotonic()
    result = {"ready": ready, "repro_file": repro.__file__}
    if spec["mode"] == "pass":
        recorder = None
        if spec.get("trace"):
            import layers
            recorder = layers.install()
        forks = os.path.join(spec["tmp"], "probes")
        os.mkdir(forks)
        probe.follow_forks(forks)
        start = time.monotonic()
        result["outputs"] = run_pass(inputs, spec["tmp"])
        end = time.monotonic()
        # the workers' totals so far: they work only within the pass
        workers = probe.worker_totals()
        window = probe.reading(start, end, workers)
        result["raw_wall_s"] = end - start
        result["wall_s"] = (end - start - window["probe_s"]) * window["speed"]
        if recorder is not None:
            # raw self times against the raw wall, then every time of the
            # layers in reference seconds like the end-to-end metrics
            layer = layers.metrics(recorder, end - start)
            result["layers"] = {
                name: value * window["speed"] if name.endswith("_s")
                else value for name, value in layer.items()}
            result["spans"] = recorder.span_records()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["self_cpu_s"] = usage.ru_utime + usage.ru_stime
        result["self_rss_mb"] = usage.ru_maxrss / 1024.0
    probe.stop()
    result["setup_probe"] = probe.reading(t1=ready)
    result["probe"] = probe.reading(workers=probe.worker_totals())
    result["layers_loaded"] = "layers" in sys.modules
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv)
