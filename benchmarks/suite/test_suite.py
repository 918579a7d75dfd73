"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/suite/test_suite.py -q`` from the
repository root (the tier-1 suite only collects ``tests/``).  Two
``--smoke`` runs (one pass per workload on tiny inputs, untraced and
traced) back most tests; together they take well under a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import pass_child  # noqa: E402
import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SUITE = json.loads((HERE / "suite.json").read_text())


def _smoke(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = re.match(r"\[(\S+)\] (\S+) = (\S+) (\S+) ", line)
        if m:
            printed.setdefault(m.group(1), {})[m.group(2)] = (
                float(m.group(3)), m.group(4))
    return printed, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return _smoke(0)


@pytest.fixture(scope="module")
def traced():
    return _smoke(1)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    bench._become_subreaper()
    return bench.Runner(tmp_path_factory.mktemp("bench"))


def test_smoke_runs_are_correct(untraced, traced):
    for __, result in (untraced, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_printed_metrics_are_the_declared_ones(untraced, traced, key):
    printed, result = untraced if key == "end_to_end" else traced
    units = {m["name"]: m["unit"] for m in DECLARED[key]}
    assert sorted(printed) == sorted(bench.WORKLOADS)
    for workload, metrics in printed.items():
        assert metrics.pop(bench.FAIL_RATE[0]) == (0.0, bench.FAIL_RATE[1])
        assert {n: u for n, (__, u) in metrics.items()} == units, workload
    assert sorted(result["metrics"]) == sorted(
        f"{w}/{n}" for w in bench.WORKLOADS for n in units)


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in DECLARED["workloads"]] == bench.WORKLOADS


def test_every_layer_has_a_declared_prediction():
    layers = {m["name"].split(".")[0] for m in DECLARED["per_layer"]}
    assert layers == set(SUITE["layer_moves"])


def test_layers_stay_out_of_workloads_that_bypass_them(traced):
    printed, __ = traced

    def value(workload, name):
        return printed[workload][name][0]

    for workload in ("grid-kernel", "grid-solver", "grid-resumed"):
        assert value(workload, "congest.run_calls") == 0
        assert value(workload, "cc.two_party_calls") == 0
    for workload in ("grid-solver", "grid-resumed"):
        assert value(workload, "batch_kernels.decide_calls") == 0
    for workload in ("grid-kernel", "grid-resumed"):
        assert value(workload, "core.predicate_calls") == 0
    for workload in ("grid-kernel", "grid-resumed"):
        assert value(workload, "sweep_store.entries_written") == 0
    assert value("grid-kernel", "sweep_store.entries_read") == 0
    assert value("grid-resumed", "sweep_store.hit_ratio") == 1
    for workload in ("experiments", "grid-kernel", "grid-solver",
                     "grid-resumed"):
        assert value(workload, "fanout.shards") == 0
    assert value("fanout", "fanout.shards") > 0
    assert value("experiments", "cc.two_party_calls") > 0


def test_probe_reading_scales_a_window_to_the_reference_cpu():
    probe = pass_child.SpeedProbe()
    ref = pass_child.PROBE_REF_S
    # at 1.0 and 2.0 the CPU ran at half the reference speed, at 3.0 at it
    for at, took in ((1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)):
        probe.at.append(at)
        probe.took.append(took)
    half = probe.reading(0.5, 2.5)
    assert half == {"speed": pytest.approx(0.5), "probes": 2,
                    "probe_s": pytest.approx(4 * ref), "worker_probe_s": 0}
    assert probe.reading()["speed"] == pytest.approx(2 / 3)
    # a window without a probe takes the speed of the whole process
    assert probe.reading(5.0, 6.0)["speed"] == pytest.approx(2 / 3)
    assert probe.reading(5.0, 6.0)["probe_s"] == 0
    # two worker probes at twice the reference speed join the mean
    both = probe.reading(0.5, 2.5, workers=(4.0, 2, ref))
    assert both["speed"] == pytest.approx(5 / 4)
    assert both["worker_probe_s"] == ref


def test_fan_out_workers_are_probed(runner):
    inputs = bench.pass_inputs("fanout", 1, 0, True, SUITE, None)
    child = runner.run({"mode": "pass", "inputs": inputs}, 120)
    assert bench.score(inputs, child, SUITE)[1] == 0
    assert child.result["probe"]["worker_probe_s"] > 0
    assert 0 < child.cpu_s < child.raw_cpu_s * 5


def test_a_pass_reports_reference_seconds(runner):
    inputs = bench.pass_inputs("grid-kernel", 1, 0, True, SUITE, None)
    child = runner.run({"mode": "pass", "inputs": inputs}, 120)
    result = child.result
    # the probe fires through set-up and the pass, and a reference second
    # is of the order of a second of a present-day CPU
    assert 0 < result["setup_probe"]["probes"] < result["probe"]["probes"]
    assert 0.2 < result["wall_s"] / result["raw_wall_s"] < 5
    assert 0.2 < child.setup_s / child.raw_setup_s < 5


def test_a_flipped_grid_decision_is_a_failure(runner):
    inputs = bench.pass_inputs("grid-kernel", 1, 0, True, SUITE, None)
    child = runner.run({"mode": "pass", "inputs": inputs}, 120)
    assert bench.score(inputs, child, SUITE)[:2] == (256, 0)
    grids = child.result["outputs"]["grids"][0]
    bits = grids["mds"]
    grids["mds"] = ("0" if bits[0] == "1" else "1") + bits[1:]
    assert bench.score(inputs, child, SUITE)[:2] == (256, 1)


def test_a_crashed_pass_fails_every_item(runner):
    inputs = {"grids": {"no-such-family": [0, 1, 2]}}
    child = runner.run({"mode": "pass", "inputs": inputs}, 120)
    assert not child.ok
    assert bench.score(inputs, child, SUITE)[:2] == (3, 3)


def test_only_traced_children_load_the_wrappers(runner):
    inputs = bench.pass_inputs("grid-kernel", 1, 0, True, SUITE, None)
    plain = runner.run({"mode": "pass", "inputs": inputs}, 120)
    assert plain.result["layers_loaded"] is False
    assert "layers" not in plain.result
    wrapped = runner.run({"mode": "pass", "inputs": inputs, "trace": True},
                         120)
    assert wrapped.result["layers_loaded"] is True
    assert wrapped.result["spans"]["missing"] == []
    assert bench.score(inputs, wrapped, SUITE)[:2] == (256, 0)
    # a renamed entry point must not pass as a layer that takes 0 s
    wrapped.result["spans"]["missing"] = ["repro.core.family.sweep"]
    attempted, failed, problems = bench.score(inputs, wrapped, SUITE)
    assert (attempted, failed) == (256, 256)
    assert problems == ["traced pass: no entry point repro.core.family.sweep"]


def test_a_tree_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    bare = tmp_path / "benchmarks" / "suite"
    bare.mkdir()
    for name in ("run.py", "pass_child.py", "layers.py", "suite.json"):
        (bare / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    # called the way a runner of BENCHMARK.json calls its command
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "check",
         "--seed", "0", "--seconds", str(DECLARED["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_sets_of_different_run_lengths(tmp_path):
    for name, seconds in (("a.json", 12), ("b.json", 6)):
        run = {"workload": "check", "trace": False, "seconds": seconds,
               "attempted": 1, "failed": 0,
               "metrics": {"wall_s": {"value": 1.0}}}
        (tmp_path / name).write_text(json.dumps({"runs": [run]}))
    with pytest.raises(bench.BenchError, match="run lengths"):
        bench.compare(tmp_path / "a.json", tmp_path / "b.json", DECLARED)


@pytest.mark.parametrize("base, new, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "regressed"),
    ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "unchanged"),
    ([1.0, 2.0, 0.5, 1.0], [1.0, 1.1, 0.9, 1.0], "unresolved"),
    # spread wider than the bound, but every new run beats every base run
    ([2.0, 3.0, 2.5, 4.0], [1.0, 1.9, 1.2, 1.5], "improved"),
])
def test_compare_verdicts(base, new, expected):
    assert bench.verdict(base, new, "lower", 0.1) == expected
