"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_families_lists(capsys):
    main(["families"])
    out = capsys.readouterr().out
    assert "mds" in out and "maxcut" in out and "steiner" in out


def test_describe(capsys):
    main(["describe", "mds", "-k", "4"])
    out = capsys.readouterr().out
    assert "MdsFamily" in out
    assert "implied_bound" in out


def test_verify(capsys):
    main(["verify", "mvc", "-k", "2", "--pairs", "4"])
    out = capsys.readouterr().out
    assert "OK" in out
    assert "4 input pairs" in out


def test_unknown_family():
    with pytest.raises(SystemExit):
        main(["describe", "nope"])


@pytest.mark.parametrize(
    "family", ["kmds", "node-weighted-steiner", "directed-steiner"])
def test_covering_families_take_no_k(family, capsys):
    # built on one fixed covering collection: a -k would be ignored, so
    # it is refused, and the families are labelled with the collection
    with pytest.raises(SystemExit, match="universe 16, T=6, r=2"):
        main(["describe", family, "-k", "2"])
    main(["describe", family])
    assert "n: 47" in capsys.readouterr().out
    main(["families"])
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.split()[0] == family)
    assert line.endswith("fixed collection: universe 16, T=6, r=2")


def test_k_defaults_to_4(capsys):
    main(["describe", "mds"])
    default = capsys.readouterr().out
    main(["describe", "mds", "-k", "4"])
    assert capsys.readouterr().out == default


def test_verify_beyond_solver_limit_exits_cleanly():
    with pytest.raises(SystemExit, match="28 vertices") as exc:
        main(["verify", "maxcut", "-k", "4", "--pairs", "1"])
    assert "maxcut" in str(exc.value) and "k=4" in str(exc.value)


def test_experiments_subset(capsys):
    main(["experiments", "--only", "E-T1.1-simulation"])
    out = capsys.readouterr().out
    assert "E-T1.1-simulation" in out
    assert "PASS" in out


def _load_record_module():
    # benchmarks/record.py is a script, not a package module; load it
    # by path (it puts src/ on sys.path itself)
    import importlib.util
    import pathlib

    path = (pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "record.py")
    spec = importlib.util.spec_from_file_location("bench_record", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchHistoryErrors:
    """Regression: a corrupt/empty BENCH_simulator.json used to crash
    `repro report bench` and `record.py --compare` with a raw
    traceback; both now exit nonzero with a one-line message."""

    def test_report_bench_truncated_json(self, tmp_path):
        bad = tmp_path / "BENCH.json"
        bad.write_text('{"simulator_flood": [')
        with pytest.raises(SystemExit) as exc:
            main(["report", "bench", str(bad)])
        assert "not valid JSON" in str(exc.value)

    def test_report_bench_empty_file(self, tmp_path):
        bad = tmp_path / "BENCH.json"
        bad.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["report", "bench", str(bad)])
        assert "not valid JSON" in str(exc.value)

    def test_report_bench_wrong_shape(self, tmp_path):
        bad = tmp_path / "BENCH.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit) as exc:
            main(["report", "bench", str(bad)])
        assert "wrong shape" in str(exc.value)

    def test_report_bench_missing_file(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "bench", str(tmp_path / "absent.json")])
        assert "no bench history" in str(exc.value)

    def test_record_compare_corrupt_returns_nonzero(self, tmp_path, capsys):
        rec = _load_record_module()
        bad = tmp_path / "BENCH.json"
        bad.write_text('{"x": [')
        assert rec.main(["--compare", "--file", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_record_compare_missing_returns_nonzero(self, tmp_path, capsys):
        rec = _load_record_module()
        absent = tmp_path / "absent.json"
        assert rec.main(["--compare", "--file", str(absent)]) == 1
        assert "no bench history" in capsys.readouterr().err

    def test_record_run_corrupt_returns_nonzero(self, tmp_path, capsys):
        rec = _load_record_module()
        bad = tmp_path / "BENCH.json"
        bad.write_text("[]")
        assert rec.main(["--quick", "--file", str(bad)]) == 1
        assert "wrong shape" in capsys.readouterr().err
