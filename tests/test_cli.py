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
