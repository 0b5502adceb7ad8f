"""Command line contract: outputs, exit codes, and determinism."""

import pathlib

import pytest

from vtknot import cli

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SL2 = str(CONFIGS / "sl2.cfg")
SL3 = str(CONFIGS / "sl3.cfg")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_invariant_unknot(capsys):
    rc, out, err = run(capsys, "invariant", "--config", SL2, "--tangle", "unknot")
    assert rc == 0
    assert out == "v + v^-1\n"
    assert "denominator is trivial" in err


def test_invariant_trefoil_specialized(capsys):
    rc, out, _ = run(
        capsys,
        "invariant", "--config", SL2, "--tangle", "trefoil", "--spec", "t=1",
    )
    assert rc == 0
    assert out == "-v^9 + v^5 + v^3 + v\n"


def test_invariant_type_error_exits_1(capsys):
    rc, out, err = run(capsys, "invariant", "--config", SL2, "--tangle", "qtr ; up")
    assert rc == 1
    assert out == ""
    assert "type error" in err


def test_invariant_requires_exactly_one_source(capsys, tmp_path):
    rc, _, err = run(capsys, "invariant", "--config", SL2)
    assert rc == 2
    wfile = tmp_path / "w.tangle"
    wfile.write_text("xp ; xp")
    rc, out, _ = run(
        capsys, "invariant", "--config", SL2, "--tangle-file", str(wfile)
    )
    assert rc == 0
    assert out == "v^6 + v^4 + v^2 + 1\n"


def test_bad_spec_assignment(capsys):
    rc, _, err = run(
        capsys,
        "invariant", "--config", SL2, "--tangle", "unknot", "--spec", "q=1",
    )
    assert rc == 2
    assert "--spec" in err


def test_bad_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rank = 1\n")
    rc, _, err = run(capsys, "qdim", "--config", str(bad))
    assert rc == 2
    assert "error:" in err


def test_qdim_formats(capsys):
    rc, out, _ = run(capsys, "qdim", "--config", SL2)
    assert rc == 0 and out == "v + v^-1\n"
    rc, out, _ = run(capsys, "qdim", "--config", SL2, "--format", "lines")
    assert rc == 0 and out == "qdim | v + v^-1\n"
    rc, out, _ = run(capsys, "qdim", "--config", SL3)
    assert rc == 0 and out == "v^2 + 1 + v^-2\n"


def test_rmatrix_dump(capsys):
    rc, out, _ = run(capsys, "rmatrix", "--config", SL2)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "(w0,w0) | (w0,w0) | v^(-1/2)"
    assert lines[3] == "(w1,w0) | (w1,w0) | -v^(3/2) + v^(-1/2)"


def test_theta_dump(capsys):
    rc, out, _ = run(capsys, "theta", "--config", SL2, "--depth", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "1 | 1 | 1 | -v + v^-1"
    assert lines[1].startswith("2 | 1,1 | 1,1 | ")


def test_verify_suite_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--config", SL2, "--suite", "ybe")
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("pass") for line in lines[:-1])
    assert lines[-1] == "all 2 checks passed"


def test_verify_lines_format(capsys):
    rc, out, _ = run(
        capsys,
        "verify", "--config", SL2, "--suite", "tangle-relations",
        "--format", "lines",
    )
    assert rc == 0
    for line in out.splitlines():
        assert line.endswith(" | pass")


def test_verify_rejects_bogus_suite(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--config", SL2, "--suite", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "theta"])
def test_negative_depth_is_rejected(capsys, command):
    argv = [command, "--config", SL2, "--depth", "-3"]
    if command == "verify":
        argv += ["--suite", "all"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "passed" not in captured.out
    assert captured.out == ""
    assert "depth must be nonnegative" in captured.err


def test_output_is_deterministic(capsys):
    first = run(capsys, "invariant", "--config", SL2, "--tangle", "figure8")
    second = run(capsys, "invariant", "--config", SL2, "--tangle", "figure8")
    assert first == second
    a = run(capsys, "verify", "--config", SL2, "--suite", "forms")
    b = run(capsys, "verify", "--config", SL2, "--suite", "forms")
    assert a == b
    assert a[0] == 0
