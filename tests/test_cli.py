"""Command line contract: outputs, exit codes, and determinism."""

import os
import pathlib
import subprocess
import sys

import pytest

from vtknot import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
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


def test_closed_stdout_ends_quietly():
    # the reader leaves after one line, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "vtknot.cli", "theta", "--config", SL2, "--depth", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"1 | 1 | 1 | -v + v^-1\n"
    assert b"Traceback" not in err


_NATURAL_PLUS_DUAL = """dim = 6
weight.1 = 2/3 1/3
weight.2 = -1/3 1/3
weight.3 = -1/3 -2/3
weight.4 = -2/3 -1/3
weight.5 = 1/3 -1/3
weight.6 = 1/3 2/3
E.1.1.2 = 1
E.2.2.3 = 1
F.1.2.1 = t^(1/3)
F.2.3.2 = t^(1/3)
E.1.5.4 = -v^-1 * t^(-1/3)
E.2.6.5 = -v^-1 * t^(-1/3)
F.1.4.5 = -v
F.2.5.6 = -v
"""


def test_module_without_unique_top_weight_exits_2(tmp_path):
    (tmp_path / "sum.mod").write_text(_NATURAL_PLUS_DUAL)
    cfg = tmp_path / "sum.cfg"
    cfg.write_text(
        (CONFIGS / "sl3.cfg").read_text().replace("file:sl3_natural.mod", "file:sum.mod")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "vtknot.cli", "invariant", "--config", str(cfg),
         "--tangle", "trefoil"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert "error: module has no unique maximal weight" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# the two-dimensional simple rank-one module plus the trivial one: the twist
# acts on the two summands by different scalars
_SIMPLE_PLUS_TRIVIAL = """\
dim = 3
weight.1 = 1/2
weight.2 = -1/2
weight.3 = 0
E.1.1.2 = 1
F.1.2.1 = 1
"""


@pytest.mark.parametrize("tangle", ["up", "xp", "xm ; xm ; xm"])
def test_reducible_module_is_refused(tmp_path, tangle):
    (tmp_path / "sum.mod").write_text(_SIMPLE_PLUS_TRIVIAL)
    cfg = tmp_path / "sum.cfg"
    cfg.write_text(
        (CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:sum.mod")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "vtknot.cli", "invariant", "--config", str(cfg),
         "--tangle", tangle],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert "error: the twist does not act on the module by one scalar" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
