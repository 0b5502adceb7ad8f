"""Smoke tests for the analysis scripts under scripts/."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

from vtknot import suites as su

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_invariant_table_runs():
    proc = run_script("invariant_table.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index(next(x for x in lines if x.startswith("== rank1:1 ")))
    rows = {}
    for line in lines[start + 1:]:
        if line.startswith("=="):
            break
        name, flag, value = line.split(None, 2)
        rows[name] = (flag, value)
    # the trefoil value README quotes for the two-dimensional module
    assert rows["trefoil"] == ("t-free", "-v^9 + v^5 + v^3 + v")


def test_crossing_spectrum_runs():
    proc = run_script("crossing_spectrum.py", "--max-color", "1")
    assert proc.returncode == 0, proc.stderr
    labels = [line.split(": ")[0] for line in proc.stdout.splitlines() if not line.startswith(" ")]
    assert labels == ["rank1:1", "sl3 natural"]


def test_code_lines_runs():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    files = sorted(p.name for p in (ROOT / "src" / "vtknot").glob("*.py"))
    assert [row[0] for row in rows] == files + ["total"]
    code = [int(row[1]) for row in rows]
    wc = [int(row[3]) for row in rows]
    assert sum(code[:-1]) == code[-1] and sum(wc[:-1]) == wc[-1]
    # docstrings, comments and blanks are left out, so code < wc in every file
    assert all(0 < c < w for c, w in zip(code, wc))
    text = (ROOT / "src" / "vtknot" / "freealg.py").read_text()
    assert wc[files.index("freealg.py")] == len(text.splitlines())


def test_code_lines_skips_docstrings_comments_and_blanks():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    text = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment\n"
        '    """Function docstring."""\n'
        '    s = """not a\n'
        '    docstring"""\n'
        "    return s\n"
    )
    # def, both lines of the assigned string, return
    assert mod.code_lines(text) == 4


def test_stage_shares_runs():
    for workload in ("invariants", "identities", "quasi-r"):
        proc = run_script("stage_shares.py", "--workload", workload, "--seed", "1",
                          "--passes", "1")
        assert proc.returncode == 0, proc.stderr
        rows = [line.strip("| ").split(" | ") for line in proc.stdout.splitlines()
                if line.startswith("| ") and line.endswith(" |")][2:]
        shares = {stage: float(share.rstrip(" %")) for stage, share, _ in rows}
        suite_ms = {stage: float(ms) for stage, _, ms in rows if stage.startswith("suite ")}
        assert set(shares) == {
            "parser", "config load", "module check", "crossing build", "kink", "closure",
            "large products", "gram", "elimination", "inverse", "print", "rest",
        } | {"suite " + name for name, _ in su.SUITES}
        # the identities pass runs every suite; the other workloads run none
        assert len(suite_ms) == len(su.SUITES)
        if workload == "identities":
            assert min(suite_ms.values()) > 0
        else:
            assert max(suite_ms.values()) == 0
        # each share is rounded to a tenth of a percent
        assert abs(sum(shares.values()) - 100) <= 0.05 * len(shares)
        # the direct reader of valid argument lists is timed as the parser
        assert shares["parser"] > 0
        hits = int(re.fullmatch(r"large-product memo: (\d+) hits, \d+ misses per pass",
                                proc.stdout.splitlines()[1]).group(1))
        if workload == "quasi-r":
            # theta's stages: Gram blocks, their elimination and inverse, printing
            assert min(shares[s] for s in ("gram", "elimination", "inverse", "print")) > 0
            assert shares["kink"] == shares["closure"] == 0
        else:
            # the identity suites repeat large products; closures make almost none
            assert (hits > 0 and shares["large products"] > 0) == (workload == "identities")
        if workload == "invariants":
            # the framing check and the closure's functor_T call, each its own stage
            assert shares["kink"] > 0 and shares["closure"] > 0
