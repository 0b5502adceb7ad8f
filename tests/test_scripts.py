"""Smoke tests for the analysis scripts under scripts/."""

import os
import pathlib
import subprocess
import sys

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
