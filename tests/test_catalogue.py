"""Every op of the benchmark catalogue prints the bytes recorded for it.

A seeded benchmark pass draws only part of each workload's catalogue, so
this test runs every op of `bench/catalogue.json`, in-process and cold
through the benchmark's own harness, and compares the sha256 of its stdout
with the recorded one.  It reads `bench/` and writes nothing there.
It also checks that `cli._read_args` reads every op's argument list, and
that the per-module caches are ones the harness empties before each op, so
that every benchmark op stays cold.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _harness():
    spec = importlib.util.spec_from_file_location("bench_harness", BENCH / "harness.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


harness = _harness()
CATALOGUE = json.loads((BENCH / "catalogue.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(CATALOGUE))
def test_every_op_prints_its_recorded_bytes(workload):
    cli = harness.import_cli()
    wrong = []
    for stratum in CATALOGUE[workload]:
        for entry in stratum["pool"]:
            res = harness.run_op(cli, entry["argv"], entry["limit_s"])
            if res.status != "ok" or harness.sha256(res.stdout) != entry["stdout_sha256"]:
                wrong.append("%s: %s" % (" ".join(entry["argv"]), res.status))
    assert not wrong, wrong


def test_every_op_takes_the_direct_reader():
    # the benchmark's traffic is read without building the argparse parser
    cli = harness.import_cli()
    refused = [" ".join(entry["argv"]) for strata in CATALOGUE.values() for stratum in strata
               for entry in stratum["pool"]
               if cli._read_args(harness.argv_for(entry["argv"])) is None]
    assert not refused, refused


def test_make_cold_empties_the_per_module_caches():
    harness.import_cli()
    mo = sys.modules["vtknot.modules"]
    tg = sys.modules["vtknot.tangle"]
    cio = sys.modules["vtknot.configio"]
    rf = sys.modules["vtknot.ratfield"]
    per_module = [mo.act_word, mo._raising_degrees, mo.kappa, tg.crossing_unit, rf._large_mul]
    m = cio.load_config(str(BENCH / "configs" / "sl3.cfg")).module
    tg.invariant("trefoil", m)
    rf.qint(9, 1) * rf.qint(8, 1)  # 72 term pairs: a large product
    assert all(c.cache_info().currsize for c in per_module)
    found = harness.package_caches()
    assert all(any(c is f for f in found) for c in per_module)
    harness.make_cold()
    assert [c.cache_info().currsize for c in per_module] == [0] * len(per_module)
