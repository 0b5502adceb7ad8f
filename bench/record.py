"""Record the reference outputs of every catalogue op into catalogue.json.

    python3 bench/record.py [workload ...]

Run once, from the root of a checkout of the reference commit, whenever
workloads.py changes.  Named workloads are recorded again and the others
kept as they are in catalogue.json; with no name, all are recorded.  Each
op in each pool runs cold once; its stdout hash, the check count of a
`verify` op, its time and its time limit are stored.  An op that fails, or
an sl2 2-strand closure that disagrees with the closed form, stops the
recording.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys

import harness
from run import CATALOGUE
from workloads import WORKLOADS

LIMIT_FACTOR = 5.0
LIMIT_FLOOR_S = 2.0
RECORD_LIMIT_S = 600.0


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def record_op(cli, op):
    res = harness.run_op(cli, op, RECORD_LIMIT_S)
    if res.status != "ok":
        raise harness.BenchError("%s: %s" % (" ".join(op), res.status))
    entry = {
        "argv": op,
        "stdout_sha256": harness.sha256(res.stdout),
        "ref_s": round(res.seconds, 4),
        "limit_s": math.ceil(10 * max(LIMIT_FLOOR_S, LIMIT_FACTOR * res.seconds)) / 10,
    }
    if op[0] == "verify":
        last = res.stdout.rstrip("\n").rpartition("\n")[2]
        words = last.split()
        if len(words) != 4 or words[0] != "all" or words[2:] != ["checks", "passed"]:
            raise harness.BenchError("%s: summary line %r" % (" ".join(op), last))
        entry["checks"] = int(words[1])
    why = harness.check_output(op, res, entry)
    if why is not None:
        raise harness.BenchError("%s: %s" % (" ".join(op), why))
    print("%8.3f s  %s" % (res.seconds, " ".join(op)), flush=True)
    return entry


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise harness.BenchError("unknown workloads: %s" % ", ".join(unknown))
    kept = {}
    if names:
        with open(CATALOGUE) as fh:
            kept = json.load(fh)["workloads"]
    cli = harness.import_cli()
    out = {
        "reference_commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for name, strata in WORKLOADS.items():
        if names and name not in names:
            out["workloads"][name] = kept[name]
            continue
        out["workloads"][name] = [
            {"stratum": stratum, "count": count, "pool": [record_op(cli, op) for op in pool]}
            for stratum, count, pool in strata
        ]
    with open(CATALOGUE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
