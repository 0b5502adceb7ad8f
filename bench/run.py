"""vtknot benchmark: cold `vtknot` invocations on seeded workloads.

    python3 bench/run.py --workload invariants --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The seed draws one pass of ops from the workload's catalogue (see
workloads.py); the pass repeats, each op cold, at least twice and until the
time is used, in one single-threaded process.  Every output is checked: the sl2 closures of
2-strand braids against a closed form, every other output byte for byte
against the output recorded on the reference commit (catalogue.json).

Times are wall times scaled to a reference machine speed (see SpeedProbe in
harness.py); the unscaled figures are printed too.  Each op's time is the
median of its runs: one per pass, or several, spread over the pass, for an
op that is short on the reference commit.  An op fails if any of its runs
fails (wrong output, nonzero exit, or over its time limit); it then counts
at its time limit in every time metric, and once in op_success_rate.  A
wrong output or a nonzero exit also makes the run incorrect.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the pass twice
untraced and twice traced (see tracer.py), prints the per-layer metrics and
the ratio of traced to untraced time, checks that the exact counts repeat
between the two traced passes, and writes the spans of the first to
`.bench_trace/` in the working directory.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import harness
from harness import BenchError, SpeedProbe
from tracer import Tracer
from workloads import draw

CATALOGUE = os.path.join(harness.BENCH_DIR, "catalogue.json")
SETUP_REPEATS = 15
MIN_PASSES = 2  # every op gets at least two samples
# an op shorter than MIN_OP_S on the reference commit runs this many times
# over (at most MAX_REPEATS) in each untraced pass, so that the order
# statistics of the short ops rest on several samples
MIN_OP_S = 0.15
MAX_REPEATS = 8
TAIL_BEYOND = 10
RUN_CAP_S = 150.0  # no op starts after this, so that a run ends within 180 s
TRACE_LIMIT_FACTOR = 4.0

LAYERS = ("cli", "configio", "ratfield", "cartan", "freealg", "pairing",
          "linalg", "quasir", "modules", "tangle", "suites")

SPAN_METRICS = (
    "configio.load_config.self_s",
    "tangle.functor_T.self_s", "tangle.functor_T.calls",
    "modules.rmat.self_s", "modules.rmat_inv.self_s", "modules.theta_mat.self_s",
    "quasir.theta.self_s", "quasir.theta_bar.self_s", "quasir.select_basis.self_s",
    "pairing.gram.self_s", "pairing.phi.self_s",
    "linalg.rank.self_s", "linalg.rank.calls",
    "linalg.inverse.self_s", "linalg.inverse.calls",
    "linalg.mat_mul.self_s", "linalg.kron.self_s",
    "suites.run_suite.self_s",
    "ratfield.reduce_poly.self_s", "ratfield.render.self_s",
    "ratfield.render_poly.self_s",
    "ratfield.poly_div_exact.self_s", "ratfield.poly_div_exact.calls",
)

# Functions each workload is built to stress.  A traced pass that records
# no call of one of them means the tracer missed a layer: the run fails.
STRESSED = {
    "invariants": ("cli.main", "configio.load_config", "tangle.invariant",
                   "tangle.functor_T", "modules.rmat", "modules.rmat_inv",
                   "modules.theta_mat", "quasir.theta", "ratfield.reduce_poly",
                   "ratfield.render"),
    "identities": ("cli.main", "configio.load_config", "suites.run_suite",
                   "quasir.select_basis", "pairing.gram", "pairing.phi",
                   "linalg.rank", "linalg.mat_mul", "linalg.kron", "modules.rmat",
                   "tangle.functor_T"),
    "quasi-r": ("cli.main", "configio.load_config", "quasir.theta",
                "pairing.gram", "linalg.rank", "linalg.inverse", "modules.rmat",
                "ratfield.reduce_poly", "ratfield.render"),
}


def load_catalogue(workload):
    try:
        with open(CATALOGUE) as fh:
            cat = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (CATALOGUE, e))
    if workload not in cat["workloads"]:
        raise BenchError("unknown workload %r; known: %s"
                         % (workload, ", ".join(sorted(cat["workloads"]))))
    return cat["workloads"][workload]


def set_up(config_names, probe):
    """Import the package and load each config, as a fresh `vtknot` does.

    Repeated, each time from a freshly emptied module table; returns the
    median scaled and wall seconds and the CLI module of the last repetition.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        harness.forget_package()
        probe.sample()
        t0 = time.perf_counter()
        cli = harness.import_cli()
        configio = sys.modules[harness.PACKAGE + ".configio"]
        for name in config_names:
            configio.load_config(harness.config_path(name))
        t1 = time.perf_counter()
        probe.sample()
        wall.append(t1 - t0)
        scaled.append(probe.scale(t1 - t0, t0, t1))
    return statistics.median(scaled), statistics.median(wall), cli


class Tally:
    """Outcome of running the op list one or more times.

    An op fails when any of its runs fails, or when it never runs; its
    figure in the latency metrics is then its time limit.
    """

    def __init__(self, entries):
        self.entries = entries
        self.good = [[] for _ in entries]  # OpResult of each good run of each op
        self.failed = {}  # op index -> why its first failed run failed
        self.runs = 0
        self.wrong = 0  # runs with a wrong output or a nonzero exit, as opposed to a timeout
        self.pass_seconds = []  # wall seconds of op time in each pass

    def close(self):
        """Mark the ops that never ran as failed."""
        for k, runs in enumerate(self.good):
            if not runs and k not in self.failed:
                self.failed[k] = "not run: run time cap"

    def seconds(self, k, probe=None):
        """The op's median time (scaled when given a probe), or its time limit if it failed."""
        if k in self.failed:
            return self.entries[k]["limit_s"]
        if probe is None:
            return statistics.median(r.seconds for r in self.good[k])
        return statistics.median(probe.scale(r.seconds, r.start, r.end) for r in self.good[k])


def schedule(entries, seed):
    """Op indices of one untraced pass: each op repeated, in a seeded order."""
    order = [k for k, e in enumerate(entries)
             for _ in range(min(MAX_REPEATS, max(1, round(MIN_OP_S / e["ref_s"]))))]
    random.Random(seed).shuffle(order)
    return order


def run_pass(cli, tally, started, order=None, limit_factor=1.0, probe=None,
             sample_every=harness.SAMPLE_EVERY_S, tracer=None):
    """Run the ops in order (default: each once).

    Returns the good runs of this pass as {op index: [OpResult]} and, when
    tracing, the summed cache sizes after each op.
    """
    entries = tally.entries
    good, cache_entries, wall = {}, 0, 0.0
    for k in range(len(entries)) if order is None else order:
        if time.perf_counter() - started > RUN_CAP_S:
            continue
        entry = entries[k]
        tally.runs += 1
        if tracer is not None:
            tracer.op = k
        res = harness.run_op(cli, entry["argv"], entry["limit_s"] * limit_factor, probe, sample_every)
        if tracer is not None:
            tracer.op = -1
            cache_entries += harness.cache_entries()
        wall += res.seconds
        why = harness.check_output(entry["argv"], res, entry)
        if why is None:
            tally.good[k].append(res)
            good.setdefault(k, []).append(res)
        else:
            tally.failed.setdefault(k, why)
            if res.status != "timeout":
                tally.wrong += 1
    tally.pass_seconds.append(wall)
    return good, cache_entries


def tail(values):
    """(value, percentile) at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def latency_metrics(per_op):
    """Throughput over the op list and latencies, from each op's time."""
    tail_s, tail_pct = tail(per_op)
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_geomean_s": math.exp(statistics.fmean(math.log(x) for x in per_op)),
        "latency_p50_s": statistics.median(per_op),
        "latency_tail_s": tail_s,
    }, tail_pct


def untraced(cli, tally, started, seconds, probe, setup, seed):
    order = schedule(tally.entries, seed)
    while True:
        run_pass(cli, tally, started, order, probe=probe)
        elapsed = time.perf_counter() - started
        per_pass = elapsed / len(tally.pass_seconds)
        if elapsed + per_pass > RUN_CAP_S:
            break
        # after MIN_PASSES, stop where the run ends nearest to --seconds
        if len(tally.pass_seconds) >= MIN_PASSES and elapsed + per_pass / 2 >= seconds:
            break
    tally.close()
    n = len(tally.entries)
    figures, tail_pct = latency_metrics([tally.seconds(k, probe) for k in range(n)])
    raw, _ = latency_metrics([tally.seconds(k) for k in range(n)])
    metrics = {name: (value, "1/s" if name == "ops_per_s" else "s") for name, value in figures.items()}
    metrics["setup_s"] = (setup[0], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["op_success_rate"] = (1.0 - len(tally.failed) / n, "ratio")
    print("%d passes of %d ops (%d runs), %s s of wall op time each"
          % (len(tally.pass_seconds), n, len(order),
             ", ".join("%.3f" % s for s in tally.pass_seconds)))
    print("latency_tail_s is the p%.1f of %d per-op medians, with %d beyond it"
          % (tail_pct, n, min(TAIL_BEYOND, n - 1)))
    print("unscaled: " + ", ".join("%s %.5g" % kv for kv in raw.items())
          + ", setup_s %.5g" % setup[1])
    speeds = [r for _, r in probe.samples]
    print("machine speed vs reference: median %.3f, quartiles %s over %d samples"
          % (statistics.median(speeds), " ".join("%.3f" % q for q in statistics.quantiles(speeds, n=4)[::2]),
             len(speeds)))
    return metrics


def traced(cli, workload, tally, started, seed, probe):
    """Two untraced passes, then two traced ones.

    Speed is sampled around each op, never during one, so that probing adds
    no time to a span; both kinds of pass are scaled the same way.
    """
    def timed_pass(tracer=None):
        good, cache_entries = run_pass(cli, tally, started, probe=probe, sample_every=0,
                                       limit_factor=TRACE_LIMIT_FACTOR if tracer else 1.0,
                                       tracer=tracer)
        return {k: probe.scale(r.seconds, r.start, r.end) for k, (r,) in good.items()}, cache_entries

    plain = [timed_pass()[0] for _ in range(2)]
    counts, with_trace, first = [], [], None
    for rep in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            times, cache_entries = timed_pass(tracer)
        finally:
            tracer.uninstall()
        with_trace.append(times)
        counts.append(dict(tracer.counts(), **{"cache.entries": cache_entries}))
        if rep == 0:
            first = tracer
    traced_s = tally.pass_seconds[2]
    both = [k for k in range(len(tally.entries)) if all(k in p for p in plain + with_trace)]
    overhead = (sum(statistics.median(p[k] for p in with_trace) for k in both)
                / sum(statistics.median(p[k] for p in plain) for k in both))

    calls, self_s, layers = first.summary()
    missing = [n for n in STRESSED[workload] if not calls.get(n)]
    missing += [n for n in ("ratfield.lp_mul.calls", "ratfield.rf_add.calls") if not counts[0][n]]
    if missing:
        raise BenchError("tracer recorded no call of %s on %s" % (", ".join(missing), workload))
    drift = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    if drift:
        print("NOT DETERMINISTIC: counts differ between two traced passes: "
              + ", ".join("%s %d != %d" % (k, counts[0][k], counts[1][k]) for k in drift))

    metrics = {}
    for name in SPAN_METRICS:
        fn, _, kind = name.rpartition(".")
        metrics[name] = (calls.get(fn, 0), "count") if kind == "calls" else (self_s.get(fn, 0.0), "s")
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = (layers.get(layer, 0.0), "s")
    metrics["ops.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    print("first traced pass %.3f s of wall op time; traced / untraced time %.3f over %d ops "
          "(per-op medians of two passes each, scaled); self time by layer:"
          % (traced_s, overhead, len(both)))
    for layer in sorted(layers, key=layers.get, reverse=True):
        print("  %-9s %8.3f s  %5.1f %%" % (layer, layers[layer], 100 * layers[layer] / traced_s))
    top = sorted(self_s, key=self_s.get, reverse=True)[:8]
    print("largest self times: " + ", ".join("%s %.3f s" % (n, self_s[n]) for n in top))
    path = os.path.join(os.getcwd(), ".bench_trace", "%s-seed%d.spans.tsv.gz" % (workload, seed))
    first.write_spans(path, {k: " ".join(e["argv"]) for k, e in enumerate(tally.entries)})
    print("%d spans written to %s" % (len(first.spans), path))
    tally.close()
    return metrics, not drift


def report_failures(tally):
    n = len(tally.entries)
    print("error_rate %.4f (%d of %d ops failed, over %d runs)"
          % (len(tally.failed) / n, len(tally.failed), n, tally.runs))
    for k, why in sorted(tally.failed.items())[:10]:
        print("FAILED %s: %s" % (" ".join(tally.entries[k]["argv"]), why))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    tally = None
    try:
        strata = load_catalogue(args.workload)
        entries = draw([(s["stratum"], s["count"], s["pool"]) for s in strata],
                       "%s:%d" % (args.workload, args.seed))
        configs = sorted({e["argv"][e["argv"].index("--config") + 1]
                          for s in strata for e in s["pool"]})
        probe = SpeedProbe()
        setup = set_up(configs, probe)
        cli = setup[2]
        print("workload %s, seed %d: %d ops per pass, configs %s"
              % (args.workload, args.seed, len(entries), ", ".join(configs)))
        tally = Tally(entries)
        deterministic = True
        if args.trace:
            metrics, deterministic = traced(cli, args.workload, tally, started, args.seed, probe)
        else:
            metrics = untraced(cli, tally, started, args.seconds, probe, setup,
                               "%s:%d" % (args.workload, args.seed))
    except BenchError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    finally:
        if tally is not None:
            report_failures(tally)
    for name, (value, unit) in metrics.items():
        print("%s %s %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.wrong == 0 and deterministic,
        "attempted": len(entries),
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
