#!/usr/bin/env python3
"""Print where `vtknot.cli.main` spends its time, stage by stage.

Runs one seeded pass of a benchmark workload's catalogue ops (the pass
`bench/run.py --seed N` draws), each op cold through the benchmark
harness, and sums the self time of each stage over `--passes` passes.
It prints each stage's share and its milliseconds per pass:

    parser          `cli._read_args`, and for an argument list it leaves to
                    argparse, building the parser and parsing argv
    config load     `configio.load_config`: reading and parsing the files
    module check    `modules.validate_module`, which the config load calls
    crossing build  `tangle._generator`: the crossing tables, the R-matrix's
                    numerators with the curl scalar's monomial folded in,
                    and the cup and cap tables of words that hold them
                    (`invariant` builds none)
    kink            `tangle._framing_holds`: the framing check of
                    `tangle.invariant`, the crossing's partial quantum trace
                    with the cap's weights v_deg(-w_j)^2 read off the module
    closure         the `functor_T` call inside `tangle.invariant`: the open
                    word evaluated on the columns of dominant weight, each
                    weight space's diagonal ints summed and unpacked once as
                    its trace.  The orbit sums and the weighted sum around
                    it stay in "rest"
    large products  `ratfield._large_mul`: LaurentPoly products of at least
                    `ratfield.LARGE_PAIRS` term pairs, memo lookups included
    gram            `pairing.gram`: a degree's Gram block of pairings
    elimination     `linalg.principal_pivots` and `linalg.rank`: basis
                    selection, the greedy's packing and forward elimination
                    on ints, which `theta` reuses, and the polynomial
                    Bareiss rank of what it leaves (and the rmatrix suite's
                    annihilator, testing each coordinate it adds)
    inverse         `linalg.inverse`: the den columns' elimination, the back
                    substitution and the decode of a chosen Gram block's
                    inverse (and of the annihilator's systems, on the
                    elimination of their last test)
    print           `ratfield.reduce_poly` and `ratfield.render`: values
                    reduced and rendered for printing (and the R-matrix
                    entries, which are reduced as they are built)
    suite NAME      one stage per entry of `suites.SUITES`, wrapped where
                    `run_suite` reads the table: that suite's own sums,
                    smaller products and comparisons
    rest            the rest of `cli.main`: theta's own work, smaller
                    products outside the suites, printing

Self time excludes the nested stages, so the kink and closure lines leave
out the crossings built inside them; `functor_T` calls outside `invariant`
(the identity suites') are left in their callers' stages.  The stages are
timed with `time.perf_counter` wrappers.  It also prints the hits and misses of the
large-product memo, summed over the ops (each op starts it empty).  Reads
`bench/` and writes nothing there.

    python3 scripts/stage_shares.py --workload invariants --seed 1 --passes 10
"""

import argparse
import functools
import importlib.util
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
STAGES = ("parser", "config load", "module check", "crossing build", "kink", "closure",
          "large products", "gram", "elimination", "inverse", "print")


def load_bench(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


class StageClock:
    """Self time per stage; a stage entered inside another pauses it."""

    def __init__(self, stages):
        self.self_s = dict.fromkeys(stages, 0.0)
        self.stack = []
        self.mark = 0.0

    def _switch(self):
        now = time.perf_counter()
        if self.stack:
            self.self_s[self.stack[-1]] += now - self.mark
        self.mark = now

    def wrap(self, fn, stage):
        """fn timed as stage; stage may be a function of no arguments that
        returns the name, or None to time nothing."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = stage() if callable(stage) else stage
            if name is None:
                return fn(*args, **kwargs)
            self._switch()
            self.stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._switch()
                self.stack.pop()
        return timed


def instrument(clock, cli, configio, modules, tangle, ratfield, pairing, linalg, suites):
    """Wrap the stage functions where their callers look them up."""
    running = []  # one mark per tangle.invariant call running

    def parser_built():
        ap = build()
        ap.parse_args = clock.wrap(ap.parse_args, "parser")
        return ap

    def functor_stage():
        return "closure" if running else None

    def invariant(*args, **kwargs):
        running.append(True)
        try:
            return inv(*args, **kwargs)
        finally:
            running.pop()

    build, inv = cli._build_parser, tangle.invariant
    cli._read_args = clock.wrap(cli._read_args, "parser")
    cli._build_parser = clock.wrap(parser_built, "parser")
    cli.main = clock.wrap(cli.main, "rest")
    configio.load_config = clock.wrap(configio.load_config, "config load")
    # configio looks validate_module up on the modules module at each call
    modules.validate_module = clock.wrap(modules.validate_module, "module check")
    tangle._generator = clock.wrap(tangle._generator, "crossing build")
    tangle._framing_holds = clock.wrap(tangle._framing_holds, "kink")
    tangle.functor_T = clock.wrap(tangle.functor_T, functor_stage)
    tangle.invariant = functools.wraps(inv)(invariant)
    # LaurentPoly.__mul__ looks _large_mul up on the ratfield module at each call
    ratfield._large_mul = clock.wrap(ratfield._large_mul, "large products")
    # the callers of these look them up on their modules at each call
    pairing.gram = clock.wrap(pairing.gram, "gram")
    linalg.principal_pivots = clock.wrap(linalg.principal_pivots, "elimination")
    linalg.rank = clock.wrap(linalg.rank, "elimination")
    linalg.inverse = clock.wrap(linalg.inverse, "inverse")
    ratfield.reduce_poly = clock.wrap(ratfield.reduce_poly, "print")
    ratfield.render = clock.wrap(ratfield.render, "print")
    # run_suite reads the SUITES table at each call
    suites.SUITES = tuple((name, clock.wrap(func, "suite " + name)) for name, func in suites.SUITES)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="invariants")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args()
    sys.dont_write_bytecode = True  # nothing goes into bench/__pycache__
    harness = load_bench("harness")
    workloads = load_bench("workloads")
    strata = json.loads((BENCH / "catalogue.json").read_text())["workloads"][args.workload]
    entries = workloads.draw([(s["stratum"], s["count"], s["pool"]) for s in strata],
                             "%s:%d" % (args.workload, args.seed))
    cli = harness.import_cli()
    layers = [sys.modules["vtknot." + name] for name in
              ("configio", "modules", "tangle", "ratfield", "pairing", "linalg", "suites")]
    stages = STAGES + tuple("suite " + name for name, _ in layers[-1].SUITES) + ("rest",)
    clock = StageClock(stages)
    memo = sys.modules["vtknot.ratfield"]._large_mul
    instrument(clock, cli, *layers)
    hits = misses = 0
    for _ in range(args.passes):
        for entry in entries:
            res = harness.run_op(cli, entry["argv"], entry["limit_s"])
            why = harness.check_output(entry["argv"], res, entry)
            if why is not None:
                sys.exit("%s: %s" % (" ".join(entry["argv"]), why))
            info = memo.cache_info()  # run_op empties the memo before the op
            hits, misses = hits + info.hits, misses + info.misses
    total = sum(clock.self_s.values())
    print("%s, seed %d: %d ops per pass, %d passes, %.3f s per pass in cli.main"
          % (args.workload, args.seed, len(entries), args.passes, total / args.passes))
    print("large-product memo: %d hits, %d misses per pass"
          % (hits / args.passes, misses / args.passes))
    print("| stage | share | ms per pass |")
    print("| --- | --- | --- |")
    for stage in sorted(stages, key=clock.self_s.get, reverse=True):
        print("| %s | %.1f %% | %.3f |" % (stage, 100 * clock.self_s[stage] / total,
                                           1e3 * clock.self_s[stage] / args.passes))


if __name__ == "__main__":
    main()
