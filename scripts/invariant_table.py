#!/usr/bin/env python3
"""Tabulate the builtin closures across the small shipped modules.

Rank-one values stay in Z[v, v^-1]; the rank-two natural module is where
a t-dependence could enter, so each value is flagged either way.
"""

import argparse
import pathlib

from vtknot import configio as cio
from vtknot import modules as mo
from vtknot import ratfield as rf
from vtknot import tangle as tg

ROOT = pathlib.Path(__file__).resolve().parents[1]


def t_free(val):
    terms = list(val.num.fraction_terms()) + list(val.den.fraction_terms())
    return all(e.t_exp == 0 for e, _ in terms)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", action="append", default=[],
                    help="extra configuration file to include")
    args = ap.parse_args()

    table = [
        ("rank1:1", mo.rank1_simple(1)),
        ("rank1:2", mo.rank1_simple(2)),
        ("sl3 natural", cio.load_config(str(ROOT / "configs" / "sl3.cfg")).module),
    ]
    for path in args.config:
        table.append((path, cio.load_config(path).module))

    for label, m in table:
        print("== %s (dim %d, qdim %s)" % (label, m.dim, rf.render(rf.reduce_poly(mo.qdim(m)))))
        for name in sorted(tg.BUILTINS):
            val = rf.reduce_poly(tg.invariant(name, m))
            flag = "t-free" if t_free(val) else "carries t"
            print("  %-8s  %-10s  %s" % (name, flag, rf.render(val)))


if __name__ == "__main__":
    main()
