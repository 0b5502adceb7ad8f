"""Command line front end: invariants, identity suites, diagnostic dumps.

Exit codes: 0 success (and all checks passing for verify), 1 tangle
parse/type failures, a failing suite or stdout closed early, 2 configuration
problems, including a module with no unique maximal weight and, for
`invariant`, a module on which the twist is not one scalar (a reducible one).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import cartan as ca
from . import configio
from . import modules as mo
from . import quasir as qr
from . import ratfield as rf
from . import suites
from . import tangle as tg


def _depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if depth < 0:
        raise argparse.ArgumentTypeError("depth must be nonnegative, got %d" % depth)
    return depth


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vtknot",
        description="two-parameter quantum invariants of tangle closures",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument(
            "--format",
            choices=("plain", "lines"),
            default="plain",
            help="plain values or key | value records",
        )

    p = sub.add_parser("invariant", help="invariant of the closure of a tangle word")
    common(p)
    p.add_argument("--tangle", help="tangle word text or a built-in name")
    p.add_argument("--tangle-file", help="file holding a tangle word")
    p.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="VAR=RATIONAL",
        help="specialize a variable, e.g. t=1 (repeatable)",
    )

    p = sub.add_parser("verify", help="run an identity suite and report each check")
    common(p)
    p.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    p.add_argument("--depth", type=_depth, default=4, help="word/degree truncation")

    p = sub.add_parser("qdim", help="quantum dimension of the configured module")
    common(p)

    p = sub.add_parser("rmatrix", help="dump the crossing matrix on M (x) M")
    common(p)

    p = sub.add_parser("theta", help="dump quasi-R components degree by degree")
    common(p)
    p.add_argument("--depth", type=_depth, default=4, help="largest degree sum dumped")
    return ap


def _parse_assignments(pairs):
    out = {}
    for item in pairs:
        name, sep, val = item.partition("=")
        name = name.strip()
        if not sep or name not in ("v", "t"):
            raise configio.ConfigError(
                "bad --spec %r: expected v=<rational> or t=<rational>" % item
            )
        try:
            out[name] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise configio.ConfigError("bad rational in --spec %r" % item)
    return out


def _emit(fmt, key, value):
    if fmt == "lines":
        print("%s | %s" % (key, value))
    else:
        print(value)


def _cmd_invariant(args) -> int:
    cfg = configio.load_config(args.config)
    if (args.tangle is None) == (args.tangle_file is None):
        raise configio.ConfigError("need exactly one of --tangle or --tangle-file")
    if args.tangle is not None:
        text = args.tangle
    else:
        try:
            with open(args.tangle_file) as fh:
                text = fh.read()
        except OSError as e:
            raise configio.ConfigError("cannot read %s: %s" % (args.tangle_file, e))
    val = rf.reduce_poly(tg.invariant(text, cfg.module, cfg.basis_order))
    trivial = len(val.den.terms) == 1
    if args.spec:
        val = rf.specialize(val, _parse_assignments(args.spec))
    _emit(args.format, "invariant", rf.render(val))
    print(
        "note: denominator is %s" % ("trivial" if trivial else "not trivial"),
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    cfg = configio.load_config(args.config)
    report = suites.run_suite(args.suite, cfg, args.depth)
    failed = sum(1 for _, ok in report if not ok)
    for name, ok in report:
        flag = "pass" if ok else "FAIL"
        if args.format == "lines":
            print("%s | %s" % (name, flag))
        else:
            print("%s  %s" % (flag, name))
    if args.format != "lines":
        if failed:
            print("%d of %d checks failed" % (failed, len(report)))
        else:
            print("all %d checks passed" % len(report))
    return 1 if failed else 0


def _cmd_qdim(args) -> int:
    cfg = configio.load_config(args.config)
    _emit(args.format, "qdim", rf.render(rf.reduce_poly(mo.qdim(cfg.module))))
    return 0


def _cmd_rmatrix(args) -> int:
    cfg = configio.load_config(args.config)
    m = cfg.module
    mm = mo.tensor(m, m)
    mat = mo.rmat(m, m, cfg.basis_order)
    for r in range(mm.dim):
        for c in range(mm.dim):
            if not mat[r][c].is_zero():
                print("%s | %s | %s" % (mm.labels[r], mm.labels[c], rf.render(mat[r][c])))
    return 0


def _cmd_theta(args) -> int:
    cfg = configio.load_config(args.config)
    spec = cfg.spec
    for mu in ca.degrees_tr_upto(spec.rank, args.depth):
        if ca.tr(mu) == 0:
            continue
        table = qr.theta(spec, mu, cfg.basis_order)
        mu_text = ",".join(str(x) for x in mu)
        for (fw, ew), coeff in sorted(table.items()):
            print(
                "%s | %s | %s | %s"
                % (
                    mu_text,
                    ",".join(str(i + 1) for i in fw),
                    ",".join(str(i + 1) for i in ew),
                    rf.render(rf.reduce_poly(coeff)),
                )
            )
    return 0


_COMMANDS = {
    "invariant": _cmd_invariant,
    "verify": _cmd_verify,
    "qdim": _cmd_qdim,
    "rmatrix": _cmd_rmatrix,
    "theta": _cmd_theta,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early; silence the flush at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (
        configio.ConfigError,
        rf.SpecializeError,
        qr.BasisError,
        mo.HighestWeightError,
        tg.FramingError,
    ) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except tg.TangleError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
