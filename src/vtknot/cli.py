"""Command line front end: invariants, identity suites, diagnostic dumps.

Exit codes: 0 success (and all checks passing for verify), 1 tangle
parse/type failures, a failing suite or stdout closed early, 2 configuration
problems, including a module with no unique maximal weight and, for
`invariant`, a module on which the twist is not one scalar (a reducible one),
and running out of memory ("error: out of memory").

A well-formed argument list, a command followed by `--flag value` pairs, is
read by `_read_args`.  Any other (none, `-h`, an unknown command or option, a
value the parser might take otherwise) goes to the argparse parser, which
prints every usage, help and error text.  Both read the one option table
`_COMMANDS`.  Building and running the parser took a quarter of a short
`vtknot invariant` call, and importing argparse with gettext about 1.7 ms of
a process's start (`python -X importtime`), so a valid call does neither.
"""

from __future__ import annotations

import os
import sys
import types
from fractions import Fraction

from . import cartan as ca
from . import configio
from . import modules as mo
from . import quasir as qr
from . import ratfield as rf
from . import suites
from . import tangle as tg


def _depth(text: str) -> int:
    """The `--depth` type: a nonnegative integer, or argparse's type error."""
    try:
        depth = int(text)
        error = None if depth >= 0 else "depth must be nonnegative, got %d" % depth
    except ValueError:
        error = "expected an integer, got %r" % text
    if error is None:
        return depth
    import argparse  # reached only on the way to the parser's error

    raise argparse.ArgumentTypeError(error)


def _read_args(argv):
    """argv read as the parser reads it, or None to leave it to the parser.

    Reads a command name followed by `--flag value` pairs only: exact flag
    names, values that do not start with "-" (the parser takes "-x" for a
    flag), choices by membership and the type on ASCII digits only (int()
    also reads other digits, and "²".isdigit() holds).
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    options = dict(_COMMON + _COMMANDS[argv[0]][1])
    values = {flag: kw.get("default") for flag, kw in options.items()}
    missing = {flag for flag, kw in options.items() if kw.get("required")}
    for flag, value in zip(argv[1::2], argv[2::2]):
        kw = options.get(flag)
        if kw is None or value.startswith("-") or value not in kw.get("choices", (value,)):
            return None
        if "type" in kw:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = kw["type"](value)
            except Exception:  # int() refuses too many digits; let the parser say so
                return None
        # "append" starts from a copy of the default, as the parser's does
        values[flag] = values[flag] + [value] if kw.get("action") == "append" else value
        missing.discard(flag)
    if missing:
        return None
    dests = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return types.SimpleNamespace(command=argv[0], **dests)


def _build_parser():
    """The `vtknot` parser with every subcommand: usage, help and errors."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="vtknot",
        description="two-parameter quantum invariants of tangle closures",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw in _COMMON + options:
            p.add_argument(flag, **kw)
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
        if name in out:
            raise configio.ConfigError("--spec gives %s twice" % name)
        try:
            out[name] = Fraction(*rf.parse_rational(val))
        except rf.ParseError as e:
            raise configio.ConfigError("bad rational in --spec %r: %s" % (item, e))
    return out


def _emit(fmt, key, value):
    if fmt == "lines":
        print("%s | %s" % (key, value))
    else:
        print(value)


def _cmd_invariant(args, cfg) -> int:
    # refuse a bad --spec before the evaluation, which can take seconds
    assign = _parse_assignments(args.spec or ())
    if (args.tangle is None) == (args.tangle_file is None):
        raise configio.ConfigError("need exactly one of --tangle or --tangle-file")
    if args.tangle is not None:
        text = args.tangle
    else:
        try:
            with open(args.tangle_file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise configio.ConfigError("cannot read %s: %s" % (args.tangle_file, e))
    val = rf.reduce_poly(tg.invariant(text, cfg.module))
    trivial = len(val.den.terms) == 1
    if assign:
        val = rf.specialize(val, assign)
    _emit(args.format, "invariant", rf.render(val))
    print(
        "note: denominator is %s" % ("trivial" if trivial else "not trivial"),
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args, cfg) -> int:
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


def _cmd_qdim(args, cfg) -> int:
    _emit(args.format, "qdim", rf.render(mo.qdim(cfg.module)))
    return 0


def _cmd_rmatrix(args, cfg) -> int:
    m = cfg.module
    labels = mo.pair_labels(m, m)
    for r, c, x in mo.rmat(m, m).items():
        print("%s | %s | %s" % (labels[r], labels[c], rf.render(x)))
    return 0


def _cmd_theta(args, cfg) -> int:
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


# the options of every command, as (flag, add_argument keywords)
_COMMON = (
    ("--config", dict(required=True, help="run configuration file")),
    ("--format", dict(choices=("plain", "lines"), default="plain",
                      help="plain values or key | value records")),
)

# name: (help, options beyond _COMMON, handler); main loads --config and
# calls the handler with the parsed arguments and the RunConfig
_COMMANDS = {
    "invariant": ("invariant of the closure of a tangle word", (
        ("--tangle", dict(help="tangle word text or a built-in name")),
        ("--tangle-file", dict(help="file holding a tangle word")),
        ("--spec", dict(action="append", default=[], metavar="VAR=RATIONAL",
                        help="specialize a variable, e.g. t=1 (repeatable)")),
    ), _cmd_invariant),
    "verify": ("run an identity suite and report each check", (
        ("--suite", dict(required=True, choices=suites.SUITE_NAMES)),
        ("--depth", dict(type=_depth, default=4, help="word/degree truncation")),
    ), _cmd_verify),
    "qdim": ("quantum dimension of the configured module", (), _cmd_qdim),
    "rmatrix": ("dump the crossing matrix on M (x) M", (), _cmd_rmatrix),
    "theta": ("dump quasi-R components degree by degree", (
        ("--depth", dict(type=_depth, default=4, help="largest degree sum dumped")),
    ), _cmd_theta),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_args(argv) or _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command][2](args, configio.load_config(args.config))
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
    except MemoryError:
        pass
    # reached only from MemoryError, once its traceback, which holds the
    # evaluation's frames and their state, has been let go
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
