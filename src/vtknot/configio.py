"""Run configuration: line-oriented key=value files with dotted keys.

Config keys: rank, dot.row.<k>, omega.row.<k>, module, basis_order.
Module files: dim, optional label.<k>, weight.<k>, E.<i>.<r>.<c>, F.<i>.<r>.<c>.
All indices are 1-based; entry values go through the scalar parser.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import cartan as ca
from . import linalg as la
from . import modules as mo
from . import ratfield as rf


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class RunConfig:
    spec: ca.CartanSpec
    module: mo.WeightModule
    basis_order: str


def _read_table(path):
    """Map each key to (value, line number); a repeated key is an error."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    table = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (path, ln))
        key, _, val = line.partition("=")
        key = key.strip()
        if key in table:
            raise ConfigError("%s:%d: duplicate key %r" % (path, ln, key))
        table[key] = (val.strip(), ln)
    return table


def _int(path, ln, val):
    try:
        return int(val)
    except ValueError:
        raise ConfigError("%s:%d: expected an integer, got %r" % (path, ln, val))


def _int_row(path, ln, val, width):
    parts = val.split()
    if len(parts) != width:
        raise ConfigError("%s:%d: expected %d entries, got %d" % (path, ln, width, len(parts)))
    return [_int(path, ln, p) for p in parts]


def load_module_file(path, spec: ca.CartanSpec) -> mo.WeightModule:
    table = _read_table(path)
    if "dim" not in table:
        raise ConfigError("%s: missing dim" % path)
    dim = _int(path, table["dim"][1], table["dim"][0])
    if dim < 1:
        raise ConfigError("%s: dim must be positive" % path)
    labels = ["m%d" % (k + 1) for k in range(dim)]
    weights = [None] * dim
    act_E = [la.zeros(dim, dim) for _ in range(spec.rank)]
    act_F = [la.zeros(dim, dim) for _ in range(spec.rank)]
    for key, (val, ln) in table.items():
        parts = key.split(".")
        if key == "dim":
            continue
        if parts[0] == "label" and len(parts) == 2:
            k = _int(path, ln, parts[1])
            if not 1 <= k <= dim:
                raise ConfigError("%s:%d: label index out of range" % (path, ln))
            labels[k - 1] = val
        elif parts[0] == "weight" and len(parts) == 2:
            k = _int(path, ln, parts[1])
            if not 1 <= k <= dim:
                raise ConfigError("%s:%d: weight index out of range" % (path, ln))
            coords = val.split()
            if len(coords) != spec.rank:
                raise ConfigError("%s:%d: weight needs %d coordinates" % (path, ln, spec.rank))
            try:
                weights[k - 1] = tuple(Fraction(x) for x in coords)
            except (ValueError, ZeroDivisionError):
                raise ConfigError("%s:%d: bad rational in weight" % (path, ln))
        elif parts[0] in ("E", "F") and len(parts) == 4:
            i = _int(path, ln, parts[1])
            r = _int(path, ln, parts[2])
            c = _int(path, ln, parts[3])
            if not 1 <= i <= spec.rank:
                raise ConfigError("%s:%d: generator index out of range" % (path, ln))
            if not (1 <= r <= dim and 1 <= c <= dim):
                raise ConfigError("%s:%d: matrix index out of range" % (path, ln))
            try:
                entry = rf.parse(val)
            except rf.ParseError as e:
                raise ConfigError("%s:%d: %s" % (path, ln, e))
            (act_E if parts[0] == "E" else act_F)[i - 1][r - 1][c - 1] = entry
        else:
            raise ConfigError("%s:%d: unknown key %r" % (path, ln, key))
    missing = [str(k + 1) for k in range(dim) if weights[k] is None]
    if missing:
        raise ConfigError("%s: missing weight for basis vectors %s" % (path, ", ".join(missing)))
    return mo.make_module(spec, labels, weights, act_E, act_F)


def load_config(path) -> RunConfig:
    table = _read_table(path)
    for need in ("rank", "module"):
        if need not in table:
            raise ConfigError("%s: missing %s" % (path, need))
    rank = _int(path, table["rank"][1], table["rank"][0])
    if rank < 1:
        raise ConfigError("%s: rank must be positive" % path)
    dot_rows = [None] * rank
    omega_rows = [None] * rank
    basis_order = "lex"
    for key, (val, ln) in table.items():
        parts = key.split(".")
        if key in ("rank", "module"):
            continue
        if key == "basis_order":
            if val not in ("lex", "revlex"):
                raise ConfigError("%s:%d: basis_order must be lex or revlex" % (path, ln))
            basis_order = val
        elif parts[0] in ("dot", "omega") and len(parts) == 3 and parts[1] == "row":
            k = _int(path, ln, parts[2])
            if not 1 <= k <= rank:
                raise ConfigError("%s:%d: row index out of range" % (path, ln))
            row = _int_row(path, ln, val, rank)
            (dot_rows if parts[0] == "dot" else omega_rows)[k - 1] = row
        else:
            raise ConfigError("%s:%d: unknown key %r" % (path, ln, key))
    for name, rows in (("dot", dot_rows), ("omega", omega_rows)):
        missing = [str(k + 1) for k in range(rank) if rows[k] is None]
        if missing:
            raise ConfigError("%s: missing %s.row.%s" % (path, name, ", ".join(missing)))
    spec = ca.make_spec(rank, dot_rows, omega_rows)
    bad = ca.validate(spec)
    if bad:
        raise ConfigError("%s: %s" % (path, "; ".join(bad)))

    mval, mln = table["module"]
    if mval.startswith("rank1:"):
        try:
            n = int(mval[len("rank1:"):])
        except ValueError:
            raise ConfigError("%s:%d: bad module descriptor %r" % (path, mln, mval))
        if rank != 1:
            raise ConfigError("%s:%d: rank1 modules need rank = 1" % (path, mln))
        if n < 0:
            raise ConfigError("%s:%d: module size must be nonnegative" % (path, mln))
        module = mo.rank1_simple(n, spec)
    elif mval.startswith("file:"):
        rel = mval[len("file:"):].strip()
        mpath = os.path.join(os.path.dirname(os.path.abspath(path)), rel)
        module = load_module_file(mpath, spec)
    else:
        raise ConfigError("%s:%d: module must be rank1:<n> or file:<path>" % (path, mln))
    bad = mo.validate_module(module)
    if bad:
        raise ConfigError("%s: module does not satisfy the defining relations: %s"
                          % (path, "; ".join(bad)))
    return RunConfig(spec, module, basis_order)
