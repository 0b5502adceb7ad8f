"""Run configuration: line-oriented key=value files with dotted keys.

Config keys: rank, dot.row.<k>, omega.row.<k>, module, basis_order.
module is rank1:<n> with 0 <= n <= RANK1_MAX, built over `modules.RANK1`,
the one rank-one datum that `cartan.validate` admits, or file:<path>.
basis_order (lex or revlex) picks the dual bases that `theta` prints and the
quasiR suite checks; crossings, invariants and `rmatrix` do not depend on it.
Module files: dim, optional label.<k>, weight.<k>, E.<i>.<r>.<c>, F.<i>.<r>.<c>.
All indices are 1-based plain decimals (no sign, leading zero or `_`) and
go through one check, `_index`, which names the index and the line in its
error; on a line with two bad indices the first in key order is
reported; dim and rank go through one count check, `_size`.  Entry values go
through the scalar parser, weight coordinates through
`ratfield.parse_rational` (`[-]p[/q]`) onto one den.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import lcm

from . import cartan as ca
from . import linalg as la
from . import modules as mo
from . import ratfield as rf


class ConfigError(ValueError):
    pass


# the largest n of a rank1:<n> module; checking the relations of one takes
# time quadratic in n, about a second at this bound
RANK1_MAX = 1000


@dataclass(frozen=True, eq=False)
class RunConfig:
    spec: ca.CartanSpec
    module: mo.WeightModule
    basis_order: str


def _read_table(path):
    """Map each key to (value, line number); a repeated key is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
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


def _index(path, ln, text, bound, what):
    """The 0-based index for the 1-based `text`, which must be the plain
    decimal of a value in 1..bound: `01`, `+1` and `1_0` would read as the
    index of another key's line."""
    k = _int(path, ln, text)
    if str(k) != text:
        raise ConfigError("%s:%d: %s index %r is not a plain decimal" % (path, ln, what, text))
    if not 1 <= k <= bound:
        raise ConfigError("%s:%d: %s index out of range" % (path, ln, what))
    return k - 1


def _size(path, table, key, prefix):
    """table[key], an int from 1 to the number of keys that start with prefix.

    Every index up to it needs its line, so a larger value cannot load;
    refusing it here allocates nothing of its size.
    """
    if key not in table:
        raise ConfigError("%s: missing %s" % (path, key))
    n = _int(path, table[key][1], table[key][0])
    if n < 1:
        raise ConfigError("%s: %s must be positive" % (path, key))
    lines = sum(k.startswith(prefix) for k in table)
    if n > lines:
        raise ConfigError("%s: missing %s lines: %s is %d, but %d are given"
                          % (path, prefix[:-1], key, n, lines))
    return n


def _int_row(path, ln, val, width):
    parts = val.split()
    if len(parts) != width:
        raise ConfigError("%s:%d: expected %d entries, got %d" % (path, ln, width, len(parts)))
    return [_int(path, ln, p) for p in parts]


def load_module_file(path, spec: ca.CartanSpec) -> mo.WeightModule:
    table = _read_table(path)
    dim = _size(path, table, "dim", "weight.")
    labels = ["m%d" % (k + 1) for k in range(dim)]
    weights = [None] * dim
    act_E = [{} for _ in range(spec.rank)]
    act_F = [{} for _ in range(spec.rank)]
    for key, (val, ln) in table.items():
        parts = key.split(".")
        if key == "dim":
            continue
        if parts[0] == "label" and len(parts) == 2:
            labels[_index(path, ln, parts[1], dim, "label")] = val
        elif parts[0] == "weight" and len(parts) == 2:
            k = _index(path, ln, parts[1], dim, "weight")
            coords = val.split()
            if len(coords) != spec.rank:
                raise ConfigError("%s:%d: weight needs %d coordinates" % (path, ln, spec.rank))
            try:
                weights[k] = [rf.parse_rational(x) for x in coords]
            except rf.ParseError as e:
                raise ConfigError("%s:%d: bad rational in weight: %s" % (path, ln, e))
        elif parts[0] in ("E", "F") and len(parts) == 4:
            i = _index(path, ln, parts[1], spec.rank, "generator")
            r, c = (_index(path, ln, x, dim, "matrix") for x in parts[2:])
            try:
                entry = rf.parse(val)
            except rf.ParseError as e:
                raise ConfigError("%s:%d: %s" % (path, ln, e))
            (act_E if parts[0] == "E" else act_F)[i].setdefault(r, {})[c] = entry
        else:
            raise ConfigError("%s:%d: unknown key %r" % (path, ln, key))
    missing = [str(k + 1) for k in range(dim) if weights[k] is None]
    if missing:
        raise ConfigError("%s: missing weight for basis vectors %s" % (path, ", ".join(missing)))
    actions = [[la.Matrix(dim, dim, x) for x in act] for act in (act_E, act_F)]
    den = lcm(*(q for w in weights for _, q in w))
    weights = [[p * (den // q) for p, q in w] for w in weights]
    return mo.make_module(spec, labels, weights, *actions, den)


def load_config(path) -> RunConfig:
    table = _read_table(path)
    for need in ("rank", "module"):
        if need not in table:
            raise ConfigError("%s: missing %s" % (path, need))
    rank = _size(path, table, "rank", "dot.row.")
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
            k = _index(path, ln, parts[2], rank, "row")
            (dot_rows if parts[0] == "dot" else omega_rows)[k] = _int_row(path, ln, val, rank)
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
        if not 0 <= n <= RANK1_MAX:
            raise ConfigError("%s:%d: module size must be between 0 and %d" % (path, mln, RANK1_MAX))
        module = mo.rank1_simple(n)
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
