"""Run configuration and module file loading, including the failure paths."""

import pathlib
import time

import pytest

from vtknot import cli
from vtknot import configio as cio
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import modules as mo
from vtknot import ratfield as rf
from vtknot import suites as su

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_loads_rank_one_config():
    cfg = cio.load_config(str(CONFIGS / "sl2.cfg"))
    assert cfg.spec.rank == 1
    assert cfg.module.dim == 2
    assert cfg.basis_order == "lex"
    assert rf.eq(mo.qdim(cfg.module), rf.parse("v + v^-1"))


def test_loads_rank_two_config_with_module_file():
    cfg = cio.load_config(str(CONFIGS / "sl3.cfg"))
    assert cfg.spec.rank == 2
    assert cfg.module.labels == ("x1", "x2", "x3")
    assert rf.eq(cfg.module.act_F[0][1, 0], rf.parse("t^(1/3)"))
    assert mo.validate_module(cfg.module) == []


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_missing_keys_are_reported(tmp_path):
    path = _write(tmp_path, "a.cfg", "rank = 1\nmodule = rank1:1\n")
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert "dot.row" in str(info.value)


def test_bad_cartan_data_is_rejected(tmp_path):
    path = _write(
        tmp_path,
        "b.cfg",
        "rank = 2\ndot.row.1 = 2 1\ndot.row.2 = 1 2\n"
        "omega.row.1 = 1 1\nomega.row.2 = 0 1\nmodule = rank1:1\n",
    )
    with pytest.raises(cio.ConfigError):
        cio.load_config(path)


def test_rank1_module_needs_rank_one(tmp_path):
    path = _write(
        tmp_path,
        "c.cfg",
        "rank = 2\ndot.row.1 = 2 -1\ndot.row.2 = -1 2\n"
        "omega.row.1 = 1 -1\nomega.row.2 = 0 1\nmodule = rank1:1\n",
    )
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert "rank1" in str(info.value)


def test_unknown_and_duplicate_keys(tmp_path):
    path = _write(
        tmp_path,
        "d.cfg",
        "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = rank1:1\nwat = 1\n",
    )
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert "wat" in str(info.value)
    path = _write(tmp_path, "e.cfg", "rank = 1\nrank = 1\n")
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert "duplicate" in str(info.value)


def test_module_file_missing_weight(tmp_path):
    _write(tmp_path, "m.mod", "dim = 2\nweight.1 = 1/2\nE.1.1.2 = 1\n")
    path = _write(
        tmp_path,
        "f.cfg",
        "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = file:m.mod\n",
    )
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert "missing weight" in str(info.value)


def test_module_file_breaking_relations_is_rejected(tmp_path):
    # F entry 1 instead of t^(1/3) breaks the commutator over this datum
    _write(
        tmp_path,
        "n.mod",
        "dim = 3\n"
        "weight.1 = 2/3 1/3\nweight.2 = -1/3 1/3\nweight.3 = -1/3 -2/3\n"
        "E.1.1.2 = 1\nE.2.2.3 = 1\nF.1.2.1 = 1\nF.2.3.2 = 1\n",
    )
    path = _write(
        tmp_path,
        "g.cfg",
        "rank = 2\ndot.row.1 = 2 -1\ndot.row.2 = -1 2\n"
        "omega.row.1 = 1 -1\nomega.row.2 = 0 1\nmodule = file:n.mod\n",
    )
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert "defining relations" in str(info.value)


def test_basis_order_flag(tmp_path):
    path = _write(
        tmp_path,
        "h.cfg",
        "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\n"
        "module = rank1:1\nbasis_order = revlex\n",
    )
    assert cio.load_config(path).basis_order == "revlex"
    path = _write(
        tmp_path,
        "i.cfg",
        "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\n"
        "module = rank1:1\nbasis_order = sideways\n",
    )
    with pytest.raises(cio.ConfigError):
        cio.load_config(path)


def test_module_file_duplicate_key_exits_2(tmp_path, capsys):
    mod = _write(
        tmp_path, "dup.mod", "dim = 2\nweight.1 = 1/2\nweight.1 = -1/2\nE.1.1.2 = 1\n"
    )
    path = _write(
        tmp_path,
        "dup.cfg",
        "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = file:dup.mod\n",
    )
    assert cli.main(["qdim", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s:3: duplicate key 'weight.1'" % mod in captured.err


def test_rank_above_the_dot_rows_exits_2_before_allocating(tmp_path, capsys):
    path = _write(
        tmp_path, "huge.cfg", "rank = 4611686018427387904\ndot.row.1 = 2\nmodule = rank1:1\n"
    )
    assert cli.main(["qdim", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s: missing dot.row lines: rank is 4611686018427387904, but 1 are given\n" % path
    )


def test_dim_above_the_weight_lines_exits_2_before_allocating(tmp_path, capsys):
    mod = _write(tmp_path, "huge.mod", "dim = 4611686018427387904\nweight.1 = 1/2\n")
    path = _write(
        tmp_path,
        "huge.cfg",
        "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = file:huge.mod\n",
    )
    assert cli.main(["qdim", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s: missing weight lines: dim is 4611686018427387904, but 1 are given\n" % mod
    )


# the order of the count checks: presence of rank and module first, then
# rank as an int, its sign, and its dot.row lines; dim the same way
@pytest.mark.parametrize("cfg, mod, want", [
    ("rank = 0\n", None, "{cfg}: missing module"),
    ("rank = x\nmodule = rank1:1\n", None, "{cfg}:1: expected an integer, got 'x'"),
    ("rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = file:z.mod\n",
     "dim = 0\nweight.1 = 1/2\n", "{mod}: dim must be positive"),
])
def test_count_checks_keep_their_order(tmp_path, cfg, mod, want):
    mpath = _write(tmp_path, "z.mod", mod) if mod else None
    path = _write(tmp_path, "z.cfg", cfg)
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert str(info.value) == want.format(cfg=path, mod=mpath)


def test_rank1_size_above_the_bound_exits_2_at_once(tmp_path, capsys):
    path = _write(tmp_path, "big.cfg",
                  "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = rank1:999999999\n")
    start = time.perf_counter()
    assert cli.main(["qdim", "--config", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s:4: module size must be between 0 and %d\n" % (path, cio.RANK1_MAX)
    )


@pytest.mark.parametrize("coord", ["3000001/3", "1999999999999999999999999999999/3"])
def test_weight_far_outside_the_module_exits_2_at_once(tmp_path, capsys, coord):
    # a weight with |<w, a_i^v>| > dim - 1 is refused before the commutator
    # check writes out the quantum integer [n] of its n terms
    natural = (CONFIGS / "sl3_natural.mod").read_text()
    _write(tmp_path, "sl3_natural.mod",
           natural.replace("weight.2 = -1/3 1/3", "weight.2 = -1/3 %s" % coord))
    path = _write(tmp_path, "sl3.cfg", (CONFIGS / "sl3.cfg").read_text())
    start = time.perf_counter()
    assert cli.main(["qdim", "--config", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: %s: module does not satisfy the defining relations: "
        "E_1 breaks the weight grading at entry (1, 2); "
        "F_1 breaks the weight grading at entry (2, 1); "
        "E_2 breaks the weight grading at entry (2, 3); "
        "F_2 breaks the weight grading at entry (3, 2); "
        "weight 2 has |<w, a_1^v>| > dim - 1 = 2; "
        "weight 2 has |<w, a_2^v>| > dim - 1 = 2\n" % path
    )


def test_weight_outside_the_module_is_refused_without_a_grading_fault():
    # a one-dimensional module with zero actions passes the grading check;
    # its huge weight is refused without building [n]
    zero = (la.Matrix(1, 1),)
    m = mo.make_module(mo.RANK1, ("x",), ((10 ** 30,),), zero, zero, 1)
    assert mo.validate_module(m) == ["weight 1 has |<w, a_1^v>| > dim - 1 = 0"]


def test_serre_relator_past_the_module_is_not_written_out(tmp_path, capsys):
    # a_12 = a_21 = -200: each relator has 201 + 1 letters and Gaussian
    # binomials up to [201 choose 100]; on a one-dimensional module every
    # term holds E_i^p or F_i^p with p >= 1 = dim, so neither is built, and
    # the forms suite stops at its depth
    _write(tmp_path, "triv.mod", "dim = 1\nweight.1 = 0 0\n")
    path = _write(tmp_path, "wide.cfg", "rank = 2\ndot.row.1 = 2 -200\ndot.row.2 = -200 2\n"
                  "omega.row.1 = 1 -200\nomega.row.2 = 0 1\nmodule = file:triv.mod\n")
    for argv in (["qdim"], ["verify", "--suite", "forms", "--depth", "4"]):
        start = time.perf_counter()
        assert cli.main(argv + ["--config", path]) == 0
        assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert out.startswith("1\n")
    assert "pass  braid relators sit in the form radical\n" in out


def test_sl3_serre_relators_are_still_checked(monkeypatch):
    built = []
    real = fa.serre_element
    monkeypatch.setattr(fa, "serre_element", lambda *a: built.append(a[1:3]) or real(*a))
    cfg = cio.load_config(str(CONFIGS / "sl3.cfg"))
    assert sorted(built) == [(0, 1), (0, 1), (1, 0), (1, 0)]
    built.clear()
    su.suite_forms(cfg, 4)
    assert sorted(built) == [(0, 1), (1, 0)]
    built.clear()
    su.suite_forms(cfg, 2)
    assert built == []


_RANK1_CFG = "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\nmodule = file:m.mod\n"


@pytest.mark.parametrize("line, what", [
    ("label.3 = x", "label"),
    ("weight.0 = 0", "weight"),
    ("E.2.1.2 = 1", "generator"),
    ("F.1.3.1 = 1", "matrix"),
    ("E.1.1.0 = 1", "matrix"),
    # two faults on one line: the first index in key order is reported
    ("E.2.1.x = 1", "generator"),
])
def test_module_index_out_of_range_names_the_index(tmp_path, line, what):
    _write(tmp_path, "m.mod", "dim = 2\nweight.1 = 1/2\nweight.2 = -1/2\n%s\n" % line)
    path = _write(tmp_path, "j.cfg", _RANK1_CFG)
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert str(info.value) == "%s:4: %s index out of range" % (tmp_path / "m.mod", what)


def test_row_index_out_of_range(tmp_path):
    path = _write(tmp_path, "k.cfg", "rank = 1\ndot.row.2 = 2\nomega.row.1 = 1\n"
                  "module = rank1:1\n")
    with pytest.raises(cio.ConfigError) as info:
        cio.load_config(path)
    assert str(info.value) == "%s:2: row index out of range" % path


_SL2_HEAD = "rank = 1\ndot.row.1 = 2\nomega.row.1 = 1\n"
_SL2_MOD = "dim = 2\nweight.1 = 1/2\nweight.2 = -1/2\nE.1.1.2 = 1\nF.1.2.1 = 1\n"

# (config text, module file text or None, stderr); {cfg} and {mod} are the paths
_REFUSALS = {
    "no-equals": (_SL2_HEAD.replace("omega.row.1 = 1", "omega.row.1") + "module = rank1:1\n",
                  None, "{cfg}:3: expected key = value"),
    "row-width": ("rank = 2\ndot.row.1 = 2 -1 0\ndot.row.2 = -1 2\n"
                  "omega.row.1 = 1 -1\nomega.row.2 = 0 1\nmodule = rank1:1\n",
                  None, "{cfg}:2: expected 2 entries, got 3"),
    "weight-width": (_SL2_HEAD + "module = file:m.mod\n",
                     _SL2_MOD.replace("weight.1 = 1/2", "weight.1 = 1/2 0"),
                     "{mod}:2: weight needs 1 coordinates"),
    "entry": (_SL2_HEAD + "module = file:m.mod\n", _SL2_MOD.replace("E.1.1.2 = 1", "E.1.1.2 = v +"),
              "{mod}:4: unexpected token '' at position 3"),
    "fractional-exponent": (_SL2_HEAD + "module = file:m.mod\n",
                            _SL2_MOD.replace("E.1.1.2 = 1", "E.1.1.2 = (v + 1)^(1/2)"),
                            "{mod}:4: fractional exponents only on v and t"),
    "unknown-config-key": (_SL2_HEAD + "module = rank1:1\nwat = 1\n", None,
                           "{cfg}:5: unknown key 'wat'"),
    "unknown-module-key": (_SL2_HEAD + "module = file:m.mod\n", _SL2_MOD + "foo = 1\n",
                           "{mod}:6: unknown key 'foo'"),
    # weight.01 and weight.1_0 would read as indices 1 and 10 under other keys
    "weight-01": (_SL2_HEAD + "module = file:m.mod\n",
                  _SL2_MOD.replace("weight.2", "weight.01"),
                  "{mod}:3: weight index '01' is not a plain decimal"),
    "weight-1_0": (_SL2_HEAD + "module = file:m.mod\n",
                   _SL2_MOD.replace("weight.2", "weight.1_0"),
                   "{mod}:3: weight index '1_0' is not a plain decimal"),
    "no-omega": ("rank = 1\ndot.row.1 = 2\nmodule = rank1:1\n", None, "{cfg}: missing omega.row.1"),
    "descriptor": (_SL2_HEAD + "module = rank1:x\n", None, "{cfg}:4: bad module descriptor 'rank1:x'"),
    "module-kind": (_SL2_HEAD + "module = foo:1\n", None,
                    "{cfg}:4: module must be rank1:<n> or file:<path>"),
    "no-dim": (_SL2_HEAD + "module = file:m.mod\n", _SL2_MOD.replace("dim = 2\n", ""),
               "{mod}: missing dim"),
    "omega-sign": ("rank = 1\ndot.row.1 = -2\nomega.row.1 = -1\nmodule = rank1:1\n", None,
                   "{cfg}: (a) omega[1][1] must be positive"),
    "non-integral": (_SL2_HEAD + "module = file:m.mod\n", "dim = 2\nweight.1 = 1/3\nweight.2 = 0\n",
                     "{cfg}: module does not satisfy the defining relations: "
                     "weight 1 has a non-integral <w, a_1^v> = 2/3"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_input_refusals_print_their_message_and_exit_2(tmp_path, capsys, case):
    cfg, mod, want = _REFUSALS[case]
    mpath = _write(tmp_path, "m.mod", mod) if mod is not None else None
    path = _write(tmp_path, "c.cfg", cfg)
    assert cli.main(["qdim", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % want.format(cfg=path, mod=mpath)
