"""Run configuration and module file loading, including the failure paths."""

import pathlib

import pytest

from vtknot import cli
from vtknot import configio as cio
from vtknot import modules as mo
from vtknot import ratfield as rf

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
    assert rf.eq(cfg.module.act_F[0][1][0], rf.parse("t^(1/3)"))
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
