"""Command line contract: outputs, exit codes, and determinism."""

import argparse
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtknot import cli
from vtknot import configio as cio
from vtknot import linalg as la
from vtknot import modules as mo
from vtknot import pairing as pr
from vtknot import ratfield as rf
from vtknot import tangle as tg

from conftest import clear_caches

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SL2 = str(CONFIGS / "sl2.cfg")
SL3 = str(CONFIGS / "sl3.cfg")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_invariant_unknot(capsys):
    rc, out, err = run(capsys, "invariant", "--config", SL2, "--tangle", "unknot")
    assert rc == 0
    assert out == "v + v^-1\n"
    assert "denominator is trivial" in err


def test_invariant_trefoil_specialized(capsys):
    rc, out, _ = run(
        capsys,
        "invariant", "--config", SL2, "--tangle", "trefoil", "--spec", "t=1",
    )
    assert rc == 0
    assert out == "-v^9 + v^5 + v^3 + v\n"



@pytest.mark.parametrize("cfg", ["affine_a1.cfg", "hyperbolic_23.cfg"])
@pytest.mark.parametrize("tangle", ["trefoil", "figure8"])
def test_infinite_type_closures_print_one(capsys, cfg, tangle):
    # the trivial module: one weight, 0, which is dominant
    rc, out, _ = run(capsys, "invariant", "--config", str(CONFIGS / cfg), "--tangle", tangle)
    assert rc == 0
    assert out == "1\n"


def _positive_braid(n, crossings, minus=0):
    """Crossing k on strands i + 1 and i + 2, i = k mod (n - 1): xm at every
    minus-th crossing when minus is set, xp elsewhere."""
    rows = []
    for k in range(crossings):
        i = k % (n - 1)
        g = "xm" if minus and k % minus == minus - 1 else "xp"
        rows.append(" * ".join(("up",) * i + (g,) + ("up",) * (n - 2 - i)))
    return " ; ".join(rows)


# closures larger than any benchmark op: the sha256 of the stdout that the
# evaluation of the closed word, cups and caps included, printed
_LARGE_CLOSURES = (
    ("bench/configs/rank1_4.cfg", _positive_braid(4, 9),
     "25563cae5707e783e95e7f1198acc76c8a3c452541ae4be5a4e96e4bb31c4930"),
    ("bench/configs/rank1_4.cfg", _positive_braid(5, 8),
     "67c670aeb1453af883f73f32d4f633707fc5864a0ea9c28b10bbc47cc6fbb6b1"),
    ("configs/sl3.cfg", _positive_braid(5, 10, 3),
     "4b9ae371a8f7f51708fddf79f15ac29072afeea853fa8c2f0dea8ea052c2fcf3"),
)


def test_large_closures_print_their_recorded_bytes(capsys):
    for cfg, tangle, digest in _LARGE_CLOSURES:
        rc, out, _ = run(capsys, "invariant", "--config", str(ROOT / cfg), "--tangle", tangle)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (cfg, tangle)


# theta past the benchmark's depths, on Gram blocks larger than 3 x 3: the
# sha256 of the stdout, recorded from the polynomial Bareiss inverse that the
# integer elimination replaced
_DEEP_THETA = (
    # largest block 5 x 5
    ("configs/sl3.cfg", 8,
     "944308869459f5d29c917b8e16c02a71f1930a018eb6a5f9b7e6b01b13e14114"),
    ("bench/configs/sl3_revlex.cfg", 8,
     "d8df5e64979d101dfcd0d920cbc378000ee0cb8f7ad1058acce750f5a298f62f"),
    # 8 x 8
    ("configs/affine_a1.cfg", 5,
     "416a090f69c2027e3d742540972f14a51002acb65df475e42c6371ba048a9414"),
    # 6 x 6
    ("configs/hyperbolic_23.cfg", 4,
     "f49dbdd79821762f81a5251a5577f82f527a0e3a7b2b8297fdee1181dd36f7e3"),
)


def test_deep_theta_prints_its_recorded_bytes(capsys):
    for cfg, depth, digest in _DEEP_THETA:
        clear_caches()
        rc, out, _ = run(capsys, "theta", "--config", str(ROOT / cfg), "--depth", str(depth))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (cfg, depth)


def test_invariant_type_error_exits_1(capsys):
    rc, out, err = run(capsys, "invariant", "--config", SL2, "--tangle", "qtr ; up")
    assert rc == 1
    assert out == ""
    assert "type error" in err


def test_invariant_requires_exactly_one_source(capsys, tmp_path):
    rc, _, err = run(capsys, "invariant", "--config", SL2)
    assert rc == 2
    wfile = tmp_path / "w.tangle"
    wfile.write_text("xp ; xp")
    rc, out, _ = run(
        capsys, "invariant", "--config", SL2, "--tangle-file", str(wfile)
    )
    assert rc == 0
    assert out == "v^6 + v^4 + v^2 + 1\n"


@pytest.mark.parametrize("bad", ["config", "module", "tangle"])
def test_non_utf8_input_exits_2(capsys, tmp_path, bad):
    # in a config or module file the bytes sit in a comment, so a reader
    # that decoded them some other way would run on instead of refusing
    junk = b"# \xff\xfe is not UTF-8\n"
    files = {
        "config": (tmp_path / "sl3.cfg", (CONFIGS / "sl3.cfg").read_bytes()),
        "module": (tmp_path / "sl3_natural.mod", (CONFIGS / "sl3_natural.mod").read_bytes()),
        "tangle": (tmp_path / "w.tangle", b"xp ; xp\n"),
    }
    for key, (path, data) in files.items():
        path.write_bytes(data + junk if key == bad else data)
    rc, out, err = run(
        capsys,
        "invariant", "--config", str(files["config"][0]),
        "--tangle-file", str(files["tangle"][0]),
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot read %s: " % files[bad][0])
    assert "utf-8" in err


def test_bad_spec_assignment(capsys):
    rc, _, err = run(
        capsys,
        "invariant", "--config", SL2, "--tangle", "unknot", "--spec", "q=1",
    )
    assert rc == 2
    assert "--spec" in err


def test_spec_variable_given_twice_exits_2(capsys, monkeypatch):
    # the later value must not silently replace the earlier one, and the
    # refusal comes before the closure is evaluated
    monkeypatch.setattr(cli.tg, "invariant", None)
    rc, out, err = run(
        capsys,
        "invariant", "--config", SL2, "--tangle", "unknot",
        "--spec", "t=1", "--spec", " t = 2",
    )
    assert rc == 2
    assert out == ""
    assert err == "error: --spec gives t twice\n"


def test_bad_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rank = 1\n")
    rc, _, err = run(capsys, "qdim", "--config", str(bad))
    assert rc == 2
    assert "error:" in err


def test_verify_reports_a_failing_check_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli.suites, "annihilator", lambda mat, maxdeg: None)
    rc, out, err = run(capsys, "verify", "--config", SL2, "--suite", "rmatrix")
    assert (rc, err) == (1, "")
    assert out == (
        "pass  crossing is a module map\n"
        "pass  crossing and its inverse cancel\n"
        "pass  zigzag identities hold\n"
        "pass  crossing slides across a cap\n"
        "pass  full twist through a cup gives the framing unit\n"
        "pass  mixed crossing matches its cup and cap form\n"
        "pass  mixed crossings compose to the identity\n"
        "pass  coproduct transport assembles iterated twists\n"
        "pass  weight factors commute with the twist\n"
        "FAIL  normalized crossing satisfies a short polynomial relation\n"
        "pass  crossing at t = 1 matches the one-parameter form\n"
        "1 of 11 checks failed\n"
    )


def test_spec_v_zero_needs_nonnegative_powers(capsys):
    rc, out, err = run(capsys, "invariant", "--config", SL2, "--tangle", "xp ; xp ; xp",
                       "--spec", "v=0")
    assert (rc, out, err) == (0, "0\n", "note: denominator is trivial\n")
    rc, out, err = run(capsys, "invariant", "--config", SL2, "--tangle", "xm ; xm ; xm",
                       "--spec", "v=0")
    assert (rc, out, err) == (2, "", "error: zero raised to a negative power\n")


@pytest.mark.parametrize("command", ["verify", "theta"])
def test_depth_that_is_no_integer_goes_to_the_parser(capsys, command):
    extra = ["--suite", "forms"] if command == "verify" else []
    code, out, err = _exit_of(capsys, cli.main,
                              [command, "--config", SL2, *extra, "--depth", "x"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: vtknot %s " % command)
    assert err.endswith(
        "\nvtknot %s: error: argument --depth: expected an integer, got 'x'\n" % command)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit on this Python")
def test_depth_past_the_digit_limit_goes_to_the_parser(capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = _exit_of(capsys, cli.main,
                              ["verify", "--config", SL2, "--suite", "forms", "--depth", digits])
    assert (code, out) == (2, "")
    assert err.startswith("usage: vtknot verify ")
    assert err.endswith(
        "\nvtknot verify: error: argument --depth: expected an integer, got '%s'\n" % digits)


def test_qdim_formats(capsys):
    rc, out, _ = run(capsys, "qdim", "--config", SL2)
    assert rc == 0 and out == "v + v^-1\n"
    rc, out, _ = run(capsys, "qdim", "--config", SL2, "--format", "lines")
    assert rc == 0 and out == "qdim | v + v^-1\n"
    rc, out, _ = run(capsys, "qdim", "--config", SL3)
    assert rc == 0 and out == "v^2 + 1 + v^-2\n"


def test_rmatrix_dump(capsys):
    rc, out, _ = run(capsys, "rmatrix", "--config", SL2)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "(w0,w0) | (w0,w0) | v^(-1/2)"
    assert lines[3] == "(w1,w0) | (w1,w0) | -v^(3/2) + v^(-1/2)"


SHIPPED = sorted(str(p.relative_to(ROOT))
                 for pattern in ("configs/*.cfg", "bench/configs/*.cfg") for p in ROOT.glob(pattern))


@pytest.mark.parametrize("config", SHIPPED)
def test_rmatrix_labels_are_the_tensor_labels(capsys, config):
    rc, out, _ = run(capsys, "rmatrix", "--config", str(ROOT / config))
    assert rc == 0
    m = cio.load_config(str(ROOT / config)).module
    labels = mo.tensor(m, m).labels
    want = [(labels[r], labels[c]) for r, c, _ in mo.rmat(m, m).items()]
    assert [tuple(line.split(" | ")[:2]) for line in out.splitlines()] == want


# rank1:2 conjugated by D = diag(1, 2/3, 5/2): entries with rational constants
SCALED = str(CONFIGS / "rank1_2_scaled.cfg")
RANK1_2 = str(ROOT / "bench" / "configs" / "rank1_2.cfg")


def test_a_rescaled_module_keeps_the_invariants_and_conjugates_the_crossing(capsys):
    for argv in (["invariant", "--tangle", "hopf"], ["invariant", "--tangle", "trefoil"],
                 ["invariant", "--tangle", "figure8"], ["qdim"]):
        scaled, plain = (run(capsys, *argv, "--config", cfg) for cfg in (SCALED, RANK1_2))
        assert scaled == plain and plain[0] == 0
    # every rmatrix entry is the one of (D x D) R (D x D)^-1, R rank1:2's crossing
    d = [rf.ONE, rf.parse("2/3"), rf.parse("5/2")]
    dd, dd_inv = (la.kron(*[la.Matrix(3, 3, {i: {i: f(x)} for i, x in enumerate(d)})] * 2)
                  for f in (lambda x: x, rf.inv))
    m = cio.load_config(RANK1_2).module
    want = la.mat_mul(la.mat_mul(dd, mo.rmat(m, m)), dd_inv)
    labels = mo.tensor(m, m).labels
    rc, out, _ = run(capsys, "rmatrix", "--config", SCALED)
    got = {}
    for line in out.splitlines():
        r, c, x = line.split(" | ")
        got[labels.index(r), labels.index(c)] = rf.parse(x)
    assert rc == 0 and set(got) == {(r, c) for r, c, _ in want.items()}
    assert all(rf.eq(x, want[r, c]) for (r, c), x in got.items())
    rc, out, _ = run(capsys, "verify", "--config", SCALED, "--suite", "all")
    assert out.splitlines()[-1] == "all 43 checks passed"
    assert rc == 0


def test_theta_dump(capsys):
    rc, out, _ = run(capsys, "theta", "--config", SL2, "--depth", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "1 | 1 | 1 | -v + v^-1"
    assert lines[1].startswith("2 | 1,1 | 1,1 | ")


def test_verify_suite_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--config", SL2, "--suite", "ybe")
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("pass") for line in lines[:-1])
    assert lines[-1] == "all 2 checks passed"


def test_verify_passes_on_the_trivial_module(capsys, tmp_path):
    # the 1x1 normalized crossing satisfies x = 1, a relation of degree dim M = 1
    cfg = tmp_path / "trivial.cfg"
    cfg.write_text(pathlib.Path(SL2).read_text().replace("rank1:1", "rank1:0"))
    rc, out, _ = run(capsys, "verify", "--config", str(cfg), "--suite", "all")
    assert out.splitlines()[-1] == "all 43 checks passed"
    assert rc == 0


def test_verify_lines_format(capsys):
    rc, out, _ = run(
        capsys,
        "verify", "--config", SL2, "--suite", "tangle-relations",
        "--format", "lines",
    )
    assert rc == 0
    for line in out.splitlines():
        assert line.endswith(" | pass")


def test_verify_rejects_bogus_suite(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--config", SL2, "--suite", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()


def test_basis_error_in_the_quasir_suite_exits_2(capsys, monkeypatch):
    # the antidiagonal Gram block of degree (1, 1) has full rank but no
    # nonsingular principal block (as in test_quasir)
    real, pair = pr._phi_num, ((0, 1), (1, 0))

    def antidiagonal(spec, ew, fw, end, side):
        if ew in pair and fw in pair:
            return rf.LP_ZERO if ew == fw else rf.LP_ONE
        return real(spec, ew, fw, end, side)

    clear_caches()
    monkeypatch.setattr(pr, "_phi_num", antidiagonal)
    try:
        rc, out, err = run(
            capsys, "verify", "--config", SL3, "--suite", "quasiR", "--depth", "2"
        )
    finally:
        clear_caches()
    assert rc == 2
    assert out == ""
    assert err == (
        "error: greedy principal blocks reached rank 0 but the degree has rank 2\n"
    )


def test_incomplete_basis_in_the_pairing_suite_exits_2(capsys, monkeypatch):
    # on degree (2, 1) only (1, 0, 0), which is not a candidate word, pairs
    # nonzero: theta's greedy finds no basis word among the candidates, and
    # the pairing suite, which ranks the block on every word, refuses that
    real, lone = pr._phi_num, (1, 0, 0)

    def degenerate(spec, ew, fw, end, side):
        if sorted(ew) == sorted(fw) == [0, 0, 1]:
            return rf.LP_ONE if ew == fw == lone else rf.LP_ZERO
        return real(spec, ew, fw, end, side)

    clear_caches()
    monkeypatch.setattr(pr, "_phi_num", degenerate)
    try:
        rc, out, err = run(
            capsys, "verify", "--config", SL3, "--suite", "pairing", "--depth", "3"
        )
    finally:
        clear_caches()
    assert rc == 2
    assert out == ""
    assert err == (
        "error: greedy principal blocks reached rank 0 but the degree has rank 1\n"
    )


@pytest.mark.parametrize("command", ["verify", "theta"])
def test_negative_depth_is_rejected(capsys, command):
    argv = [command, "--config", SL2, "--depth", "-3"]
    if command == "verify":
        argv += ["--suite", "all"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "passed" not in captured.out
    assert captured.out == ""
    assert "depth must be nonnegative" in captured.err


# help and error argument lists; <cmd> -h for every command is added below
FRONT_END_ARGVS = {
    "none": [],
    "-h": ["-h"],
    "--help": ["--help"],
    "bogus": ["bogus"],
    "invariant-without-config": ["invariant"],
    "verify-suite-nope": ["verify", "--suite", "nope"],
    "theta-depth-minus-1": ["theta", "--depth", "-1"],
    "qdim-extra": ["qdim", "--config", SL2, "extra"],
    "invariant-bogus-option": [
        "invariant", "--config", SL2, "--tangle", "hopf", "--bogus"
    ],
}
FRONT_END_ARGVS.update({"%s-h" % c: [c, "-h"] for c in cli._COMMANDS})


def _exit_of(capsys, call, argv):
    with pytest.raises(SystemExit) as info:
        call(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", FRONT_END_ARGVS.values(), ids=FRONT_END_ARGVS.keys())
def test_front_end_prints_the_full_parsers_bytes(capsys, monkeypatch, argv):
    # none of these is a well-formed argument list, so main leaves each to
    # the parser: the same usage, help and error bytes and exit code
    monkeypatch.setenv("COLUMNS", "80")
    got = _exit_of(capsys, cli.main, argv)
    want = _exit_of(capsys, cli._build_parser().parse_args, argv)
    assert got == want
    assert want[0] in (0, 2)


def test_full_parser_errors_name_the_command_argument(capsys):
    code, out, err = _exit_of(capsys, cli.main, ["bogus"])
    assert (code, out) == (2, "")
    assert "error: argument command: invalid choice: " in err
    code, out, err = _exit_of(capsys, cli.main, [])
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: command\n")


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that grows by one for every ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


CHEAP_OPTIONS = {
    "invariant": ["--tangle", "unknot"],
    "verify": ["--suite", "forms", "--depth", "1"],
    "qdim": [],
    "rmatrix": [],
    "theta": ["--depth", "1"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_call_builds_only_its_subcommands_parser(capsys, parsers_built, command):
    rc, out, _ = run(capsys, command, "--config", SL2, *CHEAP_OPTIONS[command])
    assert rc == 0
    assert out
    assert len(parsers_built) == 0  # a well-formed call is read without argparse


def test_help_builds_every_subcommands_parser(capsys, monkeypatch, parsers_built):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _exit_of(capsys, cli.main, ["-h"])
    assert code == 0
    assert len(parsers_built) == 6
    for command in cli._COMMANDS:
        assert "\n    %s " % command in out


def test_console_script_reads_sys_argv(capsys, monkeypatch, parsers_built):
    monkeypatch.setattr(sys, "argv", ["vtknot", "qdim", "--config", SL2])
    rc = cli.main()
    got = (rc, *capsys.readouterr())
    assert len(parsers_built) == 0
    assert got == run(capsys, "qdim", "--config", SL2)
    assert got[1] == "v + v^-1\n"


# the token grammar of the argument lists below: commands, flags and values
# that are near misses of well-formed ones
_COMMAND_TOKENS = [*cli._COMMANDS, "bogus"]
_FLAG_TOKENS = sorted({flag for _, options, _ in cli._COMMANDS.values()
                       for flag, _ in cli._COMMON + options})
_FLAG_TOKENS += ["--conf", "--dep", "--config=x", "-h", "--help", "--"]
_VALUE_TOKENS = ["", "-", "-1", "007", "٣", "²", "+7", " 7", "plain", "lines", "nope",
                 "all", "t=1"]


@st.composite
def _argvs(draw):
    """Mostly a command, its required flags and more flag-value pairs in any
    order, at times with one token inserted, dropped or replaced; now and
    then any list of tokens."""
    tokens = st.sampled_from(_COMMAND_TOKENS + _FLAG_TOKENS + _VALUE_TOKENS)
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(tokens, max_size=8))
    command = draw(st.sampled_from(_COMMAND_TOKENS))
    options = cli._COMMON + cli._COMMANDS.get(command, (None, ()))[1]
    flags = [flag for flag, _ in options] if draw(st.integers(0, 3)) else _FLAG_TOKENS

    def value(flag):
        # half the time a value the flag takes
        if draw(st.booleans()):
            return {"--format": "lines", "--suite": "all", "--depth": "007"}.get(flag, "t=1")
        return draw(st.sampled_from(_VALUE_TOKENS))

    pairs = [flag for flag, kwargs in options if kwargs.get("required")]
    pairs += draw(st.lists(st.sampled_from(flags), max_size=4))
    argv = [command]
    for flag in draw(st.permutations(pairs)):
        argv += [flag, value(flag)]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(argv)))
        argv[k:k + draw(st.integers(0, 1))] = draw(st.lists(tokens, max_size=1))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["invariant", "--config", "c", "--spec", "t=1", "--tangle", "x", "--spec", "plain"])
@example(["verify", "--suite", "all", "--config", "c", "--depth", "007", "--depth", "1"])
@example(["theta", "--config", "c", "--depth", "٣"])
@example(["qdim", "--config", "-1"])
def test_direct_reader_agrees_with_the_parser(argv):
    # the reader may leave any argument list to the parser, but one it reads
    # it must read as the parser does, and the parser must accept it
    got = cli._read_args(argv)
    if got is not None:
        assert vars(got) == vars(cli._build_parser().parse_args(argv))


def test_direct_reader_collects_spec_and_keeps_the_last_depth():
    got = cli._read_args(["invariant", "--spec", "t=1", "--config", "c", "--spec", "v=2",
                          "--tangle", "x", "--format", "lines"])
    assert vars(got) == {"command": "invariant", "config": "c", "format": "lines",
                         "tangle": "x", "tangle_file": None, "spec": ["t=1", "v=2"]}
    got = cli._read_args(["theta", "--depth", "007", "--config", "c", "--depth", "5"])
    assert vars(got) == {"command": "theta", "config": "c", "format": "plain", "depth": 5}


def test_output_is_deterministic(capsys):
    first = run(capsys, "invariant", "--config", SL2, "--tangle", "figure8")
    second = run(capsys, "invariant", "--config", SL2, "--tangle", "figure8")
    assert first == second
    a = run(capsys, "verify", "--config", SL2, "--suite", "forms")
    b = run(capsys, "verify", "--config", SL2, "--suite", "forms")
    assert a == b
    assert a[0] == 0


def test_closed_stdout_ends_quietly():
    # the reader leaves after one line, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "vtknot.cli", "theta", "--config", SL2, "--depth", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first == b"1 | 1 | 1 | -v + v^-1\n"
    assert b"Traceback" not in err


_NATURAL_PLUS_DUAL = """dim = 6
weight.1 = 2/3 1/3
weight.2 = -1/3 1/3
weight.3 = -1/3 -2/3
weight.4 = -2/3 -1/3
weight.5 = 1/3 -1/3
weight.6 = 1/3 2/3
E.1.1.2 = 1
E.2.2.3 = 1
F.1.2.1 = t^(1/3)
F.2.3.2 = t^(1/3)
E.1.5.4 = -v^-1 * t^(-1/3)
E.2.6.5 = -v^-1 * t^(-1/3)
F.1.4.5 = -v
F.2.5.6 = -v
"""


def test_module_without_unique_top_weight_exits_2(tmp_path):
    (tmp_path / "sum.mod").write_text(_NATURAL_PLUS_DUAL)
    cfg = tmp_path / "sum.cfg"
    cfg.write_text(
        (CONFIGS / "sl3.cfg").read_text().replace("file:sl3_natural.mod", "file:sum.mod")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "vtknot.cli", "invariant", "--config", str(cfg),
         "--tangle", "trefoil"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert "error: module has no unique maximal weight" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# the two-dimensional simple rank-one module plus the trivial one: the twist
# acts on the two summands by different scalars
_SIMPLE_PLUS_TRIVIAL = """\
dim = 3
weight.1 = 1/2
weight.2 = -1/2
weight.3 = 0
E.1.1.2 = 1
F.1.2.1 = 1
"""


@pytest.mark.parametrize("tangle", ["up", "xp", "xm ; xm ; xm"])
def test_reducible_module_is_refused(tmp_path, tangle):
    (tmp_path / "sum.mod").write_text(_SIMPLE_PLUS_TRIVIAL)
    cfg = tmp_path / "sum.cfg"
    cfg.write_text(
        (CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:sum.mod")
    )
    proc = subprocess.run(
        [sys.executable, "-m", "vtknot.cli", "invariant", "--config", str(cfg),
         "--tangle", tangle],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert "error: the twist does not act on the module by one scalar" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_open_word_on_a_reducible_module_is_refused_as_a_word(capsys, tmp_path):
    # the word is checked before the module, so the closure error comes first
    (tmp_path / "sum.mod").write_text(_SIMPLE_PLUS_TRIVIAL)
    cfg = tmp_path / "sum.cfg"
    cfg.write_text((CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:sum.mod"))
    want = (1, "", "error: closure needs a square all-plus boundary, got (-,+) -> ()\n")
    for config in (SL2, str(cfg)):
        assert run(capsys, "invariant", "--config", config, "--tangle", "ev") == want


def test_unary_minus_inside_a_factor_is_read(capsys, tmp_path):
    # E entry v * -t = -v t and F entry its inverse: sl2 in a rescaled basis
    (tmp_path / "m.mod").write_text(
        "dim = 2\nweight.1 = 1/2\nweight.2 = -1/2\nE.1.1.2 = v * -t\nF.1.2.1 = -v^-1 * t^-1\n")
    cfg = tmp_path / "m.cfg"
    cfg.write_text((CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:m.mod"))
    assert rf.eq(rf.parse("v * -t"), -(rf.V * rf.T))
    assert run(capsys, "qdim", "--config", str(cfg)) == (0, "v + v^-1\n", "")


def _qdim_with_entry(tmp_path, entry):
    """`vtknot qdim` on the sl2 module whose E entry (line 4) is `entry`."""
    (tmp_path / "m.mod").write_text(
        "dim = 2\nweight.1 = 1/2\nweight.2 = -1/2\nE.1.1.2 = %s\nF.1.2.1 = 1\n" % entry
    )
    cfg = tmp_path / "m.cfg"
    cfg.write_text((CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:m.mod"))
    proc = subprocess.run(
        [sys.executable, "-m", "vtknot.cli", "qdim", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: %s:4: " % (tmp_path / "m.mod"))
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    return proc


@pytest.mark.parametrize("entry", ["1/0", "v^(1/0)", "(v - v)^-1", "1/(v-v)"])
def test_module_entry_dividing_by_zero_exits_2(tmp_path, entry):
    _qdim_with_entry(tmp_path, entry)


@pytest.mark.parametrize("entry", ["²", "٣", "1" * 5000], ids=["superscript", "arabic-indic", "long"])
def test_module_entry_outside_the_scalar_grammar_exits_2(tmp_path, entry):
    # digits are ASCII only, and a number int() cannot convert is a ParseError
    proc = _qdim_with_entry(tmp_path, entry)
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "entry", ["(" * 3000 + "1" + ")" * 3000, "-" * 4000 + "1"], ids=["parens", "minus-signs"]
)
def test_deeply_nested_module_entry_exits_2(tmp_path, entry):
    proc = _qdim_with_entry(tmp_path, entry)
    assert proc.stderr.count("\n") == 1
    assert "nested too deeply" in proc.stderr


# Weights and --spec values share the `[-]p[/q]` grammar of ratfield.parse_rational;
# anything else, exponent notation above all (whose cost Fraction() lets grow
# with the exponent), is refused by name.
_NOT_RATIONALS = {
    "exponent": "1e5", "decimal": "0.5", "nan": "nan", "zero-den": "1/0",
    "huge-exponent": "1e400000000", "plus-sign": "+1", "superscript": "²",
    "too-many-digits": "1" * 5000,
}


@pytest.mark.parametrize("text", list(_NOT_RATIONALS.values()), ids=list(_NOT_RATIONALS))
def test_weight_outside_the_rational_grammar_exits_2(capsys, tmp_path, text):
    mod = tmp_path / "m.mod"
    mod.write_text("dim = 2\nweight.1 = %s\nweight.2 = -1/2\nE.1.1.2 = 1\nF.1.2.1 = 1\n" % text)
    cfg = tmp_path / "m.cfg"
    cfg.write_text((CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:m.mod"))
    rc, out, err = run(capsys, "qdim", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("error: %s:2: bad rational in weight: " % mod)
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", list(_NOT_RATIONALS.values()), ids=list(_NOT_RATIONALS))
def test_spec_outside_the_rational_grammar_exits_2(capsys, monkeypatch, text):
    # refused before the closure is evaluated
    monkeypatch.setattr(cli.tg, "invariant", None)
    rc, out, err = run(
        capsys, "invariant", "--config", SL2, "--tangle", "unknot", "--spec", "t=" + text
    )
    assert (rc, out) == (2, "")
    assert err.startswith("error: bad rational in --spec %r: " % ("t=" + text))
    assert err.count("\n") == 1


def test_spec_reads_the_rational_grammar(capsys):
    rc, half, _ = run(capsys, "invariant", "--config", SL2, "--tangle", "trefoil",
                      "--spec", "t=-2/4")
    assert rc == 0
    rc, same, _ = run(capsys, "invariant", "--config", SL2, "--tangle", "trefoil",
                      "--spec", "t = -1/2 ")
    assert rc == 0 and half == same


def test_running_out_of_memory_exits_2_with_a_named_error():
    # the 24-strand unlink lists the weights of 2^24 basis vectors and starts
    # from about half as many dominant columns, past 512 MiB
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
             "from vtknot import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "invariant", "--config", SL2,
         "--tangle", " * ".join(["up"] * 24)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory\n"
    assert proc.stdout == ""


# A CLI fuzz: argument lists, config and module files and tangle words, each
# a seeded mutation of a valid input, run in two child processes under an
# address-space limit with a time limit per input.  Whatever the input, the
# exit code is one the module docstring documents and stderr has no traceback.
_FUZZ_CHILD = r"""
import contextlib, io, json, resource, signal, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
from vtknot import cli


class Slow(BaseException):
    pass


def slow(signum, frame):
    raise Slow()


signal.signal(signal.SIGALRM, slow)
results = []
for argv in json.load(open(sys.argv[1])):
    out, err = io.StringIO(), io.StringIO()
    try:
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
    except Slow:
        code = "over 2 s"
    except BaseException:
        code = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""

_SL2_FILE_MODULE = "dim = 2\nweight.1 = 1/2\nweight.2 = -1/2\nE.1.1.2 = 1\nF.1.2.1 = 1\n"
_TANGLE_TOKENS = [*tg.BOUNDARY, ";", "*", "trefoil", "x", "(", "xp;", ""]
_FILE_ARGVS = [["qdim"], ["rmatrix"], ["invariant", "--tangle", "trefoil"],
               ["verify", "--suite", "forms", "--depth", "2"], ["theta", "--depth", "2"]]


def _mutate_tokens(rng, tokens, alphabet):
    """One to three edits: insert, delete, replace or swap a token."""
    tokens = list(tokens)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4) if tokens else 0
        k = rng.randrange(len(tokens) + (op == 0))
        if op == 0:
            tokens.insert(k, rng.choice(alphabet))
        elif op == 1:
            del tokens[k]
        elif op == 2:
            tokens[k] = rng.choice(alphabet)
        else:
            j = rng.randrange(len(tokens))
            tokens[j], tokens[k] = tokens[k], tokens[j]
    return tokens


def _mutate_lines(rng, text):
    """One to three edits of a key = value file: swap two lines' values,
    delete or duplicate a line, write a bad index or number, truncate a line."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op, k = rng.randrange(5), rng.randrange(len(lines))
        if op == 0:
            key, eq, val = lines[k].partition("=")
            j = rng.randrange(len(lines))
            key2, eq2, val2 = lines[j].partition("=")
            lines[k], lines[j] = key + eq + val2, key2 + eq2 + val
        elif op == 1 and len(lines) > 1:
            del lines[k]
        elif op == 2:
            lines.insert(k, lines[k])
        elif op == 3:
            # any number but the n of rank1:<n>, whose module is large but valid
            bad = rng.choice(["0", "-1", "4", "99", "1000001", "x"])
            lines[k] = re.sub(r"(?<!rank1:)\b\d+\b", bad, lines[k], count=1)
        else:
            lines[k] = lines[k][:rng.randrange(len(lines[k]) + 1)]
    return "\n".join(lines) + "\n"


def _fuzz_cases(rng, tmp_path):
    cases = []
    tokens = _COMMAND_TOKENS + _FLAG_TOKENS + _VALUE_TOKENS
    for _ in range(800):
        command = rng.choice(list(CHEAP_OPTIONS))
        argv = [command, "--config", SL2, *CHEAP_OPTIONS[command]]
        cases.append(_mutate_tokens(rng, argv, tokens))
    bases = [
        ((CONFIGS / "sl2.cfg").read_text(), None),
        ((CONFIGS / "sl3.cfg").read_text().replace("sl3_natural.mod", "m.mod"),
         (CONFIGS / "sl3_natural.mod").read_text()),
        ((CONFIGS / "sl2.cfg").read_text().replace("rank1:1", "file:m.mod"), _SL2_FILE_MODULE),
    ]
    for k in range(600):
        cfg, mod = rng.choice(bases)
        where = tmp_path / ("files%d" % k)
        where.mkdir()
        mutate = rng.randrange(3) if mod else 0
        (where / "c.cfg").write_text(_mutate_lines(rng, cfg) if mutate != 1 else cfg)
        if mod:
            (where / "m.mod").write_text(_mutate_lines(rng, mod) if mutate != 0 else mod)
        argv = rng.choice(_FILE_ARGVS)
        cases.append([argv[0], "--config", str(where / "c.cfg"), *argv[1:]])
    for k in range(600):
        word = " ".join(_mutate_tokens(rng, rng.choice(list(tg.BUILTINS.values())).split(),
                                       _TANGLE_TOKENS))
        argv = ["invariant", "--config", rng.choice([SL2, SL3])]
        if rng.randrange(2):
            argv += ["--tangle", word]
        else:
            (tmp_path / ("word%d" % k)).write_text(word)
            argv += ["--tangle-file", str(tmp_path / ("word%d" % k))]
        cases.append(argv + ["--spec", "t=1"] * rng.randrange(2))
    return cases


def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path):
    cases = _fuzz_cases(random.Random(27), tmp_path)
    children = []
    for k in range(2):
        batch = tmp_path / ("batch%d.json" % k)
        batch.write_text(json.dumps(cases[k::2]))
        children.append(subprocess.Popen(
            [sys.executable, "-c", _FUZZ_CHILD, str(batch)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ))
    results = [None] * len(cases)
    for k, child in enumerate(children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        results[k::2] = json.loads(out)
    bad = [(argv, code, err) for argv, (code, err) in zip(cases, results)
           if code not in (0, 1, 2) or "Traceback" in err]
    assert not bad, bad[:5]
    # the mutations reach success, tangle errors and configuration errors
    assert {code for code, _ in results} == {0, 1, 2}
