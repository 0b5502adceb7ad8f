"""Running one `vtknot` invocation in-process, cold, and checking its output.

Every op calls the CLI entry point `vtknot.cli.main` with a fresh argument
list after every `functools` cache in the package has been emptied, so it
does the work a fresh `vtknot` process would do, without the interpreter
start-up.  The package is imported from `src/` of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import os
import re
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(BENCH_DIR, "configs")
PACKAGE = "vtknot"


class BenchError(RuntimeError):
    """The benchmark itself cannot run or is inconsistent."""


class OpTimeout(BaseException):
    """Raised inside an op that passes its time limit.

    A BaseException, so that no `except Exception` in the program swallows it.
    """


# Machine-speed probe.  A shared host can switch between a fast and a slow
# state for seconds at a time (up to 1.8x on a 2-vCPU Linux VM running
# Python 3.11), which moves every wall time with it.  A short, fixed
# calibration loop of the same kind of work as the package (Fraction
# arithmetic into a dict with tuple keys) is timed before and after each op
# and every SAMPLE_EVERY_S during it.
# An op's wall time is scaled by the mean of CALIBRATION_REF_S / loop time
# over the samples taken within SAMPLE_WINDOW_S of it: seconds at the speed
# where the loop takes CALIBRATION_REF_S.  The loop is benchmark code, so a
# change to the package cannot move it.
CALIBRATION_REF_S = 0.0025
SAMPLE_EVERY_S = 0.1
SAMPLE_WINDOW_S = 0.3
_CAL_TERMS = {(Fraction(i, 3), Fraction(i % 4, 2)): Fraction(i + 1, 5) for i in range(10)}


def calibration_loop():
    """Seconds one fixed product of two 10-term Fraction polynomials takes, twice.

    The garbage collector is off meanwhile, so that the size of the
    package's heap cannot lengthen the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            out = {}
            for (av, at), ac in _CAL_TERMS.items():
                for (bv, bt), bc in _CAL_TERMS.items():
                    key = (av + bv, at + bt)
                    out[key] = out.get(key, 0) + ac * bc
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Timeline of machine-speed samples: (time, CALIBRATION_REF_S / loop time)."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Take one sample; returns the seconds it took."""
        t0 = time.perf_counter()
        self.samples.append((t0, CALIBRATION_REF_S / calibration_loop()))
        return time.perf_counter() - t0

    def scale(self, seconds, start, end):
        """Wall seconds spent in [start, end], at the reference speed."""
        lo, hi = start - SAMPLE_WINDOW_S, end + SAMPLE_WINDOW_S
        return seconds * statistics.fmean(r for t, r in self.samples if lo <= t <= hi)


class _OpClock:
    """SIGALRM handler for one op: enforces the deadline, samples the speed."""

    def __init__(self, limit_s, probe):
        self.deadline = time.perf_counter() + limit_s
        self.probe = probe
        self.probe_s = 0.0

    def on_alarm(self, signum, frame):
        if time.perf_counter() > self.deadline:
            raise OpTimeout()
        if self.probe is not None:
            self.probe_s += self.probe.sample()


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def import_cli():
    """Import `vtknot.cli` (and with it every layer) from the checkout's src/."""
    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        raise BenchError("no %s package under %s" % (PACKAGE, SRC))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module(PACKAGE + ".cli")
    where = os.path.abspath(sys.modules[PACKAGE].__file__)
    if not where.startswith(os.path.join(SRC, PACKAGE) + os.sep):
        raise BenchError("%s was imported from %s, not from %s" % (PACKAGE, where, SRC))
    return cli


def forget_package():
    """Drop the package from sys.modules so that the next import runs it again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def _unwrap_chain(obj):
    seen = set()
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        yield obj
        obj = getattr(obj, "__wrapped__", None)


def package_caches():
    """Every functools cache reachable from the package's modules.

    Looks at module attributes and at the attributes of classes defined in
    the package, and follows `__wrapped__` chains, so that a cache behind a
    decorator (or behind a tracing wrapper) is found too.
    """
    found = {}
    for mod in package_modules():
        for obj in list(vars(mod).values()):
            candidates = [obj]
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                candidates = [getattr(v, "__func__", v) for v in vars(obj).values()]
            for cand in candidates:
                for link in _unwrap_chain(cand):
                    if callable(getattr(link, "cache_clear", None)) and callable(
                        getattr(link, "cache_info", None)
                    ):
                        found[id(link)] = link
    return list(found.values())


def cache_entries():
    return sum(c.cache_info().currsize for c in package_caches())


def make_cold():
    """Empty every package cache and check that each reports currsize 0."""
    caches = package_caches()
    for c in caches:
        c.cache_clear()
    warm = [getattr(c, "__qualname__", repr(c)) for c in caches if c.cache_info().currsize]
    if warm:
        raise BenchError("caches still hold entries after clearing: %s" % ", ".join(warm))
    gc.collect()


def config_path(name):
    return os.path.join(CONFIG_DIR, name + ".cfg")


def argv_for(op):
    """Replace the config name after --config with the benchmark-side file."""
    argv = list(op)
    k = argv.index("--config") + 1
    argv[k] = config_path(argv[k])
    return argv


@dataclass
class OpResult:
    status: str  # "ok", "exit <code>", "timeout" or "error <exception>"
    seconds: float  # wall time of cli.main, less the time spent probing
    start: float
    end: float
    stdout: str


def run_op(cli, op, limit_s, probe=None, sample_every=SAMPLE_EVERY_S):
    """Run one op cold; the wall time covers `cli.main` only.

    With a SpeedProbe, the machine speed is sampled before and after, and
    every `sample_every` seconds during the op unless that is 0.
    """
    make_cold()
    argv = argv_for(op)
    out, err = io.StringIO(), io.StringIO()
    if probe is not None:
        probe.sample()
    clock = _OpClock(limit_s, probe)
    previous = signal.signal(signal.SIGALRM, clock.on_alarm)
    every = sample_every if probe is not None else 0
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, every or limit_s, every)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok" if code == 0 else "exit %s" % code
    except OpTimeout:
        status = "timeout"
    except SystemExit as e:
        status = "exit %s" % e.code
    except Exception as e:  # the op failed; the benchmark counts it and goes on
        status = "error %s: %s" % (type(e).__name__, e)
    finally:
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    if probe is not None:
        probe.sample()
    return OpResult(status, t1 - t0 - clock.probe_s, t0, t1, out.getvalue())


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- oracle

TORUS2_BUILTINS = {"hopf": 2, "trefoil": 3}


def torus2_exponent(op):
    """n when the op is the sl2 invariant of the closed 2-strand braid sigma^n."""
    if op[0] != "invariant" or op[op.index("--config") + 1] != "sl2":
        return None
    word = op[op.index("--tangle") + 1].strip()
    if word in TORUS2_BUILTINS:
        return TORUS2_BUILTINS[word]
    if word == "up * up":
        return 0
    letters = [x.strip() for x in word.split(";")]
    if letters and all(x == "xp" for x in letters):
        return len(letters)
    if letters and all(x == "xm" for x in letters):
        return -len(letters)
    return None


def torus2_oracle(n):
    """(v^2 + 1 + v^-2) v^n + (-v^3)^n as {v-exponent: coefficient}."""
    out = {}
    for e in (2, 0, -2):
        out[e + n] = out.get(e + n, 0) + 1
    out[3 * n] = out.get(3 * n, 0) + (-1) ** (n % 2)
    return {e: c for e, c in out.items() if c}


_TERM = re.compile(r"^(?:(\d+)(?: \* )?)?(v(?:\^(-?\d+))?)?$")


def parse_v_poly(text):
    """Parse `c * v^e` terms joined by ` + ` / ` - ` with integer exponents."""
    text = text.strip()
    if text.startswith("-"):
        text = "- " + text[1:]
    else:
        text = "+ " + text
    parts = re.split(r" ([+-]) ", " " + text)
    out = {}
    for sign, body in zip(parts[1::2], parts[2::2]):
        m = _TERM.match(body)
        if not m or not body:
            raise ValueError("not a Laurent polynomial in v: %r" % body)
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        out[exp] = out.get(exp, 0) + (coeff if sign == "+" else -coeff)
    return {e: c for e, c in out.items() if c}


def check_output(op, res, expect):
    """None when the op's output is right, else why it is wrong."""
    if res.status != "ok":
        return res.status
    n = torus2_exponent(op)
    if n is not None:
        value = res.stdout.strip().rpartition(" | ")[2]
        try:
            got = parse_v_poly(value)
        except ValueError as e:
            return "oracle: %s" % e
        return None if got == torus2_oracle(n) else "oracle mismatch for sigma^%d: %r" % (n, value)
    if op[0] == "verify":
        last = res.stdout.rstrip("\n").rpartition("\n")[2]
        if last != "all %d checks passed" % expect["checks"]:
            return "verify summary %r, want all %d checks passed" % (last, expect["checks"])
    if sha256(res.stdout) != expect["stdout_sha256"]:
        return "stdout differs from the reference output"
    return None
