"""Workload catalogue: which `vtknot` invocations each workload may draw.

A workload is a list of strata.  Each stratum names a pool of candidate ops
of about the same cost (mirror images, renumbered strands, lex or revlex
basis order) and how many of them one pass draws, so that every seed gives a
pass of about the same cost while the ops themselves change.  An op is the
argument list of one `vtknot` invocation with the bare name of a
benchmark-side config (`bench/configs/<name>.cfg`) after `--config`.

The pools are fixed data: `record.py` runs every op in them once on the
reference commit and stores the outputs in `catalogue.json`, and `run.py`
draws from that file.  Changing this module therefore means recording again.
"""

from __future__ import annotations

import random

BRAID3 = {1: "xp * up", 2: "up * xp", -1: "xm * up", -2: "up * xm"}


def invariant(config, word):
    return ["invariant", "--config", config, "--tangle", word]


def mirror(word):
    return word.replace("xp", "x_").replace("xm", "xp").replace("x_", "xm")


def torus2(n):
    """The 2-strand braid sigma^n; sigma^0 is the identity on two strands."""
    if n == 0:
        return "up * up"
    return " ; ".join(["xp" if n > 0 else "xm"] * abs(n))


def rows(pattern, repeats):
    return " ; ".join([pattern] * repeats)


T34 = rows("xp * up ; up * xp", 4)
T43 = rows("xp * up * up ; up * xp * up ; up * up * xp", 3)
FIGURE8 = "xp * up ; up * xm ; xp * up ; up * xm"


def braid3(letters):
    return " ; ".join(BRAID3[x] for x in letters)


def braid3_variants(letters):
    """A 3-strand braid, its mirror, and both with the strands renumbered.

    The four close to the mirror knot or to the same knot, and cost about
    the same to evaluate, so a seed may pick any of them.
    """
    flip = [(3 - abs(x)) * (1 if x > 0 else -1) for x in letters]
    return [braid3(w) for w in (letters, [-x for x in letters], flip, [-x for x in flip])]


def random_letters3(rng, count, length):
    """Distinct words over sigma_1^+-1, sigma_2^+-1."""
    out = []
    while len(out) < count:
        word = [rng.choice((1, 2, -1, -2)) for _ in range(length)]
        if word not in out:
            out.append(word)
    return out


def verify(config, suite, depth=4):
    return ["verify", "--config", config, "--suite", suite, "--depth", str(depth)]


def theta(config, depth):
    return ["theta", "--config", config, "--depth", str(depth)]


SL3 = ("sl3", "sl3_revlex")


def _invariants():
    """`vtknot invariant` closures: the tangle functor and scalar products.

    Varies module dimension (sl2, rank1:2, rank1:3, sl3), crossings and
    strands.  The swell ops are where unreduced fractions grow: T(2,11) on
    sl2, T(2,5) on rank1:2 and T(4,3) on sl3 (mostly in the functor's sparse
    Kronecker products).  T(2,12) on sl2, about 8 s on the reference commit
    (2-vCPU Linux VM, Python 3.11), is left out so that a pass fits twice in
    a run.  quasir and linalg do little here.
    """
    rng = random.Random("vtknot-bench-braids3")
    fixed = [
        # expression swell: seconds per op on the reference commit
        ("swell-sl2-T2-11", [invariant("sl2", torus2(n)) for n in (11, -11)]),
        ("swell-rank1_2-T2-5", [invariant("rank1_2", torus2(n)) for n in (5, -5)]),
        ("swell-sl3-T4-3", [invariant("sl3", w) for w in (T43, mirror(T43))]),
        ("rank1_3-hopf", [invariant("rank1_3", w) for w in ("hopf", "xm ; xm")]),
        ("sl3-T3-4", [invariant("sl3", w) for w in (T34, mirror(T34))]),
        ("sl3-figure8", [invariant("sl3", w) for w in ("figure8", mirror(FIGURE8))]),
        ("sl3-trefoil", [invariant("sl3", w) for w in ("trefoil", "xm ; xm ; xm")]),
        ("sl3-hopf", [invariant("sl3", w) for w in ("hopf", "xm ; xm")]),
        ("sl3-unknot", [invariant("sl3", "unknot")]),
        ("rank1_2-trefoil", [invariant("rank1_2", w) for w in ("trefoil", "xm ; xm ; xm")]),
        ("rank1_2-hopf", [invariant("rank1_2", w) for w in ("hopf", "xm ; xm")]),
        ("sl2-T3-4", [invariant("sl2", w) for w in (T34, mirror(T34))]),
        ("sl2-T4-3", [invariant("sl2", w) for w in (T43, mirror(T43))]),
        ("sl2-figure8", [invariant("sl2", w) for w in ("figure8", mirror(FIGURE8))]),
        ("sl2-unknot", [invariant("sl2", "unknot")]),
        ("sl2-T2-0", [invariant("sl2", torus2(0))]),
    ]
    # the sl2 closures of sigma^n are checked against a closed form
    fixed += [("sl2-T2-%d" % n, [invariant("sl2", torus2(n)) for n in (n, -n)]) for n in range(1, 11)]
    fixed += [("sl2-braid3-%d" % k, [invariant("sl2", w) for w in braid3_variants(letters)])
              for k, letters in enumerate(random_letters3(rng, 10, 8))]
    fixed += [("sl3-braid3-%d" % k, [invariant("sl3", w) for w in braid3_variants(letters)])
              for k, letters in enumerate(random_letters3(rng, 4, 6))]
    return [(name, 1, pool) for name, pool in fixed]


def _identities():
    """`vtknot verify` of every suite on sl2, rank1:2 and sl3.

    The suites add RatFuncs with unequal denominators in their own loops,
    and build dense operators (linalg).  The forms, pairing and quasiR
    suites run mostly at depths 8 to 12 on sl2 and rank1:2, where the
    suites' own sums take the largest share of the time; at depth 4 and
    below, free-algebra and linalg work dominate.  quasiR on sl3 runs at
    depth 3: depth 4 takes about 40 s on the reference commit (2-vCPU Linux
    VM, Python 3.11), longer than a run.  tangle does little.
    """
    depths = {
        ("sl2", "forms"): (4, 8, 12), ("sl2", "pairing"): (4, 8, 10), ("sl2", "quasiR"): (4, 8, 12),
        ("rank1_2", "forms"): (4, 8, 10), ("rank1_2", "pairing"): (4, 8, 10),
        ("rank1_2", "quasiR"): (4, 8, 10),
    }
    strata = [("%s-%s-%d" % (config, s, d), 1, [verify(config, s, d)])
              for (config, s), ds in depths.items() for d in ds]
    strata += [("sl3-%s-%d" % (s, d), 1, [verify(c, s, d) for c in SL3])
               for s, d in (("forms", 4), ("pairing", 3), ("pairing", 4), ("quasiR", 3))]
    strata += [("%s-%s" % (config, s), 1, [verify(c, s) for c in (SL3 if config == "sl3" else (config,))])
               for config in ("sl2", "rank1_2", "sl3") for s in ("rmatrix", "ybe", "tangle-relations")]
    return strata


def _quasi_r():
    """`vtknot theta`, `rmatrix` and `qdim`: dual bases and the quasi-R-matrix.

    Greedy basis selection ranks a Gram block per trial prefix (linalg
    Bareiss), then inverts it; sl3 at depth 5 spends most of its time there.
    tangle does no work here.
    """
    strata = [
        ("theta-sl3-d5", 4, [theta(c, 5) for c in SL3]),
        ("theta-sl3-d4", 6, [theta(c, 4) for c in SL3]),
        ("theta-sl3-d3", 4, [theta(c, 3) for c in SL3]),
    ]
    strata += [("theta-sl2-d%d" % d, 3, [theta("sl2", d)]) for d in (14, 16, 18)]
    strata += [("rmatrix-" + c, 3, [["rmatrix", "--config", c]]) for c in ("rank1_2", "rank1_3", "rank1_4")]
    strata.append(("rmatrix-sl3", 3, [["rmatrix", "--config", c] for c in SL3]))
    strata += [("qdim-" + c, 1, [["qdim", "--config", c]]) for c in ("rank1_2", "rank1_3", "rank1_4")]
    strata.append(("qdim-sl3", 3, [["qdim", "--config", c] for c in SL3]))
    return strata


WORKLOADS = {
    "invariants": _invariants(),
    "identities": _identities(),
    "quasi-r": _quasi_r(),
}


def draw(strata, seed):
    """One pass of ops: `count` picks from each pool, then a seeded shuffle.

    Picks are without replacement while the pool allows it.
    """
    rng = random.Random(seed)
    ops = []
    for _, count, pool in strata:
        if count <= len(pool):
            ops.extend(rng.sample(pool, count))
        else:
            ops.extend(rng.choices(pool, k=count))
    rng.shuffle(ops)
    return ops
