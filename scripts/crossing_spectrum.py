#!/usr/bin/env python3
"""Report the least polynomial killed by each normalized crossing.

The degree counts the summands of the tensor square: two for the
two-dimensional module (a Hecke-type quadratic), n + 1 in general for
the rank-one simples.  Monomial roots are searched by brute force, over
half-integer exponents within a bound read from the coefficients.
"""

import argparse
import pathlib
from fractions import Fraction

from vtknot import configio as cio
from vtknot import modules as mo
from vtknot import ratfield as rf
from vtknot import suites as su
from vtknot import tangle as tg

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _exponent_bounds(coeffs):
    """Bounds on |e| and |f| for a root +-v^e t^f of x^d - sum c_k x^k.

    Over the coefficients' one den D the root solves D x^d = sum N_k x^k,
    so the largest v exponent of D x^d, d e plus D's, is k e plus a v
    exponent of some nonzero N_k: |e| <= (|that| + |D's|) / (d - k), the
    least one likewise, and f the same way.
    """
    nums, den = rf._clear_dens(coeffs)
    d = len(coeffs)

    def reach(p, i):
        return max((abs(e[i]) for e, _ in p.fraction_terms()), default=0)

    return [max((Fraction(reach(n, i) + reach(den, i), d - k)
                 for k, n in enumerate(nums) if not n.is_zero()), default=0)
            for i in (0, 1)]


def monomial_roots(coeffs):
    # roots r of x^d - sum c_k x^k among +-v^(a/2) t^(b/2) within the bounds
    roots = []
    va, tb = (int(2 * x) for x in _exponent_bounds(coeffs))
    for sign in (1, -1):
        for a in range(-va, va + 1):
            for b in range(-tb, tb + 1):
                r = rf.mono(sign, Fraction(a, 2), Fraction(b, 2))
                val = r
                for _ in range(len(coeffs) - 1):
                    val = val * r
                rhs = rf.ZERO
                power = rf.ONE
                for c in coeffs:
                    rhs = rhs + c * power
                    power = power * r
                if rf.eq(val, rhs):
                    roots.append(r)
    return roots


def report(label, m):
    crossing = tg.functor_T(tg.parse("xp"), m)
    coeffs = su.annihilator(crossing, m.dim + 2)
    if coeffs is None:
        print("%s: no relation of degree <= %d" % (label, m.dim + 2))
        return
    d = len(coeffs)
    terms = " ".join(
        "- (%s) x^%d" % (rf.render(rf.reduce_poly(c)), k) for k, c in enumerate(coeffs)
    )
    print("%s: degree %d, x^%d %s" % (label, d, d, terms))
    roots = monomial_roots(coeffs)
    if roots:
        print("  monomial roots: %s" % ", ".join(rf.render(r) for r in roots))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-color", type=int, default=3,
                    help="largest rank-one simple to include")
    args = ap.parse_args()
    for n in range(1, args.max_color + 1):
        report("rank1:%d" % n, mo.rank1_simple(n))
    nat = cio.load_config(str(ROOT / "configs" / "sl3.cfg")).module
    report("sl3 natural", nat)


if __name__ == "__main__":
    main()
