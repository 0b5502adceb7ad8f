"""Cartan datum: an index set with a symmetric pairing refined by an Omega matrix.

The three integer forms on basis indices:
    angle(i,j)   = Omega[i][j]
    bracket(i,j) = 2*delta_ij*Omega[i][i] - Omega[i][j]
    dot(i,j)     = angle(i,j) + angle(j,i)
all extend bilinearly to rational coordinate vectors.

Degrees are tuples of nonnegative ints (elements of N[I]).  Weights (Q[I])
live on an integer lattice: a weight is a tuple of int numerators over a
den, one den per module (`modules.WeightModule.den`), so every weight
computation adds, subtracts and compares ints.  Each form takes two int
tuples and `den`, the product of their dens (1 on degrees), and sums int
numerators; it returns an int whenever the value is integral, which it
always is on degrees, and a Fraction only when it is not (this module's
own `_quotient`; `ratfield` divides ints only).  The forms feed
the multiplicative forms brace, f, c that produce the v/t twist monomials
used everywhere downstream.  `twist` (behind brace, f, c) and `v_deg` write
their monomial straight onto the LaurentPoly lattice: one gcd with the den
gives the minimal scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from operator import mul

from .ratfield import ONE, RatFunc, _raw


Degree = tuple
Weight = tuple


@dataclass(frozen=True)
class CartanSpec:
    rank: int
    dot: tuple
    omega: tuple

    # every lru_cache lookup keyed on a spec hashes it, so hash the fields
    # once; == stays the dataclass's field-wise comparison
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.rank, self.dot, self.omega)))

    def __hash__(self) -> int:
        return self._hash


def make_spec(rank: int, dot_rows, omega_rows) -> CartanSpec:
    return CartanSpec(
        rank=rank,
        dot=tuple(tuple(int(x) for x in row) for row in dot_rows),
        omega=tuple(tuple(int(x) for x in row) for row in omega_rows),
    )


def validate(spec: CartanSpec) -> list:
    """Empty list when the datum is admissible; else named condition failures."""
    report = []
    n = spec.rank
    if n < 1:
        return ["rank must be a positive integer"]
    for name, m in (("dot", spec.dot), ("omega", spec.omega)):
        if len(m) != n or any(len(row) != n for row in m):
            return [f"{name} matrix must be {n}x{n}"]
    for i in range(n):
        for j in range(n):
            if spec.dot[i][j] != spec.dot[j][i]:
                report.append(f"dot symmetry: dot[{i + 1}][{j + 1}] != dot[{j + 1}][{i + 1}]")
    for i in range(n):
        if spec.omega[i][i] <= 0:
            report.append(f"(a) omega[{i + 1}][{i + 1}] must be positive")
        for j in range(n):
            if i != j and spec.omega[i][j] > 0:
                report.append(f"(a) omega[{i + 1}][{j + 1}] must be <= 0 off the diagonal")
    for i in range(n):
        if spec.omega[i][i] <= 0:
            continue
        for j in range(n):
            if i == j:
                continue
            s = spec.omega[i][j] + spec.omega[j][i]
            if s % spec.omega[i][i] != 0 or s // spec.omega[i][i] > 0:
                report.append(
                    f"(b) (omega[{i + 1}][{j + 1}]+omega[{j + 1}][{i + 1}])/omega[{i + 1}][{i + 1}]"
                    " must be a nonpositive integer"
                )
    diag_gcd = math.gcd(*(spec.omega[i][i] for i in range(n)))
    if diag_gcd != 1:
        report.append(f"(c) gcd of omega diagonal is {diag_gcd}, must be 1")
    for i in range(n):
        for j in range(n):
            if spec.dot[i][j] != spec.omega[i][j] + spec.omega[j][i]:
                report.append(
                    f"dot consistency: dot[{i + 1}][{j + 1}] != omega[{i + 1}][{j + 1}]"
                    f"+omega[{j + 1}][{i + 1}]"
                )
    return report


def unit(spec: CartanSpec, i: int) -> tuple:
    """Basis vector for index i (0-based), usable as Degree or Weight."""
    return tuple(1 if k == i else 0 for k in range(spec.rank))


def _int_bilinear(matrix, lam, mu) -> int:
    total = 0
    for i, a in enumerate(lam):
        if a:
            row = matrix[i]
            for j, b in enumerate(mu):
                if b:
                    total += a * b * row[j]
    return total


def _mono(v_num: int, t_num: int, den: int) -> RatFunc:
    """v^(v_num/den) t^(t_num/den), written onto the LaurentPoly lattice."""
    if not (v_num or t_num):
        return ONE
    g = math.gcd(den, v_num, t_num)
    return RatFunc(_raw({(v_num // g, t_num // g): 1}, den // g))


def _quotient(num: int, den: int):
    """num / den as an int when it is integral, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def angle(spec: CartanSpec, lam, mu, den: int = 1):
    return _quotient(_int_bilinear(spec.omega, lam, mu), den)


def bracket(spec: CartanSpec, lam, mu, den: int = 1):
    """2 * sum_i lam_i mu_i Omega[i][i] - angle(lam, mu)."""
    diag = sum(a * b * spec.omega[i][i] for i, (a, b) in enumerate(zip(lam, mu)))
    return _quotient(2 * diag - _int_bilinear(spec.omega, lam, mu), den)


def dot(spec: CartanSpec, lam, mu, den: int = 1):
    return _quotient(_int_bilinear(spec.dot, lam, mu), den)


@lru_cache(maxsize=None)
def twist(spec: CartanSpec, lam: tuple, mu: tuple, vsign: int, den: int = 1) -> RatFunc:
    """v^(vsign * lam.mu) t^(<mu,lam> - <lam,mu>), the one twist monomial.

    vsign = 1 is brace(lam, mu), vsign = -1 is f(mu, lam) = brace(mu, lam)^-1
    and vsign = 0 keeps only the t-power.  Cached: the values are immutable.
    Both exponents are int numerators over den.
    """
    t_num = _int_bilinear(spec.omega, mu, lam) - _int_bilinear(spec.omega, lam, mu)
    return _mono(vsign * _int_bilinear(spec.dot, lam, mu), t_num, den)


def brace(spec: CartanSpec, lam, mu, den: int = 1) -> RatFunc:
    """v^(lam.mu) t^(<mu,lam> - <lam,mu>), multiplicative in each slot."""
    return twist(spec, lam, mu, 1, den)


def f(spec: CartanSpec, lam, mu, den: int = 1) -> RatFunc:
    """Inverse of brace: v^(-lam.mu) t^(<lam,mu> - <mu,lam>)."""
    return twist(spec, mu, lam, -1, den)


def c(spec: CartanSpec, i: int, lam, den: int = 1) -> RatFunc:
    """c_{i,lam} = t^(<lam,i> - <i,lam>) for a generator index i (0-based)."""
    return twist(spec, unit(spec, i), lam, 0, den)


def d_i(spec: CartanSpec, i: int) -> int:
    """Exponent d with v_i = v^d, t_i = t^d; equals omega[i][i] = (i.i)/2."""
    return spec.omega[i][i]


def v_deg(spec: CartanSpec, nu, den: int = 1) -> RatFunc:
    """v_nu = prod v_i^(nu_i) for the weight nu over den."""
    return _mono(sum(x * spec.omega[i][i] for i, x in enumerate(nu)), 0, den)


def tr(nu) -> int:
    return sum(nu)


def deg_sub(a: Degree, b: Degree):
    """Componentwise difference, or None when it leaves N[I]."""
    out = tuple(x - y for x, y in zip(a, b))
    return out if all(x >= 0 for x in out) else None


def weight_add(a, b) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def weight_sub(a, b) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def weight_neg(a) -> Weight:
    return tuple(-x for x in a)


def degrees_of_tr(rank: int, n: int):
    """All of N[I] with coordinate sum n, in lexicographic order."""
    if rank == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in degrees_of_tr(rank - 1, n - head):
            yield (head,) + rest


def degrees_tr_upto(rank: int, bound: int):
    for n in range(bound + 1):
        yield from degrees_of_tr(rank, n)


@lru_cache(maxsize=None)
def is_root(spec: CartanSpec, mu: Degree) -> bool:
    """Whether mu in N[I] is a positive root, by Kac's reflection test (Kac,
    *Infinite-dimensional Lie algebras*, 5.1-5.4).

    While some <mu, a_i^v> = (a_i.mu)/d_i is positive, mu is reflected to
    s_i(mu) = mu - <mu, a_i^v> a_i, a positive root of lower height whenever
    mu is a positive root other than a_i.  A real root so ends at a simple
    root, an imaginary one in the fundamental chamber with connected
    support; a negative coordinate on the way means mu is neither.
    """
    mu = list(mu)
    while sum(mu) > 1:
        for i, row in enumerate(spec.dot):
            c = sum(map(mul, row, mu)) // spec.omega[i][i]
            if c > 0:
                break
        else:
            support = {j for j, x in enumerate(mu) if x}
            reached, stack = set(), [min(support)]
            while stack:
                j = stack.pop()
                reached.add(j)
                stack.extend(k for k in support - reached if spec.dot[j][k])
            return reached == support
        mu[i] -= c
        if mu[i] < 0:
            return False
    return sum(mu) == 1


def degrees_below(mu: Degree):
    """All nu in N[I] with 0 <= nu <= mu componentwise, lexicographic."""
    for combo in iproduct(*(range(x + 1) for x in mu)):
        yield combo
