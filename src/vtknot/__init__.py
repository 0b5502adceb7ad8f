"""Two-variable quantum knot invariants in exact arithmetic.

Submodules:
    ratfield  exact arithmetic in Q(v,t) with rational exponents
    cartan    Cartan datum, bilinear forms, multiplicative twist scalars
    freealg   free algebra on generators theta_i with twisted structure
    pairing   E/F word algebras and the skew-Hopf pairing
    linalg    sparse matrices, Bareiss rank, inverse and principal pivots
    quasir    dual bases per degree and the quasi-R-matrix components
    modules   finite-dimensional weight modules, R-matrices
    tangle    tangle-word DSL, the evaluation functor, closures, invariants
    suites    the named identity suites behind `vtknot verify`
    configio  config and module file loading
    cli       command-line interface
"""

__version__ = "0.1.0"
