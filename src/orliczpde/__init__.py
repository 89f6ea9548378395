"""Numerical toolkit for fully anisotropic elliptic Dirichlet problems
with Orlicz-type growth: Young-function calculus, measure-average and
conjugate constructions, sharp embedding profiles, rearrangements and
quasinorms, closed-form symmetrized radial solutions, a finite-
difference minimizer, and a catalog of worked example families.
"""

__version__ = "0.1.0"
