"""Shared helpers for the test suite."""

import math

import numpy as np

from orliczpde.anisotropic import RadialPhi, SplitPhi
from orliczpde.young import (
    PowerYoung,
    SampledYoungFunction,
    write_csv,
)


def power_potential(p):
    """Phi(xi) = |xi|^p / p on R^2."""
    return RadialPhi(2, PowerYoung(p, 1.0 / p))


def split_power_potential(p1, p2):
    """Phi(xi) = |xi_1|^p1 / p1 + |xi_2|^p2 / p2."""
    return SplitPhi([PowerYoung(p1, 1.0 / p1), PowerYoung(p2, 1.0 / p2)])


def sampled(a, t_lo, t_hi):
    """A frozen to a :class:`SampledYoungFunction` on [t_lo, t_hi], 256
    points per decade."""
    n = int(max(math.log10(t_hi / t_lo), 1.0) * 256) + 2
    log_t = np.linspace(math.log(t_lo), math.log(t_hi), n)
    return SampledYoungFunction(log_t, a.log_value(log_t), name=a.name)


def write_table(path, a, t_lo, t_hi, n):
    """The CSV table of A at ``n`` geometric points of [t_lo, t_hi], the
    columns that ``a.to_csv(path)`` writes on the trusted range."""
    t = np.geomspace(t_lo, t_hi, n)
    write_csv(path, "t,A(t)", np.column_stack([t, a.value(t)]))


def calculus_identity_errors(a, ts):
    """Max errors for the five calculus identities of a scalar Young
    function A with conjugate conj, Theta(t) = conj^{-1}(A(t)) and
    Psi(t) = A(t)/t:

      (i)   A(Theta^{-1}(t))        == conj(t)
      (ii)  A(Theta^{-1}(Theta(t))) == A(t)
      (iii) A^{-1}(t Psi^{-1}(t))   == Psi^{-1}(t)
      (iv)  Theta(Psi^{-1}(t))      <= 2 t
      (v)   A(Psi^{-1}(t/2)) <= conj(t) <= A(Psi^{-1}(t))

    Returns a dict of relative errors (i-iii) and relative slack
    violations (iv-v), each maximized over ``ts``.
    """
    conj = a.conjugate()

    def th(t):
        return conj.inverse(a.value(t))

    def th_inverse(y):
        return a.inverse(conj.value(y))

    def rel(x, y):
        return abs(x - y) / max(abs(x), abs(y), 1e-12)

    def overshoot(lhs, rhs):
        # positive part of (lhs - rhs) / rhs, i.e. how far lhs exceeds rhs
        return max(lhs - rhs, 0.0) / max(rhs, 1e-12)

    errs = {k: 0.0 for k in ("i", "ii", "iii", "iv", "v_lo", "v_hi")}
    for t in np.asarray(ts, dtype=float):
        t = float(t)
        ct = float(conj.value(t))
        errs["i"] = max(errs["i"], rel(float(a.value(th_inverse(t))), ct))
        at = float(a.value(t))
        errs["ii"] = max(errs["ii"],
                         rel(float(a.value(th_inverse(float(th(t))))), at))
        z = float(a.psi_inverse(t))
        if z > 0.0:
            errs["iii"] = max(errs["iii"],
                              rel(float(a.inverse(t * z)), z))
            errs["iv"] = max(errs["iv"], overshoot(float(th(z)), 2.0 * t))
            errs["v_hi"] = max(errs["v_hi"], overshoot(ct, float(a.value(z))))
        z_half = float(a.psi_inverse(0.5 * t))
        errs["v_lo"] = max(errs["v_lo"],
                           overshoot(float(a.value(z_half)), ct))
    return errs
