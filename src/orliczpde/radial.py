"""Closed-form symmetrized radial solutions and a-priori estimates.

The Schwarz-symmetrized Dirichlet problem on the ball of measure
|Omega| has the explicit radially decreasing solution

    v(r) = c^-1 Int_s^{|Omega|} t^{-1/n'} PsiInv(t^{1/n} f**(t) / c) dt,
    |grad v|(r) = PsiInv(s^{1/n} f**(s) / c),

s = om_n r^n and c = n om_n^{1/n}, where PsiInv is the inverse of
Psi_diamond(t) = Phi_diamond(t)/t.  Its centre value

    B = v(0) = c^-1 Int_0^{|Omega|} s^{-1/n'} PsiInv(s^{1/n} f**(s) / c) ds

is the sharp L-infinity bound for the original anisotropic problem,
infinite exactly when the integral diverges.  :func:`solve_radial`
takes v, |grad v| and B from one Gauss-Kronrod quadrature
(:func:`rearrangement.improper_integral`), at its panel ends.

The same module houses the estimate checkers used against solver
output: the Theta-gradient L^1 bound with constant
2 om_n^{-1/n} |Omega|^{1/n} ||f||_1, the superlevel-set bounds for u
and for Phi(grad u) expressed through the Sobolev conjugate, the
truncation energy bound, and their calibration helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anisotropic import unit_ball_volume
from .embedding import EmbeddingProfile
from .rearrangement import TOLERANCE, improper_integral
from .young import write_csv

__all__ = [
    "RadialSolution",
    "solve_radial",
    "gradient_l1_bound",
    "level_set_bound_u",
    "level_set_bound_grad",
    "calibrate_kappa2",
    "calibrate_c1",
    "truncation_energy_check",
]


@dataclass
class RadialSolution:
    """v and |grad v| at the panel ends of the radial quadrature, r = 0
    to R, and the quadrature's ``convergence`` record."""

    r: np.ndarray
    v: np.ndarray
    g: np.ndarray
    convergence: dict

    @property
    def radius(self):
        return float(self.r[-1])

    def to_csv(self, path):
        """The columns r, v and |v'| (:func:`young.write_csv`)."""
        write_csv(path, "r,v,gradient_magnitude",
                  np.column_stack([self.r, self.v, self.g]))


def solve_radial(psi_diamond_inv, f_rf, n):
    """v, |grad v| and B = v(0) at the panel ends of one quadrature,
    r = 0 to R, with v(R) = 0 exactly.  ``convergence`` is a report's
    record: the panels' error estimate (the head has none), their
    number, and whether the estimate is at most
    ``rearrangement.TOLERANCE`` times v(s_1).  ``psi_diamond_inv`` is a
    vectorized callable for PsiInv; ``f_rf`` is the rearrangement of
    the datum on (0, |Omega|].  58 rows for f = 1, 568 for the
    benchmark's 512-step datum; on f = 1 with Phi_diamond = t^2 in the
    unit disk v(0) = 1/4 to 1e-15.
    """
    om = unit_ball_volume(n)
    c = n * om ** (1.0 / n)

    def g_of(s):
        return np.asarray(psi_diamond_inv(f_rf.weighted_maximal(s, n) / c),
                          dtype=float)

    s, integral, err = improper_integral(
        lambda s: s ** (1.0 / n - 1.0) * g_of(s), f_rf.breakpoints)
    v, err = integral / c, float(err) / c
    return RadialSolution((s / om) ** (1.0 / n), v, g_of(s), {
        "error_estimate": err, "panels": s.size - 2,
        "tolerance_met": bool(err <= TOLERANCE * v[1])})


def gradient_l1_bound(theta_values, cell_measures, domain_measure, f_l1, n):
    """Check Int Theta(grad u) <= 2 om_n^{-1/n} |Omega|^{1/n} ||f||_1.

    ``theta_values`` are Theta(grad u) samples with their cell measures
    (grid cells or radial shells).
    """
    measured = float(np.sum(np.asarray(theta_values, dtype=float)
                            * np.asarray(cell_measures, dtype=float)))
    bound = 2.0 * unit_ball_volume(n) ** (-1.0 / n) * (
        domain_measure ** (1.0 / n)) * f_l1
    return {"measured": measured, "bound": bound,
            "passes": bool(measured <= bound * (1.0 + 1e-12))}


def level_set_bound_u(K, profile: EmbeddingProfile, kappa2=1.0):
    """Superlevel bound  |{|u| >= t}| <= K t / Phi_n(k2 t^{1/n'} K^{-1/n}).

    Returns a callable of t.
    """
    np_prime = profile.n_prime

    def bound(t):
        t = np.asarray(t, dtype=float)
        arg = kappa2 * t ** (1.0 / np_prime) * K ** (-1.0 / profile.n)
        log_phi = profile.phi_n.log_value(np.log(np.maximum(arg, 1e-300)))
        out = K * t * np.exp(-np.minimum(log_phi, 700.0))
        return float(out) if out.ndim == 0 else out

    return bound


def calibrate_kappa2(K, profile: EmbeddingProfile, measured, t_ladder):
    """Largest kappa2 for which the measured distribution ``measured``,
    |{|u| >= t}| on the ladder, satisfies the superlevel bound there:

        kappa2 = min_t Phi_n^{-1}(K t / mu(t)) / (t^{1/n'} K^{-1/n}).
    """
    t, mu = np.asarray(t_ladder, dtype=float), np.asarray(measured, float)
    t, mu = t[mu > 0.0], mu[mu > 0.0]
    inv = profile.phi_n.inverse(K * t / mu)
    return float(np.min(inv / (t ** (1.0 / profile.n_prime)
                               * K ** (-1.0 / profile.n)), initial=math.inf))


def level_set_bound_grad(profile: EmbeddingProfile, c1=1.0):
    """Gradient superlevel bound  |{Phi(grad u) > s}| <= c1 Phi_n^{-1}(s)^{n'} / s;
    the proof chain's c1 = 2 (K/c)^{n'} is not computed, and against data
    :func:`calibrate_c1` gives the smallest c1 that holds on a ladder."""
    np_prime = profile.n_prime

    def bound(s):
        s = np.asarray(s, dtype=float)
        out = c1 * profile.phi_n.inverse(s) ** np_prime / s
        return float(out) if out.ndim == 0 else out

    return bound


def calibrate_c1(profile: EmbeddingProfile, measured, s_ladder):
    """Smallest c1 making the gradient superlevel bound hold on the
    ladder, ``measured`` being |{Phi(grad u) > s}| there:
    c1 = max_s mu(s) * s / Phi_n^{-1}(s)^{n'}."""
    s, mu = np.asarray(s_ladder, dtype=float), np.asarray(measured, float)
    s, mu = s[mu > 0.0], mu[mu > 0.0]
    return float(np.max(mu * s / profile.phi_n.inverse(s) ** profile.n_prime,
                        initial=0.0))


def truncation_energy_check(u_values, phi_grad_values, cell_measure, f_l1,
                            t_ladder):
    """Check  Int_{|u| < t} Phi(grad u) <= 2 t ||f||_1  on a t-ladder.

    ``u_values`` are per-cell solution values (cell representative),
    ``phi_grad_values`` the matching Phi(grad u) samples.
    """
    u = np.abs(np.asarray(u_values, dtype=float).ravel())
    e = np.asarray(phi_grad_values, dtype=float).ravel()
    rows = []
    ok = True
    for t in t_ladder:
        measured = float(np.sum(e[u < t]) * cell_measure)
        bound = 2.0 * t * f_l1
        passes = measured <= bound * (1.0 + 1e-12)
        ok = ok and passes
        rows.append({"t": float(t), "measured": measured, "bound": bound,
                     "passes": passes})
    return {"passes": ok, "ladder": rows}
