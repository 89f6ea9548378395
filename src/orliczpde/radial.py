"""Closed-form symmetrized radial solutions and a-priori estimates.

The Schwarz-symmetrized Dirichlet problem on the ball of measure
|Omega| has the explicit radially decreasing solution

    v(r) = Int_r^R  PsiInv( rho * f**(om_n rho^n) / n ) drho,
    |grad v|(r) = PsiInv( r * f**(om_n r^n) / n ),

where PsiInv is the inverse of Psi_diamond(t) = Phi_diamond(t)/t and
om_n R^n = |Omega|.  Its center value v(0) is the sharp L-infinity
bound for the original anisotropic problem whenever it is finite.

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

from .anisotropic import gauss_legendre, unit_ball_volume
from .embedding import EmbeddingProfile
from .rearrangement import RearrangedFunction, improper_integral
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

# Gauss points per panel of the radial grid past the first one, where g
# is smooth on the scale of a panel
_GL_X, _GL_W = gauss_legendre(3)
_N_NODES = 4096  # nodes of the radial grid


@dataclass
class RadialSolution:
    """v and |grad v| on a radial grid over [0, R]."""

    n: int
    domain_measure: float
    r: np.ndarray
    v: np.ndarray
    g: np.ndarray

    @property
    def radius(self):
        return float(self.r[-1])

    def value(self, r):
        return np.interp(np.asarray(r, dtype=float), self.r, self.v)

    def rearranged(self):
        """v* as a step function: v is radially decreasing, so
        v*(om_n r^n) = v(r) exactly."""
        s = unit_ball_volume(self.n) * self.r**self.n
        vals = self.v[:-1].copy()
        return RearrangedFunction(s, np.maximum(vals, 0.0))

    def to_csv(self, path):
        """The columns r, v and |v'| (:func:`young.write_csv`)."""
        write_csv(path, "r,v,gradient_magnitude",
                  np.column_stack([self.r, self.v, self.g]))


def solve_radial(psi_diamond_inv, f_rf, n):
    """Evaluate the closed-form radial solution on a clustered grid.

    ``psi_diamond_inv`` is a vectorized callable for PsiInv; ``f_rf`` is
    the rearrangement of the datum on (0, |Omega|] (f** is taken
    internally).  v is accumulated from the boundary inward by per-panel
    quadrature of the gradient profile g, so v(R) = 0 holds exactly and
    consecutive differences match the quadrature by construction.  Every panel
    [r_i, r_{i+1}] with i >= 1 takes 3-point Gauss-Legendre; the first,
    [0, r_1], where g carries the power singularity of an unbounded
    datum, takes the geometric head of
    :func:`rearrangement.improper_integral`, so v(0) is infinite exactly
    when that integral diverges.  PsiInv is called once on the nodes and
    all Gauss points together and twice more by the head, about 20,000
    points on the grid's 4096 nodes (fixed, ``_N_NODES``).  On f = 1
    with Phi_diamond = t^2 in the unit disk v(0) = 1/4 to 1e-13, and on
    the CSV datum f*(s) = s^-0.6 v(0) matches
    :func:`rearrangement.boundedness_criterion` to 3e-8.
    """
    omega = unit_ball_volume(n)
    R = (f_rf.domain_measure / omega) ** (1.0 / n)

    def g_of(rho):
        rho = np.asarray(rho, dtype=float)
        arg = rho * f_rf.maximal_eval(omega * rho**n) / n
        return np.asarray(psi_diamond_inv(arg), dtype=float)

    # nodes clustered toward the boundary r = R
    r = R * np.sin(np.linspace(0.0, 0.5 * math.pi, _N_NODES))
    a, b = r[1:-1], r[2:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    vals = g_of(np.concatenate([r, pts.ravel()]))
    g = vals[:_N_NODES]
    increments = np.empty(_N_NODES - 1)
    increments[0] = improper_integral(g_of, 0.0, float(r[1]))
    increments[1:] = half * (vals[_N_NODES:].reshape(pts.shape) @ _GL_W)
    v = np.concatenate([np.cumsum(increments[::-1])[::-1], [0.0]])
    return RadialSolution(n=n, domain_measure=f_rf.domain_measure,
                          r=r, v=v, g=g)


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
