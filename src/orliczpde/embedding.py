"""Sobolev conjugates, the growth dichotomy, and Marcinkiewicz targets.

Starting from the radial average Phi_circ of an n-dimensional Young
function, this module builds the optimal-embedding machinery:

* the Delta_2 / Nabla_2 verdicts near infinity and the
  convergence/divergence classification of the improper integral

      Int^infty (t / Phi_circ(t))^{1/(n-1)} dt,

  which separates unbounded-solution regimes (divergent) from bounded
  ones (convergent); it reads the one tail t^sigma (log t)^beta of
  Phi_circ, which a closed form states exactly and a table gets fitted,
* the Sobolev conjugate Phi_n = Phi_circ o H^{-1} with

      H(t) = ( Int_0^t (tau/Phi_circ(tau))^{1/(n-1)} dtau )^{(n-1)/n},

  where a Phi_circ that makes the integral at 0 diverge is first
  replaced by its chord on [0, 1] (finite measure lets the paper change
  Phi near 0), leaving large values untouched,
* the Marcinkiewicz generators vartheta_n(t) = Phi_n(t^{1/n'})/t and
  varrho_n(t) = t / Phi_n^{-1}(t)^{n'},
* the optimal-Lorentz target density hat_phi_circ via a nested
  improper quadrature.

All sampled functions are carried as tables in (log t, log value)
coordinates, so exponential and double-exponential growth stay
representable, and every integral over such a grid continues its
integrand past the grid's end as a power law (:func:`_log_integral`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .young import (
    LinearSplicedYoung,
    MonotoneFunction,
    SampledYoungFunction,
    ScalarYoungFunction,
    YoungFunctionError,
)

__all__ = [
    "DichotomyError",
    "fit_power_log",
    "tail_exponents",
    "growth_conditions",
    "classify_integral",
    "EmbeddingProfile",
    "sobolev_conjugate",
    "hat_phi_circ",
]


class DichotomyError(YoungFunctionError):
    """Raised when a construction needs the other dichotomy branch."""


_MARGIN = 0.02  # band around a critical exponent for a fitted tail
_MAX_SPREAD = 0.1  # a fitted tail with a wider residual spread is unread


def _cumulative_trapezoid(y, x):
    """Running trapezoid integral of y over x, starting at 0.  The
    trapezoids are formed and summed in the order of the usual library
    routine, so the tabulated profiles are the same to the bit."""
    trapezoids = np.diff(x) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(trapezoids)))


def _end_slope(log_g, u):
    """Slope of log_g over the first 8 steps of u, away from the grid."""
    return float(log_g[8] - log_g[0]) / abs(float(u[8] - u[0]))


def _log_integral(log_g, u, what):
    """Running integral of exp(log_g) du over the log grid u (either
    direction) from beyond u[0]: the integrand continues past u[0] as
    exp(log_g[0] - lam |u - u[0]|), lam its :func:`_end_slope`, which
    adds exp(log_g[0]) / lam.  lam <= 1e-3 raises
    :class:`DichotomyError` naming ``what``.
    """
    lam = _end_slope(log_g, u)
    if lam <= 1e-3:
        raise DichotomyError(
            f"{what} diverges: the integrand's end slope is {lam:+.3f}")
    g = np.exp(log_g)
    return np.abs(_cumulative_trapezoid(g, u)) + g[0] / lam


def fit_power_log(log_fn, log_lo, log_hi, extra=()):
    """Least-squares fit log f(t) ~ c + sigma*log t + beta*log log t.

    ``log_fn`` maps log t to log f(t); it is sampled at 64 points of
    [log_lo, log_hi].  Each callable in ``extra`` maps log t to one more
    regressor column (log log log t, 1/log t).  Returns
    ``(coefficients, residual_spread)``: the coefficients are
    (c, sigma, beta, *extra) and the spread is the peak-to-peak residual.
    The log-log regressor separates a genuine power from a
    power-with-logarithm, which a pure slope fit cannot do at any finite
    range.
    """
    lt = np.linspace(log_lo, log_hi, 64)
    lv = np.asarray(log_fn(lt), dtype=float)
    cols = [np.ones_like(lt), lt, np.log(lt)]
    X = np.stack(cols + [col(lt) for col in extra], axis=1)
    coef, *_ = np.linalg.lstsq(X, lv, rcond=None)
    return coef, float(np.ptp(lv - X @ coef))


def tail_exponents(a):
    """``(sigma, beta, spread)`` of the tail A(t) ~ t^sigma (log t)^beta.

    A closed form states it exactly (``a.tail``, sigma = inf for
    exponential growth; ``spread`` is None).  Any other function gets
    one :func:`fit_power_log`, with a 1/log t column for the finite-range
    correction of measure averages, over the top four decades of its
    trusted range above log t = 1.5; ``spread`` is the fit's residual
    spread, and a range under 1.5 decades is refused.
    """
    if a.tail is not None:
        return (*a.tail, None)
    log_hi = math.log(a.t_max)
    log_lo = max(log_hi - 4.0 * math.log(10.0), 1.5)
    if log_hi - log_lo < 1.5 * math.log(10.0):
        raise YoungFunctionError(
            f"{a.name}: trusted range too narrow for a tail fit; raise "
            "the level cap")
    coef, spread = fit_power_log(a.log_value, log_lo, log_hi,
                                 extra=(lambda lt: 1.0 / lt,))
    return float(coef[1]), float(coef[2]), spread


def growth_conditions(a):
    """Delta_2 and Nabla_2 near infinity, returned as ``(delta2, nabla2,
    witness)``.

    Along the tail t^sigma (log t)^beta of :func:`tail_exponents`,
    A(2t)/A(t) -> 2^sigma: Delta_2 ``"holds"`` iff sigma < inf, Nabla_2
    iff sigma > 1, and a fitted sigma within the margin 0.02 of 1 reads
    as 1.  Both verdicts are ``"inconclusive"`` when no tail can be read
    (a range under 1.5 decades, or a fit spread above 0.1).  The witness
    is the tail, or the reason it could not be read.
    """
    try:
        sigma, beta, spread = tail_exponents(a)
    except YoungFunctionError as exc:
        return "inconclusive", "inconclusive", {"reason": str(exc)}
    witness = {"sigma": sigma, "beta": beta, "fit_spread": spread}
    if spread is not None and spread > _MAX_SPREAD:
        return "inconclusive", "inconclusive", witness
    margin = 0.0 if spread is None else _MARGIN
    delta2 = "holds" if math.isfinite(sigma) else "fails"
    nabla2 = "holds" if sigma > 1.0 + margin else "fails"
    return delta2, nabla2, witness


def classify_integral(phi_circ, n):
    """Dichotomy of Int^infty (t/Phi_circ(t))^{1/(n-1)} dt, returned as
    ``(verdict, diagnostics)``.

    With the tail t^sigma (log t)^beta of :func:`tail_exponents` the
    integrand behaves like t^e (log t)^{-k}, e = (1-sigma)/(n-1) and
    k = beta/(n-1): ``"divergent"`` when e > -1, ``"convergent"`` when
    e < -1, and at e = -1 divergent iff k <= 1.  A stated tail is exact
    and is read so.  A fitted one reads e = -1 within the margin 0.02
    and there stays divergent up to k = 1.05, as a table extrapolated
    along its end slope, which has no log term, would integrate.
    """
    sigma, beta, spread = tail_exponents(phi_circ)
    exponent = (1.0 - sigma) / (n - 1.0)
    k = beta / (n - 1.0)
    margin, log_margin = (0.0, 0.0) if spread is None else (_MARGIN, 0.05)
    diag = {"sigma": sigma, "beta": beta, "integrand_exponent": exponent,
            "log_exponent": k, "fit_spread": spread, "margin": margin}
    if spread is not None and spread > _MAX_SPREAD:
        raise DichotomyError(f"oscillating tail exponent: {diag}")
    if exponent > -1.0 + margin:
        verdict = "divergent"
    elif exponent < -1.0 - margin:
        verdict = "convergent"
    else:  # the power part decays like 1/t: the log decides
        verdict = "divergent" if k <= 1.0 + log_margin else "convergent"
    return verdict, diag


@dataclass
class ModificationRecord:
    applied: bool
    knot: float
    reason: str


@dataclass
class EmbeddingProfile:
    """Everything downstream estimates consume, precomputed.

    ``phi_circ`` is the (possibly near-zero-modified) scalar radial
    average actually used in the constructions.  Every profile belongs to
    the divergent dichotomy: :func:`sobolev_conjugate` refuses the
    convergent one.
    """

    n: int
    phi_circ: ScalarYoungFunction
    H: SampledYoungFunction
    phi_n: SampledYoungFunction
    vartheta_n: MonotoneFunction
    varrho_n: MonotoneFunction
    modification: ModificationRecord

    @property
    def n_prime(self):
        return self.n / (self.n - 1.0)

    def to_table(self, t):
        t = np.asarray(t, dtype=float)
        log_t = np.log(t)
        return {
            "t": t,
            "H": np.exp(self.H.log_value(log_t)),
            "phi_n": np.exp(np.minimum(self.phi_n.log_value(log_t), 700.0)),
            "vartheta_n": np.exp(np.minimum(
                self.vartheta_n.log_value(log_t), 700.0)),
            "varrho_n": np.exp(self.varrho_n.log_value(log_t)),
        }


_H_T_LO = 1e-8  # lower end of the H table of sobolev_conjugate


def sobolev_conjugate(phi_circ, n, n_points=4096, log_t_hi=math.log(1e10)):
    """Build the full embedding profile for a divergent-dichotomy input.

    H is the :func:`_log_integral` of the kernel t^{1+e} in the log
    variable on ``n_points`` points of [log 1e-8, ``log_t_hi``].  Where
    its end slope 1 + e <= 0.02 (the integral at 0 diverges or nearly
    so), Phi_circ is first replaced on [0, 1] by its chord, which is
    convex since the chord slope is below the right derivative.  Phi_n
    is tabulated through Phi_circ o H^{-1}; the Marcinkiewicz
    generators follow by their defining identities.
    Convergent-dichotomy inputs are refused — the solution is bounded
    there and no conjugate is needed.
    """
    if classify_integral(phi_circ, n)[0] == "convergent":
        raise DichotomyError(
            "tail integral converges: solutions are bounded and the "
            "Sobolev conjugate degenerates; use the L-infinity branch"
        )
    u = np.linspace(math.log(_H_T_LO), log_t_hi, n_points)
    log_phi = phi_circ.log_value(u)
    record = ModificationRecord(False, LinearSplicedYoung.knot, "not needed")
    if _end_slope((u - log_phi) / (n - 1.0) + u, u) <= _MARGIN:
        phi_circ = LinearSplicedYoung(phi_circ)  # kernel t near 0
        record = ModificationRecord(True, phi_circ.knot,
                                    "linear splice on [0, knot]")
        log_phi = phi_circ.log_value(u)
    log_H = (n - 1.0) / n * np.log(_log_integral(
        (u - log_phi) / (n - 1.0) + u, u, "H integral at 0"))
    # H, Phi_n and the target density below are nondecreasing log-log
    # tables with an inverse; the sampled Young machinery serves them,
    # but no convexity is implied or enforced
    H = SampledYoungFunction(u, log_H, name="H")
    # Phi_n(s) = Phi_circ(H^{-1}(s)) on the reachable s-range
    phi_n = SampledYoungFunction(log_H, log_phi, name="phi_n")
    np_prime = n / (n - 1.0)

    def vt_log(log_t):
        log_t = np.asarray(log_t, dtype=float)
        return phi_n.log_value(log_t / np_prime) - log_t

    def vr_log(log_t):
        log_t = np.asarray(log_t, dtype=float)
        # varrho_n(t) = t / Phi_n^{-1}(t)^{n'}
        inv = phi_n.inverse(np.exp(np.minimum(log_t, 700.0)))
        return log_t - np_prime * np.log(np.maximum(inv, 1e-300))

    vartheta = MonotoneFunction(vt_log, "vartheta_n")
    varrho = MonotoneFunction(vr_log, "varrho_n")
    return EmbeddingProfile(
        n=n, phi_circ=phi_circ, H=H, phi_n=phi_n,
        vartheta_n=vartheta, varrho_n=varrho, modification=record)


_HAT_POINTS = 2048  # points of each hat_phi_circ table


def hat_phi_circ(profile):
    """Optimal-target density of an :class:`EmbeddingProfile`: the
    nested improper quadrature

        hat_phi^{-1}(t) = ( Int_{phi^{-1}(t)}^infty
                            I(r)^{-n} phi(r)^{-n/(n-1)} dr )^{1/(1-n)},
        I(r) = Int_0^r phi(tau)^{-1/(n-1)} dtau,

    where phi = Phi_circ' (monotone finite differences for sampled
    input), tabulated on 2048 log-spaced r in [1e-6, 1e8].  Phi_circ and
    n are the profile's own: its dichotomy is divergent and its
    Phi_circ already carries any near-zero modification.  The inner
    head below 1e-6, the outer tail above 1e8 and the head of the final
    integral are each the power law that continues its integrand
    (:func:`_log_integral`); a non-integrable end is an error naming
    it.  Integrating the inverted table gives the Young function
    hat_Phi_circ.
    """
    phi_circ, n = profile.phi_circ, profile.n
    u = np.linspace(math.log(1e-6), math.log(1e8), _HAT_POINTS)
    r = np.exp(u)
    log_small_phi = np.log(np.maximum(phi_circ.derivative(r), 1e-300))
    log_small_phi = np.maximum.accumulate(log_small_phi)
    # inner integral I(r) = Int_0^r, in the log variable
    inner = _log_integral(-log_small_phi / (n - 1.0) + u, u,
                          "inner integral at 0")
    # outer integral Int_r^infty, accumulated from the top of the grid
    log_g_out = -n * np.log(inner) - n / (n - 1.0) * log_small_phi + u
    outer = _log_integral(log_g_out[::-1], u[::-1],
                          "outer integral (growth of phi too slow)")[::-1]
    hat_inv_at = outer ** (1.0 / (1.0 - n))  # hat_phi^{-1}(phi(r_j))
    # table: t_j = phi(r_j) -> hat_phi^{-1}(t_j); invert to hat_phi
    hat_phi = SampledYoungFunction(np.log(np.maximum(hat_inv_at, 1e-300)),
                                   log_small_phi, name="hat_phi_circ_density")
    # integrate the density to the Young function on a fresh grid
    log_s = np.linspace(math.log(hat_inv_at[4]), math.log(hat_inv_at[-4]),
                        _HAT_POINTS)
    vals = _log_integral(np.minimum(hat_phi.log_value(log_s), 700.0) + log_s,
                         log_s, "hat_phi_circ at 0")
    out = SampledYoungFunction(log_s, np.log(vals), name="hat_phi_circ")
    out.repair_convexity()
    return out
