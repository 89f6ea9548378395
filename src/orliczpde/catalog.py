"""Worked-example records and the asymptotic verifier.

Each record encodes a model problem family: the vector potential Phi,
the expected (power, log-power) asymptotics of its radial average
Phi_circ, the growth regime, and the expected regularity exponents for
the solution and its gradient components.

The case split is governed by the exponents of
Phi_circ(t) ~ t^pbar (log t)^abar near infinity, with pbar the
harmonic mean of the component powers and
abar = (pbar/n) * sum(alpha_i / p_i):

* pbar < n                     -> subcritical: u in weak-L^{vartheta},
  vartheta ~ t^{n(pbar-1)/(n-pbar)} (log t)^{n abar/(n-pbar)};
* pbar = n, abar < n-1         -> exponential: u in exp L^{gamma},
  gamma = (n-1)/(n-1-abar);
* pbar = n, abar = n-1         -> double exponential: u in exp exp L;
* pbar > n, or pbar = n with abar > n-1 -> bounded (tail integral
  converges; weak solutions exist for every integrable datum).

Each family declares every scalar term A_i of Phi once, as a
component (label, p_i, alpha_i, A_i) under one range rule: p_i > 1, or
p_i = 1 with alpha_i > 0.  The record's Phi is assembled from those same
A_i, and pbar, abar come from their (p_i, alpha_i).

Gradient components are measured through the chain
rho_i(t) = varrho_n(A_i(t)), which reproduces the published
per-component exponents in every regime (one published anisotropic
double-exponential formula disagrees with its own isotropic
specialization; the chain rule above is used as the consistent
reading).

Verification is two-staged: (1) fit (power, log) exponents of the
numerically cubed Phi_circ and compare with the expected pair; (2)
build an analytic power-log model from the *fitted* exponents (snapped
to the critical values when within fitting tolerance), push it through
the Sobolev-conjugate machinery over an extreme log-range, and fit the
solution/gradient exponents by regression in iterated-log coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anisotropic import (
    AnisotropicYoungFunction,
    LinearCombinationPhi,
    RadialPhi,
    SplitPhi,
    phi_circ,
)
from .embedding import (
    classify_integral,
    fit_power_log,
    sobolev_conjugate,
    tail_exponents,
)
from .young import (
    ExpPowerYoung,
    PowerLogYoung,
    PowerYoung,
    YoungFunctionError,
)

__all__ = [
    "ExampleRecord",
    "make_record",
    "expected_regularity",
    "verify_asymptotics",
    "EXAMPLE_IDS",
]

# each family's parameters, all required: CLI flags of the same names
_PARAMETERS = {"plap": ("p", "n"), "iso_zyg": ("p", "alpha", "n"),
               "aniso_plap": ("p",), "aniso_zyg": ("p", "alpha"),
               "aniso_trud": ("p", "q", "alpha"), "aniso_new": ("p", "beta")}
EXAMPLE_IDS = tuple(_PARAMETERS)
_PLANAR = ("aniso_trud", "aniso_new")  # families defined on R^2 alone

_LOG_SHIFT = math.exp(2.0)  # constant inside log(c + t); raised if needed


@dataclass
class ExampleRecord:
    id: str
    n: int
    params: dict
    # component list: (label, power p_i, log power alpha_i, scalar A_i)
    components: list
    phi: AnisotropicYoungFunction  # assembled from the components' A_i
    pbar: float
    abar: float


def _component(label, p, alpha=None):
    """``(label, p, alpha, A)``: A(t) = t^p, or t^p log^alpha(e^2 + t)
    when ``alpha`` is given; p and alpha must meet the one range rule
    p > 1, or p = 1 with alpha > 0."""
    alpha_f = alpha or 0.0
    if not (p > 1 or (p == 1 and alpha_f > 0)):
        raise YoungFunctionError(
            f"component {label} (p={p:g}, alpha={alpha_f:g}) out of range: "
            "needs p > 1, or p = 1 with alpha > 0")
    a = PowerYoung(p) if alpha is None else PowerLogYoung(
        p, alpha, shift=_LOG_SHIFT)
    return label, p, alpha_f, a


def make_record(example_id, **params):
    """Build and validate an example record.

    Parameters by id: plap(p, n); iso_zyg(p, alpha, n);
    aniso_plap(p=(p1,..,pn), n); aniso_zyg(p=(..), alpha=(..), n);
    aniso_trud(p, q, alpha); aniso_new(p, beta); numbers or their
    strings.  Each is required, except the n of aniso_plap and
    aniso_zyg, which must then equal the number of p_i; the planar
    aniso_trud and aniso_new take n = 2 alone.  A missing one, or an n
    that is not an integer, raises :class:`YoungFunctionError` naming it
    and its flag, as does an n other than 2 for a planar family.  Every
    term A_i of ``record.phi`` is a component
    ``(label, p_i, alpha_i, A_i)`` built once, under the one range rule
    p_i > 1, or p_i = 1 with alpha_i > 0.  aniso_trud also needs
    alpha > 0 and aniso_new beta > 1.
    """
    if example_id not in EXAMPLE_IDS:
        raise YoungFunctionError(
            f"unknown example id {example_id!r}; known: {EXAMPLE_IDS}")
    for key in _PARAMETERS[example_id]:
        if params.get(key) is None:
            raise YoungFunctionError(f"{example_id} needs {key} (--{key})")
    dim = params.get("n")
    try:
        integral = dim is None or float(dim).is_integer()
    except (TypeError, ValueError):
        integral = False
    if not integral:
        raise YoungFunctionError(
            f"{example_id} needs an integer n (--n), not {dim!r}")
    dim = None if dim is None else int(float(dim))
    if example_id in _PLANAR and dim not in (None, 2):
        raise YoungFunctionError(
            f"{example_id} is planar: it takes n = 2 (--n), not n = {dim}")
    # the family's own parameters; the dimension n is not one of them
    keys = [key for key in _PARAMETERS[example_id] if key != "n"]
    if example_id == "aniso_new":
        kept = {key: float(params[key]) for key in keys}
        if kept["beta"] <= 1:
            raise YoungFunctionError("aniso_new requires beta > 1")
        phi = LinearCombinationPhi(2, [
            ([1.0, 3.0], _component("u_x1+3u_x2", kept["p"])[3]),
            ([2.0, -1.0], ExpPowerYoung(kept["beta"]))])
        # the measure-average mixes a power with an exponential term:
        # inverse-product rule gives t^{2p} (log t)^{-p/beta}
        return ExampleRecord(example_id, 2, kept, [], phi, 2.0 * kept["p"],
                             -kept["p"] / kept["beta"])
    if example_id in ("plap", "iso_zyg"):
        n, kept = dim, {key: float(params[key]) for key in keys}
        comps = [_component("|grad u|", kept["p"], kept.get("alpha"))]
        phi = RadialPhi(n, comps[0][3])
    elif example_id == "aniso_trud":
        n, kept = 2, {key: float(params[key]) for key in keys}
        if kept["alpha"] <= 0:
            raise YoungFunctionError("aniso_trud requires alpha > 0")
        comps = [_component("u_x1", kept["q"], kept["alpha"]),
                 _component("u_x1-u_x2", kept["p"])]
        phi = LinearCombinationPhi(2, [([1.0, -1.0], comps[1][3]),
                                       ([1.0, 0.0], comps[0][3])])
    else:  # aniso_plap, aniso_zyg: one component per axis
        kept = {key: tuple(float(x) for x in np.atleast_1d(params[key]))
                for key in keys}
        n = len(kept["p"])
        alphas = kept.get("alpha", (None,) * n)
        if dim not in (None, n) or len(alphas) != n:
            raise YoungFunctionError(
                f"{example_id} needs one p_i (and alpha_i) per axis")
        comps = [_component(f"u_x{i + 1}", pi, ai)
                 for i, (pi, ai) in enumerate(zip(kept["p"], alphas))]
        phi = SplitPhi([a for *_, a in comps])
    # pbar = n / sum(1/p_i), abar = (pbar/n) sum(alpha_i/p_i); a radial
    # form counts its one component n times
    reps = n if phi.form == "radial" else 1
    pbar = 1.0 / (sum([1.0 / pi for _, pi, _, _ in comps] * reps) / n)
    abar = (pbar / n) * sum([ai / pi for _, pi, ai, _ in comps] * reps)
    return ExampleRecord(example_id, n, kept, comps, phi, pbar, abar)


def _regime(pbar, abar, n):
    tol = 1e-9
    if pbar < n - tol:
        return "subcritical"
    if pbar > n + tol:
        return "bounded"
    if abar < n - 1 - tol:
        return "exp"
    if abs(abar - (n - 1)) <= tol:
        return "double_exp"
    return "bounded"


def expected_regularity(record):
    """Closed-form expected exponents for u and the gradient components."""
    n, pbar, abar = record.n, record.pbar, record.abar
    regime = _regime(pbar, abar, n)
    out = {
        "id": record.id,
        "regime": regime,
        "dichotomy": "convergent" if regime == "bounded" else "divergent",
        "phi_circ": {"power": pbar, "log": abar},
        "u": None,
        "gradients": [],
    }
    if regime == "bounded":
        out["u"] = {"space": "L^infinity",
                    "note": "weak solution for every integrable datum"}
        return out
    if regime == "subcritical":
        out["u"] = {
            "vartheta_power": n * (pbar - 1.0) / (n - pbar),
            "vartheta_log": n * abar / (n - pbar),
        }
        for label, pi, ai, _ in record.components:
            out["gradients"].append({
                "label": label,
                "power": pi * n * (pbar - 1.0) / ((n - 1.0) * pbar),
                "log": n * (ai * (pbar - 1.0) + abar) / ((n - 1.0) * pbar),
            })
    elif regime == "exp":
        out["u"] = {"exp_index": (n - 1.0) / (n - 1.0 - abar)}
        for label, pi, ai, _ in record.components:
            out["gradients"].append({
                "label": label,
                "power": pi,
                "log": (ai * (n - 1.0) + abar) / (n - 1.0) - 1.0,
            })
    else:  # double_exp
        out["u"] = {"double_exp_power": n / (n - 1.0)}
        for label, pi, ai, _ in record.components:
            out["gradients"].append({
                "label": label, "power": pi, "log": ai, "loglog": -1.0,
            })
    return out


_N_LEVELS = 128  # levels of the Phi_circ table
_POWER_RTOL = 0.02  # relative tolerance on every fitted power
_LOG_ATOL = 0.15  # absolute tolerance on the fitted log exponents

# per divergent regime: sobolev_conjugate's log_t_hi and n_points, the
# window [t_lo, t_hi] of the gradient fits, their extra regressor
# columns and the tolerance on their log exponent; the double_exp fit
# also regresses on log log log t and checks its coefficient
_REGIMES = {
    "subcritical": (500.0, 8192, 1e30, 1e80, (), _LOG_ATOL),
    "exp": (2000.0, 8192, 1e10, 1e40, (), _LOG_ATOL),
    "double_exp": (2e4, 16384, 1e4, 1e60,
                   (lambda lt: np.log(np.log(lt)),), 0.3),
}


def verify_asymptotics(record):
    """Compare computed embedding asymptotics against the expected ones.

    Returns a report dict with per-quantity computed/expected values and
    pass flags; ``report["passes"]`` aggregates them.  Powers must match
    to 2% relative, log exponents to 0.15 absolute (0.3 for the
    double-exponential gradients).
    """
    exp_reg = expected_regularity(record)
    n = record.n
    checks = []

    def check(name, computed, expected, tol, relative):
        err = (abs(computed - expected) / max(abs(expected), 1e-12)
               if relative else abs(computed - expected))
        ok = err <= tol
        checks.append({"name": name, "computed": computed,
                       "expected": expected, "error": err, "passes": ok})

    # stage 1: radial average from sublevel measures; the argument range
    # of the table ends at the inverse of the level cap, so the cap is
    # generous to leave room for a tail fit
    circ = phi_circ(record.phi, t_lo=1.0, t_hi=1e24, n_levels=_N_LEVELS)
    sigma_hat, beta_hat, _ = tail_exponents(circ)
    check("phi_circ power", sigma_hat, exp_reg["phi_circ"]["power"],
          _POWER_RTOL, True)
    check("phi_circ log", beta_hat, exp_reg["phi_circ"]["log"],
          _LOG_ATOL, False)
    # stage 2: analytic model from the *fitted* exponents, snapped to the
    # critical values when inside fitting tolerance
    sigma_m = (float(n) if abs(sigma_hat - n) <= _POWER_RTOL * n
               else sigma_hat)
    beta_m = (float(n - 1) if abs(beta_hat - (n - 1)) <= _LOG_ATOL
              else beta_hat)
    regime = _regime(sigma_m, beta_m, n)
    report = {"id": record.id, "params": record.params,
              "expected": exp_reg, "regime": regime,
              "fitted_phi_circ": {"power": sigma_hat, "log": beta_hat}}
    check("regime", float(regime == exp_reg["regime"]), 1.0, 0.0, False)
    model = PowerLogYoung(sigma_m, beta_m, shift=_LOG_SHIFT)
    if regime == "bounded":
        verdict, _ = classify_integral(model, n)
        check("dichotomy convergent", float(verdict == "convergent"), 1.0,
              0.0, False)
        report["checks"] = checks
        report["passes"] = all(c["passes"] for c in checks)
        return report
    np_prime = n / (n - 1.0)
    log_t_hi, n_points, g_lo, g_hi, extra, log_tol = _REGIMES[regime]
    prof = sobolev_conjugate(model, n, log_t_hi=log_t_hi, n_points=n_points)
    if regime == "subcritical":
        # fit inside the native range of the conjugate table: the
        # argument of vartheta maps to s = t^{1/n'} <= H(t_hi)
        log_s_top = float(prof.H.log_value(log_t_hi - 1.0))
        lo, hi = 0.35 * np_prime * log_s_top, 0.85 * np_prime * log_s_top
        c, _ = fit_power_log(prof.vartheta_n.log_value, lo, hi)
        check("vartheta power", float(c[1]), exp_reg["u"]["vartheta_power"],
              _POWER_RTOL, True)
        check("vartheta log", float(c[2]), exp_reg["u"]["vartheta_log"],
              _LOG_ATOL, False)
    elif regime == "exp":
        # growth index from the doubly-logarithmic slope of vartheta
        log_t_top = np_prime * float(prof.H.log_value(0.999 * log_t_hi))
        lt = np.linspace(0.5 * log_t_top, 0.95 * log_t_top, 60)
        lv = np.log(np.maximum(prof.vartheta_n.log_value(lt), 1e-300))
        gamma = float(np.polyfit(lt, lv, 1)[0])
        check("exp index", gamma, exp_reg["u"]["exp_index"], 0.10, True)
    else:  # double_exp
        # stability of loglog Phi_n(t) / t^{n'} over the top window
        s_top = math.exp(prof.H.log_value(0.999 * log_t_hi))
        s = np.geomspace(s_top / 2.0, s_top * 0.95, 30)
        ratio = np.log(prof.phi_n.log_value(np.log(s))) / s**np_prime
        dev = float(np.max(np.abs(ratio - ratio.mean())) / ratio.mean())
        check("double-exp ratio stability", dev, 0.0, 0.2, False)
    for (label, _, _, a_i), expd in zip(record.components,
                                        exp_reg["gradients"]):
        c, _ = fit_power_log(lambda lt: prof.varrho_n.log_value(
            a_i.log_value(lt)), math.log(g_lo), math.log(g_hi), extra=extra)
        check(f"varrho[{label}] power", float(c[1]), expd["power"],
              _POWER_RTOL, True)
        check(f"varrho[{label}] log", float(c[2]), expd["log"], log_tol,
              False)
        if extra:
            check(f"varrho[{label}] loglog", float(c[3]),
                  expd.get("loglog", 0.0), 0.6, False)
    report["checks"] = checks
    report["passes"] = all(c["passes"] for c in checks)
    return report
