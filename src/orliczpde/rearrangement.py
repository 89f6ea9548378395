"""Decreasing rearrangements and the norms/criteria built on them.

The decreasing rearrangement u* of a measurable u on a set of measure
|Omega| is the nonincreasing, right-continuous function on (0, |Omega|)
equimeasurable with |u|; u** is its running average (the maximal
rearrangement).  For the piecewise-constant fields this package
produces, u* is computed exactly: sort values, accumulate cell
measures.

On top of the step representation:

* the Marcinkiewicz quasinorm  inf{lam : sup_s u*(s)/rho^{-1}(lam/s) <= 1},
* the data-admissibility modular  Int conj(Phi_circ)(s^{1/n} f**(s)/lam) ds,
* the sharp boundedness criterion
  B = (n om_n^{1/n})^{-1} Int_0^{|Omega|} s^{-1/n'}
        PsiInv(s^{1/n} f**(s) / (n om_n^{1/n})) ds,
  which equals the center value of the symmetrized radial solution.

Improper integrals are declared infinite when the per-decade sums of
the head stop shrinking toward 0.
"""

from __future__ import annotations

import math

import numpy as np

from .anisotropic import gauss_legendre, unit_ball_volume
from .young import InverseRangeError, YoungFunctionError

__all__ = [
    "RearrangedFunction",
    "marcinkiewicz_quasinorm",
    "data_admissibility",
    "boundedness_criterion",
]

_GL_NODES, _GL_WEIGHTS = gauss_legendre(24)
_HEAD_DECADES = 12  # decades of geometric subdivision below an improper 0


class RearrangedFunction:
    """Nonincreasing right-continuous step function on (0, |Omega|).

    ``breakpoints`` are 0 = s_0 < s_1 < ... < s_m = |Omega| and
    ``values`` v_1 >= ... >= v_m >= 0, with v_j taken on [s_{j-1}, s_j).
    Below s_1, u** continues as f**(s_1) (s/s_1)^-``head_exponent``:
    constant for a step function, the profile's own power head for a
    realization of an unbounded profile (:meth:`from_callable`).
    """

    head_exponent = 0.0

    def __init__(self, breakpoints, values):
        s = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if s[0] != 0.0 or not np.all(np.diff(s) > 0):
            raise YoungFunctionError("breakpoints must increase from 0")
        if len(v) != len(s) - 1:
            raise YoungFunctionError("need one value per interval")
        if not np.all((v >= 0.0) & (v < np.inf)):
            raise YoungFunctionError("values must be finite and nonnegative")
        if not np.all(np.diff(v) <= 1e-12 * max(float(v[0]), 1.0)):
            raise YoungFunctionError("values must be nonincreasing")
        self.breakpoints = s
        self.values = np.minimum.accumulate(v)
        self.domain_measure = float(s[-1])
        # cumulative integral at the breakpoints, for exact u**
        self._cum = np.concatenate(
            [[0.0], np.cumsum(self.values * np.diff(s))])

    @classmethod
    def from_samples(cls, values, cell_measure):
        """Exact rearrangement of samples on cells of one measure > 0."""
        v = np.sort(np.abs(np.asarray(values, dtype=float).ravel()))[::-1]
        s = np.concatenate([[0.0], np.cumsum(np.full(v.size, cell_measure))])
        return cls(s, v)

    @classmethod
    def from_callable(cls, fn, domain_measure):
        """Step realization of a nonincreasing profile s -> fn(s).

        2^14 breakpoints are log-spaced down to 1e-14 |Omega|;
        each step takes the value at its left endpoint (an upper,
        equimeasurable-in-the-limit realization).  ``fn`` is vectorized:
        it is called once on all left endpoints.  A profile that is not
        integrable at 0 is not an L^1 datum and raises
        :class:`YoungFunctionError`.

        The first step carries the exact head mass Int_0^{s_1} fn, and
        below s_1 the realization's f** continues as the power law
        s^-a with a = 1 - fn(s_1) / f**(s_1), the exponent for which
        f** / f* = 1 / (1 - a) holds at s_1.  So f** is exact below s_1
        for a power profile c s^-a, and the sharp bound and the radial
        centre of such a datum see the profile rather than its
        truncation, down to s = 0.
        """
        s = np.concatenate([
            [0.0],
            np.geomspace(1e-14 * domain_measure, domain_measure, 2**14),
        ])
        left = np.concatenate([[s[1]], s[1:-1]])
        v = np.asarray(fn(left), dtype=float)
        v = np.maximum.accumulate(v[::-1])[::-1]
        # the first step carries the exact head mass Int_0^{s_1} fn, so
        # f** of the realization matches the profile's
        head = improper_integral(fn, 0.0, s[1])
        if not math.isfinite(head):
            raise YoungFunctionError(
                "profile is not integrable at 0, so it is not an L^1 datum")
        f_at_s1, v[0] = v[0], max(head / s[1], v[0])
        rf = cls(s, v)
        if v[0] > 0.0:
            rf.head_exponent = max(1.0 - f_at_s1 / v[0], 0.0)
        return rf

    # -- evaluation ---------------------------------------------------

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, s, side="right") - 1,
                      0, len(self.values) - 1)
        out = self.values[idx]
        out = np.where(s >= self.domain_measure, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def maximal_eval(self, s):
        """Exact u**(s) = (1/s) Int_0^s u*."""
        s = np.asarray(s, dtype=float)
        s_c = np.clip(s, 0.0, self.domain_measure)
        idx = np.clip(np.searchsorted(self.breakpoints, s_c, side="right") - 1,
                      0, len(self.values) - 1)
        integral = self._cum[idx] + self.values[idx] * (
            s_c - self.breakpoints[idx])
        # beyond the domain the integral is flat
        integral = np.where(s > self.domain_measure, self._cum[-1], integral)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.where(s > 0.0, integral / np.maximum(s, 1e-300),
                           self.values[0] if len(self.values) else 0.0)
            if self.head_exponent > 0.0:
                s1 = self.breakpoints[1]
                head = self.values[0] * (s / s1) ** -self.head_exponent
                out = np.where((s > 0.0) & (s < s1), head, out)
        return float(out) if out.ndim == 0 else out

    def integral(self):
        """Int_0^{|Omega|} u* (the L^1 norm of the original field)."""
        return float(self._cum[-1])


def _gauss_sums(fn, edges):
    """24-point Gauss-Legendre of fn between consecutive ``edges`` along
    the last axis, summed in order (Python's sum), from one call of fn on
    all nodes; leading axes of fn's values (stacked integrands) stay."""
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid + half * _GL_NODES
    vals = np.asarray(fn(x.ravel()))
    vals = np.broadcast_to(vals, vals.shape[:-1] + (x.size,))
    blocks = half[..., 0] * np.sum(
        _GL_WEIGHTS * vals.reshape(vals.shape[:-1] + x.shape), axis=-1)
    return np.reshape([sum(row) for row in blocks.reshape(
        -1, blocks.shape[-1]).tolist()], blocks.shape[:-1])


def _close_head(total, decade_sums):
    """``total`` plus the head's decade sums and extrapolation, or inf."""
    if not all(map(math.isfinite, [total, *decade_sums])):
        return math.inf
    total = sum(decade_sums, total)
    # geometric extrapolation of the remaining head below the last decade
    if decade_sums[-1] > 0 and decade_sums[-2] > 0:
        q = decade_sums[-1] / decade_sums[-2]
        if q < 0.999:
            total += decade_sums[-1] * q / (1.0 - q)
        elif decade_sums[-1] > 1e-12 * abs(total):
            return math.inf
    return total


def improper_integral(fn, a, b):
    """Int_a^b fn with an improper endpoint at a = 0, for fn >= 0.

    The head (0, b/100] is resolved by geometric subdivision over 12
    decades, and the rest below them is extrapolated from the ratio q of
    the last two decade sums.  When q >= 0.999 and the last decade is
    not negligible, the integral is declared infinite (math.inf).  fn is
    called once on the body's nodes and, unless every body is infinite,
    once on the head's.  Leading axes of fn's values stack integrands,
    each integrated with the arithmetic of its own call.
    """
    if a > 0.0:
        out = _gauss_sums(fn, np.geomspace(a, b, 64))
        return float(out) if out.ndim == 0 else out
    a_head = b * 1e-2
    body = np.asarray(improper_integral(fn, a_head, b))
    out = np.full(body.shape, math.inf)
    if np.isfinite(body).any():
        his = np.divide.accumulate([a_head] + [10.0] * (_HEAD_DECADES - 1))
        edges = np.geomspace(his / 10.0, his, 8, axis=-1)
        heads = _gauss_sums(fn, edges).reshape(body.size, -1)
        out.flat = [_close_head(total, sums) for total, sums in zip(
            body.ravel().tolist(), heads.tolist())]
    return float(out) if out.ndim == 0 else out


def marcinkiewicz_quasinorm(rf, varrho):
    """Smallest lam with u*(s) <= varrho^{-1}(lam/s) for all s, i.e.

        lam = sup_s  s * varrho(u*(s)).

    On each step u* is constant and s -> s * varrho(v) increases, so the
    supremum sits at right endpoints of the steps.  ``varrho`` is only a
    membership generator through its increasing branch — near-zero
    modifications can leave it decreasing for small arguments — so each
    evaluation is floored by the increasing envelope
    inf_{w >= v} varrho(w), probed over the sampled values and a tail
    grid above the largest one.
    """
    s_pts = rf.breakpoints[1:]
    v_pts = rf.values
    keep = v_pts > 0
    s_pts, v_pts = s_pts[keep], v_pts[keep]
    if len(s_pts) == 0:
        return 0.0
    v_top = float(v_pts[0])
    v_min = float(v_pts[-1])
    w = np.unique(np.concatenate(
        [v_pts, np.geomspace(v_min, v_top * 1e6, 512)]))
    lw = np.asarray(varrho.log_value(np.log(w)), dtype=float)
    # suffix minimum realizes inf_{w' >= w} varrho(w') on the grid
    env_grid = np.minimum.accumulate(lw[::-1])[::-1]
    idx = np.searchsorted(w, v_pts)
    log_lam = float(np.max(np.log(s_pts) + env_grid[idx]))
    return math.inf if log_lam > 700.0 else math.exp(log_lam)


def data_admissibility(f_rf, conj_phi_circ, n, dichotomy="divergent"):
    """Modular test for the right-hand-side data class.

    Evaluates M(lam) = Int_0^{|Omega|} conj(Phi_circ)(s^{1/n} f**(s)/lam) ds
    over the ladder of 8 lam from 1e2 down to 1e-2 in one integral,
    reported down to the first infinite modular; admissible when every
    modular is finite.  Under the convergent dichotomy every integrable
    datum is admissible and no modular is computed.
    """
    if dichotomy == "convergent":
        return {"verdict": "admissible", "reason": "convergent dichotomy: "
                "any L1 datum admissible", "ladder": []}
    lams = np.geomspace(1e2, 1e-2, 8)

    def fn(s):
        return conj_phi_circ.value(
            s ** (1.0 / n) * f_rf.maximal_eval(s) / lams[:size, None])

    # lam past the first infinite modular may overflow, or raise: cut there
    for size in range(lams.size, 0, -1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                modulars = improper_integral(fn, 0.0, f_rf.domain_measure)
            break
        except InverseRangeError as exc:
            error = exc
    else:
        raise error
    rows = []
    for lam, m in zip(lams.tolist(), modulars.tolist()):
        rows.append({"lam": lam, "modular": m, "finite": math.isfinite(m)})
        if not math.isfinite(m):
            return {"verdict": f"inadmissible at lam={lam:g}", "ladder": rows}
    if size < lams.size:
        raise error
    return {"verdict": "admissible", "ladder": rows}


def boundedness_criterion(f_rf, psi_diamond_inv, n):
    """The sharp L-infinity bound

        B = (n om_n^{1/n})^{-1} Int_0^{|Omega|} s^{-1/n'}
              PsiInv( s^{1/n} f**(s) / (n om_n^{1/n}) ) ds,

    returning math.inf when the integral diverges, with |Omega| the
    datum's ``domain_measure``.  ``psi_diamond_inv`` is the inverse of
    Psi_diamond, as a callable.
    """
    if f_rf.integral() == 0.0:
        return 0.0
    c = n * unit_ball_volume(n) ** (1.0 / n)
    inv_np = 1.0 - 1.0 / n  # 1/n' = (n-1)/n

    def fn(s):
        s = np.asarray(s, dtype=float)
        arg = s ** (1.0 / n) * f_rf.maximal_eval(s) / c
        return s ** (-inv_np) * np.asarray(psi_diamond_inv(arg), dtype=float)

    val = improper_integral(fn, 0.0, f_rf.domain_measure)
    return val / c if math.isfinite(val) else math.inf
