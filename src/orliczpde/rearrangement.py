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
from .grid import GridField, point_mass_field
from .young import InverseRangeError, YoungFunctionError, parse_spec

__all__ = [
    "Datum",
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
    constant for a step function, the profile's own power head for the
    realization of an unbounded profile (a ``pow:`` :class:`Datum`).
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


_DATUM_KINDS = {"const": ("c",), "pow": ("a", "c"),
                "point": ("mass", "x", "y")}


class Datum:
    """A right-hand side f read once from ``spec``, seen as its decreasing
    rearrangement f* (:meth:`rearranged`) or its nodal values
    (:meth:`field`): ``const:<c>``, ``pow:a=<a>[,c=<c>]`` (f*(s) = c s^-a,
    0 <= a < 1; no grid form), ``point:mass=..[,x=..,y=..]`` (no f*) or a
    path ending in ``.csv``.  A bad spec, or a side that its form does
    not have, raises :class:`YoungFunctionError` naming the spec."""

    def __init__(self, spec):
        self.spec = spec
        csv = isinstance(spec, str) and spec.endswith(".csv")
        self.kind, self.kw = ("csv", {}) if csv else parse_spec(
            spec, _DATUM_KINDS)
        if self.kind == "const" and not self.kw:
            raise YoungFunctionError(f"{spec!r}: const needs its value c")
        a = self.kw.get("a", math.nan)
        if self.kind == "pow" and not 0.0 <= a < 1.0:
            raise YoungFunctionError(
                f"{spec!r}: pow needs 0 <= a < 1, so that c s^-a is a "
                "decreasing integrable profile")

    def rearranged(self, omega):
        """f* on (0, ``omega``].  A CSV's rows (s_{j-1}, v_j), ended by an
        (s_m, v_m) sentinel, are zero from s_m to ``omega``, and refused
        past it.  ``pow:`` takes 2^14 steps log-spaced from 1e-14 ``omega``,
        each the profile at its left end but the first, which carries the
        head mass Int_0^{s_1} c s^-a; below s_1, f** continues as s^-a."""
        if self.kind == "point":
            raise YoungFunctionError(
                f"{self.spec!r} has no rearranged form; f* is const:, pow: "
                "or a .csv path of (s, value) steps")
        if self.kind == "const":
            return RearrangedFunction([0.0, omega], [self.kw["c"]])
        if self.kind == "pow":
            a, c = self.kw["a"], self.kw.get("c", 1.0)
            s = np.concatenate(
                [[0.0], np.geomspace(1e-14 * omega, omega, 2**14)])
            v = c * np.concatenate([[s[1]], s[1:-1]]) ** -a
            v[0] /= 1.0 - a
            rf = RearrangedFunction(s, v)
            rf.head_exponent = a
            return rf
        data = np.loadtxt(self.spec, delimiter=",", skiprows=1, ndmin=2)
        if not np.all(np.isfinite(data)):
            raise YoungFunctionError(f"{self.spec}: a number is not finite")
        s, v = data[:, 0], data[:-1, 1]
        if s[-1] > omega:
            raise YoungFunctionError(
                f"{self.spec}: the datum reaches s = {float(s[-1])!r}, "
                f"beyond the domain measure {omega!r} (--omega)")
        if s[-1] < omega:
            s, v = np.append(s, omega), np.append(v, 0.0)
        return RearrangedFunction(s, v)

    def field(self, n_nodes):
        """The nodal values on ``n_nodes`` nodes a side (None: 65, or a
        CSV's own size, which must match a given ``n_nodes``), zero on the
        boundary, which the solve never reads."""
        if self.kind == "pow":
            raise YoungFunctionError(
                f"{self.spec!r} has no grid form; a grid datum is const:, "
                "point: or a .csv path of an N x N matrix")
        n = 65 if n_nodes is None else int(n_nodes)
        if self.kind == "point":
            return point_mass_field(
                n, mass=self.kw.get("mass", 1.0),
                location=(self.kw.get("x", 0.5), self.kw.get("y", 0.5)))
        if self.kind == "const":
            field = GridField.zeros(n)
            field.values.fill(self.kw["c"])
            return field.zero_boundary()
        data = np.loadtxt(self.spec, delimiter=",", comments="#")
        if not np.all(np.isfinite(data)):
            raise YoungFunctionError(f"{self.spec}: a number is not finite")
        field = GridField(data)
        if n_nodes is not None and field.n_nodes != n:
            raise YoungFunctionError(
                f"{self.spec}: the datum is a {field.n_nodes} x "
                f"{field.n_nodes} grid, but N = {n}")
        return field.zero_boundary()


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
