"""Decreasing rearrangements and the norms/criteria built on them.

The decreasing rearrangement u* of a measurable u on a set of measure
|Omega| is the nonincreasing, right-continuous function on (0, |Omega|)
equimeasurable with |u|; u** is its running average (the maximal
rearrangement).  For the piecewise-constant fields this package
produces, u* is computed exactly: sort values, accumulate cell
measures.  A power profile c s^-a (a ``pow:`` :class:`Datum`) has its
f* and f** in closed form.

On top of these:

* the Marcinkiewicz quasinorm  inf{lam : sup_s u*(s)/rho^{-1}(lam/s) <= 1},
* the data-admissibility modular  Int conj(Phi_circ)(s^{1/n} f**(s)/lam) ds.

Each integral over (0, |Omega|), the modulars here as the radial
solution of :mod:`radial` and its sharp bound, is one Gauss-Kronrod
quadrature with an error estimate, cumulative over panels that are
geometric towards 0 (:func:`improper_integral`).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridField, point_mass_field
from .young import InverseRangeError, YoungFunctionError, parse_spec

__all__ = [
    "Datum",
    "RearrangedFunction",
    "PowerProfile",
    "marcinkiewicz_quasinorm",
    "data_admissibility",
]

# Gauss-Kronrod 7-15 on [-1, 1] (QUADPACK's qk15, Piessens et al. 1983):
# nodes x_1 > ... > x_7 > 0, the Kronrod weights of x_1, ..., x_7, 0 and
# the Gauss weights of x_2, x_4, x_6, 0; both rules are symmetric
_X = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
               0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
               0.20778495500789848])
_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
                0.4179591836734694])
_GK_NODES = np.concatenate([-_X, [0.0], _X[::-1]])
_GK_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
_G7_WEIGHTS = np.concatenate([_WG, _WG[-2::-1]])
_EDGES_PER_DECADE = 4
_DECADES = 14  # decades of fixed panel edges below |Omega|, at least
TOLERANCE = 1e-12  # relative error estimate that a quadrature reports met


class RearrangedFunction:
    """Nonincreasing right-continuous step function on (0, |Omega|).

    ``breakpoints`` are 0 = s_0 < s_1 < ... < s_m = |Omega| and
    ``values`` v_1 >= ... >= v_m >= 0, with v_j taken on [s_{j-1}, s_j).
    """

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
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = np.where(s > 0.0, integral / np.maximum(s, 1e-300),
                           self.values[0] if len(self.values) else 0.0)
        return float(out) if out.ndim == 0 else out

    def weighted_maximal(self, s, n):
        """s^{1/n} f**(s) on an array s, with its limit at s = 0: the
        argument of the radial profile and of the data modular."""
        return s ** (1.0 / n) * self.maximal_eval(s)


class PowerProfile(RearrangedFunction):
    """f*(s) = c s^-a on (0, |Omega|), 0 <= a < 1, in closed form, with
    f** = f* / (1 - a) there; its only breakpoints are 0 and |Omega|."""

    def __init__(self, a, c, omega):
        self.a, self.c, self.domain_measure = a, c, float(omega)
        self.breakpoints = np.array([0.0, omega])

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s < self.domain_measure,
                        (1.0 - self.a) * self.maximal_eval(s), 0.0)

    def _scaled(self, s, k):
        """s^k f**(s): s^{k-a} keeps its limit at s = 0, and past |Omega|
        the mass spreads over s."""
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return self.c / (1.0 - self.a) * s ** (k - self.a) * np.minimum(
                1.0, self.domain_measure / s) ** (1.0 - self.a)

    def maximal_eval(self, s):
        return self._scaled(s, 0.0)

    def weighted_maximal(self, s, n):
        return self._scaled(s, 1.0 / n)


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
        past it.  ``pow:`` is its closed form (:class:`PowerProfile`)."""
        if self.kind == "point":
            raise YoungFunctionError(
                f"{self.spec!r} has no rearranged form; f* is const:, pow: "
                "or a .csv path of (s, value) steps")
        if self.kind == "const":
            return RearrangedFunction([0.0, omega], [self.kw["c"]])
        if self.kind == "pow":
            return PowerProfile(self.kw["a"], self.kw.get("c", 1.0), omega)
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
        boundary, which the solve never reads.  A non-integral
        ``n_nodes`` is refused naming N."""
        if self.kind == "pow":
            raise YoungFunctionError(
                f"{self.spec!r} has no grid form; a grid datum is const:, "
                "point: or a .csv path of an N x N matrix")
        if n_nodes is not None and not float(n_nodes).is_integer():
            raise YoungFunctionError(f"N = {n_nodes!r} is not an integer")
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


def improper_integral(fn, breakpoints):
    """``(s, I, err)``: I(s_k) = Int_{s_k}^{|Omega|} fn, fn >= 0, at the
    panel ends 0 = s_0 < ... < s_m = |Omega|, and err, the sum of the
    panels' error estimates.

    The ends are 4 a decade over 14 decades below |Omega| (or to two
    decades below the lowest inner breakpoint) and the datum's
    ``breakpoints`` 0 < ... < |Omega|, where f** has a kink.  Each panel
    takes 15-point Kronrod with QUADPACK's qk15 error estimate (Piessens
    et al. 1983): resasc min(1, (200 |K15 - G7| / resasc)^{3/2}), G7 the
    nested 7-point Gauss rule and resasc the K15 integral of |fn - its
    mean|, floored at 50 eps K15.  I(0) adds the head [0, s_1]: the
    last decade sum times q/(1 - q), q the ratio of the last two, or inf
    when q >= 0.999 and the last decade is not negligible.  fn is called
    once, on all nodes; leading axes of its values stack integrands,
    each with its own I and err.
    """
    omega, inner = breakpoints[-1], np.asarray(breakpoints[1:-1], float)
    # the head's two decades lie below every breakpoint
    decades = max(_DECADES, math.ceil(math.log10(omega / breakpoints[1])) + 2)
    k = decades * _EDGES_PER_DECADE
    ends = np.union1d(omega * 10.0 ** (np.arange(-k, 1) / _EDGES_PER_DECADE),
                      inner)
    half = 0.5 * np.diff(ends)
    x = (0.5 * (ends[:-1] + ends[1:]))[:, None] + half[:, None] * _GK_NODES
    vals = np.asarray(fn(x.ravel()))
    vals = np.broadcast_to(vals, vals.shape[:-1] + (x.size,)).reshape(
        vals.shape[:-1] + x.shape)
    panels = half * np.sum(_GK_WEIGHTS * vals, axis=-1)
    gauss = half * np.sum(_G7_WEIGHTS * vals[..., 1::2], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (0.5 * panels / half)[..., None]
        resasc = half * np.sum(_GK_WEIGHTS * np.abs(vals - mean), axis=-1)
        est = resasc * (200.0 * np.abs(panels - gauss) / resasc) ** 1.5
        err = np.sum(np.maximum(np.fmin(resasc, est),
                                50.0 * np.finfo(float).eps * panels), axis=-1)
        tail = np.cumsum(panels[..., ::-1], axis=-1)[..., ::-1]
        last, prev = (np.sum(panels[..., i:i + _EDGES_PER_DECADE], axis=-1)
                      for i in (0, _EDGES_PER_DECADE))
        q = np.where((last > 0.0) & (prev > 0.0), last / prev, 0.0)
        head = np.where(q < 0.999, last * q / (1.0 - q),
                        np.where(last > 1e-12 * tail[..., 0], np.inf, 0.0))
    head = np.where(np.isfinite(tail[..., 0]), tail[..., 0] + head, np.inf)
    return np.concatenate([[0.0], ends]), np.concatenate(
        [head[..., None], tail, np.zeros(head.shape + (1,))], axis=-1), err


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
    over the ladder of 8 lam from 1e2 down to 1e-2 in one
    :func:`improper_integral`, reported down to the first infinite
    modular; admissible when every modular is finite.  Under the
    convergent dichotomy every integrable datum is admissible and no
    modular is computed.
    """
    if dichotomy == "convergent":
        return {"verdict": "admissible", "reason": "convergent dichotomy: "
                "any L1 datum admissible", "ladder": []}
    lams = np.geomspace(1e2, 1e-2, 8)

    def fn(s):
        return conj_phi_circ.value(
            f_rf.weighted_maximal(s, n) / lams[:size, None])

    # lam past the first infinite modular may overflow, or raise: cut there
    for size in range(lams.size, 0, -1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                modulars = improper_integral(fn, f_rf.breakpoints)[1][:, 0]
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
