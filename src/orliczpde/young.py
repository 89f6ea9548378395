"""One-variable Young / N-function calculus.

A Young function A is convex, vanishes at 0 and is nondecreasing on
[0, oo).  An N-function additionally satisfies A(t)/t -> 0 as t -> 0+
and A(t)/t -> oo as t -> oo.  This module provides

* an analytic catalog (powers, power-logs, exponential types),
* a sampled representation interpolating in (log t, log A) coordinates,
* Young conjugation A~(s) = sup_t (st - A(t)): a power's conjugate is
  the conjugate power, every other one is exact pointwise through
  A'(t) = s (``LegendreConjugate``); the discrete transform
  ``discrete_legendre`` is the CLI's involution check,
* generalized left-continuous inverses, closed form where known and
  otherwise by one vectorized solver, ``solve_increasing``: it brackets
  each root by squaring factors (4, 16, 256, ...), then narrows the
  bracket by Anderson-Bjorck regula falsi in (log t, log A)
  coordinates, where power-like functions are nearly straight, never
  taking more than a few steps beyond what bisection would; each round
  evaluates only the unfinished elements, and per-element parameters
  ride along as ``args``.  The power-log and exp-power inverses (A^-1,
  Psi^-1, the maximizer A'^-1 and the conjugate's level inverse) start
  it from a bracket around a closed-form guess, a few Newton steps in
  log t (``bracket_ends``), so it narrows from its first round and
  most of their roots take one; their conjugate level T A'(T) - A(T)
  is a closed form, not a difference that cancels at small T,
* ``psi_inverse``, the inverse of Psi(t) = A(t)/t (closed form for a
  power), and ``MonotoneFunction``, a function known by its log values,
* the spec grammar ``kind:key=value,...`` (and its JSON-term form)
  that names catalog functions and the CLI's data,
* the package's one CSV writer, ``write_csv``, which formats each
  distinct number once.

Functions of very fast growth are also usable through ``log_value``,
which evaluates log A(t) from log t without overflowing.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

__all__ = [
    "YoungFunctionError",
    "InverseRangeError",
    "NotConvexError",
    "ScalarYoungFunction",
    "PowerYoung",
    "PowerLogYoung",
    "ExpPowerYoung",
    "ExpMinusOneYoung",
    "ExpMinusLinearYoung",
    "LinearSplicedYoung",
    "SampledYoungFunction",
    "LegendreConjugate",
    "MonotoneFunction",
    "discrete_legendre",
    "solve_increasing",
    "bracket_ends",
    "parse_spec",
    "parse_scalar_function",
    "write_csv",
]


class YoungFunctionError(Exception):
    """Base error for Young-function operations."""


class InverseRangeError(YoungFunctionError):
    """Requested inverse value lies outside the attainable bracket."""


class NotConvexError(YoungFunctionError):
    """Convexity certification failed."""


_TINY = 1e-300  # stands in for 0+ in the solver
_MAX_SHIFT = 6  # bracketing factors 4, 16, 256, ... stop growing at 2**64
_SLACK = 6  # narrowing steps allowed beyond the bisection count
# solver mode of a bracketed element; while bracketing, |mode| counts the
# steps, at most about 20 between _TINY and 1e300
_NARROW = 127
_RTOL = 1e-12  # relative width at which solve_increasing stops
_TOL = math.log1p(_RTOL)  # the same width in log x
# narrowing steps for a bracket 2**j * log(2) wide are j + _BASE_BUDGET
_BASE_BUDGET = math.ceil(math.log2(math.log(2.0) / _TOL)) + _SLACK
_T_CAP = 1e250  # largest maximizer of st - A(t) that is searched for
_GUESS_STEPS = 5  # Newton steps of a closed-form root guess
_EPS = float(np.finfo(float).eps)


def _log_width(lo, hi):
    """log(hi / lo), or log hi - log lo where hi / lo is not finite (a
    bracket wider than the float range, say 1e-200 to 1e200)."""
    width = np.log(hi / lo)
    wide = ~np.isfinite(width)
    if np.any(wide):
        width[wide] = np.log(hi[wide]) - np.log(lo[wide])
    return width


def _secant_points(lo, hi, rlo, rhi, budget):
    """lo * exp(s), with s the root of the log-log secant through
    (log lo, rlo) and (log hi, rhi), or half the log-width where that
    is not finite; s keeps _TOL/4 inside the bracket and leaves, whichever
    end moves, a bracket no wider than _TOL * 2**(budget - 1)."""
    width = _log_width(lo, hi)
    s = rlo - rhi
    secant = (s < 0.0) & (s > -np.inf)
    np.divide(rlo, s, out=s)
    s[~secant] = 0.5
    s *= width
    cap = np.ldexp(_TOL, budget - np.int8(1))
    np.minimum(s, cap, out=s)
    np.subtract(width, cap, out=cap)
    np.maximum(s, cap, out=s)
    np.maximum(s, 0.25 * _TOL, out=s)
    width -= 0.25 * _TOL
    np.minimum(s, width, out=s)
    c = np.exp(s, out=s)
    c *= lo
    return c


def _bracket_points(c, lo, hi, mode, x0, x_max):
    """Overwrite c where an element is not bracketed yet: x0 at the
    start, then steps up from lo or down from hi by 2**(2**|mode|)."""
    shift = np.left_shift(np.int8(1), np.minimum(np.abs(mode), _MAX_SHIFT))
    np.copyto(c, np.minimum(np.ldexp(lo, shift), x_max),
              where=(mode > 0) & (mode != _NARROW))
    np.copyto(c, np.maximum(np.ldexp(hi, -shift), _TINY), where=mode < 0)
    np.copyto(c, x0, where=mode == 0)


def _bracket_step(c, reached, narrow, y, hi, mode, budget, x_max):
    """Bracketing bookkeeping after fn(c), with lo and hi already moved to
    c: raise past x_max, set hi = 0 where fn(0+) >= y, give each newly
    bracketed element its narrowing budget, and return the new mode.

    A bracket found by a factor 2**(2**j) is 2**j * log(2) wide, which
    bisection narrows to _TOL in j + _BASE_BUDGET - _SLACK steps."""
    stuck = ~reached & (c >= x_max)
    if np.any(stuck):
        raise InverseRangeError(
            f"value {float(y[np.flatnonzero(stuck)[0]])!r} not attained "
            f"below x_max={x_max:g}")
    np.copyto(hi, 0.0, where=reached & (c <= _TINY))
    bracketed = ~narrow & np.where(reached, mode > 0, mode < 0)
    np.copyto(budget,
              np.minimum(np.abs(mode), _MAX_SHIFT) + np.int8(_BASE_BUDGET),
              where=bracketed)
    return np.where(narrow | bracketed, np.int8(_NARROW),
                    mode + np.where(reached, np.int8(-1), np.int8(1)))


def solve_increasing(fn, y, x_max=1e300, args=(), bracket=None):
    """Leftmost x >= 0 with fn(x) >= y, elementwise, for nondecreasing fn.

    This is the left-continuous generalized inverse of fn.  ``fn(x,
    *args)`` maps a 1-D array x to an array of the same length, element
    by element.  It is called once per round on the unfinished elements
    only, so x is usually a subset of the flattened ``y``, in its order;
    each array in ``args`` has ``y``'s shape as its leading dimensions,
    and ``fn`` receives its rows for those same elements.

    The method works in (log x, log fn) coordinates, where power-type
    and power-log functions are nearly straight lines.  From x = 1 each
    root is bracketed by steps up or down by factors 4, 16, 256, ...
    (the factor squares at each step, up to 2**64).  The bracket
    [lo, hi], fn(lo) < y <= fn(hi), is then narrowed by regula falsi on
    the log-log secant with the Anderson-Bjorck modification (Anderson &
    Bjorck 1973, BIT 13): when the same end moves twice running, the
    other end's log residual is scaled by 1 - r_new/r_old of the moved
    end (halved if that is not positive); where the secant is not
    finite (fn(lo) = 0 or fn(hi) = inf, say) the geometric midpoint is taken.
    Every trial point lies at least log1p(rtol)/4 inside the bracket,
    and close enough to its middle that the element still finishes
    within ``_SLACK`` steps of what bisection would take (the projection
    step of ITP, Oliveira & Takahashi 2020, ACM TOMS 47), so the worst
    case (a jump) stays close to bisection.  The solve stops when
    hi <= lo * (1 + rtol), with the fixed rtol = 1e-12, and returns
    hi, where fn(x) >= y holds.  The result is 0 where y <= 0 or
    fn(0+) >= y, and inf where y is inf.  A finite y with fn(x_max) < y
    raises :class:`InverseRangeError`: no unconverged number is
    returned.

    ``bracket`` = (lo, hi, fn_lo, fn_hi), arrays broadcasting to ``y``'s
    shape, gives a bracket already known for every element: 0 <= lo <=
    hi, fn_lo = fn(lo) < y <= fn_hi = fn(hi).  Such an element skips the
    bracketing and starts narrowing from the log residuals log fn_lo -
    log y and log fn_hi - log y, with ceil(log2(log(hi/lo)/tol)) +
    ``_SLACK`` steps, tol = log1p(rtol) (log hi - log lo where hi/lo
    overflows).  An open end, lo = 0 or hi = inf, is bracketed by steps
    from the other end (from x = 1 where both are open).  Where fn(lo)
    >= y after all (a lower end at the root), the result is within 2
    rtol above lo.  Each element's steps depend on that element alone,
    so a batched solve equals per-element solves bit for bit.  Two
    callers pass brackets, both built by :func:`bracket_ends`, which
    opens an end that does not hold: the power-log and exp-power
    inverses (around a closed-form guess, see
    ``ScalarYoungFunction._solve``) and the star-path rays of
    ``anisotropic`` (from the terms' inverses).
    """
    y_arr = np.asarray(y, dtype=float)
    y_flat = y_arr.ravel()
    idx = np.flatnonzero(np.isfinite(y_flat) & (y_flat > 0.0))
    cur = [np.reshape(a, (y_arr.size,) + np.shape(a)[y_arr.ndim:])
           for a in args]
    if idx.size < y_arr.size:
        cur = [a[idx] for a in cur]
    m = idx.size
    x0 = min(1.0, x_max)
    moved_hi = np.zeros(m, bool)  # the last step moved hi
    if bracket is None:
        lo, hi = np.zeros(m), np.full(m, np.inf)
        rlo, rhi = np.zeros(m), np.zeros(m)  # log fn - log y at lo and hi
        mode = np.zeros(m, np.int8)  # 0 start, k > 0 up, k < 0 down, _NARROW
        budget = np.zeros(m, np.int8)  # narrowing steps left
    else:
        lo, hi, rlo, rhi = (np.broadcast_to(np.asarray(b, dtype=float),
                                            y_arr.shape).ravel()[idx]
                            for b in bracket)
        # an open end (lo = 0 or hi = inf) is bracketed by steps from the
        # other end, as after a first step from x0 past the root
        mode = np.select([(lo > 0.0) & (hi < np.inf), lo > 0.0, hi < np.inf],
                         [_NARROW, 1, -1], 0).astype(np.int8)
        with np.errstate(all="ignore"):
            steps = np.ceil(np.log2(_log_width(lo, hi) / _TOL))
            budget = np.where(mode == _NARROW, np.clip(steps, 0, 64),
                              0).astype(np.int8)
            budget += np.int8(_SLACK)
            rlo, rhi = (np.log(r) - np.log(y_flat[idx]) for r in (rlo, rhi))
    # the unfinished elements are a prefix of every state array; each
    # finished one leaves its position and root in the tail of these two
    order, root = idx, hi
    bracketing = True
    with np.errstate(all="ignore"):
        while m:
            if bracketing:
                narrow = mode == _NARROW
                bracketing = not narrow.all()
            if not bracketing:
                c = _secant_points(lo, hi, rlo, rhi, budget)
            else:
                c = (_secant_points(lo, hi, rlo, rhi, budget)
                     if narrow.any() else np.empty(m))
                _bracket_points(c, lo, hi, mode, x0, x_max)
            fc = np.asarray(fn(c, *cur), dtype=float)
            y_cur = y_flat[idx]
            reached = fc >= y_cur
            below = ~reached
            np.copyto(hi, c, where=reached)
            np.copyto(lo, c, where=below)
            budget -= np.int8(1)
            if bracketing:
                mode = _bracket_step(c, reached, narrow, y_cur, hi, mode,
                                     budget, x_max)
            del c
            np.log(y_cur, out=y_cur)
            rc = np.subtract(np.log(fc), y_cur, out=y_cur)
            scale = np.where(reached, rhi, rlo)
            np.subtract(1.0, np.divide(rc, scale, out=scale), out=scale)
            scale[~(scale > 0.0)] = 0.5  # Anderson-Bjorck; halve if not > 0
            np.copyto(rhi, rc, where=reached)
            np.copyto(rlo, rc, where=below)
            del fc, rc, y_cur
            np.multiply(rlo, scale, out=rlo, where=reached & moved_hi)
            np.multiply(rhi, scale, out=rhi, where=below & ~moved_hi)
            del scale
            moved_hi = reached
            done = hi <= lo * (1.0 + _RTOL)
            if np.any(done):
                keep = ~done
                k = int(np.count_nonzero(keep))
                for a in (idx, hi):
                    a[k:], a[:k] = a[done], a[keep]
                for a in (lo, rlo, rhi, mode, moved_hi, budget):
                    a[:k] = a[keep]
                idx, lo, hi, rlo, rhi, mode, moved_hi, budget = (
                    a[:k] for a in (idx, lo, hi, rlo, rhi, mode, moved_hi,
                                    budget))
                cur = [a[keep] for a in cur]
                m = k
    out = np.where(y_flat <= 0.0, 0.0, y_flat)
    out[order] = root
    out = out.reshape(y_arr.shape)
    return float(out) if out.ndim == 0 else out


def bracket_ends(fn, y, lo, hi, args=()):
    """``(lo, hi, fn(lo), fn(hi))`` for the ``bracket`` of
    :func:`solve_increasing`, with fn evaluated at both ends in one call
    (on ``np.stack([lo, hi])``, against which ``args`` broadcast).  Where
    fn(lo) < y <= fn(hi) does not hold, because rounding breaks it or
    an estimate misses the root, that end is opened: lo = 0 or hi =
    inf, from which the solver brackets by steps."""
    with np.errstate(all="ignore"):
        f_lo, f_hi = fn(np.stack([lo, hi]), *args)
    lo, f_lo = np.where(f_lo < y, [lo, f_lo], 0.0)
    hi, f_hi = np.where(y <= f_hi, [hi, f_hi], np.inf)
    return lo, hi, f_lo, f_hi


def _lower_hull(x, y):
    """Indices of the lower convex hull of the points (x_i, y_i), x
    increasing; (nearly) collinear points are kept.  The monotone chain
    starts at the first consecutive triple that it pops, found in one
    array pass by its own test: a convex table takes no chain step."""
    s = np.diff(y) / np.diff(x)
    falls = np.flatnonzero(s[1:] < s[:-1] - 1e-15 * np.abs(s[:-1]))
    hull = list(range(falls[0] + 2 if falls.size else x.size))
    for i in range(len(hull), x.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            s01 = (y[i1] - y[i0]) / (x[i1] - x[i0])
            s12 = (y[i] - y[i1]) / (x[i] - x[i1])
            if s12 < s01 - 1e-15 * abs(s01):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull)


def discrete_legendre(x, fx, s):
    """Discrete Legendre transform max_i (s x_i - fx_i), x increasing.

    Linear in the table size (Lucet 1997, Numer. Algorithms 16): only
    vertices of the lower convex hull of the points (x_i, fx_i) can
    attain the max, and for each s it is the vertex whose two hull edges
    have slopes bracketing s.
    """
    x = np.asarray(x, dtype=float)
    fx = np.asarray(fx, dtype=float)
    s = np.asarray(s, dtype=float)
    hull = _lower_hull(x, fx)
    edge = np.diff(fx[hull]) / np.diff(x[hull])
    k = hull[np.searchsorted(edge, s)]
    return s * x[k] - fx[k]


class ScalarYoungFunction:
    """Base class: a convex nondecreasing function with A(0) = 0.

    An analytic one is convex when built, a table after
    ``repair_convexity``.  ``t_min``/``t_max`` delimit the trusted
    evaluation range (domain hint); evaluation outside is permitted but
    flagged as extrapolation by subclasses where it matters.
    """

    name = "young"
    t_min = 1e-8
    t_max = 1e8
    closed_form_inverse = False  # ``inverse`` runs no solver
    # (sigma, beta): the exact tail A(t) ~ t^sigma (log t)^beta that a
    # closed form states (sigma = inf: exponential), as does a Phi_circ
    # table built from closed-form measures (``anisotropic.phi_circ``);
    # None: ``embedding.tail_exponents`` fits one.  The dichotomy and the
    # Delta_2 / Nabla_2 verdicts read this tail
    tail = None

    # -- evaluation ---------------------------------------------------

    def value(self, t):
        raise NotImplementedError

    def log_value(self, log_t):
        """log A(exp(log_t)); overflow-safe where a subclass can be."""
        log_t = np.asarray(log_t, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            v = self.value(np.exp(log_t))
            return np.log(v)

    def derivative(self, t):
        """Nondecreasing (sub)derivative A'(t)."""
        raise NotImplementedError

    def derivative_inverse(self, s):
        """Leftmost t >= 0 with A'(t) >= s, the maximizer of st - A(t);
        one that would exceed 1e250 raises :class:`InverseRangeError`."""
        return self._solve("derivative", self.derivative, s, _T_CAP)

    def _conjugate_level(self, T):
        """T A'(T) - A(T), the conjugate's value at the slope A'(T); a
        closed form overrides the difference where it cancels."""
        return T * self.derivative(T) - self.value(T)

    def _conjugate_level_inverse(self, y):
        """Leftmost T >= 0 with T A'(T) - A(T) >= y: the maximizer at
        which the conjugate takes the value y."""
        return self._solve("level", self._conjugate_level, y, _T_CAP)

    # -- inversion ----------------------------------------------------

    def inverse(self, y):
        """Generalized left-continuous inverse, scalar or array."""
        return self._solve("value", self.value, y)

    def psi_inverse(self, y):
        """Leftmost t >= 0 with Psi(t) = A(t)/t >= y; Psi is
        nondecreasing by convexity."""
        return self._solve("psi", lambda t: self.value(t) / t, y)

    # a method (kind, y) -> (x, dx) where a subclass has one: a
    # closed-form estimate x of log t for the root t of ``kind`` ("value",
    # "psi", "derivative" or "level") at y, and the last Newton step dx
    # that made it, or None for a kind that it does not estimate
    _root_guess = None

    def _solve(self, kind, fn, y, x_max=1e300):
        """:func:`solve_increasing` of fn at y.  Where
        :meth:`_root_guess` has an estimate x of log t, it starts from
        the bracket exp(x -+ delta), delta = 4 |dx| + 32 eps (1 + |x|)
        (four last Newton steps and the rounding of x) but at most 1, its
        ends capped at x_max (:func:`bracket_ends` opens an end that
        misses); else from x = 1."""
        guess = None if self._root_guess is None else self._root_guess(
            kind, y)
        bracket = None
        if guess is not None:
            x, dx = guess
            delta = np.minimum(
                4.0 * np.abs(dx) + 32.0 * _EPS * (1.0 + np.abs(x)), 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                ends = np.minimum(np.exp([x - delta, x + delta]), x_max)
            bracket = bracket_ends(fn, y, *ends)
        return solve_increasing(fn, y, x_max=x_max, bracket=bracket)

    # -- conjugation --------------------------------------------------

    def conjugate(self):
        """Young conjugate, pointwise through A' (a power overrides
        with the conjugate power)."""
        return LegendreConjugate(self)

    # -- certification ------------------------------------------------

    def certify(self):
        """Check monotonicity (to 1e-12 of the largest value) and midpoint
        convexity (to 1e-9 relative) on a 512-point log grid spanning the
        trusted range; raise :class:`NotConvexError` if either fails."""
        t = np.geomspace(self.t_min, self.t_max, 512)
        v = self.value(t)
        if not np.all(np.diff(v) >= -1e-12 * np.max(v)):
            raise NotConvexError(f"{self.name}: not nondecreasing")
        mid = 0.5 * (t[:-2] + t[2:])
        vm = self.value(mid)
        chord = 0.5 * (v[:-2] + v[2:])
        scale = np.maximum(np.abs(chord), 1e-300)
        if not np.all((vm - chord) / scale <= 1e-9):
            raise NotConvexError(f"{self.name}: midpoint convexity fails")
        return self

    # -- serialization ------------------------------------------------

    def to_csv(self, path):
        """A at 512 geometric points of the trusted range [t_min, t_max],
        columns t and A(t) (:func:`write_csv`)."""
        t = np.geomspace(self.t_min, self.t_max, 512)
        write_csv(path, "t,A(t)", np.column_stack([t, self.value(t)]))


class PowerYoung(ScalarYoungFunction):
    """A(t) = coeff * t**p, p > 1."""

    closed_form_inverse = True

    def __init__(self, p, coeff=1.0):
        if not 1 < p < math.inf:  # nor nan
            raise YoungFunctionError(
                f"power exponent p = {p!r} must be finite and exceed 1")
        self.p = float(p)
        self.coeff = float(coeff)
        self.tail = (self.p, 0.0)
        self.name = f"power(p={p:g})" if coeff == 1.0 else (
            f"power(p={p:g},c={coeff:g})"
        )

    def value(self, t):
        return self.coeff * np.asarray(t, dtype=float) ** self.p

    def log_value(self, log_t):
        return math.log(self.coeff) + self.p * np.asarray(log_t, dtype=float)

    def derivative(self, t):
        return self.coeff * self.p * np.asarray(t, dtype=float) ** (self.p - 1)

    def second_derivative(self, t):
        return (self.coeff * self.p * (self.p - 1.0)
                * np.asarray(t, dtype=float) ** (self.p - 2.0))

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = (np.maximum(y, 0.0) / self.coeff) ** (1.0 / self.p)
        return float(out) if out.ndim == 0 else out

    def psi_inverse(self, y):
        # Psi(t) = c t^(p-1): no solver
        y = np.asarray(y, dtype=float)
        out = (np.maximum(y, 0.0) / self.coeff) ** (1.0 / (self.p - 1.0))
        return float(out) if out.ndim == 0 else out

    def conjugate(self):
        # sup st - c t^p attained at t = (s/(cp))^(1/(p-1))
        p, c = self.p, self.coeff
        q = p / (p - 1.0)
        coeff = (p - 1.0) * c * (1.0 / (c * p)) ** q
        return PowerYoung(q, coeff)


class PowerLogYoung(ScalarYoungFunction):
    """A(t) = t**p * log(shift + t)**alpha.

    With shift >= e the logarithm stays >= 1, so negative alpha is
    allowed.  Construction multiplies the shift by 4 until :meth:`certify`
    passes, and ``name`` states a raised one; a shift past 1e12 raises
    :class:`NotConvexError` naming the last one tried.
    """

    def __init__(self, p, alpha, shift=math.e):
        self.p = float(p)
        self.alpha = float(alpha)
        self.shift = float(shift)
        self.tail = (self.p, self.alpha)
        self.name = f"power_log(p={p:g},alpha={alpha:g})"
        while True:
            try:
                self.certify()
                return
            except NotConvexError:
                if self.shift * 4.0 > 1e12:
                    raise
                self.shift *= 4.0
                self.name = (f"power_log(p={self.p:g},alpha={self.alpha:g},"
                             f"shift={self.shift:g})")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return t**self.p * np.log(self.shift + t) ** self.alpha

    def log_value(self, log_t):
        log_t = np.asarray(log_t, dtype=float)
        # log(shift + t) == log t + log1p(shift/t); for huge t this is log t
        big = log_t > 40.0
        lt = np.where(big, log_t, 0.0)
        small_t = np.exp(np.where(big, 0.0, log_t))
        log_log = np.where(
            big,
            np.log(lt + np.exp(np.log(self.shift) - np.minimum(lt, 700.0))),
            np.log(np.log(self.shift + small_t)),
        )
        return self.p * log_t + self.alpha * log_log

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        ell = np.log(self.shift + t)
        return t ** (self.p - 1.0) * ell ** (self.alpha - 1.0) * (
            self.p * ell + self.alpha * t / (self.shift + t)
        )

    def _conjugate_level(self, T):
        # T^p l^(alpha-1) ((p-1) l + alpha T/(shift+T)), l = log(shift +
        # T): no difference, which cancels at small T where p = 1
        T = np.asarray(T, dtype=float)
        ell = np.log(self.shift + T)
        return T**self.p * ell ** (self.alpha - 1.0) * (
            (self.p - 1.0) * ell + self.alpha * T / (self.shift + T))

    def _root_guess(self, kind, y):
        # A, Psi = A/t, A' and T A' - A are each t^a l^b (c l + d u),
        # l = log(shift + t), u = t/(shift + t): Newton steps in x = log t
        # on the log of that form, whose slope in x is
        # a + b u/l + u (c + d (1 - u))/(c l + d u), from x = log(y)/a
        p, al = self.p, self.alpha
        a, b, c, d = {"value": (p, al - 1.0, 1.0, 0.0),
                      "psi": (p - 1.0, al - 1.0, 1.0, 0.0),
                      "derivative": (p - 1.0, al - 1.0, p, al),
                      "level": (p, al - 1.0, p - 1.0, al)}[kind]
        with np.errstate(all="ignore"):
            log_y = np.log(np.asarray(y, dtype=float))
            x = log_y / a if a > 0.0 else np.zeros_like(log_y)
            for _ in range(_GUESS_STEPS):
                t = np.exp(np.clip(x, -700.0, 700.0))
                ell = np.log(self.shift + t)
                u = t / (self.shift + t)
                g = c * ell + d * u
                dx = ((log_y - a * x - b * np.log(ell) - np.log(g))
                      / (a + b * u / ell + u * (c + d * (1.0 - u)) / g))
                x = x + dx
        return x, dx


# Taylor coefficients of (e^t - 1 - t) / t^2.  Below the cutoff the
# closed form cancels (relative error ~ eps / t); the truncated series is
# exact to an ulp there, and the closed form to a few ulps above.
_EXP_TAIL_CUT = 0.5
_EXP_TAIL = tuple(1.0 / math.factorial(k) for k in range(2, 17))


def _horner(x, coeffs):
    """Sum_j coeffs[j] x^j."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _exp_level_factor(beta, v):
    """beta v + expm1(-v) for v >= 0, the exponent clamped at 700.  Below
    the cutoff, where it cancels for beta near 1, it is (beta - 1) v +
    v^2 g(-v), g(x) = (e^x - 1 - x)/x^2 by its Taylor series."""
    x = np.minimum(v, _EXP_TAIL_CUT)
    series = (beta - 1.0) * x + x * x * _horner(-x, _EXP_TAIL)
    return np.where(v < _EXP_TAIL_CUT, series,
                    beta * v + np.expm1(-np.minimum(v, 700.0)))


class ExpPowerYoung(ScalarYoungFunction):
    """A(t) = exp(t**beta) - 1, beta >= 1.

    ``value`` clamps the exponent at 700, so the trusted range ends
    where t**beta reaches it.
    """

    closed_form_inverse = True
    tail = (math.inf, 0.0)

    def __init__(self, beta=1.0):
        if beta < 1:
            raise YoungFunctionError("beta must be >= 1")
        self.beta = float(beta)
        self.t_max = min(300.0, 700.0 ** (1.0 / self.beta))
        self.name = f"exp_power(beta={beta:g})"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.expm1(np.minimum(t**self.beta, 700.0))

    def log_value(self, log_t):
        log_t = np.asarray(log_t, dtype=float)
        u = self.beta * log_t  # log(t^beta)
        # log(exp(x) - 1): x + log1p(-exp(-x)) for x > 0
        with np.errstate(over="ignore"):
            x = np.exp(np.minimum(u, 700.0))
        small = x < 1e-8
        return np.where(
            small, u, x + np.log1p(-np.exp(-np.minimum(x, 700.0)))
        )

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return self.beta * t ** (self.beta - 1.0) * np.exp(
                np.minimum(t**self.beta, 700.0)
            )

    def _conjugate_level(self, T):
        # e^v (beta v + expm1(-v)), v = T^beta (_exp_level_factor)
        with np.errstate(over="ignore"):
            v = np.asarray(T, dtype=float) ** self.beta
            return np.exp(np.minimum(v, 700.0)) * _exp_level_factor(
                self.beta, v)

    def _root_guess(self, kind, y):
        # Newton steps in w = log v, v = t^beta.  For A': on e^w + k w =
        # log(y / beta), k = 1 - 1/beta, convex in w, from a start above
        # the root; past the clamp v = 700, where A' is a power, its exact
        # inverse.  For T A' - A = e^v q, q = beta v + expm1(-v): on
        # v + log q = log y, from v = log1p(y)
        if kind not in ("derivative", "level"):
            return None
        beta = self.beta
        with np.errstate(all="ignore"):
            y = np.asarray(y, dtype=float)
            if kind == "derivative":
                k = 1.0 - 1.0 / beta
                rhs = np.log(y / beta)
                w = np.where(rhs > 1.0, np.minimum(np.log(rhs), rhs / k),
                             np.minimum(0.0, rhs / k))
                for _ in range(_GUESS_STEPS):
                    ew = np.exp(w)
                    dw = (rhs - ew - k * w) / (ew + k)
                    w = w + dw
                past = rhs > 700.0 + k * math.log(700.0)
                w = np.where(past, (rhs - 700.0) / k, w)
                dw = np.where(past, 0.0, dw)
            else:
                log_y = np.log(y)
                w = np.log(np.log1p(y))
                for _ in range(_GUESS_STEPS):
                    v = np.exp(w)
                    q = _exp_level_factor(beta, v)
                    dw = ((log_y - v - np.log(q)) * q
                          / (v * (beta * v + beta - 1.0)))
                    w = w + dw
        return w / beta, dw / beta

    def inverse(self, y):
        """log1p(y)**(1/beta), 0 for y <= 0: the inverse of the unclamped
        exp(t**beta) - 1.  Above expm1(700), where ``value`` is clamped,
        it keeps growing and so is not the inverse of ``value`` there."""
        y = np.asarray(y, dtype=float)
        out = np.log1p(np.maximum(y, 0.0)) ** (1.0 / self.beta)
        return float(out) if out.ndim == 0 else out


class ExpMinusOneYoung(ExpPowerYoung):
    """A(t) = e**t - 1, ``ExpPowerYoung(1)`` trusted up to t = 500.  Its
    conjugate s log s - s + 1 is a :class:`LegendreConjugate` through the
    closed-form maximizer log s (0 for s <= 1), which keeps growing past
    e**700, where ``derivative`` is clamped."""

    def __init__(self):
        super().__init__(1.0)
        self.name = "exp_minus_one"
        self.t_max = 500.0

    def derivative_inverse(self, s):
        out = np.log(np.maximum(np.asarray(s, dtype=float), 1.0))
        return float(out) if out.ndim == 0 else out


class ExpMinusLinearYoung(ScalarYoungFunction):
    """A(t) = e**t - t - 1.  Its conjugate (1 + s) log1p(s) - s is a
    :class:`LegendreConjugate` through the closed-form maximizer log1p(s)
    (0 for s <= 0), which keeps growing past expm1(700), where
    ``derivative`` is clamped."""

    name = "exp_minus_linear"
    t_max = 500.0
    tail = (math.inf, 0.0)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        series = t * t * _horner(np.minimum(t, _EXP_TAIL_CUT), _EXP_TAIL)
        out = np.where(t < _EXP_TAIL_CUT, series,
                       np.expm1(np.minimum(t, 700.0)) - t)
        return float(out) if out.ndim == 0 else out

    def log_value(self, log_t):
        log_t = np.asarray(log_t, dtype=float)
        t = np.exp(np.minimum(log_t, 700.0))
        series = 2.0 * log_t + np.log(
            _horner(np.minimum(t, _EXP_TAIL_CUT), _EXP_TAIL))
        with np.errstate(over="ignore"):
            exact = np.log(np.maximum(np.expm1(np.minimum(t, 700.0)) - t,
                                      1e-300))
        return np.where(t < _EXP_TAIL_CUT, series,
                        np.where(t > 700.0, t, exact))

    def derivative(self, t):
        return np.expm1(np.minimum(np.asarray(t, dtype=float), 700.0))

    def derivative_inverse(self, s):
        out = np.log1p(np.maximum(np.asarray(s, dtype=float), 0.0))
        return float(out) if out.ndim == 0 else out


class LinearSplicedYoung(ScalarYoungFunction):
    """Base function above the knot 1, linear with matching value below.

    This is the scalar near-zero modification: linear on [0, knot] with
    slope base(knot)/knot, equal to the base function for t >= knot.
    Convex because the chord slope never exceeds the right derivative.
    """

    knot = 1.0

    def __init__(self, base):
        self.base = base
        self.slope = float(base.value(self.knot)) / self.knot
        self.name = f"linear_spliced({base.name})"
        self.t_min = min(base.t_min, 1e-12)
        self.t_max = base.t_max

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.knot, self.base.value(np.maximum(t, self.knot)),
                       self.slope * t)
        return out if out.ndim else float(out)

    def log_value(self, log_t):
        log_t = np.asarray(log_t, dtype=float)
        log_knot = math.log(self.knot)
        return np.where(
            log_t >= log_knot,
            self.base.log_value(np.maximum(log_t, log_knot)),
            math.log(self.slope) + log_t,
        )

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.knot,
                        self.base.derivative(np.maximum(t, self.knot)),
                        self.slope)


class SampledYoungFunction(ScalarYoungFunction):
    """Tabulated Young function, linear in (log t, log A) coordinates.

    Outside the table the end slopes extrapolate, so power-like tails
    keep their exponent.  ``repair_convexity`` replaces the table by its
    convex envelope in linear coordinates (used after discrete Legendre
    transforms).

    On the segment [t_k, t_{k+1}] of log-log slope sigma_k, A is the
    power A(t_k) (t/t_k)^sigma_k, so A'(t) = sigma_k A(t)/t and the
    conjugate's level function T A'(T) - A(T) = (sigma_k - 1) A(T) are
    powers too, jumping at the knots.  ``inverse``,
    ``derivative_inverse`` and the inverse of that level function are
    closed forms: one searchsorted over the segments' running maxima and
    one power per element, so :class:`LegendreConjugate` of a table runs
    no solver.
    """

    closed_form_inverse = True  # inverts each segment's power

    def __init__(self, log_t, log_v, name="sampled"):
        log_t = np.asarray(log_t, dtype=float)
        log_v = np.asarray(log_v, dtype=float)
        log_sum = log_t + log_v
        order = np.argsort(log_t)
        lead = order[np.logical_and.accumulate(log_sum[order] == -np.inf)]
        bad = np.setdiff1d(np.flatnonzero(~np.isfinite(log_sum)), lead)
        if bad.size:
            raise YoungFunctionError(f"knot {bad[0]} is not finite (or A = 0)")
        order = order[lead.size:]
        if order.size < 4:
            raise YoungFunctionError("sampled function needs >= 4 finite points")
        self._set_table(log_t[order], np.maximum.accumulate(log_v[order]))
        self.name = name
        self.t_min = math.exp(max(self.log_t[0], -700.0))
        self.t_max = math.exp(min(self.log_t[-1], 700.0))

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = np.exp(self.log_value(np.log(np.maximum(t, 1e-300))))
        out = np.where(t <= 0.0, 0.0, out)
        return out if out.ndim else float(out)

    def log_value(self, log_t):
        log_t = np.asarray(log_t, dtype=float)
        out = np.interp(log_t, self.log_t, self.log_v)
        lo_slope, hi_slope = self._slopes[0], self._slopes[-1]
        out = np.where(log_t < self.log_t[0],
                       self.log_v[0] + lo_slope * (log_t - self.log_t[0]), out)
        out = np.where(log_t > self.log_t[-1],
                       self.log_v[-1] + hi_slope * (log_t - self.log_t[-1]), out)
        return out if out.ndim else float(out)

    def _set_table(self, log_t, log_v):
        """Replace the table, rebuild the segment slopes derived from it
        and drop the segment powers of the inverses
        (:meth:`_segment_powers`).  All three arrays are read-only, so no
        edit can leave the slopes or the powers stale."""
        self.log_t = log_t
        self.log_v = log_v
        self._slopes = np.diff(log_v) / np.diff(log_t)
        self._powers = {}
        for arr in (self.log_t, self.log_v, self._slopes):
            arr.flags.writeable = False

    def derivative(self, t):
        """Right derivative of ``value``; the end segments extrapolate."""
        t = np.asarray(t, dtype=float)
        log_t = np.log(np.maximum(t, 1e-300))
        seg = np.clip(np.searchsorted(self.log_t, log_t, side="right") - 1,
                      0, self._slopes.size - 1)
        out = self._slopes[seg] * self.value(t) / np.maximum(t, 1e-300)
        return out if out.ndim else float(out)

    def derivative_inverse(self, s):
        return self._power_inverse("derivative", s)

    def _conjugate_level_inverse(self, y):
        return self._power_inverse("level", y)

    def _segment_powers(self, kind):
        """``(log_coef, expo, top)``: the segment powers F of
        :meth:`_power_inverse` for A (``kind`` "value"), A' ("derivative")
        or the conjugate's level function (sigma_k - 1) A ("level"), and
        the running maximum ``top`` of their sups that it searches.  Built
        on the first call for each kind and kept until the table
        changes."""
        powers = self._powers.get(kind)
        if powers is not None:
            return powers
        sigma, log_v = self._slopes, self.log_v[:-1]
        with np.errstate(divide="ignore"):
            if kind == "value":
                log_coef, expo = log_v, sigma
            elif kind == "derivative":
                log_coef, expo = (np.log(sigma) + log_v - self.log_t[:-1],
                                  sigma - 1.0)
            else:
                log_coef, expo = (np.log(np.maximum(sigma - 1.0, 0.0))
                                  + log_v, sigma)
        right = log_coef + expo * np.diff(self.log_t)
        if expo[-1] > 0.0 and log_coef[-1] > -np.inf:
            right[-1] = np.inf  # the last segment grows without bound
        top = np.maximum.accumulate(np.maximum(log_coef, right))
        powers = self._powers[kind] = (log_coef, expo, top)
        return powers

    def _power_inverse(self, kind, y):
        """Leftmost t >= 0 with F(t) >= y, for the segment powers
        F(t) = exp(log_coef[k] + expo[k] log(t/t_k)) of ``kind``
        (:meth:`_segment_powers`), the first segment reaching down to 0
        and the last up to inf as in ``value``.

        The first segment whose sup, running-maximized over the segments
        before it, reaches y holds the answer: its left end where F
        already reaches y there (y inside a knot's jump), else the root
        of the power.  A segment's sup is F at one of its knots, and
        inf on the last one where F grows (for a convex table the first
        segment, reaching down to 0, has expo >= 0 too).  0 where y <= 0;
        nan and inf pass through.  A y that F never reaches, or whose
        root exceeds 1e250, raises :class:`InverseRangeError`.
        """
        log_coef, expo, top = self._segment_powers(kind)
        y = np.asarray(y, dtype=float)
        log_t = self.log_t[:-1]
        out = np.where(y <= 0.0, 0.0, y)
        todo = np.isfinite(y) & (y > 0.0)
        y_todo = y[todo]
        log_y = np.log(y_todo)
        k = np.searchsorted(top, log_y)
        if np.any(k == top.size):
            raise InverseRangeError(
                f"value {float(y_todo[k == top.size][0])!r} not attained")
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.where(expo[k] > 0.0,
                            log_t[k] + (log_y - log_coef[k]) / expo[k],
                            -np.inf)
        t = np.exp(np.maximum(root, np.where(k > 0, log_t[k], -np.inf)))
        if np.any(t > _T_CAP):
            raise InverseRangeError(
                f"value {float(y_todo[t > _T_CAP][0])!r} not attained "
                f"below x_max={_T_CAP:g}")
        out[todo] = t
        return float(out) if out.ndim == 0 else out

    def inverse(self, y):
        """Leftmost t >= 0 with A(t) >= y, from the power of its segment
        (the end segments extrapolating as in ``value``)."""
        return self._power_inverse("value", y)

    def repair_convexity(self):
        """Convex minorant (lower convex hull) in linear (t, A)
        coordinates, in place."""
        keep = _lower_hull(np.exp(self.log_t),
                           np.exp(np.minimum(self.log_v, 700.0)))
        self._set_table(self.log_t[keep], self.log_v[keep])
        return self

    def check_second_differences(self):
        """Whether the table's chord slopes in linear coordinates never
        fall by more than 1e-12 of the largest one."""
        t = np.exp(self.log_t)
        v = np.exp(np.minimum(self.log_v, 700.0))
        s = np.diff(v) / np.diff(t)
        scale = np.max(np.abs(s))
        return bool(np.all(np.diff(s) >= -1e-12 * scale))

    @classmethod
    def from_csv(cls, path):
        """The (t, A(t)) rows of a CSV under a header, all finite and >= 0."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        bad = np.flatnonzero(np.any(~(data >= 0.0) | (data == np.inf), axis=1))
        if bad.size:
            raise YoungFunctionError(f"{path}: knot {bad[0]} not finite or < 0")
        with np.errstate(divide="ignore"):
            return cls(np.log(data[:, 0]), np.log(data[:, 1]))


class LegendreConjugate(ScalarYoungFunction):
    """Pointwise Young conjugate through the first-order condition.

    For convex A with nondecreasing derivative A', the supremum of
    st - A(t) is attained where A'(t) = s.  ``base.derivative_inverse``
    gives that maximizer, which is also the conjugate's derivative
    (envelope theorem: conj(A)'(s) = argmax t): one vectorized
    :func:`solve_increasing` of A', or a closed form for a
    :class:`SampledYoungFunction`, :class:`ExpMinusOneYoung` (log s)
    and :class:`ExpMinusLinearYoung` (log1p s).  A maximizer beyond
    1e250 raises :class:`InverseRangeError`.  The trusted range is the
    base's slopes [A'(t_min), A'(t_max)], clipped to [1e-300, 1e300],
    which the slopes of a steep base leave (e^{t^5} reaches 9.6e306).
    """

    def __init__(self, base):
        self.base = base
        self.name = f"conj({base.name})"
        self.t_min, self.t_max = np.clip(base.derivative(
            np.array([base.t_min, base.t_max])), _TINY, 1e300).tolist()

    def value(self, s):
        s = np.asarray(s, dtype=float)
        t = self.base.derivative_inverse(s)
        out = np.maximum(s * t - np.asarray(self.base.value(t), dtype=float),
                         0.0)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        return self.base.derivative_inverse(s)

    def inverse(self, y):
        """conj^{-1}(y) by one inversion.

        conj(A'(T)) = T A'(T) - A(T) is nondecreasing in T, so invert it
        for the maximizer T; then conj(s) = sT - A(T) = y gives
        s = (y + A(T))/T, which is A'(T) away from kinks and stays exact
        where A' jumps.
        """
        y = np.asarray(y, dtype=float)
        a = self.base
        T = a._conjugate_level_inverse(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(T > 0.0, (y + a.value(T)) / T, 0.0)
        return float(out) if out.ndim == 0 else out

    def conjugate(self):
        # the biconjugate of a convex function is the function itself
        return self.base


class MonotoneFunction:
    """A nondecreasing f known by ``log_value(log t) = log f(t)``, an
    instance attribute that a caller may rebind: the Marcinkiewicz
    generators vartheta_n and varrho_n of ``embedding``."""

    def __init__(self, log_fn, name):
        self.log_value = log_fn
        self.name = name


_CATALOG = {
    "power": lambda p=2.0, coeff=1.0: PowerYoung(p, coeff),
    "power_log": lambda p=2.0, alpha=1.0, shift=math.e: PowerLogYoung(
        p, alpha, shift),
    "exp_power": lambda beta=1.0: ExpPowerYoung(beta),
    "exp_minus_one": lambda: ExpMinusOneYoung(),
    "exp_minus_linear": lambda: ExpMinusLinearYoung(),
}
_CATALOG_KEYS = {kind: tuple(inspect.signature(make).parameters)
                 for kind, make in _CATALOG.items()}


def parse_spec(spec, allowed):
    """``(kind, {key: value})`` from a spec ``"kind[:key=value,...]"`` or
    a JSON term ``{"kind": kind, key: value, ...}``; ``allowed`` maps each
    kind to its keys.  A lone text item without ``=`` is the value of a
    kind's only key (``"const:1"``).  A spec that is neither a string
    nor a JSON object, an unknown kind, any other item without ``=``, a
    key not allowed or repeated, or a value that is not a finite number
    raises :class:`YoungFunctionError` naming the spec and the item."""
    if isinstance(spec, str):
        kind, colon, body = spec.partition(":")
        items = [(item, *item.partition("=")) for item in body.split(",")
                 if colon]
    elif not isinstance(spec, dict):
        raise YoungFunctionError(
            f"spec {spec!r} is not a string or a JSON object")
    elif "kind" in spec:
        kind = spec["kind"]
        items = [(key, key, "=", val) for key, val in spec.items()
                 if key != "kind"]
    else:
        raise YoungFunctionError(f"{spec!r}: no item 'kind'")
    if not isinstance(kind, str) or kind not in allowed:
        raise YoungFunctionError(f"{spec!r}: unknown kind {kind!r}; "
                                 f"expected one of {sorted(allowed)}")
    kw = {}
    for item, key, eq, val in items:
        if not eq and len(allowed[kind]) == len(items) == 1:
            (key,), val = allowed[kind], item
        elif not eq or key not in allowed[kind]:
            raise YoungFunctionError(
                f"{spec!r}: item {item!r} is not key=value with a key of "
                f"{kind} ({', '.join(allowed[kind])})")
        if key in kw:
            raise YoungFunctionError(f"{spec!r}: key {key!r} is repeated")
        try:
            kw[key] = float(val)
        except (TypeError, ValueError):
            kw[key] = math.nan
        if not math.isfinite(kw[key]):
            raise YoungFunctionError(
                f"{spec!r}: item {item!r} is not a finite number")
    return kind, kw


def parse_scalar_function(spec):
    """Build a catalog function from a spec like ``"power:p=3"`` or a
    JSON term like ``{"kind": "power", "p": 3}`` (see :func:`parse_spec`);
    each kind takes the parameters of its catalog entry as keys."""
    kind, kw = parse_spec(spec, _CATALOG_KEYS)
    return _CATALOG[kind](**kw)


# one block of a CSV artifact holds about this many numbers
_CSV_BLOCK = 1024
# memoize the reprs when at most this share of the numbers is distinct;
# above it the index costs more than the reprs saved (the two break even
# near 0.8 on a 257 x 257 field of random numbers)
_MEMO_SHARE = 0.75


def _csv_lines(cells, n_cols, comma, crlf):
    """The CSV lines of a block of ``n_cols``-cell rows, each ended by
    ``crlf``; ``comma`` and ``crlf`` are str or bytes, like the cells."""
    return crlf.join(map(comma.join, zip(*[iter(cells)] * n_cols))) + crlf


def _repr_memo(bits):
    """The repr of each distinct bit pattern of the int64 array ``bits``,
    as bytes in a 24-byte field (no float repr is longer, e.g.
    ``-2.2250738585072014e-308``), and each number's int32 index into
    them; (None, None) when more than ``_MEMO_SHARE`` of the numbers
    are distinct or they fill at most one block.  A block's memo would
    save under a millisecond, and sorting it would page in about 0.4 MB
    of numpy's integer sort code, which the package uses nowhere else."""
    if bits.size <= _CSV_BLOCK:
        return None, None
    # np.sort decides (0.1 ms on 12,288 numbers against 0.25 ms for
    # argsort, on a 2-core Xeon); only the memo's index needs the
    # permutation.  np.unique(bits, return_inverse=True) builds the same
    # index in one call, but only after an argsort: on tables without
    # repeats it cost 0.3 ms more at 4096 x 3 and 1.6 ms more at
    # 257 x 257, about 3 % of a write, which put a random 257 x 257
    # field behind the number-by-number loop; grid-sweep's peak RSS read
    # 0.85 MB lower with it (fewer sort code pages).  Each array is
    # freed after its last use: the memo's peak adds to the process's.
    ordered = np.sort(bits)
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if np.count_nonzero(first) > _MEMO_SHARE * bits.size:
        return None, None
    distinct = ordered[first].view(np.float64)
    del ordered
    order = np.argsort(bits).astype(np.int32)
    index = np.empty(bits.size, dtype=np.int32)
    index[order] = np.cumsum(first, dtype=np.int32)
    index -= 1
    del order, first
    memo = np.empty(distinct.size, dtype="S24")
    for i in range(0, distinct.size, _CSV_BLOCK):
        memo[i:i + _CSV_BLOCK] = list(map(repr, distinct[i:i + _CSV_BLOCK]
                                          .tolist()))
    return memo, index


def write_csv(path, head, rows):
    """Write the line ``head`` and then the rows of the 2-D array ``rows``
    as a CSV file: CRLF line ends and each number as its ``repr``, the
    shortest decimal that reads back to the same float.

    Numbers are told apart by their bit patterns, so 0.0 and -0.0 (and
    NaN payloads) stay apart.  When at most ``_MEMO_SHARE`` of them are
    distinct, as in a grid solution that keeps symmetries of the square,
    each distinct number is formatted once and the rows are read from
    that memo (:func:`_repr_memo`); otherwise, and in a table of at most
    ``_CSV_BLOCK`` numbers, each number is formatted where it stands.
    The bytes are the same either way.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    n_cols = rows.shape[1]
    values = rows.ravel()
    memo, index = _repr_memo(values.view(np.int64))
    step = max(1, _CSV_BLOCK // n_cols) * n_cols
    with open(path, "wb") as fh:
        fh.write(head.encode() + b"\r\n")
        for i in range(0, values.size, step):
            if memo is None:
                cells = map(repr, values[i:i + step].tolist())
                fh.write(_csv_lines(cells, n_cols, ",", "\r\n").encode())
            else:
                cells = memo[index[i:i + step]].tolist()
                fh.write(_csv_lines(cells, n_cols, b",", b"\r\n"))
