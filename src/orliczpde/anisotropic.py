"""Young functions of several variables and their radial averages.

An n-dimensional N-function Phi is even, convex, vanishes exactly at 0,
and has bounded sublevel sets.  The central construction here is the
"average in measure" Phi_circ: the radial Young function whose sublevel
balls have the same Lebesgue measure as the sublevel sets of Phi,

    omega_n * Phi_circ^{-1}(t)^n = |{xi : Phi(xi) <= t}|.

Sublevel sets of a convex function vanishing at 0 are convex, hence
star-shaped about the origin, so their measure is computed from the
radial extent R(w) of the boundary in direction w:

    |{Phi <= t}| = (1/n) * Int_{S^{n-1}} R(w)^n dw,

with R found along the rays of each sphere rule by one
``solve_increasing`` call on a level x direction grid (each ray an
``args`` row, so that each round evaluates Phi only on the rays still
unfinished).  For a combination sum_k A_k(|c_k . xi|) each ray is
bracketed in closed form by the terms' inverses, A_k(r a_k) <= Phi(r w)
<= K max_k A_k(r a_k) with a_k = |c_k . w|, and its values are sums
over the projections a_k; a Phi without terms steps out from R = 1.
The spherical integral is done by one deterministic rule for every n
that doubles its points per angle at each level: a product rule in
hyperspherical coordinates (Stroud 1971, *Approximate Calculation of
Multiple Integrals*), Gauss-Legendre in the polar angles and, on a
half-circle azimuth (Phi is even), Clenshaw-Curtis on each arc between
the kink planes c . xi = 0 of the terms A(|c . xi|) (Clenshaw & Curtis
1960; Trefethen 2008, SIAM Rev. 50), the periodic trapezoid rule where
none cuts it.  Both azimuth rules are nested under doubling, so in the
plane each refinement keeps the radii of the directions it repeats and
solves rays only along the ones it adds.

Square full-rank linear combinations sum_k A_k(|c_k . xi|), splits
sum_i A_i(|xi_i|) among them (the unit vectors as rows), skip the rays
as linear images of sum_k A_k(|x_k|): power terms c_k t^p_k have
Dirichlet's closed form, other terms an iterated tanh-sinh quadrature
(within 1e-14 relative of the closed form on power splits).

Phi_diamond is the radial biconjugate of Phi_circ, which by
Fenchel-Moreau is its convex envelope (largest convex minorant): it is
computed as the lower convex hull of the Phi_circ table.
"""

from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np

from .young import (
    InverseRangeError,
    PowerYoung,
    SampledYoungFunction,
    ScalarYoungFunction,
    YoungFunctionError,
    bracket_ends,
    parse_scalar_function,
    solve_increasing,
)

__all__ = [
    "unit_ball_volume",
    "gauss_legendre",
    "AnisotropicYoungFunction",
    "RadialPhi",
    "SplitPhi",
    "LinearCombinationPhi",
    "CustomPhi",
    "BoundBoxError",
    "MeasureConvergenceWarning",
    "sublevel_measure",
    "radial_extent",
    "phi_circ",
    "phi_diamond",
    "from_json",
]


def unit_ball_volume(n):
    """omega_n, the volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


class BoundBoxError(YoungFunctionError):
    """A sublevel set reaches the evaluation box: the bound radius of a
    :class:`CustomPhi`, or the solver's range for the other forms."""


class MeasureConvergenceWarning(UserWarning):
    """The star path stopped refining its sphere rule with some levels
    still above ``rel_tol``.

    ``summary`` holds ``levels`` (levels asked for), ``unconverged`` (how
    many ended above ``rel_tol``), ``worst_rel_change`` (the largest last
    relative change among them) and ``rel_tol``.
    """

    def __init__(self, summary):
        super().__init__(
            f"{summary['unconverged']} of {summary['levels']} sublevel "
            f"measures ended the sphere rule refinement with a relative "
            f"change up to {summary['worst_rel_change']:.3g} > "
            f"rel_tol={summary['rel_tol']:g}")
        self.summary = summary


_BOUND_RADIUS = 1e8  # trusted evaluation radius of a CustomPhi (bound box)


class AnisotropicYoungFunction:
    """Base: a convex even function on R^n with Phi(0) = 0.

    ``value`` accepts arrays shaped (..., n) and returns (...).
    """

    form = "custom"

    def __init__(self, n):
        if not float(n).is_integer():
            raise YoungFunctionError(f"dimension n = {n!r} is not an integer")
        self.n = int(n)
        if self.n < 2:
            raise YoungFunctionError("dimension must be >= 2")

    def value(self, xi):
        raise NotImplementedError


class RadialPhi(AnisotropicYoungFunction):
    """Phi(xi) = A(|xi|) for a scalar Young function A."""

    form = "radial"

    def __init__(self, n, a: ScalarYoungFunction):
        super().__init__(n)
        self.a = a

    def value(self, xi):
        r = np.linalg.norm(np.asarray(xi, dtype=float), axis=-1)
        return self.a.value(r)


class LinearCombinationPhi(AnisotropicYoungFunction):
    """Phi(xi) = sum_k A_k(|c_k . xi|) for coefficient rows c_k.

    When the number of terms equals n and the coefficient matrix M is
    invertible, sublevel sets are linear images of those of
    sum_k A_k(|x_k|), so :func:`sublevel_measure` takes that measure
    times 1/|det M|; other combinations go through the star-shaped path.
    """

    form = "linear_combination"

    def __init__(self, n, rows):
        super().__init__(n)
        coeffs, terms = zip(*rows)
        self.coeffs, self.terms = np.asarray(coeffs, dtype=float), list(terms)
        if self.coeffs.shape[1] != n:
            raise YoungFunctionError("coefficient rows must have length n")
        for k, row in enumerate(self.coeffs):
            if not np.all(np.isfinite(row)):
                raise YoungFunctionError(
                    f"term {k}: coefficient row {row.tolist()} is not finite")
        if np.linalg.matrix_rank(self.coeffs) < n:
            raise YoungFunctionError(
                "coefficient rows must span R^n (else sublevel sets are "
                "unbounded)"
            )

    def value(self, xi):
        xi = np.asarray(xi, dtype=float)
        y = np.abs(xi @ self.coeffs.T)
        return sum(a.value(y[..., k]) for k, a in enumerate(self.terms))


class SplitPhi(LinearCombinationPhi):
    """Phi(xi) = sum_i A_i(|xi_i|), one scalar Young function per axis:
    the linear combination whose rows are the unit vectors."""

    form = "split"

    def __init__(self, terms):
        super().__init__(len(terms), zip(np.eye(len(terms)), terms))


class CustomPhi(AnisotropicYoungFunction):
    form = "custom"

    def __init__(self, n, fn):
        super().__init__(n)
        self._fn = fn

    def value(self, xi):
        return self._fn(np.asarray(xi, dtype=float))


# ---------------------------------------------------------------------
# sublevel measure via star-shaped radial extent


def radial_extent(phi, directions, levels, bracket=None):
    """R(w, t) with Phi(R w) = t, one row per level of the 1-D ``levels``
    and one column per unit direction row w of ``directions``.

    Phi is nondecreasing along rays from 0 (convexity + Phi(0)=0), so
    the whole level x direction grid is one :func:`solve_increasing`
    call, each grid element an ``args`` row, so that each round
    evaluates Phi only on the rays still unfinished.  For a combination
    that row is its projections a_k = |c_k . w|, built once from the
    directions and broadcast over the levels, and a ray's value is
    sum_k A_k(r a_k).  ``bracket`` = (R_lo, R_hi, Phi_lo, Phi_hi),
    radii with Phi_lo < t <= Phi_hi, broadcasts to the grid and is
    passed to the solver, which then only narrows; without it each ray
    is bracketed by steps from R = 1.  R is solved to 1e-12 relative,
    and a grid element's bits do not depend on the rest of the grid.  A
    :class:`CustomPhi` may have unbounded sublevel sets, so its boundary
    beyond the bound radius 1e8 raises :class:`BoundBoxError`; the other
    forms have bounded ones (a combination's rows span R^n) and are
    solved over the solver's range.
    """
    w = np.asarray(directions, dtype=float)
    t = np.asarray(levels, dtype=float)[:, None]
    grid = (t.size, len(w))
    box = {"x_max": _BOUND_RADIUS} if isinstance(phi, CustomPhi) else {}
    if isinstance(phi, LinearCombinationPhi):
        fn, args = partial(_ray_values, phi.terms), _projections(phi.coeffs, w)
    else:
        fn, args = (lambda r, w: phi.value(r[:, None] * w)), (w,)
    try:
        return solve_increasing(
            fn, np.broadcast_to(t, grid), bracket=bracket, **box,
            args=tuple(np.broadcast_to(a, grid + a.shape[1:]) for a in args))
    except InverseRangeError as err:
        raise BoundBoxError(f"sublevel set reaches the bound box: {err}"
                            ) from None


def _projections(coeffs, w):
    """|c_k . w|, one row per row c_k of ``coeffs`` and one column per
    direction row of ``w``; summed elementwise, so a column's bits do
    not depend on the directions that come with it."""
    return np.abs(sum(np.multiply.outer(ci, wi)
                      for ci, wi in zip(coeffs.T, w.T)))


def _ray_values(terms, r, *a):
    """Phi(r w) = sum_k A_k(r a_k) from the projections a_k = |c_k . w|."""
    return sum(f.value(r * ak) for f, ak in zip(terms, a))


def _ray_bracket(terms, a, t, inv):
    """(lo, hi, Phi(lo w), Phi(hi w)), one row per level of ``t`` and one
    column per direction of the projections ``a``; ``inv`` holds
    A_k^{-1}(t/K) and A_k^{-1}(t), shaped (2, K, levels).  Phi(r w) >=
    A_k(r a_k) gives R <= hi = min_k A_k^{-1}(t)/a_k, and Phi(r w) <=
    K max_k A_k(r a_k) gives R >= lo = min_k A_k^{-1}(t/K)/a_k.  hi is
    widened by 4 ulps, so that a direction with one nonzero term, where
    Phi(hi w) = A_k(A_k^{-1}(t)), does not round below t; an end that
    rounding still breaks is opened (:func:`young.bracket_ends`)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = (np.min([x[:, None] / ak for x, ak in zip(end, a)], axis=0)
                  for end in inv)
    return bracket_ends(partial(_ray_values, terms), t[:, None], lo,
                        hi * (1.0 + 4.0 * np.finfo(float).eps), args=a)


# no rule has more than 2^21 directions, the size of the n = 3 rule at
# level 5 (1024^2); the n = 3 rule at level 6 would have 2^22
_LOG2_MAX_DIRECTIONS = 21


def _log2_points(n):
    """log2 of the level-0 sphere rule's points per angle, m = 32 for
    n <= 3 and 4 above; without kinks it has m^(n-1) directions."""
    return 5 if n <= 3 else 2


def gauss_legendre(m):
    """Gauss-Legendre nodes and weights on [-1, 1], rounding-accurate, by
    Newton's method on the recurrence of P_m in O(m) memory."""
    x = -np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(4):  # three steps reach rounding level
        p0, p1 = np.ones(m), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (p0 - x * p1) / (1.0 - x * x)  # P_m'(x)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp**2)


def _clenshaw_curtis(k):
    """Clenshaw-Curtis nodes cos(pi j / k), j = 0..k, and weights on
    [-1, 1] (Clenshaw & Curtis 1960), by the cosine sums of Waldvogel
    2006 (BIT 46).  The nodes of k are the even nodes of 2 k bit for bit:
    pi j / k and pi (2 j) / (2 k) round alike."""
    theta = math.pi * np.arange(k + 1) / k
    i = np.arange(1, k // 2 + 1)
    b = np.where(2 * i == k, 1.0, 2.0) / (4.0 * i**2 - 1.0)
    wts = np.full(k + 1, 2.0 / k)
    wts[[0, -1]] = 1.0 / k
    return np.cos(theta), wts * (1.0 - b @ np.cos(np.outer(2 * i, theta)))


def _sphere_rule(n, level, kinks):
    """Directions and weights integrating an even function over S^{n-1};
    the number of points along each angle doubles with ``level``.

    A product rule in hyperspherical coordinates: m-point Gauss-Legendre
    in each of the n-2 polar angles theta_k, weighted by sin(theta_k)^k.
    Where kink planes c . w = 0 (c a row of the K x n ``kinks``) cut the
    azimuth, it takes Clenshaw-Curtis with k intervals on each arc
    between them, arcs the most of a polar node, so kinks cost no
    accuracy: k = m0 // arcs << level (m0 the m of level 0), or
    m / 2^j with 2^j >= arcs where arcs > m0, and one interval at
    least.  The arcs that meet at a cut share its node, their two
    weights summed, and the end at pi shares the end at 0 of the
    opposite polar node, so a polar node has at most arcs k directions,
    within m unless arcs > m.
    Where none does, the periodic trapezoid rule at az = pi j / m, the
    efficient one for a smooth periodic integrand.  The azimuth covers
    half a circle with doubled weights: Phi is even, so R(w)^n is too.
    Both azimuth rules are nested: in the plane (no polar angles) the
    directions of ``level`` are the even-numbered ones of ``level + 1``,
    bit for bit.
    """
    m = 2 ** (_log2_points(n) + level)
    # polar part: direction (u, s cos(az), s sin(az)), weight pw
    w, pw = np.ones((1, 1)), np.ones(1)
    if n > 2:
        x, gw = gauss_legendre(m)
        th, gw = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * gw  # on [0, pi]
        ct, st = np.cos(th), np.sin(th)
    for k in range(1, n - 1):
        # w -> (cos theta, sin theta * w), measure sin(theta)^k dtheta
        w = np.column_stack([np.repeat(ct, len(w)),
                             (st[:, None, None] * w).reshape(-1, k)])
        pw = np.outer(gw * st**k, pw).ravel()
    u, s = w[:, :-1], w[:, -1:]
    # c . w = c_u . u + s |c_az| cos(az - phase) vanishes at
    # az = phase +- arccos(-c_u . u / (s |c_az|)) where that is real
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.arccos(-(u @ kinks[:, :-2].T)
                         / (s * np.hypot(kinks[:, -2], kinks[:, -1])))
    phase = np.arctan2(kinks[:, -1], kinks[:, -2])
    cuts = np.concatenate([phase + beta, phase - beta], axis=1) % (2 * math.pi)
    cuts = np.where(cuts <= math.pi, cuts, 0.0)  # no crossing (nan) too
    ends = np.sort(np.column_stack([np.zeros(len(u)), cuts,
                                    np.full(len(u), math.pi)]), axis=1)
    # a repeated end moves to pi: each node's nonempty arcs come first
    ends[:, 1:][ends[:, 1:] == ends[:, :-1]] = math.pi
    ends.sort(axis=1)
    width = np.diff(ends, axis=1)
    arcs = int(np.max(np.count_nonzero(width, axis=1)))
    if arcs == 1:
        az = np.tile(math.pi * np.arange(m) / m, (len(u), 1))
        wt = np.outer(pw, np.full(m, 2.0 * math.pi / m))
    else:
        # arcs k <= m, k doubling with the level: m0 // arcs where it is
        # positive, else m / 2^j with 2^j >= arcs
        k = max((2 ** _log2_points(n) // arcs) << level,
                m >> (arcs - 1).bit_length(), 1)
        x, cw = _clenshaw_curtis(k)
        # arc i holds its left end and its interior nodes, and its right
        # end is the left end of arc i + 1; the end at pi of polar node i
        # is the end at 0 of node -u_i (the polar order reversed) turned
        # half a circle, and R is even.  Doubled weights: cw sums to 2 on
        # each arc of the half circle
        az = (ends[:, :-1, None] + 0.5 * width[:, :, None] * (1.0 - x[:k])
              ).reshape(len(u), -1)
        aw = width[:, :, None] * cw[:k]
        right = width * cw[k]
        last = (np.arange(len(u)), np.count_nonzero(width, axis=1) - 1)
        at_pi = pw * right[last]
        right[last] = 0.0
        aw[:, 1:, 0] += right[:, :-1]
        wt = pw[:, None] * aw.reshape(len(u), -1)
        wt[::-1, 0] += at_pi
    keep = wt > 0.0  # drop the empty arcs
    node = np.repeat(np.arange(len(u)), keep.sum(axis=1))
    az, s = az[keep], s[node, 0]
    return np.column_stack([u[node], s * np.cos(az), s * np.sin(az)]), wt[keep]


def _power_split_measure(terms, t):
    """Measure of {sum_i c_i |x_i|^p_i <= t} by Dirichlet's integral:
    prod_i 2 Gamma(1 + 1/p_i) c_i^(-1/p_i) / Gamma(1 + s) * t^s, with
    s = sum_i 1/p_i."""
    s = sum(1.0 / a.p for a in terms)
    scale = math.prod(2.0 * math.gamma(1.0 + 1.0 / a.p)
                      * a.coeff ** (-1.0 / a.p) for a in terms)
    return scale / math.gamma(1.0 + s) * np.asarray(t, dtype=float) ** s


# tanh-sinh nodes (1 + tanh(pi/2 sinh(k h)))/2 on [0, 1], k = -24..24,
# h = 1/8, and their weights (Takahasi & Mori 1974, Publ. RIMS 9); the
# weights beyond |k| = 24 sum to about 1e-15
_TS_U = 0.5 * math.pi * np.sinh(np.arange(-24, 25) / 8.0)
_TS_X = 0.5 * (1.0 + np.tanh(_TS_U))
_TS_W = math.pi / 32.0 * np.cosh(np.arange(-24, 25) / 8.0) / np.cosh(_TS_U)**2


def _split_measure(terms, t):
    """Measure of {sum_k A_k(|x_k|) <= t} by iterated quadrature.

    It is not exact: on power splits with n = 2, 3 and 4 it is within
    1e-14 relative of Dirichlet's closed form at every level.

    ``terms[0]`` is inverted once per level, ``terms[-1]`` at levels x
    49^(n-1) nodes.  Each variable takes the tanh-sinh rule on [0, R]:
    at the edge x = R the remaining budget vanishes and the inner measure
    has an algebraic branch point, which a double-exponential rule
    integrates at an exponential rate (Mori & Sugihara 2001, J. Comput.
    Appl. Math. 127).  Extreme axis anisotropy costs nothing here,
    unlike the angular rule.
    """
    t = np.asarray(t, dtype=float)
    if len(terms) == 1:
        return 2.0 * terms[0].inverse(t)
    a1 = terms[0]
    shape = t.shape
    tf = t.ravel()
    R1 = a1.inverse(tf)
    rem = np.maximum(tf[:, None] - np.asarray(a1.value(R1[:, None] * _TS_X)),
                     0.0)
    inner = _split_measure(terms[1:], rem.ravel()).reshape(rem.shape)
    return (2.0 * R1 * (inner @ _TS_W)).reshape(shape)


# Most (level, point) pairs in one batched solve: a star-path call takes
# as many pending levels as fit with all their sphere directions (one
# level at least), a split call as many levels as fit with all their
# 49^(n-1) quadrature nodes (334 levels for n = 2, six for n = 3, one
# for n = 4).  On the benchmark's averages workload (2-core Xeon, one
# thread, five seeds, medians) 2^14 took 0.184 s, 2^12 0.209 s and 2^16
# 0.184 s, but 2^16 raised peak RSS by 1.7 MB (4%).
_CHUNK = 2**14
_REL_TOL = 1e-7


def _chunks(n_items, per_item):
    """Slices cutting range(n_items) into runs of at most _CHUNK // per_item
    items (at least one) each."""
    step = max(1, _CHUNK // per_item)
    return [slice(i, i + step) for i in range(0, n_items, step)]


def _star_measure(phi, levels):
    """Star-path measures of the 1-D array ``levels``, all at once, and
    their convergence summary (see :func:`sublevel_measure`).  Each rule
    solves its new directions for the pending levels in one
    :func:`radial_extent` call per chunk, for every Phi.  A
    combination's terms are inverted once, at ``levels`` / K and
    ``levels``, and each chunk brackets its (level, direction) pairs
    from them (:func:`_ray_bracket`)."""
    n = phi.n
    # kink planes c . xi = 0 of the terms A(|c . xi|); the K rows c with
    # an azimuth part cut the azimuth into <= 2 K + 1 <= 2^arcs arcs
    c = np.reshape(getattr(phi, "coeffs", ()), (-1, n))
    terms = getattr(phi, "terms", ())
    arcs = int(2 * np.any(c[:, -2:], axis=1).sum()).bit_length()
    # six rules, or fewer where m^(n-1) directions exceed 2^21 (one at
    # n = 11, none from n = 12), split where m^(n-2) max(m, 2^arcs) do not
    n_rules = min(6, _LOG2_MAX_DIRECTIONS // (n - 1) - _log2_points(n) + 1)
    if n_rules < 1:
        raise YoungFunctionError(f"the sphere rule in dimension {n} exceeds "
                                 f"2^{_LOG2_MAX_DIRECTIONS} directions")
    # an infinite level has measure inf at once, as on the other paths
    est = np.where(np.isinf(levels), np.inf, 0.0)
    change = np.full(levels.size, np.inf)
    pending = np.flatnonzero(np.isfinite(levels))
    # a combination's terms inverted once at t / K and t (_ray_bracket)
    inv = np.empty((2, len(terms), levels.size))
    for k, f in enumerate(terms):
        inv[:, k, pending] = (f.inverse(levels[pending] / len(terms)),
                              f.inverse(levels[pending]))
    # the pending levels keep their radii along the last rule's
    # directions in the plane only: the polar rule changes with m, so
    # no direction repeats where n >= 3
    carry = slice(None) if n == 2 else slice(0)
    kept_w, kept_r = np.empty((0, n)), np.empty((pending.size, 0))
    for rule in range(n_rules):
        if not pending.size:
            break
        j = _log2_points(n) + rule
        split = (n - 2) * j + max(j, arcs) <= _LOG2_MAX_DIRECTIONS
        w, wt = _sphere_rule(n, rule, c if split else c[:0])
        if np.array_equal(w, kept_w):
            continue  # more arcs than points repeat a rule: no change
        # a nested rule's even directions are the last rule's, and only
        # the fresh ones are solved
        nested = np.array_equal(w[::2], kept_w)
        seen = slice(0, None, 2) if nested else slice(0)
        fresh = slice(1, None, 2) if nested else slice(None)
        r_old = kept_r if nested else kept_r[:, :0]
        # a combination brackets every (level, direction) pair in closed
        # form from the projections a_k (_ray_bracket); a Phi without
        # terms passes no bracket, and its rays step out from R = 1
        wf, ts = w[fresh], levels[pending]
        a = _projections(c, wf)
        new = np.empty(pending.size)
        kept_r = np.empty((pending.size, len(w[carry])))
        for rows in _chunks(ts.size, len(wf)):
            bracket = None
            if len(terms):
                bracket = _ray_bracket(terms, a, ts[rows],
                                       inv[:, :, pending[rows]])
            r = np.empty((ts[rows].size, len(w)))
            r[:, seen] = r_old[rows]
            r[:, fresh] = radial_extent(phi, wf, ts[rows], bracket)
            new[rows] = np.sum(wt * r ** n / n, axis=1)
            kept_r[rows] = r[:, carry]
        diff = np.abs(new - est[pending])
        done = (diff <= _REL_TOL * np.abs(new)) & (rule > 0)
        change[pending] = diff / np.abs(new)
        est[pending] = new
        pending = pending[~done]
        kept_w, kept_r = w[carry], kept_r[~done]
    worst = float(np.max(change[pending])) if pending.size else None
    return est, {"levels": levels.size, "unconverged": pending.size,
                 "worst_rel_change": worst, "rel_tol": _REL_TOL}


def _measures(phi, levels):
    """Measures of the 1-D array of positive ``levels``, their
    convergence summary (see :func:`sublevel_measure`) and the exact
    tail (sigma, beta) of Phi_circ: (n / sum 1/p_i, 0) where the
    measures are Dirichlet's closed form c t^{sum 1/p_i}, else None."""
    tail = None
    coeffs = getattr(phi, "coeffs", ())
    det = abs(float(np.linalg.det(coeffs))) if len(coeffs) == phi.n else 0.0
    if phi.form == "radial":
        out = unit_ball_volume(phi.n) * phi.a.inverse(levels) ** phi.n
    elif det > 0.0 and all(isinstance(a, PowerYoung) for a in phi.terms):
        out = _power_split_measure(phi.terms, levels) / det
        tail = (phi.n / sum(1.0 / a.p for a in phi.terms), 0.0)
    elif det > 0.0:
        # Fubini leaves the order free: a closed-form inverse innermost
        terms = sorted(phi.terms, key=lambda a: a.closed_form_inverse)
        out = np.empty(levels.size)
        nodes = _TS_X.size ** (phi.n - 1)
        for chunk in _chunks(levels.size, nodes):
            out[chunk] = _split_measure(terms, levels[chunk]) / det
    else:
        return (*_star_measure(phi, levels), None)
    return out, {"levels": levels.size, "unconverged": 0,
                 "worst_rel_change": None, "rel_tol": _REL_TOL}, tail


def sublevel_measure(phi, t):
    """Lebesgue measure of {xi in R^n : Phi(xi) <= t}.

    ``t`` is a level or an array of levels; a float or an array of the
    same shape is returned, and all levels are computed together.
    Radial forms use the closed formula omega_n A^{-1}(t)^n; square
    full-rank linear combinations (splits among them, with M = I),
    whose sublevel sets are linear images of those of
    sum_k A_k(|x_k|) with Jacobian 1/|det M|, use Dirichlet's
    closed form when every term is a :class:`PowerYoung` and iterated
    tanh-sinh quadrature (within 1e-14 relative of the closed form on
    power splits, a ``closed_form_inverse`` term innermost) otherwise;
    everything else goes through the star-shaped boundary integral, its
    sphere rule split at the terms' kink planes and refined until the
    relative change drops below ``rel_tol`` = 1e-7.  On that path every
    pending level is solved along the directions of a sphere rule in one
    :func:`radial_extent` call per chunk of at most ``_CHUNK`` (level,
    direction) pairs, each ray of a combination in its closed-form
    bracket from the terms' inverses at t / K and t (taken once per
    level), each ray of a Phi without terms (a :class:`CustomPhi`) by
    steps from R = 1.  In the plane the rules are nested and a level
    keeps its radii along the directions that the last rule had, so
    each rule solves only its new directions.
    A level leaves once its relative change is <= ``rel_tol``; levels still
    above it after the finest rule are returned with a
    :class:`MeasureConvergenceWarning`.  Every rule is deterministic.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros(t_arr.size)
    pos = np.flatnonzero(t_arr.ravel() > 0.0)
    out[pos], summary, _ = _measures(phi, t_arr.ravel()[pos])
    if summary["unconverged"]:
        warnings.warn(MeasureConvergenceWarning(summary), stacklevel=2)
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


# ---------------------------------------------------------------------
# Phi_circ and Phi_diamond


def phi_circ(phi, t_lo=1e-3, t_hi=1e6, n_levels=512, seed=0):
    """The radial measure-average of Phi as a sampled scalar function.

    Evaluates Phi_circ^{-1}(t_j) = (|{Phi <= t_j}| / omega_n)^{1/n} on a
    log ladder of levels, all computed together as in
    :func:`sublevel_measure`, and tabulates the inverse relation; the
    table is convex-hull corrected.  The table's ``convergence``
    attribute summarizes the measures: ``levels``, ``unconverged``
    (levels whose star-path sphere rule ended above ``rel_tol``; 0 off
    the star path), ``worst_rel_change`` (the largest
    last relative change among them, None when there are none) and
    ``rel_tol``; no :class:`MeasureConvergenceWarning` is issued.  Where
    the measures are Dirichlet's closed form (power splits and square
    power combinations) the table's ``tail`` is the exact one,
    (n / sum 1/p_i, 0), so no tail fit needs decades of levels.
    A radial Phi returns its generator and a scalar Young function
    itself (the construction is the identity for them).  ``seed`` is
    accepted and unused: every rule is deterministic.  The ladder must
    have finite ends 0 < t_lo < t_hi and n_levels >= 4, else
    :class:`YoungFunctionError` names the value.
    """
    for name, val in (("t_lo", t_lo), ("t_hi", t_hi)):
        if not (math.isfinite(val) and val > 0.0):
            raise YoungFunctionError(
                f"phi_circ needs a finite positive {name}; got {val!r}")
    if t_hi <= t_lo:
        raise YoungFunctionError(
            f"phi_circ needs t_hi > t_lo; got t_lo={t_lo!r}, t_hi={t_hi!r}")
    if n_levels < 4:
        raise YoungFunctionError(
            f"phi_circ needs n_levels >= 4; got {n_levels!r}")
    if not isinstance(phi, AnisotropicYoungFunction):
        return phi
    if phi.form == "radial":
        return phi.a
    levels = np.geomspace(t_lo, t_hi, n_levels)
    measures, convergence, tail = _measures(phi, levels)
    radii = (measures / unit_ball_volume(phi.n)) ** (1.0 / phi.n)
    out = SampledYoungFunction(np.log(radii), np.log(levels),
                               name=f"phi_circ[{phi.form}]")
    out.repair_convexity()
    out.convergence = convergence
    out.tail = tail
    return out


def phi_diamond(phi_or_circ):
    """Radial biconjugate of Phi_circ, sampled.

    The biconjugate of Phi_circ is its convex envelope (Fenchel-Moreau),
    so the result is the lower convex hull of the Phi_circ table in
    linear (t, A) coordinates: equal to Phi_circ at the hull vertices,
    linear between them, and within bounded dilation of Phi_circ.  An
    analytic scalar input is convex when built, so it is its own
    biconjugate and is returned unchanged.  A stated ``tail`` carries
    over: Phi_circ is then the power c t^sigma, its own envelope.
    """
    circ = phi_circ(phi_or_circ)
    if not isinstance(circ, SampledYoungFunction):
        return circ
    out = SampledYoungFunction(circ.log_t, circ.log_v,
                               name=f"phi_diamond({circ.name})")
    out.tail = circ.tail
    return out.repair_convexity()


# ---------------------------------------------------------------------
# JSON specification


def from_json(doc):
    """Build an anisotropic function from a JSON-style dict.

    Examples::

        {"n": 2, "form": "radial", "term": {"kind": "power", "p": 2}}
        {"n": 2, "form": "split",
         "terms": [{"kind": "power", "p": 2}, {"kind": "power", "p": 4}]}
        {"n": 2, "form": "linear_combination",
         "terms": [{"coeffs": [1, -1], "kind": "power", "p": 2},
                   {"coeffs": [1, 0], "kind": "power", "p": 3}]}

    A missing key raises :class:`YoungFunctionError` naming the form
    and the key.
    """
    form = _item(doc, "form", "an anisotropic function")
    where = f"{form} form"
    n = _item(doc, "n", where)
    if form == "radial":
        return RadialPhi(n, parse_scalar_function(_item(doc, "term", where)))
    if form == "split":
        terms = [parse_scalar_function(t) for t in _item(doc, "terms", where)]
        if len(terms) != n:
            raise YoungFunctionError(f"split form needs one term per axis, "
                                     f"{len(terms)} for n = {n!r}")
        return SplitPhi(terms)
    if form == "linear_combination":
        rows = [(_item(t, "coeffs", f"{where} term {i}"),
                 parse_scalar_function({k: v for k, v in t.items()
                                        if k != "coeffs"}))
                for i, t in enumerate(_item(doc, "terms", where))]
        return LinearCombinationPhi(n, rows)
    raise YoungFunctionError(f"unknown form {form!r}")


def _item(doc, key, where):
    """``doc[key]``; a missing key raises :class:`YoungFunctionError`
    naming ``where`` and the key."""
    if key not in doc:
        raise YoungFunctionError(f"{where} needs {key!r}")
    return doc[key]
