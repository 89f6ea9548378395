"""Finite-difference energy minimization on the unit square.

The model Dirichlet problems  -div a(x, grad u) = f,  u = 0 on the
boundary, with a = b(x) grad Phi + eps A_q'(|xi|) xi / |xi|, are
discretized by cell-wise forward differences:

    J(u) = h^2 * Sum_cells [ b Phi(grad_h u) + eps A_q(|grad_h u|) ]
         - h^2 * Sum_nodes f u.

Phi is the package's own anisotropic N-function on R^2: a radial
A(|xi|) or a split A_1(|xi_1|) + A_2(|xi_2|) (``anisotropic.RadialPhi``
and ``SplitPhi``), and A_q(t) = t^q/q is one more radial term.  The
flux and the Hessian of each term come from its scalar terms A, A' and
A'' (``second_derivative``).  J is strictly convex, so a Newton-Krylov
iteration converges to the unique minimizer.  Each Hessian system is
solved by matrix-free conjugate gradients, preconditioned with the
inverse discrete Laplacian in the sine basis, to the inexact-Newton
forcing term eta = min(0.1, sqrt(res / (res + 1))); the cell Hessian
weights are computed once per Newton step.  Steps are backtracked on J
(Armijo) until the Newton decrement falls below the rounding level of
J; from there a full step is taken only if it lowers the sup residual
and raises J by no more than that level, else the iteration stops; it
also stops when the sup residual has stalled.  The energy trace is
monotone up to that rounding bound.  For Phi = |xi|^2/2 the energy gradient is
exactly the 5-point scheme and the first Newton step solves it.

Also here: truncated-data solution ladders (approximable solutions),
the mollified point-mass datum, and the operator assumption audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anisotropic import RadialPhi
from .young import PowerYoung, YoungFunctionError, solve_increasing

__all__ = [
    "GridField",
    "OperatorSpec",
    "SolveError",
    "solve",
    "cell_gradients",
    "point_mass_field",
    "approximable_sequence",
    "assumption_audit",
]

_DELTA = 1e-12  # floor on |xi| inside the flux only


class SolveError(RuntimeError):
    def __init__(self, message, residual=None, newton_steps=None):
        super().__init__(message)
        self.residual = residual
        self.newton_steps = newton_steps


@dataclass
class GridField:
    """N x N nodal field on [0,1]^2 with zero boundary."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise YoungFunctionError("field must be square")

    @property
    def n_nodes(self):
        return self.values.shape[0]

    @property
    def h(self):
        return 1.0 / (self.n_nodes - 1)

    @property
    def cell_measure(self):
        return self.h**2

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((n, n)))

    @classmethod
    def from_function(cls, n, fn):
        x = np.linspace(0.0, 1.0, n)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return cls(np.asarray(fn(xx, yy), dtype=float))

    def zero_boundary(self):
        v = self.values
        v[0, :] = v[-1, :] = v[:, 0] = v[:, -1] = 0.0
        return self

    def l1(self):
        return float(np.sum(np.abs(self.values)) * self.cell_measure)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("# finite-difference nodal field u(x,y)\r\n")
            np.savetxt(fh, self.values, delimiter=",", newline="\r\n")


def _hessian_floor(a):
    """Floor on the argument r of the scalar term A in the Hessian
    weights: 1e-8, or the root of A'(r)/r = 1e-16 where A'(r)/r is below
    1e-16 at 1e-8, so that no weight falls below 1e-16.  A smaller weight
    at a zero gradient (u = 0) makes the first CG direction enormous."""
    def slope(r):
        return a.derivative(r) / r

    return 1e-8 if slope(1e-8) >= 1e-16 else solve_increasing(slope, 1e-16)


class _Term:
    """weight * Phi(xi) for a radial Phi = A(|xi|) or a split
    Phi = A_1(|xi_1|) + A_2(|xi_2|) on R^2; its flux and Hessian come
    from the scalar terms A, A' and A''."""

    def __init__(self, weight, phi):
        form, n = getattr(phi, "form", None), getattr(phi, "n", None)
        self.radial = form == "radial"
        self.scalars = [phi.a] if self.radial else getattr(phi, "terms", [])
        if n != 2 or form not in ("radial", "split") or not all(
                hasattr(a, "second_derivative") for a in self.scalars):
            raise YoungFunctionError(
                f"the grid takes a radial or split Phi on R^2 whose terms "
                f"have a second_derivative, not a {form} form in dimension "
                f"{n} with terms {[a.name for a in self.scalars]}")
        self.weight = weight
        self.floors = [_hessian_floor(a) for a in self.scalars]

    def sizes(self, gx, gy):
        """The scalar arguments: [|xi|] (radial) or [|xi_1|, |xi_2|]."""
        if self.radial:
            return [np.sqrt(gx**2 + gy**2)]
        return [np.abs(gx), np.abs(gy)]

    def value(self, gx, gy):
        return self.weight * sum(
            a.value(s) for a, s in zip(self.scalars, self.sizes(gx, gy)))

    def flux_weights(self, gx, gy):
        """(wx, wy) with flux (wx gx, wy gy): weight * A'(s)/s for each
        scalar argument s, floored at _DELTA."""
        s = [np.maximum(s, _DELTA) for s in self.sizes(gx, gy)]
        w = [self.weight * a.derivative(t) / t
             for a, t in zip(self.scalars, s)]
        return (w[0], w[0]) if self.radial else w

    def hess_weights(self, gx, gy):
        """(dx, dy, c) with Hessian diag(dx, dy) + c g g^T, the scalar
        arguments floored at :func:`_hessian_floor`: radial (w1, w1,
        (A''(r) - w1)/r^2) with w1 = A'(r)/r, split
        (A_1''(|xi_1|), A_2''(|xi_2|), None)."""
        s = [np.maximum(s, f)
             for s, f in zip(self.sizes(gx, gy), self.floors)]
        d2 = [self.weight * a.second_derivative(t)
              for a, t in zip(self.scalars, s)]
        if not self.radial:
            return d2[0], d2[1], None
        r = s[0]
        w1 = self.weight * self.scalars[0].derivative(r) / r
        return w1, w1, (d2[0] - w1) / r**2


@dataclass
class OperatorSpec:
    """Energy density b Phi(xi) + eps A_q(|xi|), A_q(t) = t^q/q, q > 2.

    ``potential`` is a radial or split Phi on R^2 (``anisotropic``)
    whose scalar terms have a ``second_derivative``, else
    :class:`YoungFunctionError` is raised.  The regularization is one
    more radial term, and every method below sums over the terms.
    """

    potential: object
    epsilon: float = 0.0
    q: float = 4.0
    b: np.ndarray | float = 1.0  # cell coefficient, must be >= 1

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0):
            raise YoungFunctionError("epsilon must lie in [0, 1)")
        if self.epsilon > 0.0 and self.q <= 2.0:
            raise YoungFunctionError("regularization needs q > dimension 2")
        if np.any(np.asarray(self.b) < 1.0):
            raise YoungFunctionError("coefficient b must be >= 1")
        self._terms = [_Term(np.asarray(self.b), self.potential)]
        if self.epsilon > 0.0:
            self._terms.append(_Term(self.epsilon, RadialPhi(
                2, PowerYoung(self.q, 1.0 / self.q))))

    def energy_density(self, gx, gy):
        return sum(t.value(gx, gy) for t in self._terms)

    def flux(self, gx, gy):
        ws = [t.flux_weights(gx, gy) for t in self._terms]
        return sum(wx for wx, _ in ws) * gx, sum(wy for _, wy in ws) * gy

    def hess_weights(self, gx, gy):
        """Cell-wise Hessian of the energy density at the gradient (gx, gy).

        Returns ``(dx, dy, c, gx, gy)`` with Hessian diag(dx, dy) + c g g^T,
        summed over the terms; ``c`` is None when no term is radial.  The
        weights depend only on the Newton iterate, so one evaluation
        serves a whole CG solve.
        """
        parts = [t.hess_weights(gx, gy) for t in self._terms]
        cs = [c for _, _, c in parts if c is not None]
        return (sum(dx for dx, _, _ in parts), sum(dy for _, dy, _ in parts),
                sum(cs) if cs else None, gx, gy)

    def hess_apply(self, weights, vx, vy):
        """Cell-wise Hessian action (d flux / d gradient applied to v),
        with ``weights`` from :meth:`hess_weights`."""
        dx, dy, c, gx, gy = weights
        out_x, out_y = dx * vx, dy * vy
        if c is not None:
            dot = gx * vx + gy * vy
            out_x = out_x + c * dot * gx
            out_y = out_y + c * dot * gy
        return out_x, out_y


def cell_gradients(values, h):
    """Forward-difference gradient on the (N-1)^2 cells."""
    gx = (values[1:, :-1] - values[:-1, :-1]) / h
    gy = (values[:-1, 1:] - values[:-1, :-1]) / h
    return gx, gy


def _energy(spec, u, f, h):
    """J(u) and its rounding scale h^2 (Sum |density| + Sum |f u|)."""
    gx, gy = cell_gradients(u, h)
    dens = spec.energy_density(gx, gy)
    fu = f * u
    J = float(h**2 * np.sum(dens) - h**2 * np.sum(fu))
    return J, float(h**2 * (np.sum(np.abs(dens)) + np.sum(np.abs(fu))))


def _divergence(ax, ay, h):
    """h^2 times the transpose of ``cell_gradients`` applied to the cell
    field (ax, ay): the nodal scatter shared by the energy gradient and
    the Hessian action, with the boundary nodes zeroed."""
    out = np.zeros((ax.shape[0] + 1, ax.shape[1] + 1))
    out[:-1, :-1] -= (ax + ay) / h
    out[1:, :-1] += ax / h
    out[:-1, 1:] += ay / h
    out *= h**2
    out[0, :] = out[-1, :] = out[:, 0] = out[:, -1] = 0.0
    return out


def _energy_gradient(spec, u, f, h):
    gx, gy = cell_gradients(u, h)
    g = _divergence(*spec.flux(gx, gy), h)
    g[1:-1, 1:-1] -= h**2 * f[1:-1, 1:-1]
    return g


class _LaplacePreconditioner:
    """Inverse 5-point Laplacian on the interior, in the DST-I basis.

    S = sqrt(2/(N-1)) sin(pi j k/(N-1)), j, k = 1..N-2, is the
    orthonormal DST-I matrix: symmetric, with S^2 = I, and its columns
    are the Laplacian's eigenvectors.  ``apply`` is four dense products,
    S ((S R S) * inv_eig) S, so its cost grows as N^3.  On one core of a
    Xeon VM one apply takes 0.05 ms at N = 65, 3-3.5 ms at N = 257 and
    24 ms at N = 513, against 0.13, 2-2.5 and 11 ms for a fast sine
    transform; the CLI, the tests and the benchmark use N <= 257.
    """

    def __init__(self, n, h):
        k = np.arange(1, n - 1)
        lam = (4.0 / h**2) * np.sin(k * math.pi * h / 2.0) ** 2
        self.inv_eig = 1.0 / (lam[:, None] + lam[None, :])
        m = n - 1
        self.sine = math.sqrt(2.0 / m) * np.sin(math.pi * np.outer(k, k) / m)
        self.h = h

    def apply(self, g):
        S = self.sine
        spec = S @ (g[1:-1, 1:-1] / self.h**2) @ S
        full = np.zeros_like(g)
        full[1:-1, 1:-1] = S @ (spec * self.inv_eig) @ S
        return full


def _hessian_times(spec, weights, v, h):
    """Action of the energy Hessian, given by its cell ``weights``
    (:meth:`OperatorSpec.hess_weights`), on a zero-boundary field v."""
    vx, vy = cell_gradients(v, h)
    return _divergence(*spec.hess_apply(weights, vx, vy), h)


def _pcg(spec, u, rhs, h, pre, rel_tol, max_iter=400):
    """Preconditioned CG for the Newton system H(u) d = rhs.

    Returns ``(d, iterations, capped)``; ``capped`` is True when the
    solve ran all ``max_iter`` iterations without meeting ``rel_tol``.
    """
    weights = spec.hess_weights(*cell_gradients(u, h))
    d = np.zeros_like(rhs)
    r = rhs.copy()
    z = pre.apply(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    rhs_norm = float(np.sqrt(np.sum(rhs * rhs)))
    for k in range(1, max_iter + 1):
        Hp = _hessian_times(spec, weights, p, h)
        pHp = float(np.sum(p * Hp))
        if pHp <= 0.0:
            break  # floor-regularized Hessian should prevent this
        alpha = rz / pHp
        d += alpha * p
        r -= alpha * Hp
        if float(np.sqrt(np.sum(r * r))) <= rel_tol * rhs_norm:
            break
        z = pre.apply(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        return d, max_iter, True
    return d, k, False


# J is a (pairwise) float sum whose rounding error is a few ulps of its
# rounding scale h^2 (Sum |density| + Sum |f u|): a Newton decrement
# below this many ulps of that scale cannot be told from noise.  On the
# constant datum, N in {65, 129, 257} and p in {1.2, ..., 4} give the
# same Newton step counts and residuals for any value from 1 to 256.
_ROUNDING_ULPS = 16.0

# A solve whose sup residual sets no new minimum in this many
# consecutive Newton steps has stalled.  Converging solves with N from
# 17 to 257 and p from 1.3 to 4, on constant, singular and point-mass
# data, set one at least every 9 steps; N = 65 with p = 1.2 sets none
# in its first 27.
_STALL_STEPS = 15


def solve(spec, f_field, tol=None, max_iter=100, u0=None,
          return_info=False):
    """Minimize the discrete energy; returns the solution field.

    Newton-Krylov: each outer step solves the Hessian system by
    conjugate gradients (matrix-free, inverse-Laplacian
    preconditioner) to the relative tolerance
    eta = min(0.1, sqrt(res / (res + 1))) (forcing term after
    Eisenstat & Walker 1996) and backtracks on the energy (Armijo).
    Once the Newton decrement g.d falls below the rounding level of J,
    16 eps * h^2 (Sum |density| + Sum |f u|), J can no longer rank
    steps: the full step is then taken if it lowers the sup residual and
    raises J by no more than that bound, and the iteration stops
    otherwise.  The energy trace is therefore monotone up to that
    rounding bound.  For p = 2 the first Newton step is the exact
    5-point solve.  Convergence is declared when the sup norm of the
    energy gradient, scaled to PDE units (divided by h^2), drops below
    ``tol`` (default 1e-9 * (1 + ||f||_1)).  The iteration also stops
    when the sup residual sets no new minimum in 15 consecutive steps (a
    stall).  A stop above 100 * tol raises :class:`SolveError`.

    With ``return_info`` the info dict holds ``energies``, ``residual``,
    ``converged`` (residual <= tol) and the counts ``newton_steps``,
    ``pcg_iterations``, ``pcg_maxiter_hits`` (CG solves that ran to
    their iteration cap) and ``rounding_steps`` (steps taken at
    rounding level).
    """
    f = f_field.values
    n = f_field.n_nodes
    h = f_field.h
    if tol is None:
        tol = 1e-9 * (1.0 + f_field.l1())
    u = np.zeros((n, n)) if u0 is None else np.array(u0, dtype=float)
    pre = _LaplacePreconditioner(n, h)
    J, J_scale = _energy(spec, u, f, h)
    energies = [J]
    g = _energy_gradient(spec, u, f, h)
    res = float(np.max(np.abs(g))) / h**2
    counts = dict.fromkeys(("newton_steps", "pcg_iterations",
                            "pcg_maxiter_hits", "rounding_steps"), 0)
    best_res, since_best = res, 0
    for _ in range(max_iter):
        if res <= tol:
            break
        # forcing term: loose CG early, tight near the solution
        eta = min(0.1, math.sqrt(res / (res + 1.0)))
        d, cg_iters, capped = _pcg(spec, u, g, h, pre,
                                   rel_tol=max(eta, 1e-12))
        counts["pcg_iterations"] += cg_iters
        counts["pcg_maxiter_hits"] += capped
        gd = float(np.sum(g * d))
        if gd <= 0.0:
            d = pre.apply(g)
            gd = float(np.sum(g * d))
        noise = _ROUNDING_ULPS * math.ulp(1.0) * J_scale
        rounding = gd <= noise
        if rounding:
            # J cannot rank this step: take it whole, judged by residual
            u_try = u - d
            J_try, scale_try = _energy(spec, u_try, f, h)
            if J_try > J + noise:
                break
        else:
            alpha = 1.0
            for _ in range(60):
                u_try = u - alpha * d
                J_try, scale_try = _energy(spec, u_try, f, h)
                if J_try <= J - 1e-4 * alpha * gd:
                    break
                alpha *= 0.5
            else:
                break  # stagnation at rounding level
        g_try = _energy_gradient(spec, u_try, f, h)
        res_try = float(np.max(np.abs(g_try))) / h**2
        if rounding and res_try >= res:
            break
        counts["rounding_steps"] += rounding
        u, J, J_scale, g, res = u_try, J_try, scale_try, g_try, res_try
        energies.append(J)
        counts["newton_steps"] += 1
        if res < best_res:
            best_res, since_best = res, 0
        else:
            since_best += 1
            if since_best >= _STALL_STEPS:
                break
    if res > 100.0 * tol:
        stall = (f", stalled: no new residual minimum in {since_best} steps"
                 if since_best >= _STALL_STEPS else "")
        raise SolveError(
            f"no convergence after {counts['newton_steps']} Newton steps "
            f"(residual {res:g}, tol {tol:g}{stall})",
            residual=res, newton_steps=counts["newton_steps"],
        )
    out = GridField(u).zero_boundary()
    if return_info:
        return out, {"energies": energies, "residual": res,
                     "converged": res <= tol, **counts}
    return out


def point_mass_field(n, mass=1.0, location=(0.5, 0.5)):
    """Nodal delta: the hat-function mollifier of width 2h carrying
    exactly ``mass`` in the cell quadrature."""
    field = GridField.zeros(n)
    h = field.h
    i = int(round(location[0] / h))
    j = int(round(location[1] / h))
    field.values[i, j] = mass / h**2
    return field


def approximable_sequence(spec, f_field, k_ladder, deviation_threshold=1e-3):
    """Solve with truncated data f_k = clamp(f, +-k) along a ladder.

    Returns the fields and a convergence report: sup deviation and the
    measure of {|u_k - u_prev| > threshold} between consecutive
    iterates, plus the gradient Cauchy-in-measure statistic.  Each solve
    uses the default tolerance of :func:`solve`.
    """
    h = f_field.h
    fields = []
    report = []
    u_prev = None
    for k in k_ladder:
        fk = GridField(np.clip(f_field.values, -k, k)).zero_boundary()
        u = solve(spec, fk, u0=None if u_prev is None else u_prev.values)
        entry = {"k": float(k), "f_l1": fk.l1()}
        if u_prev is not None:
            diff = np.abs(u.values - u_prev.values)
            entry["sup_deviation"] = float(np.max(diff))
            entry["deviation_measure"] = float(
                np.sum(diff > deviation_threshold) * h**2)
            gx0, gy0 = cell_gradients(u_prev.values, h)
            gx1, gy1 = cell_gradients(u.values, h)
            gd = np.hypot(gx1 - gx0, gy1 - gy0)
            entry["grad_deviation_measure"] = float(
                np.sum(gd > deviation_threshold) * h**2)
        fields.append(u)
        report.append(entry)
        u_prev = u
    return fields, report


def assumption_audit(spec):
    """Sample-based check of monotonicity, coercivity and conjugate
    growth for the operator, on 400 pairs of probes drawn from a
    generator seeded with 0.

    Reports: strict monotonicity  (a(xi) - a(eta)).(xi - eta) > 0 for
    xi != eta; coercivity  a(xi).xi >= Phi(xi); the smallest constant
    c on the ladder of 25 c from 1 down to 1e-3 with
    conj(Phi)(c * a(xi)) <= Phi(xi) + h_slack for the sampled xi.
    conj(Phi) is built from the conjugates of Phi's own scalar terms:
    conj(A)(|a|) for a radial Phi, the sum of conj(A_i)(|a_i|) for a
    split one.
    """
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((400, 2)) * np.exp(rng.uniform(-3, 3, (400, 1)))
    eta = rng.standard_normal((400, 2)) * np.exp(rng.uniform(-3, 3, (400, 1)))
    ax, ay = spec.flux(xi[:, 0], xi[:, 1])
    bx, by = spec.flux(eta[:, 0], eta[:, 1])
    mono = (ax - bx) * (xi[:, 0] - eta[:, 0]) + (ay - by) * (
        xi[:, 1] - eta[:, 1])
    distinct = np.any(xi != eta, axis=1)
    monotone_ok = bool(np.all(mono[distinct] > 0.0))
    phi_xi = spec.potential.value(xi)
    coercive_ok = bool(np.all(ax * xi[:, 0] + ay * xi[:, 1]
                              >= phi_xi * (1.0 - 1e-12)))
    term = spec._terms[0]
    conjs = [a.conjugate() for a in term.scalars]
    sizes = term.sizes(ax, ay)
    best_c = None
    h_profile = None
    for c in np.geomspace(1.0, 1e-3, 25):
        conj = sum(a.value(c * s) for a, s in zip(conjs, sizes))
        excess = conj - phi_xi
        if np.all(excess <= np.maximum(1e-9, 0.5 * phi_xi)):
            best_c = float(c)
            h_profile = float(np.max(np.maximum(excess, 0.0)))
            break
    return {
        "strictly_monotone": monotone_ok,
        "coercive": coercive_ok,
        "c_phi": best_c,
        "h_max": h_profile,
        "epsilon": spec.epsilon,
    }
