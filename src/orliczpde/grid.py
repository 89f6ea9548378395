"""Finite-difference energy minimization on the unit square.

The model Dirichlet problems  -div a(x, grad u) = f,  u = 0 on the
boundary, with a = b(x) grad Phi, are discretized by cell-wise forward
differences:

    J(u) = h^2 * Sum_cells b Phi(grad_h u) - h^2 * Sum_nodes f u.

Phi is the package's own anisotropic N-function on R^2: a radial
A(|xi|) or a linear combination sum_k A_k(|c_k . xi|), a split
A_1(|xi_1|) + A_2(|xi_2|) among them (``anisotropic.RadialPhi``,
``LinearCombinationPhi`` and ``SplitPhi``).  The flux and the Hessian
come from its scalar terms A, A' and A'' (``second_derivative``).
J is strictly convex, so a Newton-Krylov iteration converges to the
unique minimizer.  Each Hessian system is solved by matrix-free
conjugate gradients to the inexact-Newton forcing term
eta = min(0.1, sqrt(res / (res + 1))),
floored at (tol / (2 res))^2: CG stops once its residual r meets
||r||_2 <= eta ||rhs||_2 and also ||r||_inf <= sqrt(eta) ||rhs||_inf,
the sup norm being the one the solve's tolerance bounds, and the floor
keeps that sup stop at or above tol / 2.  Below p = 2 the Newton
residual sits at the node where grad u = 0 and A'' is unbounded; the
2-norm test alone passes there after 1-2 CG iterations that leave that
node's residual in place, and Newton creeps.  The symmetric 2 x 2 cell
tensor of the Hessian is computed once per Newton step; it gives both
the Hessian action, in raw differences, and the nodal diagonal d that
scales the preconditioner D L^-1 D, D = diag(sqrt(4/d)), L^-1 the
inverse 5-point Laplacian in the sine basis, applied as an even/odd
butterfly and two half-size dense blocks per axis, every stage on
contiguous rows.  Each mesh level has one workspace: the
preconditioner and a few nodal and cell arrays that its Newton and CG
steps write in place, the Hessian action included, with the operands
and order of fresh temporaries and so bit for bit their results; CG's
inner products and 2-norm are one BLAS reduction each.  An accepted
iterate's cell gradient is computed once, for its energy, its flux and
the next Hessian weights.  Steps are backtracked on J (Armijo) until
the Newton decrement falls below the rounding level of J.

Every level, coarse or finest, stops by one rule.  Its duality gap
(:func:`duality_gap`) is checked at one place: before the CG solve of a
step whose last decrement is within 1000 times the gap's target.  For
any cell flux sigma with G^T sigma = f, G the cell gradient,
J(u) - min J <= J(u) + h^2 Sum b Phi*(sigma / b) (Ekeland & Temam
1976, ch. III; Repin 2000), also with a combination's upper bound on
Phi*, a bound with no constant of the problem.  The solution is
defined by its energy, so a gap within its target certifies u and the
iteration stops.  The target is the gap's rounding bound, or, on a
level started from a converged coarser level, max(bound, 1e-6 eta):
eta = |J - J_c|, J_c the coarser level's final energy, is the level's
discretization indicator, and the level is solved no further than its
discretization error (Bank & Rose 1982, Math. Comp. 39; Ern &
Vohralik 2013, SIAM J. Sci. Comput. 35).  An energy difference is a
squared norm, so the algebraic error is then near 1e-3 of the
discretization error in the energy norm.  A check that fails after a
step at J's rounding level is the last: from then on a full step is
taken only if it lowers the sup residual and raises J by no more than
that level, else the iteration stops.  It also stops once the sup
residual is at most tol = 1e-9 (1 + ||f||_1), and when that residual
has stalled.  The energy trace is monotone up to the rounding bound.
For Phi = |xi|^2/2 the energy gradient is exactly the 5-point scheme,
d = 4 and the first Newton step solves it in one CG iteration, before
any gap check.  ``solve`` returns the field and its record: the gap,
its target, the sup residual, the stop and the step counts.

A solve from zero runs coarse to fine (nested iteration): on an odd N
whose coarser mesh of (N + 1) / 2 nodes has at least 33 nodes, it first
solves on that mesh, with the full-weighting restriction of f (which
keeps Sum f h^2) and b averaged over 2 x 2 cell blocks, and starts from
the bilinear prolongation of that solution.  Each coarser mesh is
solved the same way, and ``solve`` reports each coarse level, with the
finest level's record, under ``levels``.

Also here: truncated-data solution ladders (approximable solutions)
and the mollified point-mass datum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .young import YoungFunctionError, solve_increasing, write_csv

__all__ = [
    "GridField",
    "OperatorSpec",
    "SolveError",
    "solve",
    "duality_gap",
    "cell_gradients",
    "point_mass_field",
    "approximable_sequence",
]

_DELTA = 1e-12  # floor on |xi| inside the flux only


class SolveError(RuntimeError):
    """A solve that ended above tol with a duality gap above its bound;
    ``info`` is its info dict (:func:`solve`): the finest level's
    residual, gap, energies and counts, and the coarse ``levels``."""

    def __init__(self, message, info):
        super().__init__(message)
        self.info = info


def _check_nodes(n):
    if n < 3:
        raise YoungFunctionError(
            f"a {n} x {n} grid has no interior node; N must be >= 3")


@dataclass
class GridField:
    """N x N nodal field on [0,1]^2 with zero boundary."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise YoungFunctionError("field must be square")
        _check_nodes(n)

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
        _check_nodes(n)  # before allocating
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
        """The nodal values, one row of the array per line, under a
        comment line (:func:`young.write_csv`)."""
        write_csv(path, "# finite-difference nodal field u(x,y)", self.values)


def _hessian_floor(a):
    """Floor on the argument r of the scalar term A in the Hessian
    weights: 1e-8, or the root of A'(r)/r = 1e-16 where A'(r)/r is below
    1e-16 at 1e-8, so that no weight falls below 1e-16.  A smaller weight
    at a zero gradient (u = 0) makes the first CG direction enormous."""
    def slope(r):
        return a.derivative(r) / r

    return 1e-8 if slope(1e-8) >= 1e-16 else solve_increasing(slope, 1e-16)


@dataclass
class OperatorSpec:
    """Energy density b(x) Phi(xi) of the operator b(x) grad Phi(xi).

    ``potential`` is a Phi on R^2, radial Phi = A(|xi|) or a linear
    combination Phi = sum_k A_k(|c_k . xi|) (``anisotropic.RadialPhi``
    and ``LinearCombinationPhi``; a ``SplitPhi`` is the combination whose
    rows are the unit vectors), whose scalar terms have a
    ``second_derivative``, else :class:`YoungFunctionError` is raised;
    the flux and the Hessian come from the scalar terms A, A' and A''.
    ``b`` is a number or an array over the (N-1)^2 cells.
    """

    potential: object
    b: np.ndarray | float = 1.0  # cell coefficient, finite and >= 1

    def __post_init__(self):
        if not np.all(np.isfinite(self.b) & (np.asarray(self.b) >= 1.0)):
            raise YoungFunctionError("coefficient b must be finite and >= 1")
        phi = self.potential
        form, n = getattr(phi, "form", None), getattr(phi, "n", None)
        self._radial = form == "radial"
        self._rows = getattr(phi, "coeffs", None)  # a combination's c_k
        self._scalars = [phi.a] if self._radial else getattr(
            phi, "terms", [])
        if n != 2 or (self._rows is None and not self._radial) or not all(
                hasattr(a, "second_derivative") for a in self._scalars):
            raise YoungFunctionError(
                f"the grid takes a radial or linear-combination Phi on R^2 "
                f"whose terms have a second_derivative, not a {form} form in "
                f"dimension {n} with terms {[a.name for a in self._scalars]}")
        self._b = np.asarray(self.b)
        self._floors = [_hessian_floor(a) for a in self._scalars]
        # for dual_density: conjugates, and rows r_k of R = C (C^T C)^-1
        self._conjugates = [a.conjugate() for a in self._scalars]
        self._dual_rows = None if self._radial else np.linalg.solve(
            self._rows.T @ self._rows, self._rows.T).T

    def _arguments(self, gx, gy):
        """A combination's signed scalar arguments y_k = c_k . xi."""
        return [cx * gx + cy * gy for cx, cy in self._rows]

    def energy_density(self, gx, gy):
        if self._radial:
            return self._b * self._scalars[0].value(np.sqrt(gx**2 + gy**2))
        values = [a.value(np.abs(y))
                  for a, y in zip(self._scalars, self._arguments(gx, gy))]
        return self._b * sum(values[1:], values[0])

    def _term_fluxes(self, gx, gy):
        """Each scalar term's flux, its argument floored at _DELTA in the
        weight A'(s)/s: the radial pair w (gx, gy), w = b A'(r)/r, or a
        combination's list of phi_k = b (A_k'(|y_k|)/|y_k|) y_k."""
        if self._radial:
            r = np.maximum(np.sqrt(gx**2 + gy**2), _DELTA)
            w = self._b * self._scalars[0].derivative(r) / r
            return w * gx, w * gy
        ys = self._arguments(gx, gy)
        s = [np.maximum(np.abs(y), _DELTA) for y in ys]
        return [self._b * a.derivative(t) / t * y
                for a, t, y in zip(self._scalars, s, ys)]

    def flux(self, gx, gy):
        """b grad Phi at the cell gradient (:meth:`_combine`)."""
        return self._combine(self._term_fluxes(gx, gy))

    def _combine(self, terms):
        """The flux b grad Phi from its :meth:`_term_fluxes`: the radial
        pair as it is, or sum_k phi_k c_k for a combination."""
        if self._radial:
            return terms
        return tuple(sum(w * c[i] for w, c in zip(terms, self._rows))
                     for i in (0, 1))

    def dual_density(self, terms, ex, ey):
        """b Phi*(sigma / b), or a bound above it, on the cells for the
        flux sigma = flux - e, e = (ex, ey), given its ``terms``
        (:meth:`_term_fluxes`), which it overwrites: radial b A*(|sigma|/b);
        a combination Psi(C xi) sum_k b A_k*(|tau_k| / b) with
        tau_k = phi_k - r_k . e, so C^T tau = sigma (Rockafellar 1970,
        Convex Analysis, Thm 16.3).  Equal on two rows; at e = 0 (the
        minimizer) Fenchel-Young's equality, term by term, for any number."""
        if self._radial:  # |sigma| in place (np.hypot takes 7 times longer)
            sx, sy = terms
            sx -= ex
            sy -= ey
            sx *= sx
            sx += np.multiply(sy, sy, out=sy)
            args = [np.sqrt(sx, out=sx)]
        else:
            args = [np.abs(phi - (rx * ex + ry * ey), out=phi)
                    for phi, (rx, ry) in zip(terms, self._dual_rows)]
        values = [a.value(np.divide(y, self._b, out=y))
                  for a, y in zip(self._conjugates, args)]
        return self._b * sum(values[1:], values[0])

    def hess_weights(self, gx, gy):
        """Cell-wise Hessian of the energy density at the gradient (gx, gy).

        Returns the symmetric 2 x 2 tensor ``(hxx, hxy, hyy)``, the scalar
        arguments floored at :func:`_hessian_floor`: radial
        b (w1 I + c g g^T) with w1 = A'(r)/r and c = (A''(r) - w1)/r^2,
        a combination b sum_k A_k''(|y_k|) c_k c_k^T.  The weights depend
        only on the Newton iterate, so one evaluation serves a whole CG
        solve and its preconditioner.
        """
        if self._radial:
            r = np.maximum(np.sqrt(gx**2 + gy**2), self._floors[0])
            d2 = self._b * self._scalars[0].second_derivative(r)
            w1 = self._b * self._scalars[0].derivative(r) / r
            c = (d2 - w1) / r**2
            del r, d2  # r and A'' are freed before the tensor is built
            return w1 + c * gx**2, c * gx * gy, w1 + c * gy**2
        d2 = [self._b * a.second_derivative(np.maximum(np.abs(y), f))
              for a, f, y in zip(self._scalars, self._floors,
                                 self._arguments(gx, gy))]
        return tuple(sum(d * (c[i] * c[j]) for d, c in zip(d2, self._rows))
                     for i, j in ((0, 0), (0, 1), (1, 1)))

    def hess_apply(self, weights, vx, vy, scratch):
        """Cell-wise Hessian action (d flux / d gradient applied to v),
        with ``weights`` from :meth:`hess_weights`, written over (vx, vy)
        and returned; ``scratch`` is a pair of cell arrays it overwrites."""
        hxx, hxy, hyy = weights
        sx, sy = scratch
        np.multiply(hxy, vy, out=sx)
        np.multiply(hxy, vx, out=sy)
        vx *= hxx
        vx += sx
        vy *= hyy
        vy += sy
        return vx, vy


def _differences(values, dx=None, dy=None):
    """Raw forward differences on the (N-1)^2 cells, into dx, dy."""
    return (np.subtract(values[1:, :-1], values[:-1, :-1], out=dx),
            np.subtract(values[:-1, 1:], values[:-1, :-1], out=dy))


def cell_gradients(values, h):
    """Forward-difference gradient on the (N-1)^2 cells."""
    dx, dy = _differences(values)
    return dx / h, dy / h


def _cell_gradients_into(u, ws):
    """:func:`cell_gradients` of u written into ``ws.dx``, ``ws.dy``."""
    gx, gy = _differences(u, ws.dx, ws.dy)
    gx /= ws.h
    gy /= ws.h
    return gx, gy


def _energy(spec, u, ws):
    """J(u) and its rounding scale h^2 (Sum |density| + Sum |f u|); the
    cell gradient of u stays in ``ws.dx``, ``ws.dy``."""
    h = ws.h
    gx, gy = _cell_gradients_into(u, ws)
    dens = spec.energy_density(gx, gy)
    fu = np.multiply(ws.f, u, out=ws.q)
    J = float(h**2 * np.sum(dens) - h**2 * np.sum(fu))
    return J, float(h**2 * (np.sum(np.abs(dens, out=dens))
                            + np.sum(np.abs(fu, out=fu))))


def _divergence(ax, ay, out):
    """The transpose of :func:`_differences` applied to the cell field
    (ax, ay), with the boundary nodes zeroed, written into ``out``: the
    nodal scatter shared by the energy gradient and the Hessian action."""
    inner = np.add(ax[:-1, 1:], ay[1:, :-1], out=out[1:-1, 1:-1])
    inner -= ax[1:, 1:]
    inner -= ay[1:, 1:]
    out[0, :] = out[-1, :] = out[:, 0] = out[:, -1] = 0.0
    return out


def _energy_gradient(spec, ws, out, terms=None):
    """Gradient of J, written into ``out``, at the iterate whose energy
    ``ws`` last evaluated (:func:`_energy`): h times the scatter of the
    flux, minus h^2 f.  Given ``terms``, that iterate's
    :meth:`OperatorSpec._term_fluxes`, it combines them, reading only,
    instead of evaluating the flux."""
    flux = (spec.flux(ws.dx, ws.dy) if terms is None
            else spec._combine(terms))
    g = _divergence(*flux, out)
    g *= ws.h
    g[1:-1, 1:-1] -= np.multiply(ws.h**2, ws.f[1:-1, 1:-1],
                                 out=ws.q[1:-1, 1:-1])
    return g


def _butterfly(a, out, half):
    """The first butterfly of a fast sine transform on the rows of ``a``,
    written into ``out``: row k < M - half of ``out`` is
    a_k + a_{M-1-k}, so the middle row of an odd count M is doubled, and
    row M-1-k, k < ``half``, is a_k - a_{M-1-k}."""
    rest = len(a) - half
    np.add(a[:rest], a[::-1][:rest], out=out[:rest])
    np.subtract(a[:half], a[::-1][:half], out=out[::-1][:half])


class _LaplacePreconditioner:
    """Jacobi-scaled inverse 5-point Laplacian, P^-1 = D L^-1 D.

    The Newton Hessian is H = Delta^T M Delta, with Delta the raw forward
    differences (:func:`_differences`) and M the cell tensor of
    :meth:`OperatorSpec.hess_weights`; the 1/h of the gradient and the
    h^2 and 1/h of the scatter cancel.  L is the same form with M = I,
    whose nodal diagonal is 4.  :meth:`rescale` sets D = diag(sqrt(4/d))
    on the interior from the nodal diagonal d of H, so that P matches H
    on the diagonal; for Phi = |xi|^2/2, d = 4, D = I and P = H.  The
    scaling follows the weights |grad u|^(p-2) of |xi|^p/p across the
    square, which the plain L^-1 does not see: on the constant datum with
    N = 129-257 and p = 1.5 or 4, CG takes a third of the iterations it
    takes with L^-1.  Before the first :meth:`rescale`, D = I.  The same
    P^-1 gives the direction of a descent fallback; L^-1 alone
    (``apply`` with ``scaled`` false) corrects the flux of the duality
    gap and gives the dual-norm residual sqrt(g . L^-1 g) that
    :func:`solve` reports.

    L^-1 is applied in the DST-I basis.  S = sqrt(2/m) sin(pi j k/m),
    j, k = 1..N-2, m = N-1, is the orthonormal DST-I matrix: symmetric,
    with S^2 = I, and its columns are the eigenvectors of L, whose
    eigenvalues are mu_j + mu_k, mu_j = 4 sin(pi j h/2)^2; so
    L^-1 r = S ((S r S) * inv_eig) S on the interior.  As
    S[j, m-k] = (-1)^(j+1) S[j, k], the odd rows j of S a depend only on
    the sums a_k + a_{m-k} and the even rows only on the differences
    a_k - a_{m-k}, the first butterfly of a fast sine transform (Van Loan
    1992).  So S a is :func:`_butterfly` followed by two half-size dense
    blocks: ``sine_odd`` on the sums, its middle column halved because
    the butterfly doubles the middle row of an odd N, and ``sine_even``
    on the differences, its columns reversed to match their order (for
    an odd N, the DST-I of half the size over sqrt(2)).  The transform
    domain stays in (odd, even) order, in which ``inv_eig`` is stored,
    and S is symmetric, so the inverse transform is the transposed blocks
    followed by the same butterfly.  An apply does this on both axes,
    forward and back: eight half-size products of (N-2)^3/4
    multiply-adds each, half the multiply-adds of four dense products,
    and four butterflies; its cost still grows as N^3.

    Every stage runs on contiguous rows.  The first axis's products are
    written transposed, (S b)^T = b^T S^T, so that the second axis's
    butterfly and products run on the rows of the result; on the way
    back the first axis's products read the transpose of their operand,
    S^T a^T, and write rows again.  BLAS reads a transposed operand
    without a copy.  The transform domain is thus held transposed, which
    the symmetric ``inv_eig`` does not see.  The views that an apply
    passes to its products are made once, in ``__init__``.  On one core
    of a Xeon VM with one BLAS thread, one apply takes 0.035-0.045 ms at
    N = 33, 0.064-0.075 ms at N = 65, 0.22-0.25 ms at N = 129 and
    1.6-1.7 ms at N = 257 (least to median of repeated calls, three
    runs), against 0.043-0.057, 0.081-0.096, 0.27-0.30 and 1.7-1.8 ms
    when the second axis's stages ran on strided columns, alternated in
    the same process.  Four dense products still take 0.014-0.021 ms at
    N = 33 and 0.048-0.067 ms at N = 65: at these sizes the fixed cost
    of an apply's 23 numpy calls outweighs the halved products.  The
    CLI, the tests and the benchmark use N <= 257.
    """

    def __init__(self, n, h):
        m = n - 1
        odd, even = np.arange(1, m, 2), np.arange(2, m, 2)
        mu = 4.0 * np.sin(np.concatenate([odd, even]) * math.pi * h / 2.0) ** 2
        self.inv_eig = 1.0 / (mu[:, None] + mu[None, :])
        c = math.sqrt(2.0 / m)
        self.sine_odd = c * np.sin(
            math.pi * np.outer(odd, np.arange(1, len(odd) + 1)) / m)
        if n % 2:
            self.sine_odd[:, -1] /= 2.0
        self.sine_even = c * np.sin(
            math.pi * np.outer(even, np.arange(len(even), 0, -1)) / m)
        self.h = h
        self.scale = 1.0
        # two arrays of (N-1)^2 numbers: apply's products, a workspace's cells
        self.work = [np.empty((n - 1) ** 2) for _ in range(2)]
        self.out = np.zeros((n, n))
        self._interior = self.out[1:-1, 1:-1]
        # apply's operands, viewed once: its (N-2)^2 pair a, b and the
        # (x, y, out) of the odd and even block products of its four
        # stages: the first axis written transposed, the second axis,
        # the second axis back, and the first axis back from the transpose
        a, b = self._pair = tuple(w[:(n - 2) ** 2].reshape(n - 2, n - 2)
                                  for w in self.work)
        k = len(odd)
        blocks = ((self.sine_odd, slice(None, k)),
                  (self.sine_even, slice(k, None)))
        self._products = (
            tuple((b[s].T, c.T, a[:, s]) for c, s in blocks),
            tuple((c, b[s], a[s]) for c, s in blocks),
            tuple((c.T, a[s], b[s]) for c, s in blocks),
            tuple((c.T, a[:, s].T, b[s]) for c, s in blocks))

    def rescale(self, weights):
        """Set D from the cell tensor ``(hxx, hxy, hyy)``.  A cell's
        differences reach its lower-left node with weight (-1, -1), its
        lower-right node with (1, 0) and its upper-left node with (0, 1),
        so d sums hxx + 2 hxy + hyy, hxx and hyy over those cells."""
        hxx, hxy, hyy = weights
        m = len(self.inv_eig)
        corner, d = self.work[0].reshape(m + 1, m + 1), self.work[1][:m * m]
        d = d.reshape(m, m)
        np.add(hxx, np.multiply(2.0, hxy, out=corner), out=corner)
        corner += hyy
        np.add(corner[1:, 1:], hxx[:-1, 1:], out=d)
        d += hyy[1:, :-1]
        if np.ndim(self.scale) == 0:
            self.scale = np.empty((m, m))
        np.sqrt(np.divide(4.0, d, out=d), out=self.scale)

    def apply(self, g, scaled=True):
        """P^-1 g, or L^-1 g (D = I) when not ``scaled``, written into
        the one array ``out`` that every call returns."""
        a, b = self._pair
        first, second, second_back, first_back = self._products
        half = len(self.sine_even)
        scale = self.scale if scaled else 1.0
        np.multiply(scale, g[1:-1, 1:-1], out=a)
        _butterfly(a, b, half)  # S a S: the first axis,
        _matmuls(first)
        _butterfly(a, b, half)  # the second,
        _matmuls(second)
        a *= self.inv_eig
        _matmuls(second_back)  # and back
        _butterfly(b, a, half)
        _matmuls(first_back)
        _butterfly(b, a, half)
        np.multiply(scale, a, out=self._interior)
        out = self.out
        # a Hessian action may have used out as scratch
        out[0, :] = out[-1, :] = out[:, 0] = out[:, -1] = 0.0
        return out


def _matmuls(products):
    for x, y, out in products:
        np.matmul(x, y, out=out)


class _Workspace(_LaplacePreconditioner):
    """The preconditioner of one mesh level and the arrays that its
    Newton and CG steps write in place: the cell arrays ``dx``, ``dy``
    (shared with the products of :meth:`apply`) hold the differences of
    a CG direction, then its cell Hessian action, or the cell gradient
    of the iterate last passed to :func:`_energy`; ``d``, ``r``, ``p``
    and ``q`` = H p are the CG vectors, r and p also the line search's
    trial iterate and its gradient, and q is the nodal scratch of a
    Newton step.  ``cells`` views the first (N-1)^2 numbers of q and of
    ``out`` as cell arrays, the scratch of a Hessian action."""

    def __init__(self, f, h):
        n = f.shape[0]
        super().__init__(n, h)
        self.f = f
        self.dx, self.dy = (w.reshape(n - 1, n - 1) for w in self.work)
        self.d, self.r, self.p, self.q = (np.empty((n, n)) for _ in range(4))
        self.cells = tuple(a.reshape(-1)[:(n - 1) ** 2].reshape(n - 1, n - 1)
                           for a in (self.q, self.out))


def _hessian_times(spec, weights, v, ws):
    """Action of the energy Hessian, given by its cell ``weights``
    (:meth:`OperatorSpec.hess_weights`), on a zero-boundary v, in ws.q."""
    return _divergence(*spec.hess_apply(
        weights, *_differences(v, ws.dx, ws.dy), ws.cells), ws.q)


# CG iterations allowed per Newton system
_PCG_MAX_ITER = 400


def _pcg(spec, weights, rhs, ws, rel_tol):
    """Preconditioned CG for the Newton system H d = rhs, with H given
    by its cell ``weights``, in the arrays of the workspace ``ws``;
    ``ws`` is rescaled to the weights first and keeps that scaling.

    Returns ``(d, iterations, stop)``.  ``stop`` is "converged" when the
    residual r met both ||r||_2 <= rel_tol ||rhs||_2 and
    ||r||_inf <= sqrt(rel_tol) ||rhs||_inf, "capped" when all
    ``_PCG_MAX_ITER`` iterations ran without meeting them, and "breakdown"
    when a search direction had p.Hp <= 0, which the floored Hessian
    weights should prevent.  The sup test is the one that binds below
    p = 2, where a few iterations meet the 2-norm test while the
    residual at the node with grad u = 0 stays; at p >= 2 the 2-norm
    test binds.
    """
    d, r, p, q = ws.d, ws.r, ws.p, ws.q
    ws.rescale(weights)
    d.fill(0.0)
    np.copyto(r, rhs)
    z = ws.apply(r)  # also scratch until the next apply
    np.copyto(p, z)
    rz = float(np.vdot(r, z))
    tol_2 = rel_tol * math.sqrt(np.vdot(rhs, rhs))
    tol_sup = math.sqrt(rel_tol) * float(np.max(np.abs(rhs, out=q)))
    for k in range(1, _PCG_MAX_ITER + 1):
        Hp = _hessian_times(spec, weights, p, ws)
        pHp = float(np.vdot(p, Hp))
        if pHp <= 0.0:
            return d, k, "breakdown"
        alpha = rz / pHp
        d += np.multiply(p, alpha, out=z)
        r -= np.multiply(Hp, alpha, out=Hp)
        if (math.sqrt(np.vdot(r, r)) <= tol_2
                and float(np.max(np.abs(r, out=q))) <= tol_sup):
            return d, k, "converged"
        z = ws.apply(r)
        rz_new = float(np.vdot(r, z))
        np.add(z, np.multiply(p, rz_new / rz, out=p), out=p)
        rz = rz_new
    return d, _PCG_MAX_ITER, "capped"


# J is a (pairwise) float sum whose rounding error is a few ulps of its
# rounding scale h^2 (Sum |density| + Sum |f u|): a Newton decrement
# below this many ulps of that scale cannot be told from noise.  On the
# constant datum, N in {65, 129, 257} and p in {1.2, ..., 4} give the
# same Newton step counts and residuals for any value from 1 to 256.
_ROUNDING_ULPS = 16.0

# A decrement within this factor of the gap's target: check the gap next
_GAP_PRECHECK = 1000.0

# A level whose coarser level converged stops once its duality gap is at
# most _THETA eta, eta = |J - J_c| the change of the energy from the
# coarser level's final J_c, its discretization indicator.  An energy
# difference is a squared norm, so the algebraic error is then near
# sqrt(_THETA) = 1e-3 of the discretization error in the energy norm: on
# f = 1, N = 65-257 and p = 1.5-4, |u - u_rounding|_inf reads at most
# 1.8e-3 of |u_N - P u_N/2|_inf, and up to 0.27 with _THETA = 1e-3.
_THETA = 1e-6


def _gap(spec, u, g, J, J_scale, ws, terms=None):
    """The duality gap of the iterate u, whose energy is J (rounding
    scale ``J_scale``) and energy gradient g, its rounding bound and the
    dual-norm residual sqrt(g . L^-1 g): ``(gap, bound, dual_residual)``.
    ``terms``, the :meth:`OperatorSpec._term_fluxes` of u, are evaluated
    when not given.  Overwrites them, ``ws.dx``, ``ws.dy`` and
    ``ws.out``.

    For any cell flux sigma with h^2 G^T sigma = h^2 f on the interior
    nodes, G the cell gradient, Fenchel-Young gives
    J(v) >= -h^2 Sum b Phi*(sigma / b) for every v, so
    gap = J(u) + h^2 Sum b Phi*(sigma / b) >= J(u) - min J
    (Ekeland & Temam 1976, ch. III; Repin 2000), also for Phi* bounded
    above (:meth:`OperatorSpec.dual_density`).  Here sigma is the flux
    of u minus G w, w = L^-1 g, with L = h^2 G^T G the 5-point form,
    which the sine transform inverts: h^2 G^T sigma = (g + h^2 f) - g.
    Both terms are sums of the energy's kind, so the bound is
    ``_ROUNDING_ULPS`` ulps of J_scale + h^2 Sum b Phi* (Phi* >= 0)."""
    w = ws.apply(g, scaled=False)
    dual_residual = math.sqrt(max(float(np.vdot(g, w)), 0.0))
    if terms is None:
        terms = spec._term_fluxes(*_cell_gradients_into(u, ws))
    ex, ey = (np.divide(d, ws.h, out=d)
              for d in _differences(w, ws.dx, ws.dy))
    dual = float(ws.h**2 * np.sum(spec.dual_density(terms, ex, ey)))
    return (J + dual, _ROUNDING_ULPS * math.ulp(1.0) * (J_scale + dual),
            dual_residual)


def duality_gap(spec, f_field, u):
    """The duality gap J(u) - min J <= J(u) + h^2 Sum b Phi*(sigma / b)
    of a zero-boundary field u (a :class:`GridField`) for the energy of
    ``spec`` and the datum ``f_field``, and the bound of J's rounding
    error that a gap at the minimizer stays under: ``(gap, bound)``
    (:func:`_gap`).  The flux of u is evaluated once, for both."""
    ws = _Workspace(f_field.values, f_field.h)
    J, J_scale = _energy(spec, u.values, ws)
    terms = spec._term_fluxes(ws.dx, ws.dy)
    g = _energy_gradient(spec, ws, np.empty_like(u.values), terms)
    return _gap(spec, u.values, g, J, J_scale, ws, terms)[:2]


# A solve whose sup residual sets no new minimum in this many
# consecutive Newton steps has stalled.  Converging solves with N from
# 17 to 257 and p from 1.3 to 4, on constant, singular and point-mass
# data, set one at least every 7 steps on every level; N = 65 with
# p = 1.2 sets none in its first 22.
_STALL_STEPS = 15

# Every level's tolerance on the sup residual, relative to 1 + ||f||_1.
_TOL = 1e-9


def solve(spec, f_field, max_iter=100, u0=None):
    """Minimize the discrete energy; returns ``(field, info)``.

    Newton-Krylov: each outer step solves the Hessian system by
    conjugate gradients (matrix-free, preconditioned with the inverse
    Laplacian scaled by the Hessian's own diagonal, D L^-1 D with
    D = diag(sqrt(4/d)); see :class:`_LaplacePreconditioner`) to the
    relative tolerance eta = min(0.1, max(sqrt(res / (res + 1)),
    (tol / (2 res))^2)) in the 2-norm and sqrt(eta) in the sup norm
    (:func:`_pcg`), and backtracks on the energy (Armijo).  eta is a
    forcing term after Eisenstat & Walker (1996, SIAM J. Sci. Comput.
    17), floored against oversolving as in Kelley (1995, Iterative
    Methods for Linear and Nonlinear Equations, section 6.3), who
    floors the relative linear residual at tol / (2 res).  Here the
    floor bounds the sup test's sqrt(eta): CG's sup stop
    sqrt(eta) ||g||_inf is at least tol / 2 in PDE units, so the last
    step solves no further than the convergence test needs.
    Once the Newton decrement g.d falls below the rounding level of J,
    16 eps * h^2 (Sum |density| + Sum |f u|), J can no longer rank
    steps.  Every level, coarse or finest, stops by one rule, checked at
    the top of each step.  The iteration stops when the sup norm of the
    energy gradient, scaled to PDE units (divided by h^2), is at most
    tol = 1e-9 (1 + ||f||_1), f the level's datum.  Once the last
    decrement is within 1000 times the gap's target, the duality gap of u
    (:func:`duality_gap`) is evaluated before the CG solve, and the
    iteration stops if the gap is at most its target.  The target is the
    gap's bound, 16 ulps of the rounding scale of J plus that of the dual
    energy, so that u is a minimizer of J to rounding, whatever its sup
    residual.  A level that starts from a converged coarser level has
    the discretization indicator eta = |J - J_c|, J_c that level's final
    energy, and the target max(gap bound, 1e-6 eta).  A check that fails
    after a step at J's rounding level is the last; such steps are taken
    whole if they lower the sup residual and raise J by no more than the
    rounding level, and the iteration stops otherwise.  The energy trace
    is therefore monotone up to that rounding bound.  The iteration also
    stops when the sup residual sets no new minimum in 15 consecutive
    steps (a stall).  For p = 2 the first Newton step is the exact
    5-point solve.  A level has converged when the gap of its last
    iterate is at most its target or its sup residual is at most its
    tol; a finest level that has not raises :class:`SolveError`, which
    carries the info dict below.  Newton writes into a copy of the start
    ``u0`` whose boundary is zeroed.

    Nested iteration: without ``u0``, an odd N whose coarser mesh of
    (N + 1) / 2 nodes has at least 33 nodes first solves the same
    problem on that mesh, recursively, f the coarse datum, and starts
    from the bilinear prolongation of that solution
    (:func:`_coarse_start`).  A coarse level that does not converge
    gives no start, and the next finer level starts from zero.
    ``max_iter`` caps every level.

    The info dict holds ``energies``, ``tol``, ``residual`` (the sup
    residual), ``dual_residual`` (sqrt(g . L^-1 g) for the final energy
    gradient g and the inverse 5-point Laplacian L^-1: the discrete H^-1
    norm of the PDE residual), ``duality_gap`` and its bound
    ``gap_bound``, ``discretization_indicator`` (eta, None without a
    converged coarser level), ``gap_target`` (max(gap_bound, 1e-6 eta),
    or gap_bound), ``stop`` ("gap" when a gap within its bound stopped
    the iteration, "discretization" when a gap within the target above
    it did, else "residual"), ``converged`` and the counts
    ``newton_steps``, ``pcg_iterations``, ``pcg_maxiter_hits`` (CG solves
    that ran to their iteration cap), ``pcg_breakdowns`` (CG solves
    stopped by a direction with p.Hp <= 0), ``descent_fallbacks`` (Newton
    steps whose CG direction was no descent direction and was replaced by
    P^-1 g) and ``rounding_steps`` (steps taken at J's rounding level),
    all of the finest level.  ``levels`` lists the coarse levels, coarsest
    first, each with the same record but for ``energies`` and
    ``levels``, its ``N`` and its final ``energy``; it is empty for a
    solve from ``u0``.  A level that did not stop on its gap evaluates it
    at its last iterate, so every record holds the gap and its bound.
    """
    levels = []
    coarse_energy = None
    if u0 is None:
        u0, coarse_energy = _coarse_start(spec, f_field, max_iter, levels)
    else:
        u0 = GridField(np.array(u0, dtype=float)).zero_boundary().values
    u, info, stalled = _newton(spec, f_field, max_iter, u0, coarse_energy)
    info["levels"] = levels
    if not info["converged"]:
        stall = (f", stalled: no new residual minimum in {stalled} steps"
                 if stalled >= _STALL_STEPS else "")
        raise SolveError(
            f"no convergence after {info['newton_steps']} Newton steps "
            f"(residual {info['residual']:g}, tol {info['tol']:g}, duality "
            f"gap {info['duality_gap']:g} above {info['gap_target']:g}"
            f"{stall})", info)
    return GridField(u), info


def _gap_target(bound, J, coarse_energy):
    """The gap that certifies an iterate of energy J: max(bound, _THETA
    eta), eta = |J - coarse_energy|, or the rounding ``bound`` alone when
    there is no coarse energy or _THETA eta is 0, so that a gap rounded
    below 0 is judged by its bound.  Returns ``(target, eta)``."""
    if coarse_energy is None:
        return bound, None
    eta = abs(J - coarse_energy)
    slack = _THETA * eta
    return (max(bound, slack) if slack > 0.0 else bound), eta


def _newton(spec, f_field, max_iter, u0, coarse_energy):
    """The Newton-Krylov iteration of :func:`solve` on one mesh, from
    ``u0`` (zero when None), a float array that it writes into, given
    the final energy ``coarse_energy`` of the coarser level that gave
    the start (None when none did).  Returns ``(u, info, stalled)``: the
    last iterate, the level's record (:func:`solve`'s info without
    ``levels``) and the steps since the last residual minimum.  The gap
    is checked at one place, before the CG solve of a step whose last
    decrement is near its target (:func:`_gap_target`), stopping the
    iteration if it certifies u; after a failed check at J's rounding
    level no more are made, and the gap is evaluated at the last
    iterate."""
    f = f_field.values
    n = f_field.n_nodes
    h = f_field.h
    tol = _TOL * (1.0 + f_field.l1())
    u = np.zeros((n, n)) if u0 is None else u0
    ws = _Workspace(f, h)
    J, J_scale = _energy(spec, u, ws)
    energies = [J]
    g = _energy_gradient(spec, ws, np.empty((n, n)))
    res = float(np.max(np.abs(g, out=ws.q))) / h**2
    counts = dict.fromkeys(("newton_steps", "pcg_iterations",
                            "pcg_maxiter_hits", "pcg_breakdowns",
                            "descent_fallbacks", "rounding_steps"), 0)
    best_res, since_best = res, 0
    stop, unchecked, gd = "residual", True, math.inf
    for _ in range(max_iter):
        if res <= tol:
            break
        noise = _ROUNDING_ULPS * math.ulp(1.0) * J_scale
        # the target with J's rounding level as its bound
        near, _ = _gap_target(noise, J, coarse_energy)
        if unchecked and gd <= _GAP_PRECHECK * near:
            gap, bound, dual_residual = _gap(spec, u, g, J, J_scale, ws)
            target, _ = _gap_target(bound, J, coarse_energy)
            if gap <= target:
                stop = "gap" if gap <= bound else "discretization"
                break
            # a check after a step that J could not rank is the last
            unchecked = gd > noise
            _cell_gradients_into(u, ws)  # the gap overwrote them
        # forcing term: loose CG early, tight near the solution, but no
        # tighter than a sup stop at tol / 2
        eta = min(0.1, max(math.sqrt(res / (res + 1.0)),
                           (0.5 * tol / res) ** 2))
        d, cg_iters, cg_stop = _pcg(spec, spec.hess_weights(ws.dx, ws.dy),
                                    g, ws, rel_tol=eta)
        counts["pcg_iterations"] += cg_iters
        counts["pcg_maxiter_hits"] += cg_stop == "capped"
        counts["pcg_breakdowns"] += cg_stop == "breakdown"
        gd = float(np.sum(np.multiply(g, d, out=ws.q)))
        if gd <= 0.0:
            counts["descent_fallbacks"] += 1
            np.copyto(d, ws.apply(g))  # in ws.d: the gap reuses ws.out
            gd = float(np.sum(np.multiply(g, d, out=ws.q)))
        rounding = gd <= noise
        u_try, g_try = ws.r, ws.p
        if rounding:
            # J cannot rank this step: take it whole, judged by residual
            np.subtract(u, d, out=u_try)
            J_try, scale_try = _energy(spec, u_try, ws)
            if J_try > J + noise:
                break
        else:
            alpha = 1.0
            for _ in range(60):
                np.subtract(u, np.multiply(d, alpha, out=u_try), out=u_try)
                J_try, scale_try = _energy(spec, u_try, ws)
                if J_try <= J - 1e-4 * alpha * gd:
                    break
                alpha *= 0.5
            else:
                break  # stagnation at rounding level
        g_try = _energy_gradient(spec, ws, g_try)
        res_try = float(np.max(np.abs(g_try, out=ws.q))) / h**2
        if rounding and res_try >= res:
            break
        counts["rounding_steps"] += rounding
        u, g, ws.r, ws.p = u_try, g_try, u, g
        J, J_scale, res = J_try, scale_try, res_try
        energies.append(J)
        counts["newton_steps"] += 1
        if res < best_res:
            best_res, since_best = res, 0
        else:
            since_best += 1
            if since_best >= _STALL_STEPS:
                break
    if stop == "residual":
        gap, bound, dual_residual = _gap(spec, u, g, J, J_scale, ws)
    target, eta = _gap_target(bound, J, coarse_energy)
    return u, {"energies": energies, "tol": tol, "residual": res,
               "dual_residual": dual_residual,
               "converged": res <= tol or gap <= target,
               "stop": stop, "duality_gap": gap, "gap_bound": bound,
               "discretization_indicator": eta, "gap_target": target,
               **counts}, since_best


# Nested iteration: a solve from zero on an odd N first solves on the
# mesh of (N + 1) / 2 nodes when that mesh has at least this many.
# 17 and 33 measured about equal on the grid sweep.
_COARSEST = 33


def _prolongation(n_coarse):
    """Linear interpolation from n_coarse nodes of [0, 1] to the
    2 n_coarse - 1 nodes of the mesh of half the width, as a matrix P;
    P U P^T is the bilinear prolongation of a nodal field U.  Each row
    sums to 1."""
    rows = np.zeros((2 * n_coarse - 1, n_coarse))
    k = np.arange(n_coarse)
    rows[2 * k, k] = 1.0
    rows[2 * k[:-1] + 1, k[:-1]] = rows[2 * k[:-1] + 1, k[1:]] = 0.5
    return rows


def _restrict(values):
    """Full weighting P^T f P / 4 of a nodal field f on an odd number of
    nodes, P from :func:`_prolongation`.  The rows of P sum to 1 and the
    coarse cell has four times the area, so Sum f h^2 is kept exactly:
    a point mass keeps its mass."""
    p = _prolongation((values.shape[0] + 1) // 2)
    return p.T @ values @ p / 4.0


def _prolong(values):
    """Bilinear prolongation of a nodal field to the mesh of half the
    width; exact on fields a + b x + c y + d x y."""
    p = _prolongation(values.shape[0])
    return p @ values @ p.T


def _coarse_start(spec, f_field, max_iter, levels):
    """The nested-iteration start of :func:`solve` on the mesh of
    ``f_field`` and the energy it is measured from: the bilinear
    prolongation of the solution one mesh coarser and that solution's
    final energy, or ``(None, None)`` when N is even, the coarser mesh
    has fewer than ``_COARSEST`` nodes or its solve did not converge.
    The coarse datum is the full weighting of f with a zero boundary, as
    every :class:`GridField` has, an array coefficient b is averaged
    over 2 x 2 cell blocks (so b >= 1 still holds), and the coarse solve
    starts from its own coarse start.  Each coarse level is solved by
    the finest level's rule (:func:`_newton`), its tol counting only the
    nodes of its datum that the solve reads.  Appends each coarse
    level's record, coarsest first, to ``levels``: its info without
    ``energies``, with its ``N`` and its final ``energy``."""
    n = f_field.n_nodes
    if n % 2 == 0 or (n + 1) // 2 < _COARSEST:
        return None, None
    if np.ndim(spec.b):
        m = (n - 1) // 2
        spec = replace(spec, b=np.asarray(spec.b).reshape(
            m, 2, m, 2).mean(axis=(1, 3)))
    coarse = GridField(_restrict(f_field.values)).zero_boundary()
    start, coarse_energy = _coarse_start(spec, coarse, max_iter, levels)
    u, info, _ = _newton(spec, coarse, max_iter, start, coarse_energy)
    energy = info.pop("energies")[-1]
    levels.append({"N": coarse.n_nodes, **info, "energy": energy})
    if not info["converged"]:
        return None, None
    return _prolong(u), energy


def point_mass_field(n, mass=1.0, location=(0.5, 0.5)):
    """Nodal delta: the hat-function mollifier of width 2h carrying
    exactly ``mass`` in the cell quadrature, at the node nearest to
    ``location``; a nearest node off the interior, where the solution is
    held at 0, raises :class:`YoungFunctionError`."""
    field = GridField.zeros(n)
    h = field.h
    i, j = (round(c / h) for c in location)
    if not (0 < i < n - 1 and 0 < j < n - 1):
        raise YoungFunctionError(
            f"point mass at {tuple(location)} lands on node ({i}, {j}), "
            f"not an interior node of the {n} x {n} grid")
    field.values[i, j] = mass / h**2
    return field


# The deviation |u_k - u_prev| (and that of the gradients) above which
# approximable_sequence counts a cell in its deviation measures.
_DEVIATION = 1e-3


def approximable_sequence(spec, f_field, k_ladder):
    """Solve with truncated data f_k = clamp(f, +-k) along a ladder.

    Returns the fields and a convergence report: sup deviation and the
    measure of {|u_k - u_prev| > 1e-3} between consecutive iterates,
    plus the gradient Cauchy-in-measure statistic, the measure of
    {|grad u_k - grad u_prev| > 1e-3}, and each rung's solve record (the
    info of :func:`solve` without ``energies``).  An empty ladder, or a
    rung k <= 0, for which the clamp is the constant k, raises
    :class:`YoungFunctionError` before any solve.
    """
    if len(k_ladder) == 0:
        raise YoungFunctionError("k_ladder [] holds no truncation rung")
    for k in k_ladder:
        if not k > 0.0:
            raise YoungFunctionError(
                f"truncation rung k = {k!r} of {list(k_ladder)} is not > 0")
    h = f_field.h
    fields = []
    report = []
    u_prev = None  # the nodal values of the last rung
    for k in k_ladder:
        fk = GridField(np.clip(f_field.values, -k, k)).zero_boundary()
        u, info = solve(spec, fk, u0=u_prev)
        entry = {"k": float(k), "f_l1": fk.l1()}
        if u_prev is not None:
            diff = np.abs(u.values - u_prev)
            entry["sup_deviation"] = float(np.max(diff))
            entry["deviation_measure"] = float(
                np.sum(diff > _DEVIATION) * h**2)
            gx0, gy0 = cell_gradients(u_prev, h)
            gx1, gy1 = cell_gradients(u.values, h)
            gd = np.hypot(gx1 - gx0, gy1 - gy0)
            entry["grad_deviation_measure"] = float(
                np.sum(gd > _DEVIATION) * h**2)
        entry.update((key, val) for key, val in info.items()
                     if key != "energies")
        fields.append(u)
        report.append(entry)
        u_prev = u.values
    return fields, report
