"""Finite-difference minimizer on the unit square."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dstn, idstn
from scipy.optimize import minimize

from conftest import power_potential, split_power_potential
from orliczpde import grid
from orliczpde.grid import (
    _DELTA,
    _PCG_MAX_ITER,
    GridField,
    _energy,
    _energy_gradient,
    _hessian_floor,
    _hessian_times,
    _LaplacePreconditioner,
    _pcg,
    _Workspace,
    _prolong,
    _restrict,
    OperatorSpec,
    SolveError,
    approximable_sequence,
    cell_gradients,
    duality_gap,
    point_mass_field,
    solve,
)
from orliczpde.anisotropic import LinearCombinationPhi, RadialPhi, SplitPhi
from orliczpde.radial import solve_radial
from orliczpde.rearrangement import RearrangedFunction
from orliczpde.young import PowerLogYoung, PowerYoung, YoungFunctionError


def combination_potential(rows, ps):
    """Phi(xi) = sum_k |c_k . xi|^p_k / p_k on R^2."""
    return LinearCombinationPhi(2, [(c, PowerYoung(p, 1.0 / p))
                                    for c, p in zip(rows, ps)])


# three rows with a kink plane off the axes
KINKED = combination_potential([(1, 0), (0, 1), (1, 1)], (2.0, 3.0, 4.0))

# Fourier (separable eigenfunction) value of u(1/2, 1/2) for
# -Laplace u = 1 on (0,1)^2 with zero boundary data
FOURIER_CENTER = 0.0736713512666702


@pytest.fixture
def rounding_stop(monkeypatch):
    """The stop at J's rounding level on every level: no discretization
    target (_THETA = 0), as on a level without a coarser one."""
    monkeypatch.setattr(grid, "_THETA", 0.0)


@pytest.fixture
def sup_stop(monkeypatch, rounding_stop):
    """The stop on the sup residual alone: a gap bound that no gap
    meets and no discretization target, so no solve stops at or is
    certified by its duality gap."""
    gap = grid._gap

    def no_bound(*args):
        value, _, dual_residual = gap(*args)
        return value, -math.inf, dual_residual

    monkeypatch.setattr(grid, "_gap", no_bound)


def ones(n):
    return GridField.from_function(n, lambda x, y: np.ones_like(x))


def test_grid_field_basics():
    f = GridField.zeros(5)
    assert f.h == 0.25
    assert f.cell_measure == 0.0625
    f.values[:] = 1.0
    f.zero_boundary()
    assert f.l1() == pytest.approx(9 * 0.0625)
    with pytest.raises(YoungFunctionError):
        GridField(np.zeros((3, 4)))


def test_cell_gradients_linear_field():
    u = GridField.from_function(9, lambda x, y: x)
    gx, gy = cell_gradients(u.values, u.h)
    assert np.allclose(gx, 1.0) and np.allclose(gy, 0.0)


def test_point_mass_carries_mass():
    f = point_mass_field(33, mass=2.5)
    assert f.l1() == pytest.approx(2.5, rel=1e-12)


def test_poisson_center_against_fourier_oracle():
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    f.zero_boundary()
    u, info = solve(OperatorSpec(power_potential(2.0)), f)
    center = u.values[32, 32]
    assert center == pytest.approx(FOURIER_CENTER, abs=1e-4)
    assert np.all(np.diff(info["energies"]) <= 1e-15)


def test_p3_solve_converges_with_monotone_energy(sup_stop):
    f = GridField.from_function(33, lambda x, y: np.ones_like(x))
    f.zero_boundary()
    u, info = solve(OperatorSpec(power_potential(3.0)), f)
    assert info["residual"] <= 1e-9 * (1.0 + f.l1())
    assert np.all(np.diff(info["energies"]) <= 1e-15)
    assert np.max(u.values) > 0.0


def test_p4_solve_converges_at_rounding_level(sup_stop):
    # J stops ranking Newton steps near the solution; the solve must
    # still reach tol rather than run to max_iter
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    u, info = solve(OperatorSpec(power_potential(4.0)), f)
    assert info["residual"] <= 1e-9 * (1.0 + f.l1())
    assert info["converged"]
    assert info["newton_steps"] <= 20
    assert info["pcg_maxiter_hits"] == 0


def test_p5_solve_converges_from_zero(sup_stop):
    # at u = 0 the Hessian weight r^(p-2) sits at its floor; below 1e-16
    # the first CG direction is enormous and no Newton step is accepted.
    # u0 = 0 is passed, so no coarse level gives a start.
    f = GridField.from_function(33, lambda x, y: np.ones_like(x))
    f.zero_boundary()
    u, info = solve(OperatorSpec(power_potential(5.0)), f,
                    u0=np.zeros((33, 33)))
    assert info["converged"]
    assert info["residual"] <= 1e-9 * (1.0 + f.l1())
    assert info["newton_steps"] <= 20
    assert np.max(u.values) > 0.0


def test_p4_solve_pcg_work():
    # the inexact Newton forcing term, the Jacobi-scaled preconditioner
    # and the start from N = 65 keep the inner CG short: 32 iterations
    # over 7 Newton steps on the finest mesh (63 over 13 from zero, 188
    # from zero with the plain inverse Laplacian)
    f = GridField.from_function(129, lambda x, y: np.ones_like(x))
    _, info = solve(OperatorSpec(power_potential(4.0)), f)
    assert info["converged"]
    assert info["pcg_iterations"] < 120
    assert info["newton_steps"] <= 9


def test_p15_solve_pcg_work(sup_stop):
    # |grad u|^(p-2) varies most below p = 2: 7 Newton steps and 44 CG
    # iterations on the finest mesh from the N = 65 start (98 CG from
    # zero with the Jacobi scaling, 239 from zero with the plain inverse
    # Laplacian).  A CG stop on the 2-norm alone leaves the residual at
    # the centre node, where A'' is unbounded, and takes 21 Newton steps.
    # The forcing term is floored at (tol / (2 res))^2, so CG's sup stop
    # sqrt(eta) ||g||_inf lies at tol / 2 in PDE units and the last
    # Newton step solves no further than the convergence test needs
    # (49 CG iterations without the floor).
    f = GridField.from_function(129, lambda x, y: np.ones_like(x))
    _, info = solve(OperatorSpec(power_potential(1.5)), f)
    assert info["converged"]
    assert info["residual"] <= 1e-9 * (1.0 + f.l1())
    assert info["newton_steps"] == 7
    assert info["pcg_iterations"] <= 45


def test_split_solve_pcg_work():
    # a nodal scaling cannot see the cell tensor diag(A_1'', A_2''):
    # from zero the split (1.5, 2) takes 33 Newton steps and 991 CG
    # iterations, from the N = 65 start 12 and 430 on the finest mesh
    f = GridField.from_function(129, lambda x, y: np.ones_like(x))
    _, info = solve(OperatorSpec(split_power_potential(1.5, 2.0)), f)
    assert info["converged"]
    assert info["pcg_iterations"] < 700


def test_nested_solve_reports_its_levels(rounding_stop):
    # a coarse level is solved by the finest level's rule: to the
    # tolerance 1e-9 (1 + ||f||_1), its datum f = 1 on the interior nodes
    # and 0 on the boundary, whatever f is on the fine boundary, or until
    # its gap certifies it
    f = GridField.from_function(129, lambda x, y: np.ones_like(x))
    _, info = solve(OperatorSpec(power_potential(3.0)), f)
    assert [level["N"] for level in info["levels"]] == [33, 65]
    for level in info["levels"]:
        assert level["converged"] and level["newton_steps"] > 0
        assert level["pcg_iterations"] >= level["newton_steps"]
        l1 = ((level["N"] - 2) / (level["N"] - 1)) ** 2
        assert level["tol"] == pytest.approx(1e-9 * (1.0 + l1))
        assert (level["residual"] <= level["tol"] if level["stop"] ==
                "residual" else level["duality_gap"] <= level["gap_bound"])
    # even N, N = 33 (whose coarser mesh has 17 nodes), N = 17 and a
    # given u0 solve on one mesh only
    for n, u0 in ((64, None), (33, None), (17, None),
                  (65, np.zeros((65, 65)))):
        f = GridField.from_function(n, lambda x, y: np.ones_like(x))
        _, info = solve(OperatorSpec(power_potential(3.0)), f, u0=u0)
        assert info["converged"] and info["levels"] == []


def test_every_level_holds_a_full_record():
    # each coarse level is solved by the finest level's rule and keeps
    # the same record: every key of the finest but energies and levels,
    # with its N, its tol 1e-9 (1 + ||f||_1) for its own datum (f = 1 on
    # its interior nodes) and its final energy
    f = ones(129)
    _, info = solve(OperatorSpec(power_potential(4.0)), f)
    assert info["tol"] == 1e-9 * (1.0 + f.l1())
    keys = set(info) - {"energies", "levels"} | {"N", "energy"}
    assert [level["N"] for level in info["levels"]] == [33, 65]
    for level in info["levels"]:
        assert set(level) == keys
        l1 = ((level["N"] - 2) / (level["N"] - 1)) ** 2
        assert level["tol"] == pytest.approx(1e-9 * (1.0 + l1), rel=1e-14)
        assert level["converged"] and math.isfinite(level["energy"])
    coarse, fine = info["levels"]
    assert fine["discretization_indicator"] == abs(fine["energy"]
                                                   - coarse["energy"])


def test_nested_solve_reaches_the_cold_solution(sup_stop):
    # a cell coefficient b is averaged over 2 x 2 blocks on the coarse
    # mesh; the start changes, the minimizer does not
    b = np.random.default_rng(2).uniform(1.0, 3.0, (64, 64))
    spec = OperatorSpec(power_potential(3.0), b=b)
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    u, info = solve(spec, f)
    cold, _ = solve(spec, f, u0=np.zeros((65, 65)))
    assert [level["N"] for level in info["levels"]] == [33]
    assert np.max(np.abs(u.values - cold.values)) <= 1e-9 * np.max(u.values)


def test_field_csv_writes_round_trip_values(tmp_path):
    # the number format of every CSV writer of the package: repr, which
    # np.loadtxt reads back exactly
    values = (np.random.default_rng(3).normal(size=(9, 9))
              * 10.0 ** np.arange(-4, 5))
    GridField(values).to_csv(tmp_path / "u.csv")
    rows = (tmp_path / "u.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == repr(float(values[0, 0]))
    back = np.loadtxt(tmp_path / "u.csv", delimiter=",", comments="#")
    assert np.array_equal(back, values)


def test_restriction_conserves_mass():
    fine = point_mass_field(129)
    coarse = GridField(_restrict(fine.values))
    assert coarse.n_nodes == 65
    assert abs(coarse.l1() - fine.l1()) <= 1e-12


def test_prolongation_is_exact_on_bilinear_fields():
    def bilinear(x, y):
        return 0.3 - 1.5 * x + 2.0 * y + 4.0 * x * y

    coarse = GridField.from_function(17, bilinear)
    fine = GridField.from_function(33, bilinear)
    np.testing.assert_allclose(_prolong(coarse.values), fine.values,
                               rtol=0.0, atol=1e-14)


def test_p2_solve_is_one_exact_newton_step():
    # Phi = |xi|^2/2: the Hessian diagonal is 4, the scaling is the
    # identity and the preconditioner inverts the Hessian exactly
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    _, info = solve(OperatorSpec(power_potential(2.0)), f)
    assert info["converged"]
    assert info["newton_steps"] == 1 and info["pcg_iterations"] == 1
    assert info["pcg_breakdowns"] == 0 and info["descent_fallbacks"] == 0
    assert 0.0 <= info["dual_residual"] <= info["residual"]


@pytest.mark.parametrize("n, value", [(3, 1.0 / 16), (4, 1.0 / 18)])
def test_p2_solve_on_the_smallest_grids(n, value):
    # N = 3 has one interior node and no pair (k, N - 1 - k) of the sine
    # transform, N = 4 no middle node; -Lap_h u = 1 gives u = h^2/4 and
    # u = h^2/2 on every interior node
    f = GridField.from_function(n, lambda x, y: np.ones_like(x))
    u, info = solve(OperatorSpec(power_potential(2.0)), f)
    assert info["newton_steps"] == 1 and info["pcg_iterations"] == 1
    np.testing.assert_allclose(u.values[1:-1, 1:-1], value, rtol=1e-14)


@pytest.mark.parametrize("n, steps, cg", [(6, 7, 19), (16, 7, 21)])
def test_p3_solve_on_even_grids(n, steps, cg, sup_stop):
    f = GridField.from_function(n, lambda x, y: np.ones_like(x))
    _, info = solve(OperatorSpec(power_potential(3.0)), f)
    assert info["converged"]
    assert (info["newton_steps"], info["pcg_iterations"]) == (steps, cg)


def test_scaled_preconditioner_is_symmetric():
    rng = np.random.default_rng(5)
    n = 33
    cells = rng.uniform(0.5, 2.0, (3, n - 1, n - 1))
    # a positive definite cell tensor: |hxy| < sqrt(hxx hyy)
    weights = (cells[0], 0.9 * np.sqrt(cells[0] * cells[2])
               * rng.uniform(-1.0, 1.0, (n - 1, n - 1)), cells[2])
    pre = _LaplacePreconditioner(n, 1.0 / (n - 1))
    pre.rescale(weights)
    x, y = (GridField(rng.standard_normal((n, n))).zero_boundary().values
            for _ in range(2))
    xPy, yPx = np.sum(x * pre.apply(y)), np.sum(y * pre.apply(x))
    assert abs(xPy - yPx) <= 1e-12 * abs(xPy)


class _IndefiniteSpec(OperatorSpec):
    """|xi|^2/2 with the sign of its Hessian action flipped."""

    def hess_apply(self, weights, vx, vy, scratch):
        out_x, out_y = super().hess_apply(weights, vx, vy, scratch)
        return -out_x, -out_y


def test_pcg_breakdown_and_descent_fallback_are_counted():
    # p.Hp < 0 stops CG at once with d = 0, which is no descent
    # direction; the solve then steps along P^-1 g, which for this
    # energy is the exact Newton step
    f = GridField.from_function(17, lambda x, y: np.ones_like(x))
    _, info = solve(_IndefiniteSpec(power_potential(2.0)), f)
    assert info["converged"] and info["newton_steps"] == 1
    assert info["pcg_breakdowns"] == 1 and info["descent_fallbacks"] == 1


_CELLS = np.random.default_rng(3).uniform(1.0, 2.0, (16, 16))


def _gradient(spec, u, f, h):
    """The energy gradient at u, in arrays of its own."""
    ws = _Workspace(f, h)
    _energy(spec, u, ws)
    return _energy_gradient(spec, ws, np.empty_like(u))


@pytest.mark.parametrize("spec", [
    OperatorSpec(power_potential(1.5)),
    OperatorSpec(power_potential(3.0)),
    OperatorSpec(power_potential(5.0)),
    OperatorSpec(split_power_potential(2.0, 4.0)),
    OperatorSpec(power_potential(3.0), b=_CELLS),
    OperatorSpec(KINKED),
], ids=["p1.5", "p3", "p5", "split", "p3-b", "combination"])
def test_hessian_matches_gradient_differences(spec):
    rng = np.random.default_rng(7)
    n, h = 17, 1.0 / 16
    x = np.linspace(0.0, 1.0, n)
    # cell gradients near (1, 2): away from the floors at zero gradient
    u = x[:, None] + 2.0 * x[None, :] + 0.01 * rng.standard_normal((n, n))
    v = GridField(rng.standard_normal((n, n))).zero_boundary().values
    f = np.zeros((n, n))
    delta = 1e-5
    fd = (_gradient(spec, u + delta * v, f, h)
          - _gradient(spec, u - delta * v, f, h)) / (2.0 * delta)
    hv = _hessian_times(spec, spec.hess_weights(*cell_gradients(u, h)), v,
                        _Workspace(f, h))
    assert np.max(np.abs(hv - fd)) <= 1e-7 * np.max(np.abs(hv))


def test_split_potential_solve():
    f = GridField.from_function(33, lambda x, y: np.ones_like(x))
    f.zero_boundary()
    u, _ = solve(OperatorSpec(split_power_potential(2.0, 4.0)), f)
    assert np.max(u.values) > 0.0
    # boundary stays zero
    assert np.all(u.values[0, :] == 0.0) and np.all(u.values[:, -1] == 0.0)


def test_operator_spec_validation():
    with pytest.raises(YoungFunctionError):
        OperatorSpec(power_potential(2.0), b=0.5)
    with pytest.raises(YoungFunctionError):
        power_potential(1.0)


@pytest.mark.parametrize("b", [
    math.nan, math.inf, np.where(np.arange(16) == 5, math.nan, 2.0),
], ids=["nan", "inf", "array-with-a-nan"])
def test_operator_spec_refuses_a_non_finite_b(b):
    # b >= 1 must hold everywhere: NaN fails every comparison, so a check
    # that looks only for b < 1 let it through
    with pytest.raises(YoungFunctionError, match="finite"):
        OperatorSpec(power_potential(2.0), b=b)


@pytest.mark.parametrize("phi", [
    RadialPhi(3, PowerYoung(3.0)),
    LinearCombinationPhi(2, [([1.0, 0.0], PowerYoung(2.0)),
                             ([1.0, 1.0], PowerLogYoung(2.0, 1.0))]),
    RadialPhi(2, PowerLogYoung(2.0, 1.0)),
    SplitPhi([PowerYoung(2.0), PowerLogYoung(2.0, 1.0)]),
], ids=["n3", "linear-combination", "power-log", "split-power-log"])
def test_operator_spec_rejects_what_it_cannot_differentiate(phi):
    with pytest.raises(YoungFunctionError):
        OperatorSpec(phi)


def test_split_operator_is_the_per_axis_formulas():
    # the identity-row combination gives the split's own formulas bit for
    # bit: products with 0 and 1 are exact
    terms = [PowerYoung(1.5, 1.0 / 1.5), PowerYoung(4.0, 0.25)]
    b = np.random.default_rng(3).uniform(1.0, 3.0, (16, 16))
    spec = OperatorSpec(SplitPhi(terms), b=b)
    rng = np.random.default_rng(5)
    gx, gy = rng.standard_normal((2, 16, 16))
    gx[::3], gy[:, ::4] = 0.0, 0.0
    ax, ay = np.abs(gx), np.abs(gy)
    assert np.array_equal(spec.energy_density(gx, gy),
                          b * (terms[0].value(ax) + terms[1].value(ay)))
    sx, sy = np.maximum(ax, _DELTA), np.maximum(ay, _DELTA)
    fx, fy = spec.flux(gx, gy)
    assert np.array_equal(fx, b * terms[0].derivative(sx) / sx * gx)
    assert np.array_equal(fy, b * terms[1].derivative(sy) / sy * gy)
    hxx, hxy, hyy = spec.hess_weights(gx, gy)
    floors = [_hessian_floor(a) for a in terms]
    assert np.array_equal(
        hxx, b * terms[0].second_derivative(np.maximum(ax, floors[0])))
    assert np.array_equal(
        hyy, b * terms[1].second_derivative(np.maximum(ay, floors[1])))
    assert np.array_equal(hxy, np.zeros_like(gx))


@pytest.mark.parametrize("rows, ps, peak, stop", [
    ([(1, 0), (0, 1), (1, 1)], (2.0, 3.0, 4.0), 0.106790, "gap"),
    ([(1, 0), (0, 1), (1, -1)], (2.0, 2.0, 4.0), 0.070845, "residual"),
    ([(1, 0), (1, 1)], (2.0, 4.0), 0.113108, "residual"),
], ids=["kinked", "symmetric", "sheared"])
def test_combination_solves(rows, ps, peak, stop, rounding_stop):
    # the values of max u at N = 65 measured when the grid first took
    # combinations; they rise by less than 4e-5 up to N = 257.  Every
    # combination has a gap: the kinked one stops on it; the symmetric
    # one reaches J's rounding level after 4 steps and its fifth, a full
    # step, meets the tolerance before the gap is checked; the sheared
    # one reaches J's rounding level at a gap of 3.5e-15, above its
    # bound, and converges through full steps
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    field, info = solve(OperatorSpec(combination_potential(rows, ps)), f)
    u = field.values
    assert info["stop"] == stop and info["converged"]
    assert info["duality_gap"] <= info["gap_bound"]
    assert np.max(u) == pytest.approx(peak, abs=1e-6)
    if rows[2:] == [(1, -1)]:
        # Phi is invariant under swapping xi_1 and xi_2, and so is u
        assert np.max(np.abs(u - u.T)) <= 1e-15


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_linf_below_symmetrized_radial_centre(p):
    # Talenti's comparison for a(xi) = A'(|xi|) xi/|xi|: max u <= v(0),
    # v the radial solution on the disc of area 1 with datum f* = 1 and
    # |v'| = (A')^{-1}(r f** / 2).  The ratios read 0.894, 0.926 and
    # 0.935 for N = 33-129; the datum scaled by 1.2 reads 1.287, 1.111
    # and 1.024.
    spec = OperatorSpec(power_potential(p))
    v = solve_radial(spec.potential.a.conjugate().derivative,
                     RearrangedFunction([0.0, 1.0], [1.0]), 2)
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    u, _ = solve(spec, f)
    assert np.max(u.values) <= v.v[0]


def test_solve_error_when_no_iterations_allowed():
    f = GridField.from_function(33, lambda x, y: 10.0 * np.ones_like(x))
    f.zero_boundary()
    with pytest.raises(SolveError):
        solve(OperatorSpec(power_potential(2.0)), f, max_iter=0)


def test_solve_error_just_above_the_tolerance():
    # seven Newton steps leave the split (2, 4) at a residual of 19 tol
    # and a gap of 2.9e-14, 69 times its bound: neither certified nor
    # converged, so the solve raises however close to tol it stopped
    f = ones(17)
    with pytest.raises(SolveError, match="duality gap") as error:
        solve(OperatorSpec(split_power_potential(2.0, 4.0)), f,
              u0=np.zeros((17, 17)), max_iter=7)
    info = error.value.info
    tol = 1e-9 * (1.0 + f.l1())
    assert not info["converged"] and tol < info["residual"] < 100.0 * tol
    assert info["duality_gap"] > info["gap_bound"]


def test_start_boundary_is_zeroed_on_entry(rounding_stop):
    # u0 = 1 on the boundary would be Dirichlet data for Newton; the
    # solve zeroes it first, so the field it returns is the one its gap
    # certifies, the solution from zero to 1.5e-9 (max u = 0.187)
    spec, f = OperatorSpec(power_potential(3.0)), ones(65)
    cold, _ = solve(spec, f)
    u, info = solve(spec, f, u0=np.ones((65, 65)))
    assert info["stop"] == "gap"
    assert duality_gap(spec, f, u) == (info["duality_gap"],
                                       info["gap_bound"])
    assert np.max(np.abs(u.values - cold.values)) <= 1e-8


@pytest.mark.parametrize("n, phi, u0, stop, levels, rounding", [
    (65, power_potential(3.0), None, "gap", [33], True),
    (129, power_potential(2.0), None, "residual", [33, 65], False),
    (65, power_potential(3.0), np.zeros((65, 65)), "gap", [], False),
    (65, split_power_potential(2.0, 4.0), None, "residual", [33], True),
    (65, power_potential(3.0), None, "discretization", [33], False),
], ids=["gap-stopped", "residual-stopped", "from-u0", "split",
        "discretization-stopped"])
def test_solve_record_is_the_certificate_of_its_field(n, phi, u0, stop,
                                                      levels, rounding,
                                                      request):
    # every solve evaluates the gap of the field it returns, however it
    # stopped, and every coarse level records its own gap in numbers;
    # the coarsest level, which has no coarser one, has no indicator
    if rounding:
        request.getfixturevalue("rounding_stop")
    spec, f = OperatorSpec(phi), ones(n)
    u, info = solve(spec, f, u0=u0)
    assert info["stop"] == stop and info["converged"]
    assert duality_gap(spec, f, u) == (info["duality_gap"],
                                       info["gap_bound"])
    assert info["duality_gap"] <= info["gap_target"]
    assert math.isfinite(info["dual_residual"])
    assert [level["N"] for level in info["levels"]] == levels
    for k, level in enumerate(info["levels"]):
        values = dict(level)
        indicator = values.pop("discretization_indicator")
        assert (indicator is None) == (k == 0)
        assert k == 0 or math.isfinite(indicator)
        assert values.pop("stop") in ("gap", "discretization", "residual")
        assert all(math.isfinite(value) for value in values.values())


def test_stalled_newton_stops_early():
    # p = 1.2 on N = 65 stalls well above the tolerance; the solve stops
    # once the residual sets no new minimum for a while, not at max_iter.
    # The N = 33 level stalls too (42 steps, residual 0.05), so N = 65
    # starts from zero and stops after 15 steps at residual 2.5.
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    with pytest.raises(SolveError, match="stalled") as info:
        solve(OperatorSpec(power_potential(1.2)), f)
    assert info.value.info["newton_steps"] <= 30
    # its duality gap, 4.1e-9 of |J|, is far above J's rounding level:
    # not certified, and the error carries it, as does each level
    record = info.value.info
    gap, bound = record["duality_gap"], record["gap_bound"]
    assert gap / abs(record["energies"][-1]) == pytest.approx(4.1e-9,
                                                              rel=0.05)
    assert gap > bound and not record["converged"]
    assert [(level["N"], level["duality_gap"] > level["gap_bound"])
            for level in record["levels"]] == [(33, True)]
    # its N = 33 level does not converge, so N = 65 has no indicator and
    # keeps the rounding-level target
    assert record["discretization_indicator"] is None
    assert record["gap_target"] == bound


# Finest Newton steps and CG iterations on f = 1 with the stop at a
# certified duality gap, and with the stop on the sup residual alone.
# The gap stops 1-3 Newton steps earlier; p = 2 stops on the residual
# after its one exact step.
@pytest.mark.parametrize("n, p, certified, sup", [
    (65, 2.0, (1, 1), (1, 1)),
    (65, 4.0, (6, 23), (7, 31)),
    (129, 1.5, (4, 24), (7, 44)),
    (129, 4.0, (6, 24), (7, 32)),
    (257, 1.5, (6, 26), (9, 44)),
    (257, 3.0, (4, 13), (6, 24)),
])
def test_gap_stop_certifies_the_sweep(n, p, certified, sup, request,
                                     rounding_stop):
    spec, f = OperatorSpec(power_potential(p)), ones(n)
    u, info = solve(spec, f)
    assert (info["newton_steps"], info["pcg_iterations"]) == certified
    assert info["stop"] == ("residual" if p == 2.0 else "gap")
    assert info["converged"] and info["duality_gap"] <= info["gap_bound"]
    assert duality_gap(spec, f, u) == (info["duality_gap"],
                                       info["gap_bound"])
    request.getfixturevalue("sup_stop")
    v, sup_info = solve(spec, f)
    assert (sup_info["newton_steps"], sup_info["pcg_iterations"]) == sup
    # the steps saved move u by at most 3.1e-8 of max |u| (at 129, 1.5)
    assert (np.max(np.abs(u.values - v.values))
            <= 1e-7 * np.max(np.abs(v.values)))


def _stall_at_one_blas_thread(n, p):
    """``(newton_steps, residual)`` of the SolveError that ``solve``
    raises on f = 1 under the sup stop (the ``sup_stop`` fixture), in a
    fresh interpreter whose BLAS runs on one thread."""
    code = ("import json, math\n"
            "import numpy as np\n"
            "from conftest import power_potential\n"
            "from orliczpde import grid\n"
            "gap = grid._gap\n"
            "def no_bound(*args):\n"
            "    value, _, dual_residual = gap(*args)\n"
            "    return value, -math.inf, dual_residual\n"
            "grid._THETA, grid._gap = 0.0, no_bound\n"
            f"f = grid.GridField.from_function({n}, "
            "lambda x, y: np.ones_like(x))\n"
            "try:\n"
            f"    grid.solve(grid.OperatorSpec(power_potential({p})), f)\n"
            "except grid.SolveError as e:\n"
            "    print(json.dumps([e.info['newton_steps'], "
            "e.info['residual']]))\n")
    paths = (Path(grid.__file__).parents[1], Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)),
               **{var: "1" for var in ("OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return tuple(json.loads(proc.stdout))


def test_stall_with_a_closed_gap_is_certified(rounding_stop):
    # N = 129, p = 1.3: the Newton decrement reaches J's rounding level
    # while the sup residual, at the node where grad u = 0 and A'' is
    # unbounded, is still about 5e6 tol; the gap there is 1.5e-14 of
    # |J|, under its bound.  The sup stop runs on, full steps judged by
    # the residual, and raises after 16 steps from coarse levels that,
    # no gap stopping them, run to 1e-9 (1 + ||f||_1).  Its residual is
    # rounding amplified by the stall: 1.93e-2 on one BLAS thread and
    # 1.71e-2 on two, where OpenBLAS splits the CG dot products of
    # 129^2 terms between the threads, so it is read on one.
    spec, f = OperatorSpec(power_potential(1.3)), ones(129)
    _, info = solve(spec, f)
    assert info["converged"] and info["stop"] == "gap"
    assert info["residual"] > 1e6 * 1e-9 * (1.0 + f.l1())
    assert info["duality_gap"] <= info["gap_bound"]
    assert info["duality_gap"] <= 3e-14 * abs(info["energies"][-1])
    steps, residual = _stall_at_one_blas_thread(129, 1.3)
    assert steps == 16
    assert residual == pytest.approx(1.93e-2, rel=0.01)


@pytest.mark.parametrize("n, p", [
    (65, 4.0), (129, 1.5), (129, 4.0), (257, 1.5), (257, 3.0)])
def test_discretization_stop_is_below_the_discretization_error(n, p,
                                                                monkeypatch):
    # a level that starts from a converged coarser one stops once its
    # certified gap is at most _THETA |J - J_c|.  It moves u from the
    # rounding-level solution by at most 1.8e-3 (N = 129, p = 4) of the
    # discretization change |u_N - P u_N/2|; with _THETA = 1e3 the solve
    # stops after one step at 0.11-2.7 of it
    spec, f = OperatorSpec(power_potential(p)), ones(n)
    u, info = solve(spec, f)
    eta = info["discretization_indicator"]
    assert info["stop"] == "discretization" and info["converged"]
    assert eta == abs(info["energies"][-1] - info["levels"][-1]["energy"])
    assert info["gap_target"] == max(info["gap_bound"], grid._THETA * eta)
    assert info["duality_gap"] <= info["gap_target"]
    assert duality_gap(spec, f, u) == (info["duality_gap"],
                                       info["gap_bound"])
    with monkeypatch.context() as rounding:
        rounding.setattr(grid, "_THETA", 0.0)
        polished, _ = solve(spec, f)
        coarse, _ = solve(spec, ones((n + 1) // 2))
    change = np.max(np.abs(polished.values - _prolong(coarse.values)))

    def ratio(field):
        return np.max(np.abs(field.values - polished.values)) / change

    assert ratio(u) <= 1e-2
    monkeypatch.setattr(grid, "_THETA", 1e3)
    loose, loose_info = solve(spec, f)
    assert loose_info["newton_steps"] == 1 and ratio(loose) >= 0.1


def test_discretization_stop_converges_where_polish_stalls():
    # N = 257, p = 1.3 raised after 20 finest steps at a gap of 5.8e-14
    # of |J| against a rounding bound of 3.1e-14; its gap target is met
    # after 5
    _, info = solve(OperatorSpec(power_potential(1.3)), ones(257))
    assert info["converged"] and info["stop"] == "discretization"
    assert info["newton_steps"] <= 6


@pytest.mark.parametrize("phi", [
    power_potential(3.0),
    split_power_potential(1.5, 3.0),
    combination_potential([(1, 0), (1, 1)], (2.0, 4.0)),
    KINKED,
    combination_potential([(1, 0), (0, 1), (1, -1)], (2.0, 2.0, 4.0)),
], ids=["radial", "split", "sheared", "kinked", "symmetric"])
def test_duality_gap_bounds_the_energy_error(phi):
    # Phi* is A*(|sigma|), or for a combination bounded by
    # sum_k A_k*(|tau_k|) with C^T tau = sigma (the bound is Phi* on two
    # rows): the gap closes at the solution and bounds J(v) - min J from
    # above for any other v
    spec, f = OperatorSpec(phi, b=_CELLS), ones(17)
    u, info = solve(spec, f)
    assert info["duality_gap"] <= info["gap_bound"] and info["converged"]
    bump = GridField.from_function(
        17, lambda x, y: np.sin(3 * np.pi * x) * np.sin(np.pi * y)).values
    ws = _Workspace(f.values, f.h)
    J = _energy(spec, u.values, ws)[0]
    for c in (1e-3, 0.1):
        v = GridField(u.values + c * np.max(u.values) * bump)
        gap, bound = duality_gap(spec, f, v)
        excess = _energy(spec, v.values, ws)[0] - J
        assert 0.0 < excess <= gap and gap > bound


@pytest.mark.parametrize("phi", [power_potential(1.5), KINKED],
                         ids=["radial", "kinked"])
def test_duality_gap_evaluates_the_flux_once(phi, monkeypatch):
    # the energy gradient and the dual flux share one evaluation of the
    # term fluxes of u, and the gap is the one that solve records
    spec, f = OperatorSpec(phi, b=_CELLS), ones(17)
    u, info = solve(spec, f)
    calls = []
    term_fluxes = OperatorSpec._term_fluxes
    monkeypatch.setattr(OperatorSpec, "_term_fluxes",
                        lambda *args: calls.append(1) or term_fluxes(*args))
    assert duality_gap(spec, f, u) == (info["duality_gap"],
                                       info["gap_bound"])
    assert len(calls) == 1


def _conjugate_by_maximizing(phi, s):
    """Phi*(s) = max_xi (s . xi - Phi(xi)) for a combination of powers,
    by BFGS on the concave objective."""
    rows = phi.coeffs
    ps = np.array([a.p for a in phi.terms])

    def objective(xi):
        y = rows @ xi
        value = np.sum(np.abs(y) ** ps / ps) - s @ xi
        return value, rows.T @ (np.sign(y) * np.abs(y) ** (ps - 1.0)) - s

    result = minimize(objective, np.zeros(2), jac=True, method="BFGS",
                      options={"gtol": 1e-13})
    return -result.fun


@pytest.mark.parametrize("phi", [
    combination_potential([(1, 0), (1, 1)], (2.0, 4.0)),
    KINKED,
    combination_potential([(1, 0), (0, 1), (1, -1), (2, 1)],
                          (2.0, 3.0, 2.5, 4.0)),
], ids=["sheared", "kinked", "four-rows"])
def test_dual_density_bounds_the_conjugate(phi):
    # a combination Psi(C xi) bounds Phi*(sigma) by Psi*(tau) with
    # C^T tau = sigma (Rockafellar 1970, Thm 16.3): equal on two rows,
    # above Phi* on more, and equal to sigma . xi - Phi(xi) where sigma
    # is the flux at xi itself (Fenchel-Young), whatever the rows
    spec = OperatorSpec(phi)
    rng = np.random.default_rng(5)
    gx, gy, ex, ey = rng.uniform(-1.5, 1.5, (4, 2, 3))
    sx, sy = spec.flux(gx, gy)
    fenchel = sx * gx + sy * gy - spec.energy_density(gx, gy)
    zero = np.zeros_like(gx)
    assert np.allclose(spec.dual_density(spec._term_fluxes(gx, gy), zero,
                                         zero), fenchel, rtol=1e-13)
    bound = spec.dual_density(spec._term_fluxes(gx, gy), ex, ey)
    exact = np.vectorize(lambda a, b: _conjugate_by_maximizing(
        phi, np.array([a, b])))(sx - ex, sy - ey)
    if len(phi.terms) == 2:
        assert np.allclose(bound, exact, rtol=1e-9)
    else:
        assert np.all(bound >= exact * (1.0 - 1e-12))
        assert np.any(bound > exact * (1.0 + 1e-3))


def test_capped_cg_still_gives_newton_a_step(monkeypatch):
    # a CG solve that runs to its cap returns its last iterate, "capped";
    # Newton steps along it and is counted, and the solve still closes
    # its gap
    monkeypatch.setattr(grid, "_PCG_MAX_ITER", 3)
    spec, f = OperatorSpec(power_potential(4.0)), ones(33)
    ws = _Workspace(f.values, f.h)
    _energy(spec, GridField.from_function(
        33, lambda x, y: x * (1 - x) * y * (1 - y) * (1 + x)).values, ws)
    g = _energy_gradient(spec, ws, np.empty((33, 33)))
    d, k, stop = _pcg(spec, spec.hess_weights(ws.dx, ws.dy), g, ws, 1e-12)
    assert (k, stop) == (3, "capped") and np.vdot(g, d) > 0.0
    _, info = solve(spec, f)
    assert info["pcg_maxiter_hits"] >= 1
    assert info["converged"] and info["stop"] == "gap"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 34, 65, 257])
def test_preconditioner_matches_sine_transform(n):
    # odd and even N: N = 3 has no pair (k, N - 1 - k), an even N no
    # middle node; D = I first, then a Jacobi scaling
    rng = np.random.default_rng(n)
    h = 1.0 / (n - 1)
    k = np.arange(1, n - 1)
    lam = (4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2
    inv_eig = 1.0 / (lam[:, None] + lam[None, :])
    pre = _LaplacePreconditioner(n, h)
    cells = rng.uniform(0.5, 2.0, (3, n - 1, n - 1))
    weights = (cells[0], 0.1 * cells[1], cells[2])
    g = rng.standard_normal((n, n))
    for scale in (1.0, _oracle_scale(weights)):
        oracle = scale * idstn(dstn(scale * g[1:-1, 1:-1] / h**2, type=1,
                                    norm="ortho") * inv_eig,
                               type=1, norm="ortho")
        out = pre.apply(g)
        assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)
        assert np.all(out[:, 0] == 0.0) and np.all(out[:, -1] == 0.0)
        err = (np.max(np.abs(out[1:-1, 1:-1] - oracle))
               / np.max(np.abs(oracle)))
        assert err <= 1e-13
        pre.rescale(weights)


def test_preconditioner_inverts_five_point_laplacian():
    n = 17
    h = 1.0 / (n - 1)
    m = n - 2
    # -Laplace_h on the interior, zero boundary: kron(T, I) + kron(I, T)
    t = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h**2
    lap = np.kron(t, np.eye(m)) + np.kron(np.eye(m), t)
    g = np.random.default_rng(0).standard_normal((n, n))
    oracle = np.linalg.solve(lap, (g[1:-1, 1:-1] / h**2).ravel())
    out = _LaplacePreconditioner(n, h).apply(g)[1:-1, 1:-1].ravel()
    np.testing.assert_allclose(out, oracle, rtol=1e-12,
                               atol=1e-13 * np.max(np.abs(oracle)))


def test_approximable_sequence_report():
    f = GridField.from_function(33, lambda x, y: 5.0 * np.ones_like(x))
    f.zero_boundary()
    fields, report = approximable_sequence(
        OperatorSpec(power_potential(2.0)), f, [2.0, 10.0])
    assert len(fields) == 2
    assert report[0]["f_l1"] < report[1]["f_l1"]
    assert "sup_deviation" not in report[0]
    assert report[1]["sup_deviation"] > 0.0
    assert report[1]["deviation_measure"] >= 0.0


@pytest.mark.parametrize("k", [-1.0, 0.0])
def test_approximable_sequence_refuses_a_rung_that_is_not_positive(
        k, monkeypatch):
    # clamp(f, +-k) is the constant k for k <= 0; the ladder is refused,
    # naming the rung, before any rung is solved
    solves = []
    monkeypatch.setattr(grid, "solve", lambda *a, **kw: solves.append(a))
    f = GridField.from_function(17, lambda x, y: 5.0 * np.ones_like(x))
    with pytest.raises(YoungFunctionError, match=f"rung k = {k!r} "):
        approximable_sequence(OperatorSpec(power_potential(2.0)), f,
                              [2.0, k])
    assert solves == []


# Allocating oracles: the kernels written with fresh temporaries, in
# the operands and order of the workspace kernels, which work in the
# arrays of a level's workspace and must give the same bits.

def _oracle_differences(v):
    return v[1:, :-1] - v[:-1, :-1], v[:-1, 1:] - v[:-1, :-1]


def _oracle_divergence(ax, ay):
    out = np.zeros((ax.shape[0] + 1, ax.shape[1] + 1))
    out[1:-1, 1:-1] = ax[:-1, 1:] + ay[1:, :-1] - ax[1:, 1:] - ay[1:, 1:]
    return out


def _oracle_energy(spec, u, f, h):
    gx, gy = cell_gradients(u, h)
    dens = spec.energy_density(gx, gy)
    fu = f * u
    J = float(h**2 * np.sum(dens) - h**2 * np.sum(fu))
    return J, float(h**2 * (np.sum(np.abs(dens)) + np.sum(np.abs(fu))))


def _oracle_gradient(spec, u, f, h):
    g = _oracle_divergence(*spec.flux(*cell_gradients(u, h)))
    g *= h
    g[1:-1, 1:-1] -= h**2 * f[1:-1, 1:-1]
    return g


def _oracle_hessian_times(weights, v):
    hxx, hxy, hyy = weights
    vx, vy = _oracle_differences(v)
    return _oracle_divergence(hxx * vx + hxy * vy, hxy * vx + hyy * vy)


def _oracle_butterfly(a, half):
    rest = len(a) - half
    return np.concatenate([a[:rest] + a[::-1][:rest],
                           (a[:half] - a[::-1][:half])[::-1]])


def _oracle_apply(pre, g):
    odd, even, D = pre.sine_odd, pre.sine_even, pre.scale
    k, half = len(odd), len(even)
    a = _oracle_butterfly(D * g[1:-1, 1:-1], half)
    a = _oracle_butterfly(np.hstack([a[:k].T @ odd.T, a[k:].T @ even.T]),
                          half)
    a = np.vstack([odd @ a[:k], even @ a[k:]]) * pre.inv_eig
    a = _oracle_butterfly(np.vstack([odd.T @ a[:k], even.T @ a[k:]]), half)
    a = _oracle_butterfly(np.vstack([odd.T @ a[:, :k].T,
                                     even.T @ a[:, k:].T]), half)
    full = np.zeros_like(g)
    full[1:-1, 1:-1] = D * a
    return full


def _oracle_scale(weights):
    hxx, hxy, hyy = weights
    corner = hxx + 2.0 * hxy + hyy
    d = corner[1:, 1:] + hxx[:-1, 1:] + hyy[1:, :-1]
    return np.sqrt(4.0 / d)


def _oracle_pcg(weights, rhs, pre, rel_tol):
    pre.rescale(weights)
    d = np.zeros_like(rhs)
    r = rhs.copy()
    z = _oracle_apply(pre, r)
    p = z
    rz = float(np.vdot(r, z))
    tol_2 = rel_tol * float(np.sqrt(np.vdot(rhs, rhs)))
    tol_sup = np.sqrt(rel_tol) * float(np.max(np.abs(rhs)))
    for k in range(1, _PCG_MAX_ITER + 1):
        Hp = _oracle_hessian_times(weights, p)
        pHp = float(np.vdot(p, Hp))
        if pHp <= 0.0:
            return d, k, "breakdown"
        alpha = rz / pHp
        d += alpha * p
        r -= alpha * Hp
        if (float(np.sqrt(np.vdot(r, r))) <= tol_2
                and float(np.max(np.abs(r))) <= tol_sup):
            return d, k, "converged"
        z = _oracle_apply(pre, r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return d, _PCG_MAX_ITER, "capped"


@pytest.mark.parametrize("n", [17, 34, 65])
@pytest.mark.parametrize("kind", ["p1.5", "p3", "split", "p3-b",
                                  "combination"])
def test_workspace_kernels_match_allocating_oracles(kind, n):
    rng = np.random.default_rng(n)
    b = rng.uniform(1.0, 2.0, (n - 1, n - 1)) if kind == "p3-b" else 1.0
    phi = {"split": split_power_potential(2.0, 4.0), "combination": KINKED,
           "p1.5": power_potential(1.5)}.get(kind, power_potential(3.0))
    spec = OperatorSpec(phi, b=b)
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    f = np.ones((n, n))
    u, v = (GridField(c * np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
                      + 0.01 * rng.standard_normal((n, n))).zero_boundary()
            .values for c in (0.3, 1.0))
    ws = _Workspace(f, h)
    assert _energy(spec, u, ws) == _oracle_energy(spec, u, f, h)
    assert np.array_equal(_energy_gradient(spec, ws, np.empty((n, n))),
                          _oracle_gradient(spec, u, f, h))
    weights = spec.hess_weights(*cell_gradients(u, h))
    assert np.array_equal(_hessian_times(spec, weights, v, ws),
                          _oracle_hessian_times(weights, v))
    oracle_pre = _LaplacePreconditioner(n, h)
    for _ in range(2):  # D = I, then the Jacobi scaling
        assert np.array_equal(ws.apply(v), _oracle_apply(oracle_pre, v))
        ws.rescale(weights)
        oracle_pre.rescale(weights)
    assert np.array_equal(ws.scale, _oracle_scale(weights))
    rhs = _oracle_gradient(spec, u, f, h)
    for rel_tol in (0.1, 1e-8):
        d, k, stop = _pcg(spec, weights, rhs, ws, rel_tol)
        d_oracle, k_oracle, stop_oracle = _oracle_pcg(weights, rhs,
                                                      oracle_pre, rel_tol)
        assert (k, stop) == (k_oracle, stop_oracle) and k > 1
        assert np.array_equal(d, d_oracle)


def test_solve_peak_memory_is_set_by_cg():
    # the Jacobi scaling and the Hessian action are built in the
    # workspace, so a solve peaks in hess_weights: the level's arrays
    # and the temporaries of the radial tensor, 17.4 N^2 numbers (18.8
    # with an allocating Hessian action, 22.8 with an allocating
    # rescale too)
    n = 129
    f = GridField.zeros(n)
    f.values.fill(1.0)
    spec = OperatorSpec(power_potential(1.5))
    tracemalloc.start()
    try:
        solve(spec, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19.0 * 8 * n * n
