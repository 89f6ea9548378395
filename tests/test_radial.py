"""Closed-form radial solutions and the a-priori estimate checkers."""

import math

import numpy as np
import pytest

from orliczpde.embedding import sobolev_conjugate
from orliczpde.radial import (
    calibrate_c1,
    calibrate_kappa2,
    gradient_l1_bound,
    level_set_bound_grad,
    level_set_bound_u,
    solve_radial,
    truncation_energy_check,
)
from orliczpde.rearrangement import RearrangedFunction, boundedness_criterion
from orliczpde.young import PowerYoung


def _unit_disk_rf():
    return RearrangedFunction([0.0, math.pi], [1.0])


def _psi_inv(p):
    # Phi_diamond = t^p: Psi(t) = t^{p-1}
    return lambda s: np.maximum(np.asarray(s, dtype=float), 0.0) ** (
        1.0 / (p - 1.0))


def _exact(p, r):
    # f = 1 on the unit disk: g(r) = (r/2)^{1/(p-1)},
    # v(r) = (1/2)^g * (1 - r^{g+1})/(g+1) with g = 1/(p-1)
    gam = 1.0 / (p - 1.0)
    g = (r / 2.0) ** gam
    v = 0.5 ** gam * (1.0 - r ** (gam + 1.0)) / (gam + 1.0)
    return v, g


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_radial_closed_form(p):
    sol = solve_radial(_psi_inv(p), _unit_disk_rf(), 2, n_nodes=1024)
    v_ref, g_ref = _exact(p, sol.r)
    assert np.max(np.abs(sol.v - v_ref)) <= 1e-5
    assert np.max(np.abs(sol.g - g_ref)) <= 1e-10
    assert sol.v[-1] == 0.0
    # center value equals the measure-variable criterion integral
    B = boundedness_criterion(_unit_disk_rf(), _psi_inv(p), 2)
    assert sol.v[0] == pytest.approx(B, rel=1e-6)


def test_rearranged_matches_profile():
    sol = solve_radial(_psi_inv(2.0), _unit_disk_rf(), 2, n_nodes=512)
    rf = sol.rearranged()
    for r in (0.2, 0.5, 0.9):
        s = math.pi * r**2
        assert rf(s * 0.999999) == pytest.approx(sol.value(r), abs=1e-3)


def test_gradient_l1_bound_radial():
    # p = 2, unit disk: Theta(grad v) = 2 g(r) = r, integral 2 pi / 3;
    # bound 2 om_2^{-1/2} |Omega|^{1/2} ||f||_1 = 2 pi
    r = np.linspace(0.0, 1.0, 4001)
    mids = 0.5 * (r[1:] + r[:-1])
    shells = math.pi * np.diff(r**2)
    out = gradient_l1_bound(mids, shells, math.pi, math.pi, 2)
    assert out["passes"]
    assert out["measured"] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-4)
    assert out["bound"] == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_truncation_energy_check_radial():
    # p = 2: Phi(grad v) = g^2 = r^2/4; the truncation bound holds with
    # a wide margin for the exact solution
    p = 2.0
    sol = solve_radial(_psi_inv(p), _unit_disk_rf(), 2, n_nodes=2048)
    mids = 0.5 * (sol.r[1:] + sol.r[:-1])
    shells = math.pi * np.diff(sol.r**2)
    u_mid = sol.value(mids)
    e_mid = np.interp(mids, sol.r, sol.g) ** p / p
    # express per-shell masses through a uniform pseudo cell measure
    out = truncation_energy_check(u_mid, e_mid * shells, 1.0,
                                  f_l1=math.pi,
                                  t_ladder=np.geomspace(1e-3, 0.25, 10))
    assert out["passes"]
    assert len(out["ladder"]) == 10


def test_level_set_bounds_calibrated():
    p, n = 1.5, 2
    prof = sobolev_conjugate(PowerYoung(p), n)
    sol = solve_radial(_psi_inv(p), _unit_disk_rf(), n, n_nodes=2048)

    def mu_u(t):
        # |{v >= t}| = pi r(t)^2 with v decreasing in r
        idx = np.searchsorted(-sol.v, -t)
        r = sol.r[min(idx, len(sol.r) - 1)]
        return math.pi * r**2

    t_ladder = np.geomspace(0.05, 0.8, 12) * sol.v[0]
    K = math.pi  # ||f||_1
    kappa2 = calibrate_kappa2(K, prof, mu_u, t_ladder)
    assert 0.0 < kappa2 < math.inf
    bound = level_set_bound_u(K, prof, kappa2=kappa2)
    for t in t_ladder:
        assert mu_u(t) <= bound(t) * (1.0 + 1e-9)

    def mu_e(s):
        # Phi(grad v) = (r/2)^{p/(p-1)} increases in r
        r = 2.0 * s ** ((p - 1.0) / p)
        r = min(r, 1.0)
        return math.pi * (1.0 - r**2)

    s_ladder = np.geomspace(1e-3, 0.2, 10)
    c1 = calibrate_c1(prof, mu_e, s_ladder)
    assert c1 > 0.0
    gbound = level_set_bound_grad(prof, c1=c1)
    for s in s_ladder:
        assert mu_e(s) <= gbound(s) * (1.0 + 1e-9)
