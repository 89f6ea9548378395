"""Closed-form radial solutions and the a-priori estimate checkers."""

import math

import numpy as np
import pytest

from orliczpde.embedding import sobolev_conjugate
from orliczpde.radial import (
    RadialSolution,
    calibrate_c1,
    calibrate_kappa2,
    gradient_l1_bound,
    level_set_bound_grad,
    level_set_bound_u,
    solve_radial,
    truncation_energy_check,
)
from orliczpde.rearrangement import Datum, RearrangedFunction
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
    sol = solve_radial(_psi_inv(p), _unit_disk_rf(), 2)
    v_ref, g_ref = _exact(p, sol.r)
    assert np.max(np.abs(sol.v - v_ref)) <= 1e-5
    assert np.max(np.abs(sol.g - g_ref)) <= 1e-10
    assert sol.v[-1] == 0.0


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
    sol = solve_radial(_psi_inv(p), _unit_disk_rf(), 2)
    mids = 0.5 * (sol.r[1:] + sol.r[:-1])
    shells = math.pi * np.diff(sol.r**2)
    u_mid = np.interp(mids, sol.r, sol.v)
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
    sol = solve_radial(_psi_inv(p), _unit_disk_rf(), n)

    def mu_u(t):
        # |{v >= t}| = pi r(t)^2 with v decreasing in r
        idx = np.searchsorted(-sol.v, -t)
        r = sol.r[min(idx, len(sol.r) - 1)]
        return math.pi * r**2

    t_ladder = np.geomspace(0.05, 0.8, 12) * sol.v[0]
    K = math.pi  # ||f||_1
    kappa2 = calibrate_kappa2(K, prof, [mu_u(t) for t in t_ladder],
                              t_ladder)
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
    c1 = calibrate_c1(prof, [mu_e(s) for s in s_ladder], s_ladder)
    assert c1 > 0.0
    gbound = level_set_bound_grad(prof, c1=c1)
    for s in s_ladder:
        assert mu_e(s) <= gbound(s) * (1.0 + 1e-9)


def _benchmark_csv_rf(a):
    # the step datum f*(s) = s^-a of the benchmark's CSV on the pi-disk:
    # 512 log-spaced steps down to 1e-10 pi, each at its left end
    s = np.concatenate([[0.0], np.geomspace(1e-10 * math.pi, math.pi, 512)])
    return RearrangedFunction(s, np.concatenate([[s[1]], s[1:-1]]) ** -a)


def _step_center(rf, q):
    """v(0) of a step datum under Phi_diamond = t^p, q = 1/(p - 1) in
    {1, 2}, in closed form: on [s_{j-1}, s_j) f** = A/s + B with
    A = Int_0^{s_{j-1}} f* - v_j s_{j-1}, B = v_j, and the integrand
    c^-q s^{q/2 - 1/2} (A/s + B)^q integrates term by term."""
    c = 2.0 * math.sqrt(math.pi)
    lo, hi = rf.breakpoints[:-1], rf.breakpoints[1:]
    B = rf.values
    A = rf._cum[:-1] - B * lo
    if q == 1.0:
        terms = B * (hi - lo) + np.where(
            lo > 0.0, A * np.log(hi / np.maximum(lo, 1e-300)), 0.0)
    else:
        def primitive(s):
            return (4.0 * A * B * np.sqrt(s) + 2.0 / 3.0 * B**2 * s**1.5
                    - 2.0 * A**2 / np.sqrt(np.maximum(s, 1e-300)))
        terms = primitive(hi) - np.where(lo > 0.0, primitive(lo), 0.0)
    return float(np.sum(terms)) / c ** (q + 1.0)


@pytest.mark.parametrize("p, a, rel", [
    (2.0, 0.2, 1e-7), (2.0, 0.6, 1e-7),
    (1.5, 0.7, 1e-5), (1.5, 0.8, 1e-5), (2.0, 0.9, 1e-5),
])
def test_center_matches_sharp_bound_on_csv_datum(p, a, rel):
    # v(0), the sharp bound B, matches the step datum's closed form,
    # which is summed step by step
    rf = _benchmark_csv_rf(a)
    sol = solve_radial(PowerYoung(p).psi_inverse, rf, 2)
    assert sol.v[0] == pytest.approx(_step_center(rf, 1.0 / (p - 1.0)),
                                     rel=rel)


def _power_center(p, a):
    """v(0) of the pow:a datum on the pi-disk under Phi_diamond = t^p:
    pi^{e+1} / (c^{q+1} (1-a)^q (e+1)), c = 2 sqrt(pi), q = 1/(p-1),
    e = q(1/2 - a) - 1/2, or inf when e <= -1."""
    q = 1.0 / (p - 1.0)
    e = q * (0.5 - a) - 0.5
    if e <= -1.0:
        return math.inf
    c = 2.0 * math.sqrt(math.pi)
    return math.pi ** (e + 1.0) / (
        c ** (q + 1.0) * (1.0 - a) ** q * (e + 1.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("a", [0.3, 0.6, 0.7])
def test_center_of_a_power_datum_matches_its_closed_form(p, a):
    # the pow: datum is its closed form, so only the quadrature errs
    psi_inv = PowerYoung(p).psi_inverse
    sol = solve_radial(psi_inv, Datum(f"pow:a={a}").rearranged(math.pi), 2)
    exact = _power_center(p, a)
    assert sol.v[0] == pytest.approx(exact, rel=1e-10)
    assert sol.convergence["error_estimate"] <= 1e-11 * sol.v[0]
    # QUADPACK's qk15 estimate is met (|K15 - G7| read 1.5e-12 relative
    # at p = 1.5, a = 0.7) and bounds the error against the closed form
    assert sol.convergence["tolerance_met"]
    assert sol.convergence["error_estimate"] >= abs(sol.v[0] - exact)


def test_center_and_bound_follow_a_power_profile_to_zero():
    # f*(s) = s^-a realized by a pow: Datum: v(0) = B is its closed
    # form; at p = 1.5 the integral diverges from a = 3/4 on, and the
    # head's decade rule tells 0.749 from 0.751
    psi_inv = PowerYoung(1.5).psi_inverse
    for a in (0.7, 0.749, 0.751, 0.8):
        rf = Datum(f"pow:a={a}").rearranged(math.pi)
        v0 = solve_radial(psi_inv, rf, 2).v[0]
        exact = _power_center(1.5, a)
        if math.isinf(exact):
            assert v0 == math.inf
        else:
            assert v0 == pytest.approx(exact, rel=1e-10)


def test_solve_radial_inverts_psi_at_few_points():
    # 15 Kronrod nodes a panel and the panel ends: on the benchmark's
    # 512-step datum, 566 panels between the 511 inner breakpoints and
    # the quarter decades below 1e-10 |Omega|
    points = []

    def psi_inv(y):
        points.append(np.size(y))
        return np.asarray(y, dtype=float)

    sol = solve_radial(psi_inv, _benchmark_csv_rf(0.6), 2)
    assert len(sol.r) == 568
    assert sol.convergence["panels"] == 566
    assert points == [566 * 15, 568]


def test_to_csv_bytes_match_per_element_repr(tmp_path):
    r = np.array([0.0, 5e-324, 0.5, 1.0])
    v = np.array([math.inf, 1e300, 2.2250738585072014e-308, 0.0])
    g = np.array([0.0, 1.0 / 3.0, math.inf, 1e-300])
    RadialSolution(r, v, g, {}).to_csv(tmp_path / "out.csv")
    expected = "r,v,gradient_magnitude\r\n" + "".join(
        f"{float(x)!r},{float(y)!r},{float(z)!r}\r\n"
        for x, y, z in zip(r, v, g))
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()
