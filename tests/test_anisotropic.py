"""Several-variable Young functions: sublevel measures, radial
averages, biconjugates, and the derived calculus identities."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import calculus_identity_errors
from orliczpde import anisotropic, young
from orliczpde.anisotropic import (
    LinearCombinationPhi,
    MeasureConvergenceWarning,
    RadialPhi,
    SplitPhi,
    from_json,
    phi_circ,
    phi_diamond,
    sublevel_measure,
    unit_ball_volume,
)
from orliczpde.catalog import make_record
from orliczpde.cli import main
from orliczpde.young import (
    ExpMinusLinearYoung,
    ExpMinusOneYoung,
    ExpPowerYoung,
    PowerLogYoung,
    PowerYoung,
    SampledYoungFunction,
    YoungFunctionError,
    parse_scalar_function,
)


def _star(phi, t):
    """The star path's measures of the levels ``t`` (a 1-D array), for
    the forms that :func:`sublevel_measure` gives in closed form."""
    return anisotropic._star_measure(phi, np.asarray(t, dtype=float))[0]


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0,
                                                rel=1e-14)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0,
                                                rel=1e-14)


def test_radial_measure_closed_form():
    # |xi|^2 in R^3, radial and as the square combination on the axes,
    # which the star path takes too
    phi = RadialPhi(3, PowerYoung(2))
    square = SplitPhi([PowerYoung(2)] * 3)
    levels = np.array([0.5, 4.0, 1e4])
    expected = unit_ball_volume(3) * levels**1.5
    for t, exact in zip(levels, expected):
        assert sublevel_measure(phi, t) == pytest.approx(exact, rel=1e-12)
        assert _star(square, [t])[0] == pytest.approx(exact, rel=1e-6)
    # all levels at once: the same numbers as one call per level
    star = _star(square, levels)
    np.testing.assert_allclose(
        star, [_star(square, [t])[0] for t in levels], rtol=1e-12)
    np.testing.assert_allclose(star, expected, rtol=1e-6)
    np.testing.assert_allclose(sublevel_measure(phi, levels), expected,
                               rtol=1e-12)


def test_split_measure_against_quadrature_oracle():
    # |{x^2 + y^4 <= t}| = 4 * int_0^{t^{1/4}} sqrt(t - y^4) dy
    phi = SplitPhi([PowerYoung(2), PowerYoung(4)])
    for t in (1.0, 1e4, 1e12):
        oracle, err = quad(lambda y: 4.0 * math.sqrt(max(t - y**4, 0.0)),
                           0.0, t**0.25, limit=200)
        assert sublevel_measure(phi, t) == pytest.approx(oracle, rel=1e-9)
    assert _star(phi, [1e4])[0] == pytest.approx(sublevel_measure(phi, 1e4),
                                                 rel=1e-5)


def test_star_path_in_four_dimensions():
    # Dirichlet: |{sum |x_i|^{p_i} <= t}|
    #   = prod 2 Gamma(1 + 1/p_i) / Gamma(1 + sum 1/p_i) * t^{sum 1/p_i}
    ps = (2, 2, 4, 4)
    phi = SplitPhi([PowerYoung(p) for p in ps])
    s = sum(1.0 / p for p in ps)
    c = math.prod(2.0 * math.gamma(1.0 + 1.0 / p) for p in ps)
    for t in (0.25, 16.0):
        exact = c / math.gamma(1.0 + s) * t**s
        assert _star(phi, [t])[0] == pytest.approx(exact, rel=1e-6)
    # |xi|^2 as the square combination on the axes: omega_4 A^{-1}(t)^4
    a = PowerYoung(2)
    phi = SplitPhi([a] * 4)
    assert _star(phi, [7.0])[0] == pytest.approx(
        unit_ball_volume(4) * a.inverse(7.0) ** 4, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_rule_integrates_over_the_sphere(n):
    # level L without kinks has m^(n-1) unit directions, m = 32 * 2^L for
    # n <= 3 and 4 * 2^L above; the weights integrate 1 to
    # |S^{n-1}| = n omega_n and each w_i^2 to omega_n, to rounding once
    # m >= 16 and within the stated bound on the two coarsest n >= 4
    # rules.  Split at three kink planes through the azimuth axes, the
    # rule keeps those bounds in at most m^(n-1) directions, and it
    # integrates |c . w| for such a plane c to rounding, where the rule
    # without kinks, the trapezoid azimuth, is 8.0e-4 off at m = 32
    omega = unit_ball_volume(n)
    kinks = np.zeros((3, n))
    kinks[:, -2:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    for level in range(3):
        m = (32 if n <= 3 else 4) * 2**level
        for c in (np.zeros((0, n)), kinks):
            w, wt = anisotropic._sphere_rule(n, level, c)
            assert w.shape == (wt.size, n) and wt.size <= m ** (n - 1)
            assert len(c) or wt.size == m ** (n - 1)
            np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0,
                                       rtol=0.0, atol=1e-15)
            err = max(abs(wt.sum() / (n * omega) - 1.0),
                      *np.abs(wt @ w**2 / omega - 1.0))
            assert err < {4: 0.5, 8: 5e-4}.get(m, 1e-13)
            if len(c) and m >= 32:
                # Int |w_{n-1} + w_n| over S^{n-1} = 2 sqrt(2) omega_{n-1}
                exact = 2.0 * math.sqrt(2.0) * unit_ball_volume(n - 1)
                assert wt @ np.abs(w @ c[2]) == pytest.approx(exact,
                                                              rel=1e-13)


def test_sphere_rule_refines_more_arcs_than_points():
    # four kink planes in R^4 cut some polar nodes' azimuth into more
    # arcs than the m = 4 points of level 0: the arcs still get more
    # points at each level, so |c . w| converges (2.6e-5 off at level 3)
    c = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                  [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 0.0, 1.0]])
    exact = np.linalg.norm(c[2]) * 2.0 * unit_ball_volume(3)
    w, wt = anisotropic._sphere_rule(4, 3, c)
    assert wt.size <= 32**3
    assert wt @ np.abs(w @ c[2]) == pytest.approx(exact, rel=1e-4)


def test_star_path_skips_a_repeated_rule():
    # 40 rows cut the half circle into 41 arcs, more than the 32 points
    # of the first two rules, which are then the same one interval per
    # arc: the second adds no direction and is skipped, not read as a
    # change of 0.  A sum of |c . xi|^2 is the quadratic form Q = sum c c^T,
    # of measure pi t / sqrt(det Q)
    ang = math.pi * (np.arange(40) + 0.5) / 40
    rows = np.column_stack([np.cos(ang), np.sin(ang)])
    phi = LinearCombinationPhi(2, [(c, PowerYoung(2)) for c in rows])
    exact = math.pi * 3.0 / math.sqrt(np.linalg.det(rows.T @ rows))
    assert sublevel_measure(phi, 3.0) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("kinked", [False, True])
def test_plane_sphere_rules_are_nested(kinked):
    # the trapezoid azimuth and Clenshaw-Curtis on the arcs between the
    # kinks: in the plane the directions of a rule are the even-numbered
    # ones of the next, bit for bit, so the star path solves each once
    kinks = np.array([c for c, _ in _KINKED]) if kinked else np.zeros((0, 2))
    for level in range(5):
        w, _ = anisotropic._sphere_rule(2, level, kinks)
        finer, _ = anisotropic._sphere_rule(2, level + 1, kinks)
        assert len(finer) == 2 * len(w)
        assert finer[::2].tobytes() == w.tobytes()


@pytest.mark.parametrize("m", [3, 12, 24])
def test_gauss_legendre_matches_numpy(m):
    x, w = anisotropic.gauss_legendre(m)
    x_ref, w_ref = np.polynomial.legendre.leggauss(m)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=5e-15)
    np.testing.assert_allclose(w, w_ref, rtol=0, atol=5e-15)


def test_star_path_in_three_dimensions_is_cheap(monkeypatch):
    # the split (2, 3, 4) through the star path at two levels: within
    # 2e-9 of Dirichlet's closed form on at most 50,000 ray solves, a
    # radial_extent call solving its levels x directions grid
    rows = []
    extent = anisotropic.radial_extent

    def counted(phi, w, levels, bracket=None):
        rows.append(len(levels) * len(w))
        return extent(phi, w, levels, bracket)

    monkeypatch.setattr(anisotropic, "radial_extent", counted)
    phi = SplitPhi([PowerYoung(p) for p in (2, 3, 4)])
    levels = np.array([1.0, 1e3])
    np.testing.assert_allclose(_star(phi, levels),
                               sublevel_measure(phi, levels), rtol=2e-9)
    assert sum(rows) <= 50_000


@pytest.mark.parametrize("n, split_at", [(8, [9, 0]), (11, [0])])
def test_kinked_star_path_keeps_its_rules_in_high_dimensions(monkeypatch, n,
                                                             split_at):
    # n + 1 kink planes, each cutting the azimuth: as many rules as
    # m^(n-1) <= 2^21 directions allow without kinks (two at n = 8, one
    # at n = 11), each split at the n + 1 planes only where the split rule
    # stays within 2^21 directions too; the unsplit rules, whose size is
    # checked by test_sphere_rule_integrates_over_the_sphere, are stood
    # in for by the 2n axis directions
    calls = []
    rule = anisotropic._sphere_rule

    def recorded(n, level, kinks):
        calls.append(len(kinks))
        if len(kinks):
            w, wt = rule(n, level, kinks)
            assert wt.size <= 2**21
            return w, wt
        assert (4 * 2**level) ** (n - 1) <= 2**21
        return np.vstack([np.eye(n), -np.eye(n)]), np.full(
            2 * n, unit_ball_volume(n) / 2.0)

    monkeypatch.setattr(anisotropic, "_sphere_rule", recorded)
    rows = np.vstack([np.eye(n) + 1.0, np.ones(n)])
    phi = LinearCombinationPhi(n, [(r, PowerYoung(2)) for r in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeasureConvergenceWarning)
        measure = sublevel_measure(phi, 2.0)
    assert calls == split_at
    assert math.isfinite(measure) and measure > 0.0


def test_split_measure_scaling_is_exact():
    # the (2,4) split measure is exactly homogeneous: m(t) = C t^{3/4}
    phi = SplitPhi([PowerYoung(2), PowerYoung(4)])
    m1 = sublevel_measure(phi, 1e4)
    m2 = sublevel_measure(phi, 1e12)
    assert m2 / m1 == pytest.approx(1e8**0.75, rel=1e-10)


@pytest.mark.parametrize("ps, cs", [
    ((2.0, 4.0), (1.0, 1.0)),
    ((1.6, 2.5, 3.8), (0.5, 2.0, 1.0)),
    ((2.0, 3.0, 4.0, 2.5), (0.5, 2.0, 1.0, 1.5)),
    ((1.6, 3.7), (1.0, 1.0)),
    ((2.0, 2.0, 4.0, 4.0), (1.0, 1.0, 1.0, 1.0)),
])
def test_power_split_closed_form_matches_quadrature(ps, cs):
    # Dirichlet's closed form against the iterated quadrature it replaces
    # for power terms.  The tanh-sinh rule is within 1e-14 at n = 2, 3
    # and 4; the composite Gauss rule (24 panels of 12 points) that it
    # replaced was 2e-10 to 3.8e-10 off at every level
    terms = [PowerYoung(p, c) for p, c in zip(ps, cs)]
    t = np.array([1e-2, 10.0, 1e6])
    quadrature = anisotropic._split_measure(terms, t)
    np.testing.assert_allclose(sublevel_measure(SplitPhi(terms), t),
                               quadrature, rtol=1e-12)
    # a square full-rank combination is a linear image: / |det M|
    n = len(ps)
    m = np.diag(np.arange(2.0, n + 2)) + np.triu(np.ones((n, n)), 1)
    m[-1, 0] = 1.0
    phi = LinearCombinationPhi(n, list(zip(m, terms)))
    det = abs(np.linalg.det(m))
    np.testing.assert_allclose(sublevel_measure(phi, t), quadrature / det,
                               rtol=1e-12)


def _phi_circ_roots(monkeypatch, phi):
    """Roots that ``solve_increasing`` finds for a 128-level Phi_circ."""
    roots = []
    solve = young.solve_increasing

    def counted(fn, y, *args, **kwargs):
        roots.append(np.size(y))
        return solve(fn, y, *args, **kwargs)

    monkeypatch.setattr(young, "solve_increasing", counted)
    phi_circ(phi, n_levels=128)
    return sum(roots)


def test_split_measure_inverts_a_closed_form_term_innermost(monkeypatch):
    # aniso_trud's rows hold a power-log and a power term.  The order of
    # integration is free (Fubini), so the power term, whose inverse is
    # closed form, goes innermost and the power-log term is solved once
    # per level: 128 roots for 128 levels, against 6,400 (128 levels x
    # 50 points: the edge and 49 nodes) in the given order
    phi = make_record("aniso_trud", p=2, q=1.5, alpha=1).phi
    assert 0 < _phi_circ_roots(monkeypatch, phi) <= 128
    # both orders agree on a 2-term and a 3-term mixed split
    t = np.array([1e-2, 10.0, 1e5])
    log_term = PowerLogYoung(1.5, 1.0, shift=math.exp(2.0))
    for terms in ([log_term, PowerYoung(2.0)],
                  [log_term, PowerYoung(3.0, 0.5), ExpMinusLinearYoung()]):
        np.testing.assert_allclose(anisotropic._split_measure(terms, t),
                                   anisotropic._split_measure(terms[::-1], t),
                                   rtol=1e-12)


def test_split_measure_roots_of_aniso_zyg(monkeypatch):
    # both of aniso_zyg's terms are power-log, so none has a closed-form
    # inverse: the outer term is solved once per level for its edge and
    # the inner one at the 49 nodes, at most 128 x 50 roots for 128
    # levels (36,992 with the composite Gauss rule, 128 x 289)
    phi = make_record("aniso_zyg", p=(2, 2), alpha=(1, 3)).phi
    assert 0 < _phi_circ_roots(monkeypatch, phi) <= 128 * 50


@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_exponential_combination_against_quad(beta):
    # aniso_new: A_1(|x + 3y|) + A_2(|2x - y|), A_1 = t^2, A_2 = exp(t^beta)
    # - 1, is a linear image of the split, whose measure is
    # 4 int_0^R A_2^{-1}(t - x^2) dx with R = sqrt(t); in x = R sin(th)
    # quad resolves its edge to its 1e-13.  At t = 1e6, 1e7 and 1e8 the
    # composite Gauss rule was 4.2e-9, 1.06e-8 and 6.0e-9 off (beta = 2)
    # and 5.8e-11, 9.3e-9 and 6.3e-9 off (beta = 1.5)
    phi = make_record("aniso_new", p=2, beta=beta).phi
    det = abs(np.linalg.det(phi.coeffs))
    t = np.array([1e6, 1e7, 1e8])
    oracle = []
    for level in t:
        r = math.sqrt(level)
        val, _ = quad(lambda th: r * math.cos(th) * math.log1p(
            max(level - (r * math.sin(th))**2, 0.0))**(1.0 / beta),
            0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-13, limit=500)
        oracle.append(4.0 * val / det)
    np.testing.assert_allclose(sublevel_measure(phi, t), oracle, rtol=1e-10)


def test_linear_combination_shear_measure():
    # (x - y)^2 + x^2 is a unimodular shear of u^2 + v^2: measure pi t
    phi = LinearCombinationPhi(2, [([1.0, -1.0], PowerYoung(2)),
                                   ([1.0, 0.0], PowerYoung(2))])
    for t in (1.0, 100.0):
        assert sublevel_measure(phi, t) == pytest.approx(math.pi * t,
                                                         rel=1e-10)
        assert _star(phi, [t])[0] == pytest.approx(math.pi * t, rel=1e-6)


def test_rank_deficient_rows_rejected():
    with pytest.raises(YoungFunctionError):
        LinearCombinationPhi(2, [([1.0, 0.0], PowerYoung(2)),
                                 ([2.0, 0.0], PowerYoung(2))])


def test_combination_extent_has_no_bound_box():
    # a combination's rows span R^n, so its sublevel sets are bounded and
    # no bound radius applies: along x = 2y, where the row (1, -2)
    # vanishes, Phi = 0.8 r^2 + (r / sqrt 5)^1.5 reaches t = 1e20 at
    # r = 1.118e10, far out along a direction where one row vanishes
    phi = LinearCombinationPhi(2, [([1.0, 0.0], PowerYoung(2)),
                                   ([0.0, 1.0], PowerYoung(1.5)),
                                   ([1.0, -2.0], PowerYoung(6))])
    r = anisotropic.radial_extent(phi, np.array([[2.0, 1.0]]) / math.sqrt(5),
                                  [1e20])[0, 0]
    assert r > 1e10
    assert 0.8 * r**2 + (r / math.sqrt(5)) ** 1.5 == pytest.approx(
        1e20, rel=1e-11)


def test_phi_circ_radial_is_identity():
    a = PowerYoung(3)
    phi = RadialPhi(2, a)
    assert phi_circ(phi) is a


def test_phi_circ_split_slope():
    # measure C t^{3/4} in the plane gives Phi_circ(r) ~ r^{8/3}
    phi = SplitPhi([PowerYoung(2), PowerYoung(4)])
    circ = phi_circ(phi, t_lo=1e-2, t_hi=1e8, n_levels=128)
    lt = np.linspace(circ.log_t[0] + 1.0, circ.log_t[-1] - 1.0, 40)
    slope = np.polyfit(lt, circ.log_value(lt), 1)[0]
    assert slope == pytest.approx(8.0 / 3.0, rel=1e-3)


# three pairwise independent rows: R(w) has kinks where a row vanishes
_KINKED = [([1.0, 0.0], PowerYoung(2)), ([0.0, 1.0], PowerYoung(3)),
           ([1.0, 1.0], PowerYoung(4))]


def test_phi_circ_states_closed_form_tails():
    # Dirichlet's closed form: measure c t^{1/2 + 1/3}, so Phi_circ is
    # exactly c r^{2.4} in the plane, whatever the level range
    rows = [([1.0, -1.0], PowerYoung(2)), ([1.0, 0.0], PowerYoung(3))]
    sigma, beta = phi_circ(LinearCombinationPhi(2, rows), n_levels=8).tail
    assert sigma == pytest.approx(2.4, rel=1e-14) and beta == 0.0
    # quadrature and the star path state none: their tails are fitted
    assert phi_circ(LinearCombinationPhi(2, _KINKED), t_lo=1.0, t_hi=1e6,
                    n_levels=8).tail is None
    split = SplitPhi([PowerLogYoung(2.0, 1.0), PowerYoung(3)])
    assert phi_circ(split, n_levels=8).tail is None


@pytest.mark.parametrize("phi, t_hi, n_levels", [
    (SplitPhi([PowerYoung(2), PowerYoung(4)]), 1e6, 64),
    (SplitPhi([PowerYoung(1.8), PowerYoung(2.7), PowerYoung(3.5)]), 1e6, 6),
    (make_record("aniso_trud", p=2, q=1.5, alpha=1).phi, 1e24, 64),
    (LinearCombinationPhi(2, _KINKED), 1e20, 24),
    # four rows in R^3: the star path with the n = 3 product rule
    (LinearCombinationPhi(3, [([1.0, 0.0, 0.0], PowerYoung(2)),
                              ([0.0, 1.0, 0.0], PowerYoung(2)),
                              ([0.0, 0.0, 1.0], PowerYoung(2)),
                              ([1.0, 1.0, 1.0], PowerYoung(2))]), 1e6, 6),
], ids=["split24", "split3", "aniso_trud", "kinked", "star3"])
def test_phi_circ_equals_per_level_measures(phi, t_hi, n_levels):
    circ = phi_circ(phi, t_lo=1.0, t_hi=t_hi, n_levels=n_levels)
    levels = np.geomspace(1.0, t_hi, n_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MeasureConvergenceWarning)
        per_level = np.array([sublevel_measure(phi, t) for t in levels])
    radii = (per_level / unit_ball_volume(phi.n)) ** (1.0 / phi.n)
    ref = SampledYoungFunction(np.log(radii), np.log(levels))
    ref.repair_convexity()
    np.testing.assert_array_equal(circ.log_v, ref.log_v)
    np.testing.assert_allclose(circ.log_t, ref.log_t, rtol=0.0, atol=1e-12)


def test_kinked_combination_converges_at_every_level(monkeypatch):
    # the sphere rule split where x = 0, y = 0 and x + y = 0 cross the
    # azimuth: all 128 levels in [1, 1e20] converge on at most 45,000
    # ray solves (41,100: each nested rule solves its new directions
    # only; 79,776 when every rule solved all of its own), within 1e-9
    # of 16-point Gauss on 64 panels of each arc between the kinks
    rows = []
    extent = anisotropic.radial_extent

    def counted(phi, w, levels, bracket=None):
        rows.append(len(levels) * len(w))
        return extent(phi, w, levels, bracket)

    monkeypatch.setattr(anisotropic, "radial_extent", counted)
    phi = LinearCombinationPhi(2, _KINKED)
    levels = np.geomspace(1.0, 1e20, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measures = sublevel_measure(phi, levels)
    assert sum(rows) <= 45_000
    circ = phi_circ(phi, t_lo=1.0, t_hi=1e20, n_levels=128)
    assert circ.convergence["unconverged"] == 0
    x, gw = np.polynomial.legendre.leggauss(16)
    ends = np.concatenate([np.linspace(a, b, 65)[:-1] for a, b in (
        (0.0, math.pi / 2), (math.pi / 2, 3 * math.pi / 4),
        (3 * math.pi / 4, math.pi))] + [[math.pi]])
    h = np.diff(ends)[:, None]
    az = (ends[:-1, None] + 0.5 * h * (x + 1.0)).ravel()
    w = np.column_stack([np.cos(az), np.sin(az)])
    # |{Phi <= t}| = (1/2) Int_0^{2 pi} R^2, twice the half circle
    wt = (h * gw).ravel()  # sums to 2 pi on [0, pi]
    ref = extent(phi, w, levels[::4]) ** 2 @ wt / 2.0
    np.testing.assert_allclose(measures[::4], ref, rtol=1e-9)


def test_star_levels_in_any_order_match_single_levels():
    # a pair's bracket depends on its own level and direction alone:
    # unsorted and repeated levels give the measures of the levels
    # solved one at a time, bit for bit
    phi = LinearCombinationPhi(2, _KINKED)
    levels = np.array([1e3, 1.0, 1e3, 10.0, 1e6, 1e6, 0.5])
    single = [sublevel_measure(phi, t) for t in levels]
    np.testing.assert_array_equal(sublevel_measure(phi, levels), single)


def test_kinked_star_path_solves_each_ray_once(monkeypatch):
    # over the six nested rules of the 128 kinked levels no (level,
    # direction) pair reaches the solver twice: a level keeps its radii
    # along the directions that the next rule repeats, so every direction
    # solved is one of the finest rule's
    solved = []
    extent = anisotropic.radial_extent

    def recorded(phi, w, levels, bracket=None):
        solved.extend((t, d) for t in levels.tolist() for d in map(bytes, w))
        return extent(phi, w, levels, bracket)

    monkeypatch.setattr(anisotropic, "radial_extent", recorded)
    sublevel_measure(LinearCombinationPhi(2, _KINKED),
                     np.geomspace(1.0, 1e20, 128))
    assert len(solved) > 128 * 30
    assert len(set(solved)) == len(solved)
    finest, _ = anisotropic._sphere_rule(
        2, 5, np.array([c for c, _ in _KINKED]))
    assert {d for _, d in solved} <= set(map(bytes, finest))


def test_star_rules_solve_their_levels_in_one_call(monkeypatch):
    # each rule solves the 128 kinked levels in one radial_extent call,
    # every ray bracketed in closed form and evaluated term by term:
    # 631,893 term values (three terms), where 203,491 rows of Phi.value
    # inside the bracket of the extreme levels took 610,473
    calls, rules, values = [], [], []
    extent, rule, value = (anisotropic.radial_extent,
                           anisotropic._sphere_rule, PowerYoung.value)

    def counted_extent(phi, w, levels, bracket=None):
        calls.append(len(w))
        return extent(phi, w, levels, bracket)

    def counted_rule(n, level, kinks):
        rules.append(level)
        return rule(n, level, kinks)

    def counted_value(self, t):
        values.append(np.size(t))
        return value(self, t)

    monkeypatch.setattr(anisotropic, "radial_extent", counted_extent)
    monkeypatch.setattr(anisotropic, "_sphere_rule", counted_rule)
    monkeypatch.setattr(PowerYoung, "value", counted_value)
    sublevel_measure(LinearCombinationPhi(2, _KINKED),
                     np.geomspace(1.0, 1e20, 128))
    assert len(calls) == len(rules) == 6
    assert sum(values) <= 640_000


def test_star_path_inverts_each_term_once_per_level_set(monkeypatch):
    # the ray brackets take each term's inverse at t / K and t once per
    # level, not per rule or per chunk
    rows = [([1.0, 0.0], PowerLogYoung(2.0, 1.0)), ([0.0, 1.0], PowerYoung(3)),
            ([1.0, -2.0], PowerLogYoung(1.5, 2.0))]
    points = [0] * len(rows)

    def counted(k, inverse):
        def wrapped(y):
            points[k] += np.size(y)
            return inverse(y)
        return wrapped

    for k, (_, term) in enumerate(rows):
        monkeypatch.setattr(term, "inverse", counted(k, term.inverse))
    circ = phi_circ(LinearCombinationPhi(2, rows), t_lo=1e-2, t_hi=1e8,
                    n_levels=128)
    assert circ.convergence["unconverged"] == 0
    assert points == [2 * 128] * 3


def test_star_path_projects_no_more_rows_than_a_rule_has(monkeypatch):
    # the projections |c_k . w| are built from a rule's directions, not
    # from a (level, direction) row per ray: no call gets more rows than
    # the rule it serves, on the 128-level kinked Phi_circ
    rules, projected = [], []
    rule, projections = anisotropic._sphere_rule, anisotropic._projections

    def counted_rule(n, level, kinks):
        w, wt = rule(n, level, kinks)
        rules.append(len(w))
        return w, wt

    def counted_projections(coeffs, w):
        projected.append((rules[-1], len(w)))
        return projections(coeffs, w)

    monkeypatch.setattr(anisotropic, "_sphere_rule", counted_rule)
    monkeypatch.setattr(anisotropic, "_projections", counted_projections)
    phi_circ(LinearCombinationPhi(2, _KINKED), n_levels=128)
    assert len(projected) >= len(rules) >= 4
    assert all(rows <= size for size, rows in projected)


# x^2 + y^2 + (x + y)^2 = 2 (x^2 + xy + y^2): three rows in the plane,
# so the star path; its sublevel set at t is an ellipse of area
# pi t / sqrt(3)
_QUADRATIC = [([1.0, 0.0], PowerYoung(2)), ([0.0, 1.0], PowerYoung(2)),
              ([1.0, 1.0], PowerYoung(2))]


def test_star_path_in_three_dimensions_meets_the_ellipsoid():
    # sum_k (c_k . xi)^2 = xi^T C^T C xi with four random rows in R^3:
    # its sublevel set at t is an ellipsoid of volume
    # omega_3 t^{3/2} / sqrt(det C^T C), on the star path
    c = np.random.default_rng(0).standard_normal((4, 3))
    phi = LinearCombinationPhi(3, [(row, PowerYoung(2)) for row in c])
    levels = np.geomspace(1e-2, 1e6, 16)
    measures, summary = anisotropic._star_measure(phi, levels)
    assert summary["unconverged"] == 0
    np.testing.assert_allclose(
        measures, unit_ball_volume(3) * levels**1.5
        / math.sqrt(np.linalg.det(c.T @ c)), rtol=1e-10)


def test_star_path_solves_one_bracketed_grid_per_chunk(monkeypatch):
    # each rule solves its pending levels, in order, in one radial_extent
    # call per chunk, each with its closed-form ray brackets, with no
    # call for the extreme levels first
    events = []
    rule, extent = anisotropic._sphere_rule, anisotropic.radial_extent

    def counted_rule(n, level, kinks):
        events.append([])
        return rule(n, level, kinks)

    def counted_extent(phi, w, levels, bracket=None):
        assert bracket is not None
        events[-1].append((levels.copy(), len(w)))
        return extent(phi, w, levels, bracket)

    monkeypatch.setattr(anisotropic, "_sphere_rule", counted_rule)
    monkeypatch.setattr(anisotropic, "radial_extent", counted_extent)
    levels = np.geomspace(1e-2, 1e6, 600)
    measures = sublevel_measure(LinearCombinationPhi(2, _QUADRATIC), levels)
    np.testing.assert_allclose(measures, math.pi * levels / math.sqrt(3.0),
                               rtol=1e-9)
    assert len(events) >= 2
    pending = levels
    for calls in events:
        solved = np.concatenate([t for t, _ in calls])
        n_dirs = {d for _, d in calls}
        assert len(n_dirs) == 1
        assert len(calls) == len(anisotropic._chunks(solved.size, *n_dirs))
        # the pending levels in order, the extreme ones not first
        assert np.all(np.diff(solved) > 0) and set(solved) <= set(pending)
        pending = solved
    # every level in the first rule, in two chunks of its 30 directions
    # (10 on each of the three arcs between the kinks)
    assert [t.size for t, _ in events[0]] == [546, 54]


def test_radial_extent_grid_equals_per_level_calls():
    # one level x direction grid is the per-level solves bit for bit,
    # bracketed or not
    kinked = LinearCombinationPhi(2, _KINKED)
    w, _ = anisotropic._sphere_rule(2, 1, kinked.coeffs)
    levels = np.geomspace(1e-3, 1e9, 7)
    inv = np.array([[f.inverse(s) for f in kinked.terms]
                    for s in (levels / 3, levels)])
    bracket = anisotropic._ray_bracket(
        anisotropic._projections(kinked.coeffs, w), inv)
    for b in (None, bracket):
        grid = anisotropic.radial_extent(kinked, w, levels, b)
        assert grid.shape == (levels.size, len(w))
        for i, t in enumerate(levels):
            rows = None if b is None else [e[i:i + 1] for e in b]
            np.testing.assert_array_equal(
                anisotropic.radial_extent(kinked, w, [t], rows),
                grid[i:i + 1])


def _bracketed_radii(phi, w, t, bracket):
    """Radii along the directions ``w`` at the levels ``t``, one row per
    level, solved in the ray bracket (lo, hi); those solved from x = 1;
    and Phi(lo w), Phi(hi w), evaluated as the solver evaluates a ray,
    on the projections |c_k . w|.  The solver keeps an end closed where
    Phi(lo w) < t <= Phi(hi w) holds for it, and opens it elsewhere."""
    radii = anisotropic.radial_extent(phi, w, t, bracket)
    levels, dirs = np.repeat(t, len(w)), np.tile(w, (t.size, 1))
    free = young.solve_increasing(lambda r, w: phi.value(r[:, None] * w),
                                  levels, args=(dirs,))
    a = anisotropic._projections(phi.coeffs, w)
    f_lo, f_hi = (anisotropic._ray_values(phi.terms, r, *a) for r in bracket)
    return radii, free.reshape(radii.shape), f_lo, f_hi


def test_ray_bracket_opens_an_end_that_rounding_breaks():
    # along (1, 1) Phi(lo w) = 2 A(A^-1(t / 2)) of t^3 + t^3 rounds to t
    # or above at some levels, so the solver opens lo there; along the
    # axes only one term is nonzero and Phi(hi w) = A(A^-1(t) (1 + 4
    # eps)), which the widening keeps at t or above: every axis end holds
    phi = SplitPhi([PowerYoung(3), PowerYoung(3)])
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    t = np.geomspace(1.0, 1e6, 50)
    inv = np.array([[f.inverse(s) for f in phi.terms] for s in (t / 2, t)])
    bracket = anisotropic._ray_bracket(
        anisotropic._projections(phi.coeffs, w), inv)
    radii, free, f_lo, f_hi = _bracketed_radii(phi, w, t, bracket)
    assert np.any(f_lo[:, 2] >= t)
    assert np.all(f_lo[:, :2] < t[:, None])
    assert np.all(t[:, None] <= f_hi[:, :2])
    np.testing.assert_allclose(radii, free, rtol=4e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       ps=st.lists(st.floats(1.2, 6.0), min_size=2, max_size=4),
       p_log=st.floats(1.2, 6.0), alpha=st.floats(0.5, 3.0))
def test_ray_brackets_hold_and_narrow_to_the_unbracketed_radii(n, seed, ps,
                                                               p_log, alpha):
    # Phi(r w) >= A_k(r a_k) and <= K max_k A_k(r a_k): the bracket holds
    # Phi(lo w) < t <= Phi(hi w) but where rounding breaks an end, within
    # the width K^(1/p_min) where both ends hold, on directions with
    # a_k = 0 too, and the bracketed radii are those of the solve from
    # x = 1.  Directions: two random ones and, for each row c, (-c_1,
    # c_0, 0, ...) on its kink plane c . w = 0
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(ps) + 1, n))
    w = np.vstack([rng.standard_normal((2, n))]
                  + [np.r_[-c[1], c[0], np.zeros(n - 2)] for c in rows])
    terms = [PowerYoung(p) for p in ps] + [PowerLogYoung(p_log, alpha)]
    phi = LinearCombinationPhi(n, list(zip(rows, terms)))
    a = anisotropic._projections(phi.coeffs, w)
    assert np.count_nonzero(a == 0.0) >= len(terms)
    t = np.geomspace(1e-2, 1e12, 8)
    inv = np.array([[f.inverse(s) for f in terms] for s in (t / len(terms),
                                                            t)])
    bracket = anisotropic._ray_bracket(a, inv)
    lo, hi = bracket
    radii, free, f_lo, f_hi = _bracketed_radii(phi, w, t, bracket)
    # rounding breaks an end rarely, and by rounding alone
    closed = (f_lo < t[:, None]) & (t[:, None] <= f_hi)
    assert closed.mean() >= 0.9
    assert np.all(f_lo <= t[:, None] * (1.0 + 1e-10))
    assert np.all(f_hi >= t[:, None] * (1.0 - 1e-10))
    width = len(terms) ** (1.0 / min(ps + [p_log])) * (1.0 + 1e-12)
    assert np.all(hi[closed] <= width * lo[closed])
    np.testing.assert_allclose(radii, free, rtol=4e-12)


def test_infinite_star_level_is_inf_and_silent():
    # an infinite level is measure inf before any sphere rule: no inf - inf
    # in the relative change, no convergence warning, and the finite
    # levels keep the measures they have without it
    phi = LinearCombinationPhi(2, _KINKED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sublevel_measure(phi, [np.inf, 1.0, 5.0])
        finite = sublevel_measure(phi, [1.0, 5.0])
        alone = sublevel_measure(phi, np.inf)
    assert out[0] == np.inf and alone == np.inf
    assert np.array_equal(out[1:], finite)


def test_unconverged_star_level_warns():
    # x^2 + |y|^1.5 + (x - 2y)^6: at level 1e20 the sublevel set is a
    # needle along x = 2y, where the sixth power vanishes, about 2e10
    # long and 2e3 wide, which the six sphere rules do not resolve: it
    # ends above rel_tol; the lower level converges and leaves no trace
    phi = LinearCombinationPhi(2, [([1.0, 0.0], PowerYoung(2)),
                                   ([0.0, 1.0], PowerYoung(1.5)),
                                   ([1.0, -2.0], PowerYoung(6))])
    with pytest.warns(MeasureConvergenceWarning) as caught:
        sublevel_measure(phi, np.array([1e3, 1e20]))
    summary = caught[0].message.summary
    assert summary["levels"] == 2 and summary["unconverged"] == 1
    assert summary["worst_rel_change"] > summary["rel_tol"] == 1e-7


def test_star_path_batches_at_most_a_chunk(monkeypatch):
    # the ellipse of _QUADRATIC on the star path: 600 levels of the
    # 30-direction first rule need two chunks.  A solve's first round
    # evaluates both radii of each bracket, so a chunk of pairs is at
    # most two chunks of rays.  Lifted, one call carries more: both
    # radii of the 600 levels of the first rule's 30 directions
    calls = []
    values = anisotropic._ray_values

    def counted(terms, r, *a):
        calls.append(r.size)
        return values(terms, r, *a)

    monkeypatch.setattr(anisotropic, "_ray_values", counted)
    phi = LinearCombinationPhi(2, _QUADRATIC)
    circ = phi_circ(phi, t_lo=1e-2, t_hi=1e6, n_levels=600)
    chunk = anisotropic._CHUNK
    assert max(calls) <= 2 * chunk < 2 * 600 * 30
    assert circ.convergence["unconverged"] == 0
    levels = np.exp(circ.log_v)
    np.testing.assert_allclose(
        unit_ball_volume(2) * np.exp(circ.log_t) ** 2,
        math.pi * levels / math.sqrt(3.0), rtol=1e-9)
    calls.clear()
    monkeypatch.setattr(anisotropic, "_CHUNK", 2**40)
    single = phi_circ(phi, t_lo=1e-2, t_hi=1e6, n_levels=600)
    assert max(calls) > 2 * chunk
    np.testing.assert_array_equal(single.log_t, circ.log_t)
    np.testing.assert_array_equal(single.log_v, circ.log_v)


def test_phi_diamond_analytic_passthrough():
    a = PowerYoung(2, 0.5)
    assert phi_diamond(RadialPhi(2, a)) is a
    assert phi_circ(a) is a and phi_diamond(a) is a
    phi = SplitPhi([PowerYoung(2), PowerYoung(4)])
    circ = phi_circ(phi, t_lo=1e-2, t_hi=1e8, n_levels=128)
    assert isinstance(phi_diamond(circ), SampledYoungFunction)


def test_phi_diamond_keeps_the_stated_tail():
    # a Phi_circ with a stated tail is the convex power c t^sigma, its
    # own envelope: Phi_diamond of the split (t^2/2, t^4/4) had no tail
    split = SplitPhi([PowerYoung(2.0, 0.5), PowerYoung(4.0, 0.25)])
    assert phi_diamond(split).tail == phi_circ(split).tail == (8 / 3, 0.0)


def test_phi_diamond_of_non_convex_table_is_its_lower_hull():
    # t^2 with a bump near t = 3 is not convex; its biconjugate is the
    # lower convex hull, which bridges the bump with a chord
    t = np.geomspace(1e-2, 1e2, 401)
    v = t**2 * (1.0 + 0.3 * np.exp(-((t - 3.0) / 0.3) ** 2))
    tab = SampledYoungFunction(np.log(t), np.log(v), name="bumped")
    assert not tab.check_second_differences()
    diamond = phi_diamond(tab)
    assert diamond.check_second_differences()
    # the hull vertices are input points, where the two agree
    vertices = np.exp(diamond.log_t)
    assert np.all(np.isin(diamond.log_t, tab.log_t))
    np.testing.assert_allclose(diamond.value(vertices), tab.value(vertices),
                               rtol=1e-12)
    # every input point lies on or above the chords between vertices, so
    # no larger convex minorant exists
    chords = np.interp(t, vertices, np.exp(diamond.log_v))
    assert np.all(v >= chords * (1.0 - 1e-12))
    # the result never exceeds the input, and it does cut the bump off
    fine = np.geomspace(1e-2, 1e2, 4001)
    assert np.all(diamond.value(fine) <= tab.value(fine) * (1.0 + 1e-12))
    assert float(diamond.value(3.0)) < 0.95 * float(tab.value(3.0))


def test_from_json_forms():
    phi = from_json({"n": 2, "form": "split",
                     "terms": [{"kind": "power", "p": 2},
                               {"kind": "power", "p": 4}]})
    assert isinstance(phi, SplitPhi)
    phi = from_json({"n": 2, "form": "radial",
                     "term": {"kind": "power_log", "p": 2, "alpha": 1}})
    assert isinstance(phi, RadialPhi)
    with pytest.raises(YoungFunctionError):
        from_json({"n": 2, "form": "mystery"})
    with pytest.raises(YoungFunctionError):
        from_json({"n": 3, "form": "split",
                   "terms": [{"kind": "power", "p": 2}]})


_RADIAL = {"n": 2, "form": "radial", "term": {"kind": "power", "p": 2}}
_LINEAR = {"n": 2, "form": "linear_combination",
           "terms": [{"coeffs": [1, -1], "kind": "power", "p": 2},
                     {"coeffs": [1, 0], "kind": "power", "p": 3}]}


def _subclasses(cls):
    """Every subclass of ``cls``, recursively."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_anisotropic_form_is_built_from_json():
    # the CLI builds every Phi through from_json, so a form that it does
    # not build is one that no command runs; every form but the radial
    # one is a combination, with the rows and terms the star path reads
    docs = {"radial": _RADIAL, "linear_combination": _LINEAR,
            "split": {"n": 2, "form": "split",
                      "terms": [{"kind": "power", "p": 2},
                                {"kind": "power", "p": 4}]}}
    forms = set()
    for cls in _subclasses(anisotropic.AnisotropicYoungFunction):
        form = getattr(cls, "form", None)
        assert form in docs, cls
        phi = from_json(docs[form])
        assert type(phi) is cls
        if form != "radial":
            assert phi.coeffs.shape == (len(phi.terms), phi.n)
        forms.add(form)
    assert forms == set(docs)


def _without(doc, key, term=None):
    doc = json.loads(json.dumps(doc))
    del (doc if term is None else doc["terms"][term])[key]
    return doc


@pytest.mark.parametrize("doc,message", [
    (_without(_RADIAL, "n"), "radial form needs 'n'"),
    (_without(_RADIAL, "form"), "an anisotropic function needs 'form'"),
    (_without(_RADIAL, "term"), "radial form needs 'term'"),
    (_without(_LINEAR, "terms"), "linear_combination form needs 'terms'"),
    ({"n": 2, "form": "split"}, "split form needs 'terms'"),
    (_without(_LINEAR, "coeffs", term=1),
     "linear_combination form term 1 needs 'coeffs'"),
], ids=["n", "form", "term", "terms", "split-terms", "coeffs"])
def test_from_json_names_a_missing_key(doc, message, tmp_path):
    # bad input, named by form and key, not a bare KeyError; phicirc
    # exits 1 with the same message
    with pytest.raises(YoungFunctionError) as err:
        from_json(doc)
    assert str(err.value) == message
    out = tmp_path / "out"
    assert main(["phicirc", "--phi", json.dumps(doc), "--out", str(out),
                 "--quiet"]) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {"type": "YoungFunctionError", "message": message}


def _phicirc_error(phi, tmp_path):
    out = tmp_path / "out"
    assert main(["phicirc", "--phi", phi, "--out", str(out), "--quiet"]) == 1
    return json.loads((out / "error.json").read_text())["error"]


@pytest.mark.parametrize("doc", [{**_RADIAL, "n": 2.7}, {**_LINEAR, "n": 2.7}],
                         ids=["radial", "linear_combination"])
def test_a_non_integral_dimension_is_refused(doc, tmp_path):
    # n = 2.7 ran as n = 2
    message = "dimension n = 2.7 is not an integer"
    with pytest.raises(YoungFunctionError) as err:
        from_json(doc)
    assert str(err.value) == message
    assert _phicirc_error(json.dumps(doc), tmp_path) == {
        "type": "YoungFunctionError", "message": message}


def _with_coeffs(coeffs):
    doc = json.loads(json.dumps(_LINEAR))
    doc["terms"][1]["coeffs"] = coeffs
    return doc


@pytest.mark.parametrize("doc, token", [
    ({**_RADIAL, "n": math.nan}, "NaN"),
    (_with_coeffs([1, math.nan]), "NaN"),
    (_with_coeffs([math.inf, 0]), "Infinity"),
], ids=["n-nan", "coeffs-nan", "coeffs-inf"])
def test_phicirc_refuses_a_non_finite_number_where_phi_enters(doc, token,
                                                             tmp_path):
    # these failed as an unnamed ValueError, as an SVD that did not
    # converge, or as rows that do not span R^n; --phi text and a .json
    # path are read like --config
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    for phi, source in ((json.dumps(doc), "--phi"),
                        (str(path), f"--phi {path}")):
        assert _phicirc_error(phi, tmp_path) == {
            "type": "ConfigError",
            "message": f"{source} holds {token}, not a finite number"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_combination_refuses_a_non_finite_row(bad):
    with pytest.raises(YoungFunctionError) as err:
        LinearCombinationPhi(2, [([1.0, -1.0], PowerYoung(2)),
                                 ([1.0, bad], PowerYoung(3))])
    assert str(err.value) == (
        f"term 1: coefficient row [1.0, {bad!r}] is not finite")


@pytest.mark.parametrize("spec,t_lo,t_hi", [
    ("power:p=1.5", 1e-2, 1e3),
    ("power:p=2", 1e-2, 1e3),
    ("power:p=3", 1e-2, 1e3),
    ("power_log:p=2,alpha=1", 1e-2, 1e3),
    ("power_log:p=3,alpha=-0.5", 1e-2, 1e3),
    ("exp_minus_one", 1.5, 60.0),
    ("exp_minus_linear", 1.5, 60.0),
    ("exp_power:beta=1.5", 1.5, 15.0),
])
def test_calculus_identity_suite(spec, t_lo, t_hi):
    a = parse_scalar_function(spec)
    errs = calculus_identity_errors(a, np.geomspace(t_lo, t_hi, 20))
    assert errs["i"] <= 1e-8
    assert errs["ii"] <= 1e-8
    assert errs["iii"] <= 1e-8
    assert errs["iv"] <= 1e-9
    assert errs["v_lo"] <= 1e-9
    assert errs["v_hi"] <= 1e-9
