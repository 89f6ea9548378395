"""Embedding machinery: growth dichotomy, near-zero modification,
Sobolev conjugate, and the derived quasinorm generators."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from conftest import sampled
from orliczpde.anisotropic import SplitPhi, phi_circ
from orliczpde.embedding import (
    DichotomyError,
    _cumulative_trapezoid,
    classify_integral,
    fit_power_log,
    growth_conditions,
    hat_phi_circ,
    sobolev_conjugate,
    tail_exponents,
)
from orliczpde.young import (
    ExpMinusLinearYoung,
    ExpMinusOneYoung,
    ExpPowerYoung,
    PowerLogYoung,
    PowerYoung,
    YoungFunctionError,
)


@pytest.mark.parametrize("a, delta2, nabla2", [
    (PowerYoung(3), "holds", "holds"),
    (ExpPowerYoung(1.0), "fails", "holds"),
    # t log(e + t): doubling but barely superlinear, so Nabla_2 fails
    (PowerLogYoung(1.0, 1.0), "holds", "fails"),
    # s log s - s + 1, zero on [0, 1]: the L log L function
    (ExpMinusOneYoung().conjugate(), "holds", "fails"),
    (ExpMinusLinearYoung().conjugate(), "holds", "fails"),
    # 2^1.005 is only 0.7 % above 2, but the stated tail is exact
    (PowerYoung(1.005), "holds", "holds"),
    # trusted only up to 700^(1/5) = 3.7
    (ExpPowerYoung(5.0), "fails", "holds"),
    (sampled(PowerLogYoung(2.0, 1.0), 1e-8, 1e8), "holds", "holds"),
    # no power-log law fits an exponential table: no tail is read
    (sampled(ExpMinusOneYoung(), 1e-3, 500.0), "inconclusive",
     "inconclusive"),
], ids=["power3", "exp", "t_log_t", "conj_exp_minus_one",
        "conj_exp_minus_linear", "power1.005", "exp_power5",
        "power_log_table", "exp_table"])
def test_growth_verdicts(a, delta2, nabla2):
    assert growth_conditions(a)[:2] == (delta2, nabla2)


def test_fit_power_log_recovers_extra_columns():
    # log f = c + sigma log t + beta log log t + gamma log log log t
    #         + delta / log t, written in lt = log t
    def log_f(lt):
        return (0.5 + 2.5 * lt - 1.5 * np.log(lt)
                + 3.0 * np.log(np.log(lt)) + 4.0 / lt)

    extra = (lambda lt: np.log(np.log(lt)), lambda lt: 1.0 / lt)
    coef, spread = fit_power_log(log_f, 5.0, 100.0, extra=extra)
    np.testing.assert_allclose(coef, [0.5, 2.5, -1.5, 3.0, 4.0], rtol=1e-8)
    assert spread < 1e-10
    # without the extra columns the misfit shows in the residual spread
    coef, spread = fit_power_log(log_f, 5.0, 100.0)
    assert coef.shape == (3,) and spread > 1e-3


@pytest.mark.parametrize("a,n,verdict", [
    (PowerYoung(1.5), 2, "divergent"),       # p < n
    (PowerYoung(3), 2, "convergent"),        # p > n
    (PowerYoung(2), 2, "divergent"),         # p = n, no log
    (PowerYoung(2.5), 3, "divergent"),
    (PowerYoung(4), 3, "convergent"),
])
def test_dichotomy_powers(a, n, verdict):
    assert classify_integral(a, n)[0] == verdict


@pytest.mark.parametrize("alpha,verdict", [
    (0.5, "divergent"),   # integrand ~ 1/(t log^{1/2} t)
    (2.0, "convergent"),  # integrand ~ 1/(t log^2 t)
    (1.0, "divergent"),   # borderline: partial tails still grow
    (1.03, "convergent"),  # the stated tail is exact: k = 1.03 > 1
])
def test_dichotomy_log_critical(alpha, verdict):
    a = PowerLogYoung(2.0, alpha)
    assert classify_integral(a, 2)[0] == verdict


def test_dichotomy_log_critical_table_reads_the_band():
    # a table's tail is fitted: its log exponent reads 1.0018 for the
    # true k = 1, so a fitted tail stays divergent up to k = 1.05
    table = sampled(PowerLogYoung(2.0, 1.0), 1e-2, 1e8)
    verdict, diag = classify_integral(table, 2)
    assert verdict == "divergent"
    assert 1.0 < diag["log_exponent"] < 1.05 and diag["margin"] == 0.02


def test_dichotomy_of_a_power_split_at_the_default_levels():
    # Phi_circ of t^2/2 + t^4/4 grows like t^{8/3}; its default table
    # reaches t ~ 180, which is enough for the fitted tail
    circ = phi_circ(SplitPhi([PowerYoung(2, 0.5), PowerYoung(4, 0.25)]))
    verdict, diag = classify_integral(circ, 2)
    assert verdict == "convergent"
    assert diag["sigma"] == pytest.approx(8.0 / 3.0, rel=1e-3)


def test_exponential_tails_are_convergent():
    for a in (ExpMinusOneYoung(), ExpPowerYoung(2.0), ExpMinusLinearYoung()):
        for n in (2, 3, 4):
            assert classify_integral(a, n)[0] == "convergent"


def test_narrow_table_is_refused():
    table = sampled(PowerYoung(3.0), 1e-2, 10.0)
    with pytest.raises(YoungFunctionError, match="too narrow"):
        tail_exponents(table)


def test_near_zero_divergence_and_modification():
    # p < n: the kernel of H is integrable at 0 and Phi_circ is kept
    assert not sobolev_conjugate(PowerYoung(1.5), 2).modification.applied
    # p = n: the kernel is 1/t at 0, so Phi_circ is spliced
    a = PowerYoung(2)
    prof = sobolev_conjugate(a, 2)
    assert prof.modification.applied
    mod = prof.phi_circ
    # linear near zero, untouched above the knot
    assert mod.value(0.25) / 0.25 == pytest.approx(mod.value(0.5) / 0.5,
                                                   rel=1e-12)
    assert mod.value(2.0) == pytest.approx(a.value(2.0), rel=1e-12)
    # the profile builds: below the knot the kernel is 1, so H = t^{1/2}
    for t in (1e-8, 1e-4, 0.5):
        got = math.exp(float(prof.H.log_value(math.log(t))))
        assert got == pytest.approx(math.sqrt(t), rel=1e-5)


def test_sobolev_conjugate_refuses_convergent():
    with pytest.raises(DichotomyError):
        sobolev_conjugate(PowerYoung(3), 2)


def test_h_closed_form_for_powers():
    # For Phi_circ = t^p with p < n (no modification needed):
    # H(t) = ( t^{e+1} / (e+1) )^{(n-1)/n},  e = (1-p)/(n-1)
    for p, n in [(1.5, 2), (2.0, 3)]:
        prof = sobolev_conjugate(PowerYoung(p), n)
        assert not prof.modification.applied
        e = (1.0 - p) / (n - 1.0)
        for t in (1e-2, 1.0, 1e3):
            expected = (t ** (e + 1.0) / (e + 1.0)) ** ((n - 1.0) / n)
            got = math.exp(float(prof.H.log_value(math.log(t))))
            assert got == pytest.approx(expected, rel=2e-3)


@pytest.mark.parametrize("p,n", [(1.5, 2), (2.0, 3), (1.2, 2)])
def test_log_grid_ends_follow_the_power_law(p, n):
    # below its first grid point 1e-8 the kernel of H continues as
    # t^e, whose integral is t^{e+1}/(e+1); the ends of hat_phi_circ's
    # three integrals continue the same way, so its density of t^p has
    # log-log slope p all along the table
    prof = sobolev_conjugate(PowerYoung(p), n)
    e = (1.0 - p) / (n - 1.0)
    for t in (1e-8, 1e-7, 1e-6):
        expected = (t ** (e + 1.0) / (e + 1.0)) ** ((n - 1.0) / n)
        got = math.exp(float(prof.H.log_value(math.log(t))))
        assert got == pytest.approx(expected, rel=1e-5)
    hat = hat_phi_circ(prof)
    slopes = np.diff(hat.log_value(hat.log_t)) / np.diff(hat.log_t)
    np.testing.assert_allclose(slopes, p, rtol=1e-3)


def test_profile_defining_identities():
    prof = sobolev_conjugate(PowerYoung(1.5), 2)
    np_prime = prof.n_prime
    for t in (1.0, 50.0, 2000.0):
        log_phi_n = float(prof.phi_n.log_value(math.log(t) / np_prime *
                                               np_prime))
        # vartheta_n(t) = Phi_n(t^{1/n'}) / t
        vt = float(prof.vartheta_n.log_value(math.log(t)))
        assert vt == pytest.approx(
            float(prof.phi_n.log_value(math.log(t) / np_prime)) -
            math.log(t), abs=1e-9)
        # varrho_n(t) = t / Phi_n^{-1}(t)^{n'}
        vr = float(prof.varrho_n.log_value(math.log(t)))
        inv = float(prof.phi_n.inverse(t))
        assert vr == pytest.approx(math.log(t) - np_prime * math.log(inv),
                                   abs=1e-6)


def test_phi_n_composition():
    # Phi_n(H(t)) = Phi_circ(t) by construction
    prof = sobolev_conjugate(PowerYoung(1.5), 2)
    for t in (0.1, 1.0, 100.0):
        s = math.exp(float(prof.H.log_value(math.log(t))))
        got = math.exp(float(prof.phi_n.log_value(math.log(s))))
        assert got == pytest.approx(t ** 1.5, rel=1e-6)


def test_modification_recorded_for_steep_input():
    prof = sobolev_conjugate(PowerYoung(1.9), 2)
    # p > n' = 2? no: near-zero diverges iff (1-p)/(n-1) < -1, i.e. p > 2
    assert not prof.modification.applied
    prof = sobolev_conjugate(PowerLogYoung(2.0, 0.5), 2)
    assert prof.modification.applied


def test_hat_target_power_case():
    # for Phi = t^p the nested quadrature collapses to a t^p-equivalent
    # density: int_R^infty I^{-n} phi^{-n/(n-1)} ~ R^{1-n} exactly
    for p, n in [(1.5, 2), (2.0, 3)]:
        hat = hat_phi_circ(sobolev_conjugate(PowerYoung(p), n))
        lt = np.linspace(hat.log_t[0] + 2.0, hat.log_t[-1] - 2.0, 50)
        slope = np.polyfit(lt, hat.log_value(lt), 1)[0]
        assert slope == pytest.approx(p, rel=0.05)


def test_exp_regime_profile_is_finite():
    # p = n: Phi_n grows exponentially; the profile must stay
    # representable in log coordinates over an extreme range
    prof = sobolev_conjugate(PowerYoung(2), 2, log_t_hi=1000.0,
                             n_points=4096)
    top = float(prof.H.log_value(999.0))
    assert np.isfinite(top)
    assert float(prof.phi_n.log_value(top)) > 100.0


def test_cumulative_trapezoid_matches_scipy():
    # same trapezoids, same summation order: equal to the last bit, on
    # increasing and on reversed (negative-step) grids
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-3.0, 5.0, 500))
    y = np.exp(rng.standard_normal(500))
    for yy, xx in ((y, x), (y[::-1], x[::-1])):
        np.testing.assert_array_equal(_cumulative_trapezoid(yy, xx),
                                      cumulative_trapezoid(yy, xx, initial=0))
