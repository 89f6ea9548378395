"""Decreasing rearrangements, quasinorms, admissibility, boundedness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczpde.rearrangement import (
    RearrangedFunction,
    boundedness_criterion,
    data_admissibility,
    improper_integral,
    lorentz_quasinorm,
    luxemburg_norm,
    marcinkiewicz_quasinorm,
    maximal_rearrangement,
    orlicz_lorentz_norm,
    rearrange,
)
from orliczpde.young import (
    ExpMinusOneYoung,
    MonotoneFunction,
    PowerYoung,
    YoungFunctionError,
)


def test_rearrange_matches_sort_oracle():
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 5.0, 200)
    rf = rearrange(v, np.full(200, 0.01))
    ref = np.sort(v)[::-1]
    mids = (np.arange(200) + 0.5) * 0.01
    assert np.allclose(rf(mids), ref, rtol=0, atol=0)
    assert rf.integral() == pytest.approx(0.01 * v.sum(), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40))
def test_rearrangement_is_equimeasurable(vals):
    v = np.asarray(vals)
    rf = rearrange(v, np.full(v.size, 0.5))
    for t in (0.0, 1.0, 50.0):
        assert rf.distribution(t) == pytest.approx(
            0.5 * np.count_nonzero(v > t), abs=1e-12)


def test_maximal_eval_exact_on_steps():
    rf = RearrangedFunction([0.0, 1.0, 3.0], [4.0, 1.0])
    # integral to s=2: 4*1 + 1*1 = 5 -> u**(2) = 2.5
    assert rf.maximal_eval(2.0) == pytest.approx(2.5, rel=1e-14)
    assert rf.maximal_eval(0.5) == pytest.approx(4.0, rel=1e-14)
    big = maximal_rearrangement(rf)
    s = np.geomspace(1e-3, 2.9, 50)
    assert np.all(big(s) >= rf.maximal_eval(s) - 1e-12)


def test_from_callable_preserves_mass():
    rf = RearrangedFunction.from_callable(lambda s: s ** -0.5, 1.0)
    assert not rf.head_infinite
    assert rf.integral() == pytest.approx(2.0, rel=1e-3)


def test_from_callable_flags_non_integrable_head():
    rf = RearrangedFunction.from_callable(lambda s: 1.0 / s, 1.0)
    assert rf.head_infinite
    assert math.isinf(rf.maximal_eval(0.5))


def test_validation_errors():
    with pytest.raises(YoungFunctionError):
        RearrangedFunction([0.5, 1.0], [1.0])       # must start at 0
    with pytest.raises(YoungFunctionError):
        RearrangedFunction([0.0, 1.0, 2.0], [1.0, 3.0])  # increasing


def test_luxemburg_constant_closed_form():
    # A = t^p, u* = c on (0, m):  lam = c m^{1/p}
    rf = RearrangedFunction([0.0, 3.0], [2.0])
    lam = luxemburg_norm(PowerYoung(2.5), rf)
    assert lam == pytest.approx(2.0 * 3.0 ** (1.0 / 2.5), rel=1e-8)


@pytest.mark.parametrize("a", [PowerYoung(2.5), ExpMinusOneYoung()])
def test_luxemburg_norm_modular_calls(a):
    # the solver hands the modular a 1-element array of dilations and
    # takes its float back; a few calls reach tol = 1e-10
    rf = RearrangedFunction([0.0, 1.0, 2.0, 3.0], [5.0, 1.0, 0.01])
    modular, lams = rf.modular, []

    def counted(a, lam):
        assert np.shape(lam) == (1,)
        lams.append(float(lam[0]))
        return modular(a, lam)

    rf.modular = counted
    lam = luxemburg_norm(a, rf)
    assert len(lams) <= 15
    assert modular(a, lam) == pytest.approx(1.0, rel=1e-9)
    assert modular(a, lam * (1.0 - 1e-9)) > 1.0


def test_orlicz_lorentz_closed_form():
    # A = t^2, u* = 2 on (0, 3): the modular is (4 / lam^2) Int_0^3 s^{2/r}
    rf = RearrangedFunction([0.0, 3.0], [2.0])
    a = PowerYoung(2)
    assert orlicz_lorentz_norm(a, 2.0, rf) == pytest.approx(
        math.sqrt(18.0), rel=1e-8)
    assert orlicz_lorentz_norm(a, -4.0, rf) == pytest.approx(
        math.sqrt(8.0 * math.sqrt(3.0)), rel=1e-8)
    # s^{-2} is not integrable at 0: no dilate has a finite modular
    assert math.isinf(orlicz_lorentz_norm(a, -1.0, rf))


def test_lorentz_closed_form():
    # u*(s) = s^{-1/4} on (0,1) in L^{2,2}: integral of s^{-1/2} is 2
    rf = RearrangedFunction.from_callable(lambda s: s ** -0.25, 1.0)
    assert lorentz_quasinorm(rf, 2.0, 2.0) == pytest.approx(math.sqrt(2.0),
                                                            rel=1e-2)
    # u*(s) = s^{-1/2} is not in L^{2,2}
    rf = RearrangedFunction.from_callable(lambda s: s ** -0.5, 1.0)
    assert math.isinf(lorentz_quasinorm(rf, 2.0, 2.0))


def test_marcinkiewicz_closed_form():
    # u* = s^{-1/2}, generator t^2: sup_s s u*(s)^2 = 1 (realized
    # exactly by right-endpoint step values)
    s = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 2000)])
    rf = RearrangedFunction(s, s[1:] ** -0.5)
    gen = MonotoneFunction(lambda t: np.asarray(t) ** 2,
                           log_fn=lambda lt: 2.0 * np.asarray(lt))
    assert marcinkiewicz_quasinorm(rf, gen) == pytest.approx(1.0, rel=1e-9)


def test_marcinkiewicz_ignores_decreasing_branch():
    # a generator decreasing below t=1 must not poison the supremum:
    # membership only sees the increasing envelope
    rf = RearrangedFunction([0.0, 0.5, 1.0], [2.0, 0.01])

    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 1.0, t ** 2, 1.0 / np.maximum(t, 1e-300))

    gen = MonotoneFunction(fn)
    # envelope of fn for v=0.01 is inf_{w>=0.01} fn(w) = fn(1) = 1
    assert marcinkiewicz_quasinorm(rf, gen) == pytest.approx(
        max(0.5 * 4.0, 1.0 * 1.0), rel=1e-6)


def test_improper_integral_head():
    assert improper_integral(lambda s: s ** -0.5, 0.0, 1.0) == pytest.approx(
        2.0, rel=1e-6)
    assert improper_integral(lambda s: s ** -0.99, 0.0, 1.0) == pytest.approx(
        100.0, rel=1e-2)
    assert math.isinf(improper_integral(lambda s: 1.0 / s, 0.0, 1.0))


def test_improper_integral_matches_interval_loop_in_two_calls():
    # reference: 24-point Gauss-Legendre one interval at a time, summed
    # in order; the vectorized quadrature does the same arithmetic
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def loop(fn, edges):
        return sum(0.5 * (b - a) * float(np.sum(
            weights * fn(0.5 * (a + b) + 0.5 * (b - a) * nodes)))
            for a, b in zip(edges[:-1], edges[1:]))

    calls = []

    def fn(s):
        calls.append(np.size(s))
        return np.log1p(1.0 / s)

    assert improper_integral(fn, 1e-3, 2.0) == loop(
        fn, np.geomspace(1e-3, 2.0, 64))
    calls.clear()
    improper_integral(fn, 0.0, 2.0)
    assert calls == [63 * 24, 12 * 7 * 24]


def test_boundedness_criterion_disk_oracle():
    # Phi_diamond = t^2 (PsiInv = identity), f = 1 on the unit disk:
    # B = (2 sqrt(pi))^{-2} * pi = 1/4, the radial center value
    rf = RearrangedFunction([0.0, math.pi], [1.0])
    B = boundedness_criterion(rf, lambda x: x, 2)
    assert B == pytest.approx(0.25, rel=1e-6)
    # p = 3: PsiInv(x) = sqrt(x); closed form (1/2)^{1/2} / (3/2)
    B3 = boundedness_criterion(rf, np.sqrt, 2)
    assert B3 == pytest.approx(math.sqrt(0.5) / 1.5, rel=1e-4)


def test_boundedness_zero_data():
    rf = RearrangedFunction([0.0, 1.0], [0.0])
    assert boundedness_criterion(rf, lambda x: x, 2) == 0.0


def test_data_admissibility_verdicts():
    conj = ExpMinusOneYoung()
    ok = RearrangedFunction.from_callable(lambda s: s ** -0.25, 1.0)
    out = data_admissibility(ok, conj, 2)
    assert out["verdict"] == "admissible"
    assert all(r["finite"] for r in out["ladder"])
    bad = RearrangedFunction.from_callable(lambda s: s ** -0.75, 1.0)
    out = data_admissibility(bad, conj, 2)
    assert out["verdict"].startswith("inadmissible")
    # convergent branch short-circuits: any integrable datum admissible
    out = data_admissibility(bad, conj, 2, dichotomy="convergent")
    assert out["verdict"] == "admissible"
    assert out["ladder"] == []


def test_scaled():
    rf = RearrangedFunction([0.0, 1.0, 2.0], [3.0, 1.0])
    sc = rf.scaled(2.0)
    assert sc(0.5) == 6.0 and sc(1.5) == 2.0
