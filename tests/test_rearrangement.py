"""Decreasing rearrangements, quasinorms, admissibility, boundedness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczpde.anisotropic import gauss_legendre
from orliczpde.rearrangement import (
    RearrangedFunction,
    boundedness_criterion,
    data_admissibility,
    improper_integral,
    marcinkiewicz_quasinorm,
)
from orliczpde.young import (
    ExpMinusOneYoung,
    MonotoneFunction,
    YoungFunctionError,
)


def test_rearrange_matches_sort_oracle():
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 5.0, 200)
    rf = RearrangedFunction.from_samples(v, np.full(200, 0.01))
    ref = np.sort(v)[::-1]
    mids = (np.arange(200) + 0.5) * 0.01
    assert np.allclose(rf(mids), ref, rtol=0, atol=0)
    assert rf.integral() == pytest.approx(0.01 * v.sum(), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40))
def test_rearrangement_is_equimeasurable(vals):
    v = np.asarray(vals)
    rf = RearrangedFunction.from_samples(v, np.full(v.size, 0.5))
    for t in (0.0, 1.0, 50.0):
        # |{u* > t}|: the breakpoint where the nonincreasing values drop
        # to <= t
        measure = rf.breakpoints[np.count_nonzero(rf.values > t)]
        assert measure == pytest.approx(
            0.5 * np.count_nonzero(v > t), abs=1e-12)


def test_maximal_eval_exact_on_steps():
    rf = RearrangedFunction([0.0, 1.0, 3.0], [4.0, 1.0])
    # integral to s=2: 4*1 + 1*1 = 5 -> u**(2) = 2.5
    assert rf.maximal_eval(2.0) == pytest.approx(2.5, rel=1e-14)
    assert rf.maximal_eval(0.5) == pytest.approx(4.0, rel=1e-14)


def test_from_callable_preserves_mass():
    rf = RearrangedFunction.from_callable(lambda s: s ** -0.5, 1.0)
    assert rf.integral() == pytest.approx(2.0, rel=1e-3)


def test_from_callable_flags_non_integrable_head():
    # 1/s is not integrable at 0, so it is no L^1 datum
    with pytest.raises(YoungFunctionError, match="not integrable"):
        RearrangedFunction.from_callable(lambda s: 1.0 / s, 1.0)


def test_validation_errors():
    with pytest.raises(YoungFunctionError):
        RearrangedFunction([0.5, 1.0], [1.0])       # must start at 0
    with pytest.raises(YoungFunctionError):
        RearrangedFunction([0.0, 1.0, 2.0], [1.0, 3.0])  # increasing


@pytest.mark.parametrize("s, v", [
    ([0.0, 1.0, 2.0], [math.nan, 1.0]),
    ([0.0, 1.0, 2.0], [2.0, math.nan]),
    ([0.0, 1.0, 2.0], [math.inf, 1.0]),
    ([0.0, math.nan, 2.0], [2.0, 1.0]),
    ([0.0, 1.0, math.nan], [2.0, 1.0]),
], ids=["nan-first-value", "nan-last-value", "inf-value",
        "nan-breakpoint", "nan-end"])
def test_validation_refuses_non_finite_steps(s, v):
    # each condition must hold for every step; NaN fails every comparison,
    # so a check that looks for a violation let it through
    with pytest.raises(YoungFunctionError):
        RearrangedFunction(s, v)


def test_marcinkiewicz_closed_form():
    # u* = s^{-1/2}, generator t^2: sup_s s u*(s)^2 = 1 (realized
    # exactly by right-endpoint step values)
    s = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 2000)])
    rf = RearrangedFunction(s, s[1:] ** -0.5)
    gen = MonotoneFunction(lambda lt: 2.0 * np.asarray(lt), "t^2")
    assert marcinkiewicz_quasinorm(rf, gen) == pytest.approx(1.0, rel=1e-9)


def test_marcinkiewicz_ignores_decreasing_branch():
    # a generator decreasing below t=1 must not poison the supremum:
    # membership only sees the increasing envelope
    rf = RearrangedFunction([0.0, 0.5, 1.0], [2.0, 0.01])

    def log_fn(lt):
        lt = np.asarray(lt, dtype=float)
        return np.where(lt >= 0.0, 2.0 * lt, -lt)  # t^2 above 1, 1/t below

    gen = MonotoneFunction(log_fn, "v-shaped")
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
    nodes, weights = gauss_legendre(24)

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

