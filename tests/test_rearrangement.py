"""Decreasing rearrangements, quasinorms, admissibility, boundedness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczpde.anisotropic import gauss_legendre
from orliczpde.rearrangement import (
    Datum,
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
    rf = RearrangedFunction.from_samples(v, 0.01)
    ref = np.sort(v)[::-1]
    mids = (np.arange(200) + 0.5) * 0.01
    assert np.allclose(rf(mids), ref, rtol=0, atol=0)
    assert rf.integral() == pytest.approx(0.01 * v.sum(), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40))
def test_rearrangement_is_equimeasurable(vals):
    v = np.asarray(vals)
    rf = RearrangedFunction.from_samples(v, 0.5)
    for t in (0.0, 1.0, 50.0):
        # |{u* > t}|: the breakpoint where the nonincreasing values drop
        # to <= t
        measure = rf.breakpoints[np.count_nonzero(rf.values > t)]
        assert measure == pytest.approx(
            0.5 * np.count_nonzero(v > t), abs=1e-12)


def _argsort_rearrangement(values, cell_measure):
    """The oracle: the stable argsort of -|values| with one measure per
    sample, as the rearrangement was first built."""
    v = np.abs(np.asarray(values, dtype=float).ravel())
    m = np.full(v.size, cell_measure)
    order = np.argsort(-v, kind="stable")
    return RearrangedFunction(np.concatenate([[0.0], np.cumsum(m[order])]),
                              v[order])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 7.0]),
                min_size=1, max_size=80),
       st.floats(1e-6, 10.0))
def test_rearrangement_of_ties_is_the_stable_argsort(vals, cell):
    # equal cell measures: the sorted values and the breakpoints are the
    # ones that the stable argsort gives, bit for bit
    rf = RearrangedFunction.from_samples(np.asarray(vals), cell)
    ref = _argsort_rearrangement(vals, cell)
    for attr in ("breakpoints", "values", "_cum"):
        np.testing.assert_array_equal(getattr(rf, attr), getattr(ref, attr))


def test_rearrangement_refuses_a_cell_without_measure():
    for cell in (0.0, -1.0, math.nan):
        with pytest.raises(YoungFunctionError, match="must increase"):
            RearrangedFunction.from_samples([1.0, 2.0], cell)


def test_maximal_eval_exact_on_steps():
    rf = RearrangedFunction([0.0, 1.0, 3.0], [4.0, 1.0])
    # integral to s=2: 4*1 + 1*1 = 5 -> u**(2) = 2.5
    assert rf.maximal_eval(2.0) == pytest.approx(2.5, rel=1e-14)
    assert rf.maximal_eval(0.5) == pytest.approx(4.0, rel=1e-14)


def test_power_datum_preserves_mass():
    rf = Datum("pow:a=0.5").rearranged(1.0)
    assert rf.integral() == pytest.approx(2.0, rel=1e-3)
    # the first step carries the head mass: f**(s_1) = f*(s_1) / (1 - a)
    s1 = rf.breakpoints[1]
    assert rf.maximal_eval(s1) == pytest.approx(2.0 * s1**-0.5, rel=1e-14)
    assert rf.head_exponent == 0.5


@pytest.mark.parametrize("spec", ["pow:a=1", "pow:a=-0.5", "pow:c=2"])
def test_power_datum_refuses_a_non_integrable_head(spec):
    # s^-1 is not integrable at 0, so it is no L^1 datum; a < 0 is no
    # decreasing profile, and a has no default
    with pytest.raises(YoungFunctionError, match="integrable profile"):
        Datum(spec)


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


def _integrands(s):
    """Five integrands stacked as rows: convergent at 0, divergent at 0,
    identically 0, smooth and a constant."""
    return np.stack([s**-0.5, 1.0 / s, np.zeros_like(s), np.log1p(1.0 / s),
                     np.full_like(s, 3.0)])


@pytest.mark.parametrize("a", [0.0, 1e-3])
def test_improper_integral_of_stacked_integrands_is_each_row(a):
    # one call of the stack on the body nodes and one on the head's: each
    # row equals its own integral bit for bit, the divergent one math.inf
    calls = []

    def stacked(s):
        calls.append(np.shape(s))
        return _integrands(s)

    rows = improper_integral(stacked, a, 2.0)
    assert len(calls) == (2 if a == 0.0 else 1)
    single = [improper_integral(lambda s, k=k: _integrands(s)[k], a, 2.0)
              for k in range(5)]
    assert rows.tolist() == single
    assert math.isinf(single[1]) == (a == 0.0) and single[2] == 0.0
    # leading axes of any shape stack the same way
    square = improper_integral(
        lambda s: _integrands(s)[[[0, 1], [2, 3]]], a, 2.0)
    assert square.tolist() == [single[:2], single[2:4]]


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


class _CountedConjugate:
    """A conjugate that records the shape of each argument it gets."""

    def __init__(self, conj):
        self.conj = conj
        self.calls = []

    def value(self, x):
        self.calls.append(np.shape(x))
        return self.conj.value(x)


@pytest.mark.parametrize("a", [0.25, 0.75])
def test_data_admissibility_integrates_the_ladder_at_once(a):
    # the 8 lam of the ladder take two integrand calls in all, and each
    # modular is the one that its own integral gives, bit for bit
    f_rf = Datum(f"pow:a={a}").rearranged(1.0)
    conj = _CountedConjugate(ExpMinusOneYoung())
    out = data_admissibility(f_rf, conj, 2)
    assert [shape[0] for shape in conj.calls] == [8, 8]
    expected = []
    for lam in np.geomspace(1e2, 1e-2, 8):
        m = improper_integral(lambda s, lam=lam: conj.conj.value(
            s ** 0.5 * f_rf.maximal_eval(s) / lam), 0.0, 1.0)
        expected.append({"lam": float(lam), "modular": m,
                         "finite": math.isfinite(m)})
        if not math.isfinite(m):
            break
    assert out["ladder"] == expected


def test_data_admissibility_verdicts():
    conj = ExpMinusOneYoung()
    ok = Datum("pow:a=0.25").rearranged(1.0)
    out = data_admissibility(ok, conj, 2)
    assert out["verdict"] == "admissible"
    assert all(r["finite"] for r in out["ladder"])
    bad = Datum("pow:a=0.75").rearranged(1.0)
    out = data_admissibility(bad, conj, 2)
    assert out["verdict"].startswith("inadmissible")
    # convergent branch short-circuits: any integrable datum admissible
    out = data_admissibility(bad, conj, 2, dichotomy="convergent")
    assert out["verdict"] == "admissible"
    assert out["ladder"] == []



def test_const_datum_needs_its_value():
    with pytest.raises(YoungFunctionError, match="'const': const needs"):
        Datum("const")
