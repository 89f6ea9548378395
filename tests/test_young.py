"""Scalar Young-function calculus: conjugation, inequalities, growth."""

import io
import json
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import power_potential, sampled, write_table
from orliczpde import young
from orliczpde.embedding import fit_power_log
from orliczpde.grid import GridField, OperatorSpec, solve
from orliczpde.young import (
    ExpMinusLinearYoung,
    ExpMinusOneYoung,
    ExpPowerYoung,
    InverseRangeError,
    LegendreConjugate,
    LinearSplicedYoung,
    NotConvexError,
    PowerLogYoung,
    PowerYoung,
    SampledYoungFunction,
    ScalarYoungFunction,
    YoungFunctionError,
    parse_scalar_function,
    solve_increasing,
    write_csv,
)


def test_power_conjugate_closed_form():
    # sup_t (s t - t^3) at t = sqrt(s/3): value = (2 / (3 sqrt(3))) s^{3/2}
    a = PowerYoung(3)
    conj = a.conjugate()
    s = np.geomspace(1e-2, 1e4, 64)
    expected = (2.0 / (3.0 * math.sqrt(3.0))) * s**1.5
    assert np.allclose(conj.value(s), expected, rtol=1e-12)


def test_half_square_is_self_conjugate():
    a = PowerYoung(2, 0.5)
    conj = a.conjugate()
    s = np.geomspace(1e-3, 1e3, 50)
    assert np.allclose(conj.value(s), 0.5 * s**2, rtol=1e-12)


def test_exp_minus_one_conjugate_closed_form():
    conj = ExpMinusOneYoung().conjugate()
    s = np.geomspace(1.0 + 1e-6, 1e3, 40)
    expected = s * np.log(s) - s + 1.0
    assert np.allclose(conj.value(s), expected, rtol=1e-8)


def test_exp_minus_linear_pair():
    # (1+s)log(1+s) - s is the conjugate of e^t - 1 - t
    conj = ExpMinusLinearYoung().conjugate()
    s = np.geomspace(1e-2, 1e3, 40)
    expected = (1.0 + s) * np.log(1.0 + s) - s
    assert np.allclose(conj.value(s), expected, rtol=1e-8)


@pytest.mark.parametrize("t", [1e-9, 1e-4, 0.1, 0.3])
def test_exp_minus_linear_pair_at_small_arguments(t):
    # both closed forms cancel at small arguments; abs=0 so that pytest's
    # default absolute tolerance cannot hide values below 1e-12
    a = ExpMinusLinearYoung()
    tail = math.fsum(t**k / math.factorial(k) for k in range(2, 30))
    assert a.value(t) == pytest.approx(tail, rel=2e-15, abs=0.0)
    assert a.log_value(math.log(t)) == pytest.approx(math.log(tail),
                                                     rel=2e-15, abs=0.0)
    conj_tail = math.fsum((-t) ** k / (k * (k - 1)) for k in range(2, 60))
    assert a.conjugate().value(t) == pytest.approx(conj_tail, rel=2e-15,
                                                   abs=0.0)


def test_exp_minus_linear_log_value_below_underflow():
    # A(t) = t^2/2 to rounding once t^2 underflows
    assert ExpMinusLinearYoung().log_value(-800.0) == pytest.approx(
        -1600.0 - math.log(2.0), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x", [1e-2, 1e-4, 1e-6, 1e-8])
def test_exp_minus_one_conjugate_near_one(x):
    # conj(e^t - 1)(1 + x) = (1 + x) log(1 + x) - x = x^2/2 - x^3/6 + ...;
    # the closed form s log s - s + 1 cancels there, to 0.0 at x = 1e-8
    s = 1.0 + x
    x = s - 1.0  # exact
    tail = math.fsum((-x) ** k / (k * (k - 1)) for k in range(2, 40))
    assert ExpMinusOneYoung().conjugate().value(s) == pytest.approx(
        tail, rel=1e-8, abs=0.0)


def _no_solver(*args, **kwargs):
    raise AssertionError("solve_increasing called")


@pytest.mark.parametrize("a, floor", [(ExpMinusOneYoung(), 1.0),
                                      (ExpMinusLinearYoung(), 0.0)],
                         ids=lambda a: getattr(a, "name", None))
def test_exponential_derivative_inverses_are_closed_form(a, floor,
                                                         monkeypatch):
    # log s and log1p s: the solver's leftmost root of A'(t) >= s, 0 for
    # s <= floor, without a solve
    s = np.concatenate([[-1.0, 0.0, floor], np.geomspace(1e-6, 1e300, 211)])
    solved = ScalarYoungFunction.derivative_inverse(a, s)
    monkeypatch.setattr(young, "solve_increasing", _no_solver)
    out = a.derivative_inverse(s)
    np.testing.assert_allclose(out, solved, rtol=2e-12, atol=0.0)
    np.testing.assert_array_equal(out[s <= floor], 0.0)
    assert isinstance(a.derivative_inverse(2.0), float)


@pytest.mark.parametrize("a", [
    *(parse_scalar_function(kind) for kind in young._CATALOG),
    sampled(PowerLogYoung(2.0, 1.0), 1e-2, 1e4),
    LinearSplicedYoung(PowerYoung(3.0)),
], ids=lambda a: a.name)
def test_every_conjugate_is_a_power_or_legendre(a):
    # one conjugation path: a power's conjugate is the conjugate power,
    # every other one is the pointwise Legendre transform of the function
    conj = a.conjugate()
    if isinstance(a, PowerYoung):
        assert type(conj) is PowerYoung and conj.p == a.p / (a.p - 1.0)
    else:
        assert type(conj) is LegendreConjugate and conj.base is a


@pytest.mark.parametrize("spec", [
    *young._CATALOG, "power_log:p=1.2,alpha=-2", "power_log:p=1,alpha=1",
    # A'(t_max) passes 1e300 from b = 5 on, A'(t_min) underflows at 60
    "exp_power:beta=5", "exp_power:beta=60",
])
def test_every_catalog_function_is_convex_when_built(spec):
    # a built function, its conjugate and its linear splice certify on
    # their trusted ranges; a conjugate's range is the slopes of its base
    a = parse_scalar_function(spec)
    conj = a.conjugate()
    for f in (a, conj, LinearSplicedYoung(a)):
        assert f.certify() is f
    if isinstance(conj, LegendreConjugate):
        slopes = np.clip([a.derivative(a.t_min), a.derivative(a.t_max)],
                         1e-300, 1e300)
        assert [conj.t_min, conj.t_max] == slopes.tolist()


def test_conjugate_range_follows_the_slopes():
    # t log(e + t) has slopes [1, 19.42] on [1e-8, 1e8]; a fixed range
    # [1e-10, 1e10] asked for maximizers beyond 1e250 above s = 577
    conj = parse_scalar_function("power_log:p=1,alpha=1").conjugate()
    assert conj.t_min == pytest.approx(1.0, abs=1e-7)
    assert conj.t_max == pytest.approx(math.log(math.e + 1e8) + 1.0)
    t = conj.derivative(np.geomspace(conj.t_min, conj.t_max, 64))
    assert np.all((t >= 0.0) & (t <= 1e8 * (1.0 + 1e-9)))


@settings(max_examples=25, deadline=None)
@given(p=st.floats(1.2, 5.0), log_t=st.floats(-2.0, 3.0))
def test_biconjugation_is_identity(p, log_t):
    a = PowerYoung(p)
    biconj = LegendreConjugate(LegendreConjugate(a))
    t = math.exp(log_t)
    assert biconj.value(t) == pytest.approx(a.value(t), rel=1e-6)


@pytest.mark.parametrize("spec", [
    "power:p=1.5", "power:p=3", "power_log:p=2,alpha=1",
    "exp_minus_one", "exp_minus_linear", "exp_power:beta=1.5",
])
def test_inverse_product_inequality(spec):
    # t <= A^{-1}(t) conj^{-1}(t) <= 2t for every Young function
    a = parse_scalar_function(spec)
    conj = a.conjugate()
    for t in np.geomspace(1e-2, 1e3, 25):
        prod = float(a.inverse(t)) * float(conj.inverse(t))
        assert prod >= t * (1.0 - 1e-9)
        assert prod <= 2.0 * t * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(1.3, 4.0), log_s=st.floats(-2.0, 2.0),
       log_t=st.floats(-2.0, 2.0))
def test_young_inequality(p, log_s, log_t):
    a = PowerYoung(p)
    conj = a.conjugate()
    s, t = math.exp(log_s), math.exp(log_t)
    assert s * t <= (a.value(s) + conj.value(t)) * (1.0 + 1e-12)


@pytest.mark.parametrize("p, alpha, raised, shift", [
    (1.2, -2.0, 5, "2783.52"),
    (1.05, -1.0, 12, "4.56052e+07"),
])
def test_power_log_names_the_shift_it_settles_on(p, alpha, raised, shift):
    # log(e + t)^alpha with alpha < 0 makes t^p log(e + t)^alpha fail
    # midpoint convexity for p near 1; construction multiplies the shift
    # by 4 until the function certifies, and the name states that shift
    a = PowerLogYoung(p, alpha)
    assert a.certify() is a
    assert a.shift == math.e * 4.0**raised
    assert a.name == f"power_log(p={p:g},alpha={alpha:g},shift={shift})"
    # a shift one step lower fails
    lower = PowerLogYoung(p, alpha, shift=a.shift)
    lower.shift /= 4.0
    with pytest.raises(NotConvexError):
        lower.certify()
    assert parse_scalar_function(
        f"power_log:p={p:g},alpha={alpha:g}").name == a.name
    # a shift that certifies as given is not named
    assert PowerLogYoung(2.0, 1.0).name == "power_log(p=2,alpha=1)"


def test_power_log_that_never_certifies_names_its_last_shift():
    # t log(e + t)^-1 fails at every shift up to 1e12; construction
    # raises, naming the last shift tried
    with pytest.raises(NotConvexError, match=r"shift=7\.47196e\+11\)"):
        PowerLogYoung(1.0, -1.0)


def test_sampled_round_trip(tmp_path):
    a = PowerLogYoung(2.0, 1.0)
    tab = sampled(a, 1e-2, 1e4)
    t = np.geomspace(2e-2, 5e3, 100)
    assert np.allclose(tab.value(t), a.value(t), rtol=1e-4)
    path = tmp_path / "a.csv"
    tab.to_csv(path)
    back = SampledYoungFunction.from_csv(path)
    assert np.allclose(back.value(t), a.value(t), rtol=1e-4)


def test_sampled_inverse_consistency():
    a = PowerYoung(2.5)
    tab = sampled(a, 1e-2, 1e4)
    for t in np.geomspace(0.1, 100.0, 20):
        assert float(tab.inverse(tab.value(t))) == pytest.approx(t, rel=1e-4)


def test_sampled_derivative_is_derivative_of_value(tmp_path):
    # t^2 log(e + t) is convex but its log-log slope rises to 2.32 and
    # falls back toward 2; the derivative must follow the interpolant
    # there, not a monotone envelope of the log-log slopes
    path = tmp_path / "a.csv"
    write_table(path, PowerLogYoung(2.0, 1.0), 1e-3, 1e5, 1024)
    tab = SampledYoungFunction.from_csv(path)
    t = np.geomspace(1e-2, 1e4, 200)
    h = 1e-7 * t
    fd = (tab.value(t + h) - tab.value(t - h)) / (2.0 * h)
    assert np.allclose(tab.derivative(t), fd, rtol=1e-5)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_power_second_derivative(p):
    a = PowerYoung(p, 1.0 / p)
    t = np.geomspace(1e-3, 1e3, 25)
    fd = (a.derivative(t * (1.0 + 1e-6)) - a.derivative(t * (1.0 - 1e-6))) / (
        2e-6 * t)
    np.testing.assert_allclose(a.second_derivative(t), fd, rtol=1e-8)
    np.testing.assert_allclose(a.second_derivative(t),
                               (p - 1.0) * t**(p - 2.0), rtol=1e-14)


@pytest.mark.parametrize("a", [
    ExpMinusLinearYoung(), ExpMinusLinearYoung().conjugate(),
    ExpMinusOneYoung().conjugate(), PowerLogYoung(2.0, 1.0).conjugate(),
], ids=["exp_minus_linear", "conj_exp_minus_linear", "conj_exp_minus_one",
        "legendre"])
def test_closed_form_derivatives_and_biconjugates(a):
    # A' against central differences of A (0 below s = 1, where
    # conj(exp_minus_one) vanishes), and A** = A, of A's own class
    t = np.geomspace(1e-2, 30.0, 25)
    fd = (a.value(t * (1.0 + 1e-6)) - a.value(t * (1.0 - 1e-6))) / (
        2e-6 * t)
    np.testing.assert_allclose(a.derivative(t), fd, rtol=1e-6, atol=1e-12)
    back = a.conjugate().conjugate()
    assert type(back) is type(a)
    np.testing.assert_array_equal(back.value(t), a.value(t))


def test_base_derivative_is_abstract():
    # every concrete function supplies A'; the base class has no fallback
    with pytest.raises(NotImplementedError):
        ScalarYoungFunction().derivative(1.0)


def test_repair_convexity_drops_bumps():
    # a point bumped above the convex envelope is dropped; the repaired
    # table interpolates back onto the exact power line
    log_t = np.linspace(0.0, 5.0, 40)
    log_v = 2.0 * log_t
    log_v[20] += 0.5  # bump above the hull
    tab = SampledYoungFunction(log_t, log_v)
    tab.repair_convexity()
    assert tab.log_value(log_t[20]) == pytest.approx(2.0 * log_t[20],
                                                     abs=1e-9)
    assert tab.check_second_differences()


def _chain_hull(x, y):
    """The oracle: Andrew's monotone chain over every point, popping
    while the new edge's slope falls below the last edge's by more than
    1e-15 of it."""
    hull = []
    for i in range(x.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            s01 = (y[i1] - y[i0]) / (x[i1] - x[i0])
            s12 = (y[i] - y[i1]) / (x[i] - x[i1])
            if s12 < s01 - 1e-15 * abs(s01):
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull)


@st.composite
def _hull_tables(draw):
    """x-sorted tables: convex, with a bump, with a non-convex tail or
    with any slopes; integer steps and slopes make collinear runs exact."""
    size = draw(st.integers(3, 60))
    shape = draw(st.sampled_from(["convex", "bump", "tail", "any"]))
    if draw(st.booleans()):
        dx = draw(st.lists(st.integers(1, 4), min_size=size - 1,
                           max_size=size - 1))
        slopes = draw(st.lists(st.integers(-3, 8), min_size=size - 1,
                               max_size=size - 1))
    else:
        dx = draw(st.lists(st.floats(1e-3, 10.0), min_size=size - 1,
                           max_size=size - 1))
        slopes = draw(st.lists(st.floats(-5.0, 50.0), min_size=size - 1,
                               max_size=size - 1))
    slopes = np.asarray(slopes, dtype=float)
    if shape != "any":
        slopes = np.sort(slopes)
    at = draw(st.integers(0, size - 2))
    if shape == "tail":
        slopes[at:] = slopes[at:][::-1]
    x = np.concatenate([[0.0], np.cumsum(np.asarray(dx, dtype=float))])
    y = np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])
    if shape == "bump":
        y[at] += draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.floats(1e-6, 10.0))
    return x, y


@settings(max_examples=300, deadline=None)
@given(_hull_tables())
def test_lower_hull_is_the_monotone_chain(table):
    x, y = table
    np.testing.assert_array_equal(young._lower_hull(x, y),
                                  _chain_hull(x, y))


class _CountedReads(np.ndarray):
    """An array that counts its reads of single elements, the reads that
    a step of the monotone chain makes."""

    reads = 0

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            _CountedReads.reads += 1
        return super().__getitem__(key)


def test_lower_hull_takes_no_chain_step_on_a_convex_table(monkeypatch):
    # the 2048-point Legendre table of the embedding workload's size: one
    # array pass keeps every point
    x = np.geomspace(1e-3, 1e3, 2048)
    y = x**2 * np.log(math.e + x)
    monkeypatch.setattr(_CountedReads, "reads", 0)
    hull = young._lower_hull(x.view(_CountedReads), y.view(_CountedReads))
    np.testing.assert_array_equal(hull, np.arange(x.size))
    assert _CountedReads.reads == 0
    y[1000] += 1.0  # a bump: the chain runs from the triple before it
    hull = young._lower_hull(x.view(_CountedReads), y.view(_CountedReads))
    assert _CountedReads.reads > 0 and 1000 not in hull


def test_sampled_table_refuses_a_nan_or_inf_knot():
    # a NaN knot was dropped without a word: 8 knots built a 7-knot table
    with np.errstate(divide="ignore"):
        log_t = np.log(np.linspace(0.0, 5.0, 8))
    for bad in (math.nan, math.inf):
        log_v = 2.0 * log_t
        log_v[3] = bad
        with pytest.raises(YoungFunctionError, match="knot 3 is not finite"):
            SampledYoungFunction(log_t, log_v)
        with pytest.raises(YoungFunctionError, match="knot 3 is not finite"):
            SampledYoungFunction(np.where(np.arange(8) == 3, bad, log_t),
                                 2.0 * log_t)


def test_sampled_table_drops_only_leading_zero_rows():
    # t = 0 (and so A = 0) starts the table: log -inf, dropped
    with np.errstate(divide="ignore"):
        log_t = np.log(np.linspace(0.0, 5.0, 8))
    assert SampledYoungFunction(log_t, 2.0 * log_t).log_t.size == 7
    # A = 0 at the first two positive t: dropped too
    log_v = 2.0 * log_t
    log_v[1] = -np.inf
    assert SampledYoungFunction(log_t, log_v).log_t.size == 6
    # A = 0 after a positive A is refused, naming its knot
    log_v = 2.0 * log_t
    log_v[5] = -np.inf
    with pytest.raises(YoungFunctionError,
                       match="knot 5 is not finite"):
        SampledYoungFunction(log_t, log_v)


@pytest.mark.parametrize("value, message", [
    (-1.0, "{path}: knot 20 not finite or < 0"),
    (0.0, "knot 20 is not finite")])
def test_table_csv_with_a_negative_or_late_zero_value_is_refused(
        value, message, tmp_path):
    # a negative A used to pass through log as NaN and be dropped, with a
    # numpy warning and a verdict on the table that was left; it is named
    # before any log is taken
    t = np.geomspace(1e-2, 1e2, 64)
    rows = np.column_stack([t, t**2])
    rows[20, 1] = value
    path = tmp_path / "table.csv"
    np.savetxt(path, rows, delimiter=",", header="t,A(t)", comments="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(YoungFunctionError) as refused:
            SampledYoungFunction.from_csv(path)
    assert message.format(path=path) in str(refused.value)


def test_linear_splice_continuity():
    base = PowerYoung(2)
    spliced = LinearSplicedYoung(base)
    assert spliced.value(1.0) == pytest.approx(base.value(1.0), rel=1e-12)
    # linear below the knot
    t = np.linspace(0.05, 0.95, 10)
    assert np.allclose(spliced.value(t) / t, spliced.value(0.5) / 0.5,
                       rtol=1e-12)
    # A' is the chord slope A(knot)/knot below it, the base's above it
    np.testing.assert_array_equal(spliced.derivative(t), 1.0)
    above = np.linspace(1.0, 5.0, 9)
    np.testing.assert_array_equal(spliced.derivative(above),
                                  base.derivative(above))


def test_psi_and_theta_relations():
    a = PowerYoung(3)
    t = np.geomspace(0.1, 10.0, 9)
    # psi_inverse inverts Psi(t) = A(t)/t, for a power in closed form and
    # through the solver in general
    for inv in (a.psi_inverse, lambda y: ScalarYoungFunction.psi_inverse(a, y)):
        np.testing.assert_allclose(inv(a.value(t) / t), t, rtol=1e-10)
    # Theta(t) = conj^{-1}(A(t)) round-trips through A^{-1}(conj(.))
    conj = a.conjugate()
    theta = conj.inverse(a.value(t))
    np.testing.assert_allclose(a.inverse(conj.value(theta)), t, rtol=1e-8)


def test_certify_refuses_an_all_nan_function():
    # monotonicity and convexity must hold at every point; NaN fails
    # every comparison, so a check that looks for a violation passed it
    class NanYoung(ScalarYoungFunction):
        def value(self, t):
            return np.full(np.shape(t), np.nan)

    with pytest.raises(NotConvexError, match="not nondecreasing"):
        NanYoung().certify()


@settings(max_examples=25, deadline=None)
@given(knot=st.integers(0, 63), column=st.integers(0, 1),
       bad=st.sampled_from([math.nan, math.inf]))
def test_table_csv_with_a_non_finite_number_is_refused(knot, column, bad):
    # a NaN row used to be dropped without a word, leaving a convex table
    # that read as a valid input
    t = np.geomspace(1e-2, 1e2, 64)
    rows = np.column_stack([t, t**2])
    rows[knot, column] = bad
    text = io.StringIO()
    np.savetxt(text, rows, delimiter=",", header="t,A(t)", comments="")
    text.seek(0)
    with pytest.raises(YoungFunctionError, match="not finite"):
        SampledYoungFunction.from_csv(text)


def test_parse_errors():
    with pytest.raises(YoungFunctionError):
        parse_scalar_function("nope:p=2")
    with pytest.raises(YoungFunctionError):
        PowerYoung(1.0)
    with pytest.raises(YoungFunctionError):
        ExpPowerYoung(0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf, 1.0])
def test_power_exponent_is_finite_and_above_1(p):
    # nan and inf passed p <= 1 and failed later in an inverse
    with pytest.raises(YoungFunctionError, match=f"p = {p!r} must be finite"):
        PowerYoung(p)


def test_log_domain_survives_extreme_range():
    a = PowerLogYoung(2.0, 0.5)
    lv = a.log_value(np.array([500.0, 1000.0]))
    assert np.all(np.isfinite(lv))
    assert lv[1] > lv[0]


def test_sampled_table_is_read_only():
    # the cached slopes and inverse table follow the table, so it
    # cannot be edited in place
    tab = sampled(PowerYoung(2.5), 1e-2, 1e4)
    with pytest.raises(ValueError):
        tab.log_v[3] += 1.0
    with pytest.raises(ValueError):
        tab.log_t[3] += 1.0


@pytest.mark.parametrize("a", [PowerLogYoung(2.0, 1.0), PowerYoung(3.0),
                               ExpPowerYoung(1.5), ExpMinusLinearYoung()])
def test_inverse_recovers_small_and_large_arguments(a):
    # relative accuracy must not degrade below 1, where an absolute
    # bisection tolerance would swamp the answer
    x = np.geomspace(1e-9, 1e6, 31)
    x = x[x <= a.t_max]
    for xi in x:
        assert float(a.inverse(float(a.value(xi)))) == pytest.approx(
            xi, rel=1e-9, abs=0.0)
        assert float(a.psi_inverse(float(a.value(xi)) / xi)) == pytest.approx(
            xi, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_exp_power_closed_form_inverse_matches_the_solver(beta):
    a = ExpPowerYoung(beta)
    y = np.geomspace(1e-12, 1e300, 5001)
    np.testing.assert_allclose(a.inverse(y), solve_increasing(a.value, y),
                               rtol=1e-11, atol=0.0)


def _plateau(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 2.0, x, np.where(x < 5.0, 2.0, x - 3.0))


def test_solve_increasing_plateau_resolves_left():
    assert solve_increasing(_plateau, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert solve_increasing(_plateau, 2.5) == pytest.approx(5.5, rel=1e-12)


def test_solve_increasing_zero_cases():
    assert solve_increasing(lambda x: x**2, 0.0) == 0.0
    assert solve_increasing(lambda x: x**2, -3.0) == 0.0
    # fn(0+) = 1 already reaches every target up to 1
    assert solve_increasing(lambda x: 1.0 + x, 0.5) == 0.0
    assert solve_increasing(lambda x: 1.0 + x, 3.0) == pytest.approx(
        2.0, rel=1e-12)


def test_solve_increasing_unreachable_target_raises():
    with pytest.raises(InverseRangeError):
        solve_increasing(lambda x: np.minimum(x, 3.0), 4.0)
    with pytest.raises(InverseRangeError):
        solve_increasing(lambda x: x, 10.0, x_max=5.0)


def test_solve_increasing_shape_and_scalar():
    y = np.array([[1e-12, 1.0, 3.0], [1e6, 0.0, 1e200]])
    x = solve_increasing(lambda x: x**2, y)
    assert x.shape == y.shape
    assert np.allclose(x, np.sqrt(y), rtol=1e-11)
    out = solve_increasing(lambda x: x**3, 8.0)
    assert isinstance(out, float)
    assert out == pytest.approx(2.0, rel=1e-12)


# -- solve_increasing: certificate, batching, work -------------------------

_CERTIFIED = {
    "power": lambda x: x**2.5,
    "x2+x4": lambda x: x**2 + x**4,
    "expm1": np.expm1,
    "expm1(x^1.5)": lambda x: np.expm1(x**1.5),
    "plateau": _plateau,
    "step": np.floor,
    "jump": lambda x: np.where(x < 3.0, x, 10.0 + x),
}


@pytest.mark.parametrize("name", sorted(_CERTIFIED))
def test_solve_increasing_certificate(name):
    # the returned x reaches y, and x shrunk by the tolerance does not
    fn, rtol = _CERTIFIED[name], 1e-12
    y = np.concatenate([np.geomspace(1e-6, 1e6, 61), [1.0, 2.0, 3.0, 13.0]])
    x = solve_increasing(fn, y)
    assert np.all(x > 0.0)
    assert np.all(fn(x) >= y)
    assert np.all(fn(x / (1.0 + rtol)) < y)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.05, 8.0), log_c=st.floats(-3.0, 3.0),
       log_y=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20))
def test_solve_increasing_certificate_on_powers(p, log_c, log_y):
    c, rtol = 10.0**log_c, 1e-12
    y = 10.0 ** np.asarray(log_y)

    def fn(x):
        return c * x**p

    x = solve_increasing(fn, y)
    assert np.all(fn(x) >= y)
    assert np.all(fn(x / (1.0 + rtol)) < y)
    np.testing.assert_allclose(x, (y / c) ** (1.0 / p), rtol=1e-11)


def test_solve_increasing_batch_equals_single_solves():
    # every element's steps depend on that element alone: bit for bit
    rng = np.random.default_rng(3)
    y = 10.0 ** rng.uniform(-8.0, 12.0, 150)
    a = 10.0 ** rng.uniform(-3.0, 3.0, 150)

    def quartic(x):
        return x**2 + x**4

    def weighted(x, a):
        return a * x**3 + x

    batch = solve_increasing(quartic, y)
    single = np.array([solve_increasing(quartic, yi) for yi in y])
    np.testing.assert_array_equal(batch, single)
    batch = solve_increasing(weighted, y, args=(a,))
    single = np.concatenate([
        solve_increasing(weighted, y[i:i + 1], args=(a[i:i + 1],))
        for i in range(y.size)])
    np.testing.assert_array_equal(batch, single)


_BRACKET_FAMILIES = {
    "power": lambda v, p: v**p,
    "power-log": lambda v, p: v**p * np.log(math.e + v),
    "exp": lambda v, p: np.expm1(v),
}


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(_BRACKET_FAMILIES)),
       p=st.floats(1.1, 8.0), log_root=st.floats(-200.0, 200.0),
       log_u=st.floats(-2.0, 2.0), log_lo=st.floats(-6.0, -1e-3),
       log_hi=st.floats(1e-3, 6.0))
def test_solve_increasing_bracket_matches_the_open_solve(family, p, log_root,
                                                         log_u, log_lo,
                                                         log_hi):
    # the root x = 10^log_root of g(x / s) = g(u): known radii only skip
    # the stepping, so both solves end within rtol of the root; the
    # solver evaluates fn at both ends, and fn(hi) = inf is a valid end
    g, rtol = _BRACKET_FAMILIES[family], 1e-12
    u = 10.0**log_u
    s = 10.0**log_root / u

    def fn(x):
        return g(x / s, p)

    y = g(u, p)
    lo, hi = 10.0 ** (log_root + log_lo), 10.0 ** (log_root + log_hi)
    x = solve_increasing(fn, y, bracket=(lo, hi))
    assert fn(x) >= y > fn(x / (1.0 + rtol))
    assert x == pytest.approx(solve_increasing(fn, y),
                              rel=rtol, abs=0.0)


def test_solve_increasing_bracketed_batch_equals_single_solves():
    rng = np.random.default_rng(7)
    y = 10.0 ** rng.uniform(-8.0, 12.0, 150)
    a = 10.0 ** rng.uniform(-3.0, 3.0, 150)

    def weighted(x, a):
        return a * x**3 + x

    root = solve_increasing(weighted, y, args=(a,))
    lo = root * 10.0 ** rng.uniform(-6.0, -0.01, 150)
    hi = root * 10.0 ** rng.uniform(0.01, 6.0, 150)
    bracket = (lo, hi)
    batch = solve_increasing(weighted, y, args=(a,), bracket=bracket)
    single = np.concatenate([
        solve_increasing(weighted, y[i:i + 1], args=(a[i:i + 1],),
                         bracket=[b[i:i + 1] for b in bracket])
        for i in range(y.size)])
    np.testing.assert_array_equal(batch, single)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_solve_increasing_bracket_from_the_root(p):
    # a repeated level: the lower end of the bracket is the root itself,
    # fn(lo) = y, so the solver opens it and steps down from hi; the
    # solve still ends within 2 rtol above it
    rtol = 1e-12
    lo = np.geomspace(1e-50, 1e50, 21)
    y = lo**p
    hi = lo * 1e3
    x = solve_increasing(lambda x: x**p, y, bracket=(lo, hi))
    assert np.all((x >= lo) & (x <= lo * (1.0 + 2.0 * rtol)))


def test_solve_increasing_bracket_with_an_open_end():
    # lo = 0 or hi = inf (the radius of an infinite level) is no bound:
    # those elements bracket by steps from the other end
    y = np.geomspace(1e-40, 1e40, 17)
    root = solve_increasing(np.cbrt, y)
    for bracket in ((0.0, root * 10.0), (root / 10.0, np.inf),
                    (0.0, np.inf)):
        np.testing.assert_allclose(
            solve_increasing(np.cbrt, y, bracket=bracket), root, rtol=1e-12)


def _silently_within_5_s(solve):
    """solve(), with warnings as errors; an alarm stops it where it would
    not return."""
    def timeout(signum, frame):
        raise TimeoutError("solve_increasing did not return in 5 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return solve()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_solve_increasing_bracket_wider_than_the_float_range():
    # hi / lo = 1e400 overflows: the solver takes log hi - log lo as the
    # bracket's width there and still narrows to the root, silently
    x = _silently_within_5_s(
        lambda: solve_increasing(lambda x: x**2, 4.0, bracket=(1e-200, 1e200)))
    assert x == pytest.approx(2.0, rel=1e-12, abs=0.0)


def test_solve_increasing_secant_step_past_the_exp_range():
    # in the bracket (1e-200, 1e200) the log-log secant of sqrt steps
    # more than 709 above lo for these roots: lo * exp(s) overflowed to
    # inf, which counted as reached, and the solve never returned
    roots = np.array([1e150, 1e199])
    x = _silently_within_5_s(lambda: solve_increasing(
        np.sqrt, np.sqrt(roots), bracket=(1e-200, 1e200)))
    np.testing.assert_allclose(x, roots, rtol=1e-12, atol=0.0)


def test_solve_increasing_mixed_batch_equals_single_solves():
    # one batch of every kind of start: closed radii, lo = 0, hi = inf,
    # both ends open, the start (1, 1) of bracket=None, a root at 0
    # (fn(0+) >= y), a NaN end and radii that miss the root on either
    # side.  Each element's steps depend on it alone: bit for bit
    def fn(x, a, b):
        return b + a * x**3

    root = np.array([2.0, 3e-5, 4e7, 0.5, 7.0, 0.0, 1e-3, 1e4, 5e-8])
    a = np.array([1.0, 2.0, 0.5, 3.0, 1.0, 1.0, 1e3, 1.0, 1.0])
    b = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    y = np.where(b > 0.0, 0.5, fn(root, a, b))
    lo = np.array([1.0, 0.0, 1e7, 0.0, 1.0, 1.0, np.nan, 1e5, 1e-12])
    hi = np.array([3.0, 1e-3, np.inf, np.inf, 1.0, 2.0, 1.0, 1e6, 1e-9])
    batch = solve_increasing(fn, y, args=(a, b), bracket=(lo, hi))
    single = np.concatenate([
        solve_increasing(fn, y[i:i + 1], args=(a[i:i + 1], b[i:i + 1]),
                         bracket=(lo[i:i + 1], hi[i:i + 1]))
        for i in range(y.size)])
    np.testing.assert_array_equal(batch, single)
    assert batch[5] == 0.0
    np.testing.assert_allclose(batch, root, rtol=2e-12, atol=0.0)
    # radii (1, 1) are the start of bracket=None
    assert single[4] == solve_increasing(fn, y[4:5], args=(a[4:5], b[4:5]))


def test_conjugate_level_inverse_does_not_cancel_at_small_levels():
    # the conjugate's level T A'(T) - A(T) in closed form, against exact
    # inverses: T^2/(e + T) for PowerLogYoung(1, 1), whose inverse is
    # (y + sqrt(y^2 + 4 e y))/2, and e^T (T + expm1(-T)) = sum_k (k - 1)
    # T^k/k! (k >= 2) for ExpPowerYoung(1), inverted by Newton's method
    # on that positive series.  As differences they cancelled, up to
    # 9.1e-8 and 8.2e-8 off on these levels
    y = np.geomspace(1e-18, 1e-4, 57)
    exact = 0.5 * (y + np.sqrt(y * y + 4.0 * math.e * y))
    np.testing.assert_allclose(
        PowerLogYoung(1.0, 1.0)._conjugate_level_inverse(y), exact,
        rtol=1e-11)
    coeffs = [(k - 1) / math.factorial(k) for k in range(2, 20)]
    exact = np.sqrt(2.0 * y)  # above the root: the series is convex
    for _ in range(8):
        level = sum(c * exact**k for k, c in enumerate(coeffs, start=2))
        exact = exact - (level - y) / (exact * np.exp(exact))
    np.testing.assert_allclose(
        ExpPowerYoung(1.0)._conjugate_level_inverse(y), exact, rtol=1e-11)


# -- closed-form brackets of the power-log and exp-power inverses ----------

# each inverse that starts from a guessed bracket: the function that it
# hands the solver, the method and the solver's x_max
_GUESSED = {
    "value": (lambda a: a.value, "inverse", 1e300),
    "psi": (lambda a: lambda t: a.value(t) / t, "psi_inverse", 1e300),
    "derivative": (lambda a: a.derivative, "derivative_inverse",
                   young._T_CAP),
    "level": (lambda a: a._conjugate_level, "_conjugate_level_inverse",
              young._T_CAP),
}


def _guessed_matches_the_open_solve(a, kind, y):
    # the bracketed inverse agrees with the solve from x = 1 to 2e-12,
    # reaches y, and raises InverseRangeError exactly where it does
    make, method, x_max = _GUESSED[kind]
    fn = make(a)
    try:
        free = solve_increasing(fn, y, x_max=x_max)
    except InverseRangeError:
        with pytest.raises(InverseRangeError):
            getattr(a, method)(y)
        return
    x = getattr(a, method)(y)
    # at or below 1e-300, the solver's stand-in for 0+, a solve from
    # x = 1 stops at 0 where a bracket there narrows to the root
    np.testing.assert_allclose(x, free, rtol=2e-12, atol=2.0 * young._TINY)
    root = (x > 0.0) & np.isfinite(y)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.all(fn(x[root]) >= y[root])


_SPECIAL_Y = [0.0, -1.0, np.inf]


# A negative alpha certifies A on its trusted range [1e-8, 1e8] alone:
# further out its functions may fall, and a solve from x = 1 may step
# over the root, so such an A is drawn only where each of them rises up
# to 1e40.  The targets are values at t in [1e-3, 1e8], where T A'(T) -
# A(T) also keeps its digits: below 1e-3 at p = 1 it cancels, about as
# eps / T, and its leftmost root is set by rounding (as it is for
# beta = 1 below y = 1e-6).  p starts at 1.05 above 1, where A' is not
# nearly flat for every alpha.


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.one_of(st.just(1.0), st.floats(1.05, 4.0)),
       alpha=st.floats(-3.0, 3.0),
       kind=st.sampled_from(sorted(_GUESSED)),
       log_t=st.lists(st.floats(-3.0, 8.0), min_size=1, max_size=12))
def test_power_log_guessed_brackets_match_the_open_solve(p, alpha, kind,
                                                         log_t):
    # negative alpha where a shift certifies it, alpha >= 1 at p = 1
    if p == 1.0 and alpha < 1.0:
        alpha = 2.0 - alpha
    try:
        a = PowerLogYoung(p, alpha)
    except NotConvexError:
        return
    fn = _GUESSED[kind][0](a)
    with np.errstate(over="ignore"):
        rising = fn(np.geomspace(1e-8, 1e40, 1000))
    assume(np.all(np.diff(rising) >= 0.0))
    y = fn(10.0 ** np.asarray(log_t))
    _guessed_matches_the_open_solve(a, kind, np.concatenate([y, _SPECIAL_Y]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(beta=st.one_of(st.just(1.0), st.floats(1.0, 5.0)),
       kind=st.sampled_from(["derivative", "level"]),
       log_y=st.lists(st.floats(-6.0, 300.0), min_size=1, max_size=12))
def test_exp_power_guessed_brackets_match_the_open_solve(beta, kind, log_y):
    # the slope at the clamp t^beta = 700, just past it and far past it
    # (unreachable for beta = 1, where A' is constant there)
    a = ExpPowerYoung(beta)
    clamp = float(a.derivative(700.0 ** (1.0 / beta)))
    y = np.concatenate([10.0 ** np.asarray(log_y), _SPECIAL_Y,
                        [clamp, clamp * (1.0 + 1e-9)]])
    _guessed_matches_the_open_solve(a, kind, y)
    _guessed_matches_the_open_solve(a, kind, np.array([clamp * 1e3]))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_power_log_maximizer_beyond_the_cap_still_raises(alpha):
    # at p = 1, A'(t) ~ log(t)^alpha: a slope above A'(1e250) has its
    # maximizer past the cap, with or without the guessed bracket
    a = PowerLogYoung(1.0, alpha)
    s = np.array([2.0, float(a.derivative(1e251))])
    with pytest.raises(InverseRangeError):
        a.derivative_inverse(s)
    with pytest.raises(InverseRangeError):
        LegendreConjugate(a).value(s)
    assert a.derivative_inverse(2.0) > 0.0


def _solver_rounds(monkeypatch):
    """The number of rounds of each solve_increasing call made through
    ``young``: the calls of the function that the solver receives."""
    rounds = []
    solve = young.solve_increasing

    def counted(fn, y, *args, **kwargs):
        rounds.append(0)

        def wrapped(*a):
            rounds[-1] += 1
            return fn(*a)

        return solve(wrapped, y, *args, **kwargs)

    monkeypatch.setattr(young, "solve_increasing", counted)
    return rounds


def test_exp_power_maximizer_at_beta_1_solves_in_at_most_3_rounds(
        monkeypatch):
    # at beta = 1, A'(0+) = 1: the guess states the root 0 for s <= 1,
    # where its Newton step read 0 * (-inf) as NaN, both ends opened and
    # the solve stepped from x = 1 down to 1e-300 (21 rounds); the
    # maximizer is ExpMinusOneYoung's closed form log max(s, 1)
    rounds = _solver_rounds(monkeypatch)
    s = np.geomspace(1e-3, 1e250, 512)
    x = ExpPowerYoung(1.0).derivative_inverse(s)
    assert len(rounds) == 1 and rounds[0] <= 3
    np.testing.assert_allclose(x, ExpMinusOneYoung().derivative_inverse(s),
                               rtol=1e-13, atol=0.0)


def test_exp_power_maximizer_at_beta_1_starts_at_log_s(monkeypatch):
    # at beta = 1 the Newton equation e^w + (1 - 1/beta) w = log s is
    # e^w = log s, whose root w = log log s is the start: from w = 0
    # five steps fell by at most 1 each where log s <= 1, so the bracket
    # was capped at width 1 and took 8 rounds.  Where log s < 1e-3 the
    # root's rounding can still open an end, so those s are left out
    rounds = _solver_rounds(monkeypatch)
    s = np.exp(np.linspace(0.01, 1.0, 200))
    x = ExpPowerYoung(1.0).derivative_inverse(s)
    assert len(rounds) == 1 and rounds[0] <= 2
    np.testing.assert_allclose(x, np.log(s), rtol=1e-13, atol=0.0)


def test_power_log_conjugate_solves_in_at_most_3_rounds(monkeypatch):
    # the conjugate table of the calculus benchmark: 10 rounds from x = 1
    rounds = _solver_rounds(monkeypatch)
    conj = LegendreConjugate(PowerLogYoung(2.0, 1.0))
    t = np.geomspace(1e-2, 1e4, 512)
    conj.value(t)
    conj.inverse(t)
    assert len(rounds) == 2 and max(rounds) <= 3


def test_exp_power_biconjugate_slopes_solve_in_at_most_3_rounds(monkeypatch):
    # the slopes of cli._biconjugate_values reach A'(t_max), on the clamp
    # kink, which took 53 rounds from x = 1 (40 bisecting the kink)
    from orliczpde import cli
    a = ExpPowerYoung(1.5)
    t = np.geomspace(1e-2, min(1e4, a.t_max, a.derivative(a.t_max)), 512)
    s = np.unique(a.derivative(t))
    rounds = _solver_rounds(monkeypatch)
    LegendreConjugate(a).value(s)
    assert len(rounds) == 1 and rounds[0] <= 3
    cli._biconjugate_values(a, t)
    assert len(rounds) == 2 and rounds[1] <= 3


def test_split_measure_inverts_power_logs_in_at_most_3_rounds(monkeypatch,
                                                             tmp_path):
    # verify-example aniso_zyg: the power-log inverses of _split_measure,
    # 128 levels and 128 x 49 quadrature nodes, 11 rounds each from x = 1
    from orliczpde import cli
    sizes = []
    rounds = _solver_rounds(monkeypatch)
    inverse = PowerLogYoung.inverse

    def sized(self, y):
        sizes.append(np.size(y))
        return inverse(self, y)

    monkeypatch.setattr(PowerLogYoung, "inverse", sized)
    assert cli.main(["verify-example", "aniso_zyg", "--p", "2,2",
                     "--alpha", "1,3", "--out", str(tmp_path),
                     "--quiet"]) == 0
    assert 6272 in sizes and len(rounds) >= len(sizes)
    assert max(rounds) <= 3


def test_benchmark_roots_start_from_closed_radii(monkeypatch, tmp_path):
    # the roots of these commands (two conjugates, the kinked Phi_circ
    # of 128 levels in [1, 1e20] and a power-log split's measures) all
    # start from radii that hold, so the stepping pass receives no open
    # element and each solve evaluates fn where the ends were evaluated
    # before the solver took them
    from orliczpde import cli
    opened = []
    step = young._step_ends

    def counted(fn, y, state, k, *args):
        opened.append(k)
        return step(fn, y, state, k, *args)

    monkeypatch.setattr(young, "_step_ends", counted)
    kinked = json.dumps({"n": 2, "form": "linear_combination", "terms": [
        {"coeffs": [1, 0], "kind": "power", "p": 2},
        {"coeffs": [0, 1], "kind": "power", "p": 3},
        {"coeffs": [1, 1], "kind": "power", "p": 4}]})
    cfg = tmp_path / "kinked.json"
    cfg.write_text(json.dumps({"t_lo": 1, "t_hi": 1e20, "n_levels": 128}))
    for i, argv in enumerate([
            ["conjugate", "--A", "power_log:p=2,alpha=1"],
            ["conjugate", "--A", "exp_power:beta=1.5"],
            ["phicirc", "--config", str(cfg), "--phi", kinked],
            ["verify-example", "aniso_zyg", "--p", "2,2", "--alpha", "1,3"]]):
        opened.clear()
        assert cli.main([*argv, "--out", str(tmp_path / str(i)),
                         "--quiet"]) == 0
        assert opened and not any(opened), argv


def test_solve_increasing_args_rows_follow_the_elements():
    # elements finish in different rounds; each call must still pair
    # every x with its own rows of args, for y of any shape
    rng = np.random.default_rng(5)
    p = rng.uniform(1.2, 6.0, (4, 25))
    rows = np.stack([p, -p], axis=-1)  # shape y.shape + (2,)
    y = 10.0 ** rng.uniform(-20.0, 20.0, (4, 25))
    y[0, :5] = [0.0, -1.0, np.inf, 1.0, 1e-300]
    sizes = []

    def fn(x, p, rows):
        assert x.ndim == 1 and p.shape == x.shape
        assert rows.shape == x.shape + (2,)
        np.testing.assert_array_equal(rows[:, 0], p)
        np.testing.assert_array_equal(rows[:, 1], -p)
        sizes.append(x.size)
        return x**p

    x = solve_increasing(fn, y, args=(p, rows))
    assert x.shape == y.shape
    assert x[0, 0] == 0.0 and x[0, 1] == 0.0 and x[0, 2] == np.inf
    np.testing.assert_allclose(x, np.maximum(y, 0.0) ** (1.0 / p),
                               rtol=1e-11)
    assert sizes[0] == y.size - 3 and sizes[-1] < sizes[0]


def _evaluations(fn, y, *args):
    """fn evaluations per element of one batched solve."""
    count = np.zeros(y.size, dtype=int)

    def counted(x, i, *rows):
        np.add.at(count, i, 1)
        return fn(x, *rows)

    solve_increasing(counted, y, args=(np.arange(y.size), *args))
    return count


@pytest.mark.parametrize("name", ["cube", "x2+x4"])
def test_solve_increasing_work_on_power_like_functions(name):
    # nearly straight in log-log: the secant lands next to the root; the
    # bisection solver took about 45 evaluations per element
    fn = {"cube": lambda x: x**3, "x2+x4": lambda x: x**2 + x**4}[name]
    count = _evaluations(fn, np.geomspace(1e-8, 1e30, 200))
    assert count.max() <= 10


@pytest.mark.parametrize("a", [PowerYoung(2.5), ExpMinusOneYoung()],
                         ids=["power", "expm1"])
def test_solve_increasing_scalar_target_on_a_modular(a):
    # the modular Int A(x u*) of a three-step u* reaches 1: a scalar y
    # reaches fn as shape-(1,) arrays, and rtol = 1e-12 takes a few
    # evaluations, exponential growth included
    steps = np.array([5.0, 1.0, 0.01])
    xs = []

    def modular(x):
        assert np.shape(x) == (1,)
        xs.append(float(x[0]))
        return np.sum(a.value(np.outer(x, steps)), axis=1)

    x = solve_increasing(modular, 1.0)
    assert isinstance(x, float)
    assert len(xs) <= 15
    assert modular(np.array([x]))[0] == pytest.approx(1.0, rel=1e-9)
    assert modular(np.array([x / (1.0 + 1e-9)]))[0] < 1.0


def test_solve_increasing_work_on_an_exponential_bracket():
    # exponential growth is far from straight in log-log coordinates:
    # the bracket [16384, 2**30] has log residuals -3 and +701, and
    # halving the far residual (Illinois) crept from the near end, 24
    # evaluations in all; scaling it by the Anderson-Bjorck factor
    # takes 13
    a = ExpMinusOneYoung()
    xs = []

    def fn(x):
        xs.append(float(x[0]))
        return 3.0 * a.value(1e-6 * x)

    x = solve_increasing(fn, 1.0)
    assert len(xs) <= 15
    assert fn(np.array([x]))[0] >= 1.0 > fn(np.array([x / (1.0 + 1e-10)]))[0]


@pytest.mark.parametrize("y", [1.01, 1.5, 1.99])
def test_solve_increasing_work_on_a_jump_stays_near_bisection(y):
    # a jump from 1 to 2 at s: the secant is no help, the budget of
    # bisection-paced steps bounds the work.  The bisection solver took
    # 4708 evaluations for these 97 jumps (y has no effect on it).
    s = np.geomspace(1e-6, 1e6, 97)
    count = _evaluations(lambda x, s: np.where(x < s, 1.0, 2.0),
                         np.full(s.size, y), s)
    assert count.sum() <= 1.15 * 4708


def test_solve_increasing_peak_memory():
    # the 49140-point inverse that radial.solve_radial took of Psi of t^2
    # before its closed form; the bisection solver it replaced peaked at
    # 2.9 MB on this input
    a = PowerYoung(2.0)

    def psi(t):
        return a.value(t) / t

    y = np.geomspace(1e-6, 1e6, 49140)
    solve_increasing(psi, y[:10])
    tracemalloc.start()
    try:
        x = solve_increasing(psi, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(x, y, rtol=1e-12)
    assert peak <= 4e6


@pytest.mark.parametrize("a", [PowerYoung(2.0), PowerYoung(1.5, 0.25),
                               PowerYoung(4.0, 3.0)], ids=lambda a: a.name)
def test_power_psi_inverse_is_closed_form(a, monkeypatch):
    # Psi = c t^(p-1) for A = c t^p: its inverse runs no solver and
    # matches the solver's root
    y = np.concatenate([[-1.0, 0.0], np.geomspace(1e-12, 1e12, 97), [np.inf]])
    solved = ScalarYoungFunction.psi_inverse(a, y)
    solved_2 = ScalarYoungFunction.psi_inverse(a, 2.0)
    calls = []
    monkeypatch.setattr(young, "solve_increasing",
                        lambda *args, **kwargs: calls.append(args))
    np.testing.assert_allclose(a.psi_inverse(y), solved, rtol=1e-12, atol=0.0)
    x = a.psi_inverse(2.0)  # a scalar stays a float, as from the solver
    assert isinstance(x, float)
    assert x == pytest.approx(solved_2, rel=1e-12)
    assert calls == []


@pytest.mark.parametrize("a", [PowerLogYoung(2.0, 1.0),
                               PowerLogYoung(1.5, 2.0), PowerYoung(3.0)],
                         ids=lambda a: a.name)
def test_table_psi_inverse_is_closed_form(a, monkeypatch):
    # Psi = A/t of a table is a power on each segment: its inverse runs
    # no solver and matches the solver's root, on the table [1e-3, 1e3]
    # and on both extrapolated end segments
    table = sampled(a, 1e-3, 1e3)
    t = np.geomspace(1e-6, 1e6, 241)
    y = np.concatenate([[-1.0, 0.0, np.inf], table.value(t) / t])
    solved = ScalarYoungFunction.psi_inverse(table, y)
    calls = []
    monkeypatch.setattr(young, "solve_increasing",
                        lambda *args, **kwargs: calls.append(args))
    np.testing.assert_allclose(table.psi_inverse(y), solved, rtol=2e-12,
                               atol=0.0)
    assert calls == []


def test_symmetrize_solve_of_a_table_runs_no_solver(monkeypatch, tmp_path):
    # Phi_diamond of a JSON split is a table, whose Psi^-1 in the sharp
    # bound is closed form: 14 solver rounds before
    from orliczpde import cli
    rounds = _solver_rounds(monkeypatch)
    phi = ('{"n": 2, "form": "split", "terms": [{"kind": "power", "p": 2},'
           ' {"kind": "power", "p": 4}]}')
    assert cli.main(["symmetrize-solve", "--phi", phi, "--n", "2", "--f",
                     "const:1", "--out", str(tmp_path), "--quiet"]) == 0
    assert rounds == []


@pytest.mark.parametrize("a", [
    PowerYoung(1.5), PowerYoung(3.0, 0.25), PowerLogYoung(2.0, -1.0),
    PowerLogYoung(1.5, 0.5), PowerLogYoung(3.0, 2.0, shift=math.exp(2.0)),
], ids=lambda a: a.name)
def test_stated_power_tails_match_a_far_fit(a):
    # the stated (sigma, beta) is what a fit far past every shift finds
    coef, _ = fit_power_log(a.log_value, math.log(1e20), math.log(1e40))
    np.testing.assert_allclose(coef[1:], a.tail, atol=1e-3)


@pytest.mark.parametrize("a", [
    ExpPowerYoung(1.0), ExpPowerYoung(2.0), ExpMinusOneYoung(),
    ExpMinusLinearYoung(),
], ids=lambda a: a.name)
def test_stated_exponential_tails_outgrow_every_power(a):
    assert a.tail[0] == math.inf
    # the log-log slope t A'/A keeps rising, past 100 by t = 300
    lt = np.linspace(math.log(10.0), math.log(300.0), 64)
    slope = np.gradient(a.log_value(lt), lt)
    assert np.all(np.diff(slope) > 0) and slope[-1] > 100.0


def _convex_table(log_t0, steps, slope0, rises):
    """A table whose log-log slopes start at slope0 > 1 and never fall,
    so that A' is a nondecreasing power on each segment and jumps up at
    each knot."""
    log_t = log_t0 + np.concatenate([[0.0], np.cumsum(steps)])
    slopes = slope0 + np.concatenate([[0.0], np.cumsum(rises)])
    log_v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(log_t))])
    return SampledYoungFunction(log_t, log_v)


_TABLES = dict(
    log_t0=st.floats(-6.0, 2.0),
    steps=st.lists(st.floats(0.05, 2.0), min_size=4, max_size=12),
    slope0=st.floats(1.05, 4.0),
    rises=st.lists(st.floats(0.0, 0.8), min_size=4, max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(**_TABLES, u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
# no rise: the computed slopes differ by rounding, yet A' has no jump
@example(log_t0=-4.75, steps=[0.6077452111955867, 0.125, 0.625, 1.0],
         slope0=1.05, rises=[0.0, 0.0, 0.0, 0.0], u=[0.0])
def test_sampled_derivative_inverse_matches_the_solver(log_t0, steps, slope0,
                                                       rises, u):
    n = min(len(steps), len(rises))
    a = _convex_table(log_t0, np.array(steps[:n]), slope0,
                      np.array(rises[:n - 1]))
    t = np.exp(a.log_t)
    right, left = a.derivative(t), a._slopes * a.value(t[1:]) / t[1:]
    # targets below and above the table, inside the segments and inside
    # each knot's jump (left < s <= right at t_k, whose answer is t_k)
    s = np.concatenate([right[0] * np.array([1e-3, 0.5]),
                        right[-1] * np.array([2.0, 1e3]),
                        np.exp(np.interp(u, [0.0, 1.0],
                                         np.log([right[0], right[-1]]))),
                        right[1:-1], 0.5 * (left[:-1] + right[1:-1])])
    ref = solve_increasing(a.derivative, s, x_max=1e250)
    np.testing.assert_allclose(a.derivative_inverse(s), ref, rtol=2e-12)
    # A' jumps only at the knots where the table's slope rises; the
    # floor is far above the rounding of the computed slopes
    jump = np.array(rises[:n - 1]) > 1e-9
    np.testing.assert_allclose(
        a.derivative_inverse(0.5 * (left[:-1] + right[1:-1]))[jump],
        t[1:-1][jump], rtol=1e-14)
    # the level function of the conjugate's inverse, T A'(T) - A(T)
    y = s * t[len(t) // 2]
    ref = solve_increasing(lambda T: T * a.derivative(T) - a.value(T), y,
                           x_max=1e250)
    np.testing.assert_allclose(a._conjugate_level_inverse(y), ref,
                               rtol=2e-12)


def test_sampled_derivative_inverse_edges():
    a = _convex_table(0.0, np.ones(6), 2.0, np.zeros(5))  # t^2 on [1, e^6]
    out = a.derivative_inverse(np.array([0.0, -1.0, np.inf, 2.0, 2e6]))
    np.testing.assert_allclose(out, [0.0, 0.0, np.inf, 1.0, 1e6],
                               rtol=1e-13)
    assert math.isnan(a.derivative_inverse(math.nan))
    assert isinstance(a.derivative_inverse(2.0), float)
    with pytest.raises(InverseRangeError, match="1e\\+250"):
        a.derivative_inverse(1e300)


def _table_csv_function(alpha=1.0):
    # the 1024-row table A(t) = t^2 log(e + t)^alpha of AC1
    t = np.geomspace(1e-3, 1e5, 1024)
    return SampledYoungFunction(
        np.log(t), np.log(t**2 * np.log(math.e + t) ** alpha))


def test_sampled_inverse_inverts_each_segment():
    # inside the table and past both ends, where value extrapolates
    a = _table_csv_function()
    t = np.geomspace(1e-5, 1e7, 301)
    np.testing.assert_allclose(a.inverse(a.value(t)), t, rtol=1e-13)
    assert a.inverse(0.0) == 0.0
    # a flat last segment never reaches above its top value e^6
    flat = SampledYoungFunction(np.arange(5.0), np.array([0, 2, 4, 6, 6.0]))
    assert flat.inverse(math.exp(6.0)) == pytest.approx(math.exp(3.0),
                                                         rel=1e-13)
    with pytest.raises(InverseRangeError, match="not attained"):
        flat.inverse(math.exp(6.5))


def test_tabulated_conjugate_calls_no_derivative(monkeypatch):
    a = _table_csv_function()
    calls = []
    derivative = a.derivative
    monkeypatch.setattr(a, "derivative",
                        lambda t: calls.append(1) or derivative(t))
    conj = LegendreConjugate(a)
    s = np.geomspace(1e-2, 1e4, 512)
    conj.value(s)
    assert len(calls) <= 2
    calls.clear()
    conj.inverse(s)
    assert len(calls) <= 2


def _reference_power_inverse(a, log_coef, expo, y):
    """``SampledYoungFunction._power_inverse`` as it was before its
    search arrays were kept per table: everything rebuilt on each call."""
    y = np.asarray(y, dtype=float)
    log_t = a.log_t[:-1]
    right = log_coef + expo * np.diff(a.log_t)
    if expo[-1] > 0.0 and log_coef[-1] > -np.inf:
        right[-1] = np.inf
    top = np.maximum.accumulate(np.maximum(log_coef, right))
    out = np.where(y <= 0.0, 0.0, y)
    todo = np.isfinite(y) & (y > 0.0)
    y_todo = y[todo]
    log_y = np.log(y_todo)
    k = np.searchsorted(top, log_y)
    if np.any(k == top.size):
        raise InverseRangeError(
            f"value {float(y_todo[k == top.size][0])!r} not attained")
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(expo[k] > 0.0,
                        log_t[k] + (log_y - log_coef[k]) / expo[k], -np.inf)
    t = np.exp(np.maximum(root, np.where(k > 0, log_t[k], -np.inf)))
    if np.any(t > 1e250):
        raise InverseRangeError(
            f"value {float(y_todo[t > 1e250][0])!r} not attained "
            f"below x_max={1e250:g}")
    out[todo] = t
    return float(out) if out.ndim == 0 else out


def _reference_inverses(a):
    """The three callers of the reference, with their segment powers."""
    sigma = a._slopes
    with np.errstate(divide="ignore"):
        derivative = np.log(sigma) + a.log_v[:-1] - a.log_t[:-1]
        level = np.log(np.maximum(sigma - 1.0, 0.0)) + a.log_v[:-1]
    return {
        "inverse": lambda y: _reference_power_inverse(
            a, a.log_v[:-1], sigma, y),
        "derivative_inverse": lambda y: _reference_power_inverse(
            a, derivative, sigma - 1.0, y),
        "_conjugate_level_inverse": lambda y: _reference_power_inverse(
            a, level, sigma, y),
    }


def _outcome(fn, y):
    try:
        with np.errstate(over="ignore"):
            return fn(y)
    except InverseRangeError as exc:
        return str(exc)


@pytest.mark.parametrize("table", ["t2_log", "flat_end"])
def test_sampled_inverses_keep_their_search_arrays(table):
    # the segment powers and their running maxima are built once per
    # table and kind; the answers, and the refusals, are the same bits
    a = (_table_csv_function() if table == "t2_log" else
         SampledYoungFunction(np.arange(6.0), np.array([0, 2, 4, 6, 7, 7.0])))
    t = np.exp(np.linspace(a.log_t[0] - 3.0, a.log_t[-1] + 3.0, 257))
    targets = {"inverse": a.value(t), "derivative_inverse": a.derivative(t),
               "_conjugate_level_inverse": t * a.derivative(t) - a.value(t)}
    for _ in range(2):  # the first call builds, the second reuses
        reference = _reference_inverses(a)
        for name, y in targets.items():
            probes = [y, np.concatenate([y, [0.0, -1.0, np.nan, np.inf]]),
                      float(y[100]), 2.0 * float(np.max(y)) + 1.0, 1e300]
            for probe in probes:
                got = _outcome(getattr(a, name), probe)
                want = _outcome(reference[name], probe)
                assert type(got) is type(want), (name, probe)
                if isinstance(want, str):
                    assert got == want, (name, probe)
                else:
                    assert np.array_equal(got, want, equal_nan=True), (
                        name, probe)
        a.repair_convexity()  # a new table drops the kept arrays


def _repr_csv(head, rows):
    """The reference CSV bytes: ``repr`` of each element, CRLF lines."""
    lines = [head] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "".join(line + "\r\n" for line in lines).encode()


def _count_reprs(monkeypatch):
    """A list that grows by one for each number that ``young`` formats."""
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(young, "repr", counting_repr, raising=False)
    return calls


def test_write_csv_formats_each_repeated_number_once(tmp_path, monkeypatch):
    # a solved field keeps the square's symmetries bit-exactly at most
    # nodes, so each distinct number is formatted once (the memo path)
    f = GridField.from_function(65, lambda x, y: np.ones_like(x))
    u, _ = solve(OperatorSpec(power_potential(4.0)), f)
    distinct = np.unique(u.values.view(np.int64)).size
    assert distinct <= young._MEMO_SHARE * u.values.size
    calls = _count_reprs(monkeypatch)
    u.to_csv(tmp_path / "u.csv")
    assert len(calls) == distinct < u.values.size
    assert (tmp_path / "u.csv").read_bytes() == _repr_csv(
        "# finite-difference nodal field u(x,y)", u.values)


def test_write_csv_formats_distinct_numbers_in_place(tmp_path, monkeypatch):
    # no repeats: each number is formatted where it stands, in order
    rows = np.random.default_rng(4).normal(size=(257, 257))
    calls = _count_reprs(monkeypatch)
    write_csv(tmp_path / "a.csv", "# random", rows)
    assert calls == rows.ravel().tolist()
    assert (tmp_path / "a.csv").read_bytes() == _repr_csv("# random", rows)


def test_write_csv_keeps_signed_zeros_and_special_values(tmp_path,
                                                          monkeypatch):
    # bit patterns, not float values, tell numbers apart: 0.0 and -0.0
    # stay apart, as do NaNs with other payloads; the longest float repr
    # has 24 characters
    longest = -2.2250738585072014e-308
    assert len(repr(longest)) == 24
    payload_nan = (np.array([np.nan]).view(np.int64) | 1).view(np.float64)
    special = np.array([0.0, -0.0, np.nan, -np.nan, payload_nan[0], np.inf,
                        -np.inf, 5e-324, -5e-324, 1e16, 1e-5, 1e22, 1e-4,
                        9999999999999998.0, 0.1, longest])
    noise = np.random.default_rng(5).normal(size=(64, 16))
    tables = {
        "memo": np.tile(special, (128, 1)),  # one sixteenth distinct
        "rows": np.vstack([special, noise]),  # every number distinct
    }
    for name, rows in tables.items():
        assert rows.size > young._CSV_BLOCK
        calls = _count_reprs(monkeypatch)
        write_csv(tmp_path / f"{name}.csv", "a,b", rows)
        expected = _repr_csv("a,b", rows)
        assert b"-0.0" in expected and b"nan" in expected
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name
        assert len(calls) == (special.size if name == "memo"
                              else rows.size), name


def test_a_lone_value_is_the_only_key_of_its_kind():
    # const:<c> is read by the same rule as every spec: a lone item
    # without '=' is the value of a kind with one key, and no other
    kinds = {"const": ("c",), "power": ("p", "coeff")}
    assert young.parse_spec("const:2", kinds) == ("const", {"c": 2.0})
    assert parse_scalar_function("exp_power:1.5").name == (
        parse_scalar_function("exp_power:beta=1.5").name)
    for spec in ("const:1,2", "power:2"):
        with pytest.raises(YoungFunctionError, match="not key=value"):
            young.parse_spec(spec, kinds)


def test_a_repeated_key_is_refused():
    # the last value would win silently: power:p=2,p=3 built p = 3
    with pytest.raises(YoungFunctionError, match="key 'p' is repeated"):
        parse_scalar_function("power:p=2,p=3")
