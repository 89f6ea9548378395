"""Decreasing rearrangements, quasinorms, admissibility, boundedness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczpde import radial, rearrangement
from orliczpde.anisotropic import gauss_legendre
from orliczpde.rearrangement import (
    Datum,
    PowerProfile,
    RearrangedFunction,
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
    # u**(|Omega|) |Omega| is the L^1 norm of the field
    assert rf.maximal_eval(2.0) * 2.0 == pytest.approx(0.01 * v.sum(),
                                                       rel=1e-12)


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
    # f*(s) = s^-1/2 on (0, 1] in closed form: mass 2, f** = 2 f*, and
    # past |Omega| the mass spread over s
    rf = Datum("pow:a=0.5").rearranged(1.0)
    assert isinstance(rf, PowerProfile)
    s = np.array([1e-12, 0.25, 1.0, 4.0])
    assert rf.maximal_eval(s) == pytest.approx([2e6, 4.0, 2.0, 0.5],
                                               rel=1e-15)
    assert rf(s) == pytest.approx([1e6, 2.0, 0.0, 0.0], rel=1e-15)
    assert rf.breakpoints.tolist() == [0.0, 1.0]
    # s^{1/n} f**(s) keeps its limit at s = 0: 0, c / (1 - a) or inf
    for n, limit in ((1, 0.0), (2, 2.0), (3, math.inf)):
        assert rf.weighted_maximal(np.array([0.0]), n)[0] == limit


def test_repeated_key_is_refused():
    with pytest.raises(YoungFunctionError, match="key 'a' is repeated"):
        Datum("pow:a=0.2,a=0.9")


def test_grid_datum_refuses_a_non_integral_size():
    with pytest.raises(YoungFunctionError, match="N = 17.9"):
        Datum("const:1").field(17.9)
    assert Datum("const:1").field(17.0).n_nodes == 17


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
    def total(fn):
        return improper_integral(fn, [0.0, 1.0])[1][0]

    assert total(lambda s: s ** -0.5) == pytest.approx(2.0, rel=1e-12)
    assert total(lambda s: s ** -0.99) == pytest.approx(100.0, rel=1e-12)
    assert math.isinf(total(lambda s: 1.0 / s))


def test_gauss_kronrod_rule_is_exact_to_its_degree():
    # K15 is exact to degree 22, the nested G7 to degree 13 on the
    # Gauss-Legendre nodes
    x, wk, wg = (rearrangement._GK_NODES, rearrangement._GK_WEIGHTS,
                 rearrangement._G7_WEIGHTS)
    xg, _ = gauss_legendre(7)
    np.testing.assert_allclose(x[1::2], np.sort(xg), atol=1e-15)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert wk @ x**k == pytest.approx(exact, abs=1e-15)
        if k <= 13:
            assert wg @ x[1::2] ** k == pytest.approx(exact, abs=1e-15)


def _loop(fn, ends):
    """Reference: 15-point Kronrod one panel at a time over the positive
    ``ends``, then summed from the top in order, with the head closed as
    the quadrature closes it."""
    x, w = rearrangement._GK_NODES, rearrangement._GK_WEIGHTS
    panels = [0.5 * (b - a) * float(np.sum(
        w * fn(0.5 * (a + b) + 0.5 * (b - a) * x)))
        for a, b in zip(ends[:-1], ends[1:])]
    tail = np.cumsum(panels[::-1])[::-1]
    total, prev, last = (float(tail[0]), float(np.sum(panels[4:8])),
                         float(np.sum(panels[:4])))
    head = total
    if not math.isfinite(total):
        head = math.inf
    elif last > 0.0 and prev > 0.0 and last / prev < 0.999:
        q = last / prev
        head = total + last * q / (1.0 - q)
    elif last > 0.0 and prev > 0.0 and last > 1e-12 * total:
        head = math.inf
    return [head, *tail.tolist(), 0.0]


def test_improper_integral_matches_panel_loop_in_one_call():
    # the vectorized quadrature does the arithmetic of a per-panel loop,
    # bit for bit, in one call of fn on the nodes of every panel; the
    # ends are the 57 quarter decades from 1e-14 |Omega| and the
    # breakpoints
    calls = []

    def fn(s):
        calls.append(np.size(s))
        return np.log1p(1.0 / s)

    s, integral, _ = improper_integral(fn, [0.0, 1e-3, 0.7, 2.0])
    assert calls == [15 * (s.size - 2)]
    assert s[0] == 0.0 and s[1] == pytest.approx(2e-14, rel=1e-15)
    assert s.size == 1 + 57 + 2 and {1e-3, 0.7, 2.0} <= set(s.tolist())
    assert integral.tolist() == _loop(fn, s[1:])


def _integrands(s):
    """Five integrands stacked as rows: convergent at 0, divergent at 0,
    identically 0, smooth and a constant."""
    return np.stack([s**-0.5, 1.0 / s, np.zeros_like(s), np.log1p(1.0 / s),
                     np.full_like(s, 3.0)])


@pytest.mark.parametrize("a", [0.0, 1e-3])
def test_improper_integral_of_stacked_integrands_is_each_row(a):
    # a is a breakpoint (0.0: none).  One call of the stack: each row
    # equals its own integral bit for bit, the divergent one math.inf
    calls = []

    def stacked(s):
        calls.append(np.shape(s))
        return _integrands(s)

    ends = [0.0, a, 2.0] if a else [0.0, 2.0]
    s, rows, err = improper_integral(stacked, ends)
    assert len(calls) == 1
    single = [improper_integral(lambda s, k=k: _integrands(s)[k], ends)
              for k in range(5)]
    assert rows.tolist() == [out[1].tolist() for out in single]
    assert err.tolist() == [out[2] for out in single]
    assert math.isinf(rows[1, 0]) and rows[2].tolist() == [0.0] * s.size
    assert rows[4, 0] == pytest.approx(6.0, rel=1e-15)
    # leading axes of any shape stack the same way
    square = improper_integral(
        lambda s: _integrands(s)[[[0, 1], [2, 3]]], ends)[1]
    assert square.tolist() == [rows[:2].tolist(), rows[2:4].tolist()]


def test_boundedness_criterion_disk_oracle():
    # Phi_diamond = t^2 (PsiInv = identity), f = 1 on the unit disk:
    # B = (2 sqrt(pi))^{-2} * pi = 1/4, the radial center value
    rf = RearrangedFunction([0.0, math.pi], [1.0])
    B = radial.solve_radial(lambda x: x, rf, 2).v[0]
    assert B == pytest.approx(0.25, rel=1e-6)
    # p = 3: PsiInv(x) = sqrt(x); closed form (1/2)^{1/2} / (3/2)
    B3 = radial.solve_radial(np.sqrt, rf, 2).v[0]
    assert B3 == pytest.approx(math.sqrt(0.5) / 1.5, rel=1e-4)


def test_boundedness_zero_data():
    rf = RearrangedFunction([0.0, 1.0], [0.0])
    assert radial.solve_radial(lambda x: x, rf, 2).v[0] == 0.0


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
    # the 8 lam of the ladder take one integrand call in all, and each
    # modular is the one that a per-panel loop gives, bit for bit
    f_rf = Datum(f"pow:a={a}").rearranged(1.0)
    conj = _CountedConjugate(ExpMinusOneYoung())
    out = data_admissibility(f_rf, conj, 2)
    assert [shape[0] for shape in conj.calls] == [8]
    s = improper_integral(lambda s: s, f_rf.breakpoints)[0]
    expected = []
    for lam in np.geomspace(1e2, 1e-2, 8):
        with np.errstate(over="ignore", invalid="ignore"):
            m = _loop(lambda s, lam=lam: conj.conj.value(
                f_rf.weighted_maximal(s, 2) / lam), s[1:])[0]
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
