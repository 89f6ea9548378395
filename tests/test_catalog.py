"""Example-family records, expected exponents, and the verifier."""

import pytest

from orliczpde.catalog import (
    EXAMPLE_IDS,
    expected_regularity,
    make_record,
    verify_asymptotics,
)
from orliczpde.catalog import _regime
from orliczpde.young import YoungFunctionError


def test_example_ids():
    assert set(EXAMPLE_IDS) == {"plap", "iso_zyg", "aniso_plap", "aniso_zyg",
                                "aniso_trud", "aniso_new"}


def test_regime_split():
    assert _regime(1.5, 0.0, 2) == "subcritical"
    assert _regime(2.0, 0.0, 2) == "exp"
    assert _regime(2.0, 1.0, 2) == "double_exp"
    assert _regime(2.0, 1.5, 2) == "bounded"
    assert _regime(3.0, 0.0, 2) == "bounded"
    assert _regime(3.0, 0.0, 4) == "subcritical"


def test_harmonic_mean_and_log_average():
    rec = make_record("aniso_plap", p=(2.0, 4.0))
    assert rec.pbar == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert rec.abar == 0.0
    rec = make_record("aniso_zyg", p=(2.0, 2.0), alpha=(1.0, 3.0))
    assert rec.pbar == pytest.approx(2.0, rel=1e-12)
    assert rec.abar == pytest.approx(2.0, rel=1e-12)
    rec = make_record("iso_zyg", p=2.0, alpha=0.5, n=2)
    assert rec.pbar == pytest.approx(2.0) and rec.abar == pytest.approx(0.5)
    rec = make_record("aniso_trud", p=2.0, q=2.0, alpha=3.0)
    assert rec.pbar == pytest.approx(2.0) and rec.abar == pytest.approx(1.5)
    rec = make_record("aniso_new", p=1.5, beta=2.0)
    assert rec.pbar == pytest.approx(3.0)
    assert rec.abar == pytest.approx(-0.75)


def test_validation_errors():
    with pytest.raises(YoungFunctionError):
        make_record("mystery", p=2)
    with pytest.raises(YoungFunctionError):
        make_record("plap", p=1.0, n=2)
    with pytest.raises(YoungFunctionError):
        make_record("aniso_plap", p=(2.0, 1.0))
    with pytest.raises(YoungFunctionError):
        make_record("aniso_zyg", p=(1.0, 2.0), alpha=(0.0, 1.0))
    with pytest.raises(YoungFunctionError):
        make_record("aniso_trud", p=2.0, q=0.5, alpha=1.0)
    with pytest.raises(YoungFunctionError):
        make_record("aniso_new", p=2.0, beta=1.0)
    with pytest.raises(YoungFunctionError):
        make_record("iso_zyg", p=1.0, alpha=0.0, n=2)
    with pytest.raises(YoungFunctionError):
        make_record("aniso_trud", p=2.0, q=2.0, alpha=0.0)


@pytest.mark.parametrize("example_id, params", [
    ("aniso_trud", {"p": 2.0, "q": 3.0, "alpha": 1.0}),
    ("aniso_new", {"p": 2.0, "beta": 1.5}),
])
def test_planar_families_take_n_2_alone(example_id, params):
    # an n of 3 was dropped and the n = 2 record built
    assert make_record(example_id, **params, n="2").n == 2
    for n in (3, "1"):
        with pytest.raises(YoungFunctionError,
                           match=f"{example_id} is planar: .* not n = {n}"):
            make_record(example_id, **params, n=n)


@pytest.mark.parametrize("example_id, params", [
    ("aniso_zyg", {"p": (2.0, 1.0), "alpha": (1.0, 0.5)}),
    ("aniso_trud", {"p": 2.0, "q": 1.5, "alpha": 1.0}),
])
def test_phi_terms_are_the_components(example_id, params):
    # Phi is assembled from the very objects A_i of the components, so
    # each term is built and certified convex once
    rec = make_record(example_id, **params)
    comps = [a for *_, a in rec.components]
    assert len(rec.phi.terms) == len(comps)
    assert {id(a) for a in rec.phi.terms} == {id(a) for a in comps}


def test_expected_regularity_subcritical_oracle():
    out = expected_regularity(make_record("plap", p=1.5, n=2))
    assert out["regime"] == "subcritical"
    assert out["u"]["vartheta_power"] == pytest.approx(2.0)
    assert out["u"]["vartheta_log"] == pytest.approx(0.0)
    g = out["gradients"][0]
    assert g["power"] == pytest.approx(1.0)   # p n(pbar-1)/((n-1) pbar)
    assert g["log"] == pytest.approx(0.0)


def test_expected_regularity_exp_oracle():
    out = expected_regularity(make_record("iso_zyg", p=2.0, alpha=0.5, n=2))
    assert out["regime"] == "exp"
    assert out["u"]["exp_index"] == pytest.approx(2.0)  # (n-1)/(n-1-abar)
    g = out["gradients"][0]
    assert g["power"] == pytest.approx(2.0)
    assert g["log"] == pytest.approx(0.0)  # (alpha(n-1)+abar)/(n-1) - 1


def test_expected_regularity_double_exp_oracle():
    out = expected_regularity(
        make_record("aniso_zyg", p=(2.0, 2.0), alpha=(0.5, 1.5)))
    assert out["regime"] == "double_exp"
    assert out["u"]["double_exp_power"] == pytest.approx(2.0)
    assert out["gradients"][0]["log"] == pytest.approx(0.5)
    assert out["gradients"][1]["log"] == pytest.approx(1.5)
    assert out["gradients"][0]["loglog"] == -1.0


def test_expected_regularity_bounded():
    out = expected_regularity(make_record("aniso_trud", p=2.0, q=2.0,
                                          alpha=3.0))
    assert out["regime"] == "bounded"
    assert out["dichotomy"] == "convergent"
    assert out["u"]["space"] == "L^infinity"


def test_log_free_case_matches_pure_power():
    a = expected_regularity(make_record("plap", p=1.8, n=3))
    b = expected_regularity(make_record("iso_zyg", p=1.8, alpha=0.0, n=3))
    assert a["u"] == b["u"]
    assert a["gradients"][0]["power"] == b["gradients"][0]["power"]


def test_verifier_passes_fast_cases():
    for rec in (make_record("plap", p=1.5, n=2),
                make_record("aniso_plap", p=(2.0, 4.0))):
        report = verify_asymptotics(rec)
        assert report["passes"], report["checks"]
        assert report["regime"] == report["expected"]["regime"]
