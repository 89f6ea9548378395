"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line on the terminal, and enforces its runtime budget.  Tolerances are
asserted literally; nothing here is tuned to the implementation.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from conftest import calculus_identity_errors, power_potential, write_table
from orliczpde import anisotropic, grid, radial, rearrangement, young
from orliczpde.cli import main
from orliczpde.embedding import sobolev_conjugate
from orliczpde.young import PowerYoung, parse_scalar_function

FOURIER_CENTER = 0.0736713512666702  # separable series, -Lap u = 1, N -> inf


@pytest.fixture
def report(capfd):
    @contextlib.contextmanager
    def _rep(label, budget):
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            dt = time.perf_counter() - t0
            with capfd.disabled():
                print(f"{label}: FAIL ({dt:.1f}s, budget {budget:.0f}s)",
                      flush=True)
            raise
        dt = time.perf_counter() - t0
        ok = dt <= budget
        with capfd.disabled():
            print(f"{label}: {'PASS' if ok else 'FAIL'}"
                  f" ({dt:.1f}s, budget {budget:.0f}s)", flush=True)
        assert ok, f"runtime {dt:.1f}s exceeds the {budget:.0f}s budget"
    return _rep


def _unit_f(n_nodes):
    f = grid.GridField.from_function(n_nodes,
                                     lambda x, y: np.ones_like(x))
    f.zero_boundary()
    return f


def _fit(fn, lo, hi, n=200):
    """Least-squares slope of log fn over a log-argument window."""
    lt = np.linspace(lo, hi, n)
    return float(np.polyfit(lt, np.asarray(fn.log_value(lt), float), 1)[0])


def test_ac01_conjugation_suite(report, tmp_path):
    with report("AC1 conjugation suite", 5.0):
        # analytic input without a closed-form conjugate
        code = main(["conjugate", "--A", "power_log:p=2,alpha=1",
                     "--out", str(tmp_path / "a"), "--quiet"])
        assert code == 0
        rep = json.loads(
            (tmp_path / "a" / "conjugate_report.json").read_text())
        assert rep["involution_rel_error"] <= 1e-6
        assert rep["inverse_product_lower_ok"]
        assert rep["inverse_product_upper_ok"]
        assert rep["young_inequality_violations"] == 0
        # tabulated input
        csv = tmp_path / "tab.csv"
        write_table(csv, young.PowerLogYoung(2.0, 1.0), 1e-3, 1e5, 1024)
        code = main(["conjugate", "--A", str(csv),
                     "--out", str(tmp_path / "s"), "--quiet"])
        assert code == 0
        rep = json.loads(
            (tmp_path / "s" / "conjugate_report.json").read_text())
        assert rep["involution_rel_error"] <= 1e-3
        assert rep["inverse_product_lower_ok"]
        assert rep["inverse_product_upper_ok"]
        assert rep["young_inequality_violations"] == 0


def test_ac02_calculus_identity_suite(report):
    cases = [
        ("power:p=1.5", 1e-2, 1e3),
        ("power:p=2", 1e-2, 1e3),
        ("power:p=3", 1e-2, 1e3),
        ("power_log:p=2,alpha=1", 1e-2, 1e3),
        ("power_log:p=3,alpha=-0.5", 1e-2, 1e3),
        ("exp_minus_one", 1.5, 60.0),
        ("exp_minus_linear", 1.5, 60.0),
        ("exp_power:beta=1.5", 1.5, 15.0),
    ]
    with report("AC2 calculus identity suite", 10.0):
        for spec, t_lo, t_hi in cases:
            a = parse_scalar_function(spec)
            errs = calculus_identity_errors(a, np.geomspace(t_lo, t_hi, 20))
            assert errs["i"] <= 1e-8, (spec, errs)
            assert errs["ii"] <= 1e-8, (spec, errs)
            assert errs["iii"] <= 1e-8, (spec, errs)
            assert errs["iv"] <= 1e-9, (spec, errs)
            assert errs["v_lo"] <= 1e-9, (spec, errs)
            assert errs["v_hi"] <= 1e-9, (spec, errs)


def test_ac03_radial_average_recovery(report):
    with report("AC3 radial-average recovery", 60.0):
        # split form, exponents (2, 4): fitted tail slope 8/3 within 2%
        phi = anisotropic.from_json(
            {"n": 2, "form": "split",
             "terms": [{"kind": "power", "p": 2},
                       {"kind": "power", "p": 4}]})
        circ = anisotropic.phi_circ(phi, t_lo=1e-2, t_hi=1e8,
                                    n_levels=128)
        m = (circ.log_t >= math.log(1e2)) & (circ.log_t <= math.log(1e6))
        slope = float(np.polyfit(circ.log_t[m], circ.log_v[m], 1)[0])
        assert abs(slope - 8.0 / 3.0) <= 0.02 * (8.0 / 3.0)
        # a non-power term on the star path: the rows (1, 0), (0, 1),
        # (1, 0) with terms A = t^2 log(e + t), t^3 and A give
        # 2 A(|x|) + |y|^3, whose sublevel set at t is that of the
        # split (A, t^3 / 2) at t / 2
        a = young.PowerLogYoung(2.0, 1.0)
        pair = anisotropic.LinearCombinationPhi(
            2, [([1.0, 0.0], a), ([0.0, 1.0], PowerYoung(3)),
                ([1.0, 0.0], a)])
        rec = anisotropic.phi_circ(pair, t_lo=1e-2, t_hi=1e6, n_levels=64)
        assert rec.convergence["unconverged"] == 0
        split = anisotropic.SplitPhi([a, PowerYoung(3, 0.5)])
        levels = np.exp(rec.log_v)
        exact = anisotropic.sublevel_measure(split, levels / 2.0)
        star = anisotropic.unit_ball_volume(2) * np.exp(rec.log_t) ** 2
        rel = np.max(np.abs(star - exact) / exact)
        assert rel <= 1e-4


def test_ac04_conjugate_exponents(report):
    with report("AC4 embedding exponents", 30.0):
        for p, n in [(1.5, 2), (2.0, 3), (3.0, 4)]:
            prof = sobolev_conjugate(PowerYoung(p), n, log_t_hi=500.0,
                                     n_points=8192)
            s_top = float(prof.H.log_value(np.array([499.0]))[0])
            npr = n / (n - 1.0)
            phi_sl = _fit(prof.phi_n, 0.35 * s_top, 0.85 * s_top)
            th_sl = _fit(prof.vartheta_n, 0.35 * s_top * npr,
                         0.85 * s_top * npr)
            lt = np.linspace(0.05 * s_top * npr, 0.95 * s_top * npr, 400)
            lv = np.asarray(prof.varrho_n.log_value(lt), float)
            sel = (lv >= 0.3 * np.max(lv)) & (lv <= 0.7 * np.max(lv))
            rho_sl = float(np.polyfit(lt[sel], lv[sel], 1)[0])
            tgt_phi = n * p / (n - p)
            tgt_th = n * (p - 1.0) / (n - p)
            tgt_rho = n * (p - 1.0) / (p * (n - 1.0))
            assert abs(phi_sl - tgt_phi) <= 0.02 * tgt_phi, (p, n)
            assert abs(th_sl - tgt_th) <= 0.02 * tgt_th, (p, n)
            assert abs(rho_sl - tgt_rho) <= 0.02 * tgt_rho, (p, n)
        # borderline p = n = 2: squared-exponential growth after the
        # near-zero modification, log phi_n(t)/t^2 stabilizes
        prof = sobolev_conjugate(PowerYoung(2.0), 2, log_t_hi=1000.0,
                                 n_points=8192)
        assert prof.modification.applied
        s_top = float(prof.H.log_value(np.array([999.0]))[0])
        lt = np.linspace(s_top - math.log(10.0), s_top, 300)
        ratio = np.asarray(prof.phi_n.log_value(lt), float) / np.exp(lt)**2
        assert np.max(np.abs(ratio / np.mean(ratio) - 1.0)) <= 0.10


def test_ac05_radial_solver_oracle(report):
    with report("AC5 radial solver oracle", 5.0):
        disk = rearrangement.RearrangedFunction([0.0, math.pi], [1.0])
        for p in (1.5, 2.0, 3.0):
            def psi_inv(s, p=p):
                return np.maximum(np.asarray(s, float), 0.0) ** (
                    1.0 / (p - 1.0))
            sol = radial.solve_radial(psi_inv, disk, 2)
            gam = 1.0 / (p - 1.0)
            v_ref = 0.5**gam * (1.0 - sol.r**(gam + 1.0)) / (gam + 1.0)
            assert np.max(np.abs(sol.v - v_ref)) <= 1e-6


def test_ac06_grid_oracle(report):
    with report("AC6 grid oracle", 60.0):
        f = _unit_f(129)
        u, info = grid.solve(grid.OperatorSpec(power_potential(2.0)), f)
        assert u.values[64, 64] == pytest.approx(FOURIER_CENTER,
                                                 abs=2e-4)
        energies = np.asarray(info["energies"])
        assert np.all(np.diff(energies) <= 1e-12 *
                      (1.0 + np.abs(energies[:-1])))


def test_ac07_comparison_principle(report):
    with report("AC7 comparison principle", 300.0):
        s = np.linspace(0.05, 0.95, 181)  # |Omega| = 1
        for p in (2.0, 3.0):
            # v* of the radial solution with f = 1 on the disk of area 1,
            # in AC5's closed form: v*(pi r^2) = v(r)
            gam, radius = 1.0 / (p - 1.0), 1.0 / math.sqrt(math.pi)

            def v_star(s, gam=gam, radius=radius):
                r = np.sqrt(s / math.pi)
                return 0.5**gam * (radius ** (gam + 1.0)
                                   - r ** (gam + 1.0)) / (gam + 1.0)
            margins = {}
            for n_nodes in (65, 129):
                f = _unit_f(n_nodes)
                u, _ = grid.solve(grid.OperatorSpec(power_potential(p)), f)
                vals = np.abs(u.values[:-1, :-1]).ravel()
                u_star = rearrangement.RearrangedFunction.from_samples(
                    vals, u.h**2)
                margins[n_nodes] = float(np.max(u_star(s) / v_star(s)))
            assert margins[129] <= 1.05, (p, margins)
            assert margins[129] <= margins[65], (p, margins)


def test_ac08_a_priori_bounds(report, tmp_path):
    with report("AC8 a-priori bounds", 300.0):
        # truncation energy bound on a 20-point ladder, each solved case
        for args in (["--p", "2"], ["--p", "3"]):
            code = main(["grid-solve", "--N", "65", "--f", "const:1",
                         *args, "--out",
                         str(tmp_path / f"g{args[-1]}"), "--quiet"])
            assert code == 0
            rep = json.loads((tmp_path / f"g{args[-1]}" /
                              "grid_solve_report.json").read_text())
            assert rep["truncation_energy"]["passes"]
            assert len(rep["truncation_energy"]["ladder"]) == 20
        # gradient L1 bound with constant 2 om_n^{-1/n} |Om|^{1/n} ||f||_1
        f = _unit_f(65)
        u, _ = grid.solve(grid.OperatorSpec(power_potential(2.0)), f)
        gx, gy = grid.cell_gradients(u.values, u.h)
        theta = np.hypot(gx, gy).ravel()  # gauge map is identity here
        out = radial.gradient_l1_bound(theta,
                                       np.full(theta.size, u.h**2),
                                       1.0, f.l1(), 2)
        assert out["passes"]
        assert out["bound"] == pytest.approx(
            2.0 * math.pi**-0.5 * f.l1(), rel=1e-12)
        # level-set bounds with calibrated constants, stable in N
        reps = {}
        for n_nodes in (65, 129):
            code = main(["regularity-report", "--N", str(n_nodes),
                         "--p", "2", "--f", "const:1",
                         "--out", str(tmp_path / f"r{n_nodes}"),
                         "--quiet"])
            assert code == 0
            reps[n_nodes] = json.loads(
                (tmp_path / f"r{n_nodes}" /
                 "regularity_report.json").read_text())
            assert reps[n_nodes]["level_set_u_holds"]
            assert reps[n_nodes]["level_set_grad_holds"]
        assert abs(reps[129]["kappa2"] / reps[65]["kappa2"] - 1.0) <= 0.2
        assert abs(reps[129]["c1"] / reps[65]["c1"] - 1.0) <= 0.2


def test_ac09_approximable_solutions(report):
    with report("AC9 approximable solutions", 600.0):
        # integrable singular datum, consecutive truncation heights:
        # the measure of {|u_k - u_{k+1}| > 1e-3} falls below 1e-3
        n_nodes = 65
        h = 1.0 / (n_nodes - 1)

        def fvals(x, y):
            r = np.hypot(x - 0.5, y - 0.5)
            return np.maximum(r, h / 2.0) ** -1.5

        f = grid.GridField.from_function(n_nodes, fvals)
        f.zero_boundary()
        spec = grid.OperatorSpec(power_potential(2.0))
        ladder = [4.0, 5.0, 16.0, 17.0, 64.0, 65.0,
                  256.0, 257.0, 1024.0, 1025.0]
        _fields, rows = grid.approximable_sequence(spec, f, ladder)
        devs = [rows[i]["deviation_measure"] for i in (1, 3, 5, 7, 9)]
        assert all(b <= a + 1e-15 for a, b in zip(devs, devs[1:])), devs
        assert devs[-1] <= 1e-3, devs
        # point mass: fundamental-solution slope on the diagonal
        u, _ = grid.solve(spec, grid.point_mass_field(129, mass=1.0))
        idx = np.arange(129)
        diag = u.values[idx, idx]
        r = np.abs(idx / 128.0 - 0.5) * math.sqrt(2.0)
        sel = (r >= 0.05) & (r <= 0.2)
        slope = float(np.polyfit(np.log(r[sel]), diag[sel], 1)[0])
        target = -1.0 / (2.0 * math.pi)
        assert abs(slope / target - 1.0) <= 0.10
        # the weak-type quasinorm against the borderline growth is finite
        vals = np.abs(u.values[:-1, :-1]).ravel()
        rf = rearrangement.RearrangedFunction.from_samples(vals, u.h**2)
        prof = sobolev_conjugate(PowerYoung(2.0), 2, log_t_hi=1000.0,
                                 n_points=8192)
        q = rearrangement.marcinkiewicz_quasinorm(rf, prof.vartheta_n)
        assert math.isfinite(q) and q > 0.0


def test_ac10_examples_catalog(report, tmp_path):
    cases = [
        (["plap", "--p", "2", "--n", "3"], "subcritical"),
        (["iso_zyg", "--p", "2", "--alpha", "1", "--n", "3"],
         "subcritical"),
        (["aniso_plap", "--p", "2,4"], "bounded"),
        (["aniso_zyg", "--p", "2,2", "--alpha", "1,3"], "bounded"),
        (["aniso_trud", "--p", "2", "--q", "1.5", "--alpha", "1"],
         "subcritical"),
        (["aniso_trud", "--p", "2", "--q", "2", "--alpha", "1"], "exp"),
        (["aniso_trud", "--p", "2", "--q", "2", "--alpha", "2"],
         "double_exp"),
        (["aniso_trud", "--p", "2", "--q", "2", "--alpha", "3"],
         "bounded"),
        (["aniso_new", "--p", "2", "--beta", "1.5"], "bounded"),
    ]
    with report("AC10 examples catalog", 300.0):
        for i, (args, regime) in enumerate(cases):
            out = tmp_path / f"case{i}"
            code = main(["verify-example", *args, "--out", str(out),
                         "--quiet"])
            assert code == 0, args
            rep = json.loads(
                (out / "verify_example_report.json").read_text())
            assert rep["passes"], (args, rep["checks"])
            assert rep["regime"] == regime, (args, rep["regime"])
