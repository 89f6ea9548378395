"""Command-line front door.

One command per call, and ``main`` builds the parser of that command
alone (all nine when its first argument names none, as ``--help``).
Artifacts are CSV tables and UTF-8 JSON reports written under
``--out``.  Every table goes through one writer, ``young.write_csv``
(RFC 4180 CRLF lines, '.' decimal, each number as its ``repr``, a
repeated number formatted once); a handler passes it the
``np.column_stack`` of its columns.  Reports
are strict JSON: a number that is not finite is null, beside the
verdict that says why.
Exit codes: 0 success, 2 when a mathematical invariant check fails on
the given data (verdict failure), 1 on operational errors (bad config,
unknown command, propagated module errors); operational errors other
than argparse's usage errors also leave a machine-readable
``error.json``, which for a grid solve that did not converge
(``grid.SolveError``) holds the solve's info dict.

Each command's config keys, flags and defaults are one table,
``CONFIG_KEYS``; a handler reads the config that ``_merge_config``
filled in from it, flags over the ``--config`` document over defaults.
Every Phi-valued key is read by one reader, ``_phi``, and a command
takes the stage it needs, Phi_circ or Phi_diamond, from
:mod:`anisotropic`.

Determinism: the sphere rules and the grid solver are deterministic
and no command draws a random number (``--seed`` is accepted and
unused), so a command repeated on the same machine and BLAS thread
count reproduces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import anisotropic, catalog, grid, radial, rearrangement, young
from .embedding import (
    classify_integral,
    growth_conditions,
    hat_phi_circ,
    sobolev_conjugate,
    tail_exponents,
)

EXIT_OK, EXIT_OPERATIONAL, EXIT_VERDICT = 0, 1, 2


class ConfigError(ValueError):
    """A required parameter is given neither as a flag nor in --config,
    or --config holds a key that the command does not read."""


class VerdictFailure(Exception):
    """A mathematical bound failed on this data (tool worked fine)."""


# ---------------------------------------------------------------------
# plumbing


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _finite_or_null(obj):
    """``obj`` with each number that is not finite written None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_finite_or_null(val) for val in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


def _dumps(doc, **kw):
    """Strict JSON, rewritten only when it holds a non-finite number."""
    try:
        return json.dumps(doc, default=_jsonify, allow_nan=False, **kw)
    except ValueError:
        return json.dumps(_finite_or_null(doc), default=_jsonify,
                          allow_nan=False, **kw)


def _write_json(path, doc):
    path.write_text(_dumps(doc, indent=2) + "\n", encoding="utf-8")


def _measure(text):
    """The domain measure ``--omega``: a finite number > 0, or 'pi', from
    a number or a string."""
    omega = math.nan
    if type(text) in (str, int, float):  # nor a bool
        with contextlib.suppress(ValueError):
            omega = math.pi if str(text).strip() == "pi" else float(text)
    if not 0.0 < omega < math.inf:
        raise ConfigError(f"--omega must be a finite number > 0 or 'pi', "
                          f"not {text!r}")
    return omega


def _dimension(cfg):
    """The dimension ``--n`` of a command on R^n, an integer >= 2."""
    if cfg["n"] < 2:
        raise ConfigError(f"--n must be a dimension >= 2, not {cfg['n']}")
    return cfg["n"]


def _read_json(text, source):
    """``text`` as JSON; text that is not, or a number that is not
    finite, raises :class:`ConfigError` naming ``source``."""
    def finite(token):
        val = float(token)
        if not math.isfinite(val):
            raise ConfigError(f"{source} holds {token}, not a finite number")
        return val

    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not JSON: {exc}") from None


def _phi(cfg, key, n):
    """The Phi of ``key`` in the one grammar of every command: a JSON
    object (JSON text, a .json path or a --config value) is a Phi on R^n
    (:func:`anisotropic.from_json`), on R^``n`` unless ``n`` is None,
    or with a "kind" a scalar term; a .csv path is a table; anything
    else is a scalar spec (:func:`young.parse_scalar_function`)."""
    spec, flag = cfg[key], "--" + key.replace("_", "-")
    if isinstance(spec, str) and spec.endswith(".csv"):
        return young.SampledYoungFunction.from_csv(spec)
    if isinstance(spec, str) and spec.endswith(".json"):
        spec = _read_json(Path(spec).read_text(encoding="utf-8"),
                          f"{flag} {spec}")
    elif isinstance(spec, str) and spec.lstrip().startswith("{"):
        spec = _read_json(spec, flag)
    if not isinstance(spec, dict) or "kind" in spec:
        return young.parse_scalar_function(spec)
    phi = anisotropic.from_json(spec)
    if n is not None and phi.n != n:
        raise ConfigError(f"{flag} is a Phi on R^{phi.n}, but --n is {n}")
    return phi


# ---------------------------------------------------------------------
# subcommands


def _biconjugate_values(a, t):
    """sup_s (ts - conj(s)) on sorted t, from the conjugate tabulated
    once on its own grid, the slopes s = A'(t).

    The transform back is a discrete Legendre transform of that table
    and never evaluates A'.  The maximizer for t_i is in the grid, so a
    convex A with its true derivative is reproduced up to rounding, and
    the sup exceeds A(t_i) only when a tangent line of A from the table
    lies above A at t_i: A is not convex, or A' is not its derivative.
    """
    s = np.unique(a.derivative(t))
    return young.discrete_legendre(s, young.LegendreConjugate(a).value(s), t)


def cmd_conjugate(cfg, out):
    a = _phi(cfg, "A", None)
    if isinstance(a, anisotropic.AnisotropicYoungFunction):
        raise ConfigError(f"--A is a Phi on R^{a.n}, not a scalar function")
    # the table stays inside A's trusted range, where exponential growth
    # is not yet clamped, and so do the conjugate's maximizers A'^{-1}(t)
    t = np.geomspace(1e-2, min(1e4, a.t_max, a.derivative(a.t_max)), 512)
    conj = young.LegendreConjugate(a)
    conj_vals = conj.value(t)
    young.write_csv(out / "conjugate_table.csv", "t,A,conjugate",
                    np.column_stack([t, a.value(t), conj_vals]))
    # involution: conjugating twice returns the original
    rel = np.max(np.abs(_biconjugate_values(a, t) - a.value(t))
                 / np.maximum(a.value(t), 1e-300))
    inv_tol = 1e-3 if isinstance(a, young.SampledYoungFunction) else 1e-6
    # two-sided inverse-product inequality t <= A^{-1} conj^{-1} <= 2t
    prod = a.inverse(t) * conj.inverse(t)
    lower_ok = bool(np.all(prod >= t * (1.0 - 1e-9)))
    upper_ok = bool(np.all(prod <= 2.0 * t * (1.0 + 1e-9)))
    # Young's inequality on a product grid
    s = np.geomspace(1e-2, 1e4, 100)
    lhs = s[:, None] * t[None, :100]
    rhs = a.value(s)[:, None] + conj_vals[None, :100]
    young_viol = int(np.sum(lhs > rhs * (1.0 + 1e-12)))
    d2, n2, tail = growth_conditions(a)
    report = {
        "function": a.name,
        "involution_rel_error": float(rel),
        "involution_tolerance": inv_tol,
        "inverse_product_lower_ok": lower_ok,
        "inverse_product_upper_ok": upper_ok,
        "young_inequality_violations": young_viol,
        "delta2": {"verdict": d2, "witness": tail},
        "nabla2": {"verdict": n2, "witness": tail},
    }
    report["passes"] = (rel <= inv_tol and lower_ok and upper_ok
                        and young_viol == 0)
    _write_json(out / "conjugate_report.json", report)
    if not report["passes"]:
        raise VerdictFailure("conjugation invariants failed")
    return report


def cmd_phicirc(cfg, out):
    phi = _phi(cfg, "phi", None)
    if not isinstance(phi, anisotropic.AnisotropicYoungFunction):
        raise ConfigError(f"--phi is the scalar {phi.name}, not a Phi on R^n")
    circ = anisotropic.phi_circ(phi, t_lo=cfg["t_lo"], t_hi=cfg["t_hi"],
                                n_levels=cfg["n_levels"])
    circ.to_csv(out / "phi_circ.csv")
    sigma, beta, spread = tail_exponents(circ)
    report = {"n": phi.n, "form": phi.form,
              "tail_fit": {"power": sigma, "log": beta,
                           "fit_spread": spread},
              "convergence": getattr(circ, "convergence", None)}
    _write_json(out / "phicirc_report.json", report)
    return report


def cmd_embedding(cfg, out):
    n = _dimension(cfg)
    circ = anisotropic.phi_circ(_phi(cfg, "phi_circ", n))
    verdict, diag = classify_integral(circ, n)
    report = {"n": n, "dichotomy": verdict, "diagnostics": diag}
    if verdict == "convergent":
        report["conclusion"] = ("tail integral converges: bounded weak "
                                "solution for every integrable datum")
    else:
        prof = sobolev_conjugate(circ, n)
        t = np.geomspace(1e-2, 1e6, 512)
        tab = prof.to_table(t)
        hat = np.exp(np.minimum(hat_phi_circ(prof).log_value(np.log(t)),
                                700.0))
        young.write_csv(out / "embedding_table.csv",
                        "t,H,phi_n,hat_phi_circ,vartheta_n,varrho_n",
                        np.column_stack([t, tab["H"], tab["phi_n"], hat,
                                         tab["vartheta_n"], tab["varrho_n"]]))
        report["modification"] = vars(prof.modification)
    _write_json(out / "embedding_report.json", report)
    return report


def cmd_symmetrize_solve(cfg, out):
    n = _dimension(cfg)
    a = anisotropic.phi_diamond(_phi(cfg, "phi", n))
    omega = _measure(cfg["omega"])
    f_rf = rearrangement.Datum(cfg["f"]).rearranged(omega)
    sol = radial.solve_radial(a.psi_inverse, f_rf, n)
    sol.to_csv(out / "radial_solution.csv")
    # the sharp bound is the centre of the radial solution
    center = float(sol.v[0])
    report = {"n": n, "domain_measure": omega, "radius": sol.radius,
              "center_value": center, "boundedness_criterion": center,
              "bounded": math.isfinite(center),
              "convergence": sol.convergence}
    _write_json(out / "symmetrize_solve_report.json", report)
    return report


def _grid_problem(cfg):
    """The operator and the datum field of grid-solve, approx-seq and
    regularity-report; the operator's b and its potential |xi|^p / p of
    a number p, or sum_i |xi_i|^p_i / p_i of a pair p of numbers, each
    finite and above 1."""
    p = cfg["p"]
    ps = p if type(p) is list and len(p) == 2 else [p]
    if not all(type(q) in (int, float) for q in ps):  # nor a bool
        raise ConfigError(f"p = {p!r} is not a number or a pair of numbers")
    if not all(1.0 < q < math.inf for q in ps):  # nor nan
        raise ConfigError(f"p = {p!r}: an exponent must be finite and above 1")
    terms = [young.PowerYoung(q, 1.0 / q) for q in ps]
    phi = (anisotropic.SplitPhi(terms) if len(terms) == 2
           else anisotropic.RadialPhi(2, terms[0]))
    return (grid.OperatorSpec(potential=phi, b=cfg["b"]),
            rearrangement.Datum(cfg["f"]).field(cfg["N"]))


def _cell_values(u):
    """|u| on the cells, each the max of its four corners: a cell lies in
    {|u| < t} only when all four do, else boundary cells count at every t."""
    au = np.abs(u.values)
    return np.maximum(np.maximum(au[:-1, :-1], au[1:, :-1]),
                      np.maximum(au[:-1, 1:], au[1:, 1:]))


def cmd_grid_solve(cfg, out):
    spec, f_field = _grid_problem(cfg)
    u, info = grid.solve(spec, f_field)
    # the certificate of the field written, not of the solver's iterate:
    # its gap within its own rounding bound or the solve's gap target
    gap, bound = grid.duality_gap(spec, f_field, u)
    target = max(bound, info["gap_target"])
    certified = gap <= target
    u.to_csv(out / "u.csv")
    energies = np.asarray(info["energies"])
    monotone = bool(np.all(np.diff(energies)
                           <= 1e-12 * (1.0 + np.abs(energies[:-1]))))
    gx, gy = grid.cell_gradients(u.values, u.h)
    u_cell = _cell_values(u)
    trunc = radial.truncation_energy_check(
        u_cell, spec.potential.value(np.stack([gx, gy], axis=-1)), u.h**2,
        f_field.l1(), t_ladder=np.geomspace(1e-3, 10.0, 20)
        * max(float(np.max(u_cell)), 1e-12))
    report = {
        "N": f_field.n_nodes,
        **{key: val for key, val in info.items() if key != "energies"},
        "final_energy": float(energies[-1]),
        "energy_monotone": monotone,
        "truncation_energy": trunc,
        "gap_check": {"duality_gap": gap, "gap_bound": bound,
                      "gap_target": target, "passes": certified},
    }
    _write_json(out / "grid_solve_report.json", report)
    if not (monotone and trunc["passes"] and certified):
        raise VerdictFailure("grid-solve invariants failed")
    return report


def cmd_approx_seq(cfg, out):
    spec, f_field = _grid_problem(cfg)
    k_ladder = [float(k) for k in cfg["k_ladder"]]
    _fields, rows = grid.approximable_sequence(spec, f_field, k_ladder)
    steps = rows[1:]  # first entry has no predecessor to deviate from
    dev = [r["deviation_measure"] for r in steps]
    decreasing = bool(np.all(np.diff(dev) <= 1e-12))
    report = {"k_ladder": k_ladder, "steps": rows,
              "deviation_measures_decreasing": decreasing}
    young.write_csv(
        out / "approx_seq.csv",
        "k,sup_deviation,deviation_measure,grad_deviation_measure",
        np.column_stack([[r["k"] for r in steps],
                         [r["sup_deviation"] for r in steps], dev,
                         [r["grad_deviation_measure"] for r in steps]]))
    _write_json(out / "approx_seq_report.json", report)
    if not decreasing:
        raise VerdictFailure("approximating sequence does not settle")
    return report


def cmd_regularity_report(cfg, out):
    spec, f_field = _grid_problem(cfg)
    n = spec.potential.n
    u, info = grid.solve(spec, f_field)
    head = {"N": f_field.n_nodes, "p": np.asarray(cfg["p"], float).tolist(),
            **{key: val for key, val in info.items() if key != "energies"}}
    cell = u.h**2
    u_cells = _cell_values(u).ravel()
    u_rf = rearrangement.RearrangedFunction.from_samples(u_cells, cell)
    gx, gy = grid.cell_gradients(u.values, u.h)
    e_cells = spec.potential.value(np.stack([gx, gy], axis=-1)).ravel()
    circ = anisotropic.phi_circ(spec.potential)
    u_max = float(np.max(u_cells))
    if classify_integral(circ, n)[0] == "convergent":
        # p > n: u is bounded, and the level-set bounds and Marcinkiewicz
        # targets, built from the Sobolev conjugate, do not exist
        report = {**head, "dichotomy": "convergent",
                  "u_max": u_max, **dict.fromkeys((
                      "kappa2", "c1", "level_set_u", "level_set_grad",
                      "level_set_u_holds", "level_set_grad_holds",
                      "marcinkiewicz_u", "marcinkiewicz_grad"))}
        _write_json(out / "regularity_report.json", report)
        return report
    prof = sobolev_conjugate(circ, n, log_t_hi=500.0, n_points=8192)
    t_ladder = np.geomspace(0.05, 0.8, 12) * max(u_max, 1e-12)
    mu_u = np.count_nonzero(u_cells >= t_ladder[:, None], axis=1) * cell
    K = f_field.l1()
    kappa2 = radial.calibrate_kappa2(K, prof, mu_u, t_ladder)
    s_ladder = np.geomspace(0.05, 0.8, 12) * max(np.max(e_cells), 1e-12)
    mu_e = np.count_nonzero(e_cells > s_ladder[:, None], axis=1) * cell
    c1 = radial.calibrate_c1(prof, mu_e, s_ladder)
    bound_u = radial.level_set_bound_u(K, prof, kappa2)(t_ladder)
    bound_g = radial.level_set_bound_grad(prof, c1)(s_ladder)
    rows_u = [{"t": t, "measured": mu, "bound": b} for t, mu, b in zip(
        t_ladder.tolist(), mu_u.tolist(), bound_u.tolist())]
    rows_g = [{"s": s, "measured": mu, "bound": b} for s, mu, b in zip(
        s_ladder.tolist(), mu_e.tolist(), bound_g.tolist())]
    ok_u = all(r["measured"] <= r["bound"] * (1.0 + 1e-9) for r in rows_u)
    ok_g = all(r["measured"] <= r["bound"] * (1.0 + 1e-9) for r in rows_g)
    e_rf = rearrangement.RearrangedFunction.from_samples(e_cells, cell)
    q_u = rearrangement.marcinkiewicz_quasinorm(u_rf, prof.vartheta_n)
    q_g = rearrangement.marcinkiewicz_quasinorm(e_rf, prof.varrho_n)
    report = {
        **head, "dichotomy": "divergent",
        "kappa2": kappa2, "c1": c1,
        "level_set_u": rows_u, "level_set_grad": rows_g,
        "level_set_u_holds": ok_u, "level_set_grad_holds": ok_g,
        "marcinkiewicz_u": q_u, "marcinkiewicz_grad": q_g,
    }
    _write_json(out / "regularity_report.json", report)
    if not (ok_u and ok_g):
        raise VerdictFailure("level-set bounds failed after calibration")
    return report


def cmd_verify_example(cfg, out):
    # make_record converts the values; only "2,4" lists are split here
    params = {"p": cfg["p"], "q": cfg["q"], "alpha": cfg["alpha"],
              "beta": cfg["beta"], "n": cfg["n"]}
    params = {key: val.split(",") if isinstance(val, str) and "," in val
              else val for key, val in params.items() if val is not None}
    rec = catalog.make_record(cfg["id"], **params)
    rep = catalog.verify_asymptotics(rec)
    _write_json(out / "verify_example_report.json", rep)
    if not rep["passes"]:
        raise VerdictFailure(f"example {cfg['id']} asymptotics check failed")
    return rep


def cmd_admissibility(cfg, out):
    n = _dimension(cfg)
    circ = anisotropic.phi_circ(_phi(cfg, "phi_circ", n))
    omega = _measure(cfg["omega"])
    f_rf = rearrangement.Datum(cfg["f"]).rearranged(omega)
    dich, _ = classify_integral(circ, n)
    report = {**rearrangement.data_admissibility(
        f_rf, circ.conjugate(), n, dich), "n": n, "dichotomy": dich}
    _write_json(out / "admissibility_report.json", report)
    return report


HANDLERS = {
    "conjugate": cmd_conjugate,
    "phicirc": cmd_phicirc,
    "embedding": cmd_embedding,
    "symmetrize-solve": cmd_symmetrize_solve,
    "grid-solve": cmd_grid_solve,
    "approx-seq": cmd_approx_seq,
    "regularity-report": cmd_regularity_report,
    "verify-example": cmd_verify_example,
    "admissibility": cmd_admissibility,
}


# Each command's config keys in flag order, as key: (flag type, or None
# for a config-only key; default, or REQUIRED; flag help).  The flag of
# a key is --key with '_' written '-', except verify-example's
# positional id.  The README lists this table.
REQUIRED = object()
_GRID_KEYS = {"N": (int, None, None), "p": (float, 2.0, None),
              "f": (str, "const:1", None), "b": (None, 1.0, None)}
CONFIG_KEYS = {
    "conjugate": {"A": (str, REQUIRED, "scalar function spec")},
    "phicirc": {
        "phi": (str, REQUIRED, "JSON document or path describing Phi"),
        "t_lo": (None, 1e-3, None), "t_hi": (None, 1e6, None),
        "n_levels": (None, 256, None)},
    "embedding": {"phi_circ": (str, REQUIRED, None),
                  "n": (int, REQUIRED, None)},
    "symmetrize-solve": {
        "phi": (str, REQUIRED, "Phi: scalar spec, CSV or JSON path"),
        "n": (int, REQUIRED, None),
        "f": (str, "const:1", "const:<c>, pow:a=<a>[,c=<c>] or CSV path"),
        "omega": (str, 1.0, "domain measure (number or 'pi')")},
    "grid-solve": _GRID_KEYS,
    "approx-seq": {**_GRID_KEYS, "f": (str, "point:mass=1", None),
                   "k_ladder": (None, (2, 8, 32, 128, 1024), None)},
    "regularity-report": _GRID_KEYS,
    "verify-example": {"id": (str, REQUIRED, None),
                       **dict.fromkeys(("p", "q", "alpha", "beta", "n"),
                                       (str, None, None))},
    "admissibility": {"f": (str, REQUIRED, None),
                      "phi_circ": (str, REQUIRED, None),
                      "n": (int, REQUIRED, None), "omega": (str, 1.0, None)},
}


def build_parser(command=None):
    """The parser of ``command`` alone, or of every command when
    ``command`` names none of ``CONFIG_KEYS``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON parameter document")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="orliczpde",
        description="Anisotropic Orlicz-space Dirichlet problem toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in CONFIG_KEYS else CONFIG_KEYS:
        p = sub.add_parser(name, parents=[common])
        for key, (kind, _default, text) in CONFIG_KEYS[name].items():
            if key == "id":
                p.add_argument("id", choices=catalog.EXAMPLE_IDS)
            elif kind is not None:
                p.add_argument("--" + key.replace("_", "-"), type=kind,
                               help=text)
    return parser


def _document_value(key, val, kind, default):
    """``val``, the --config document's value of ``key``, as its key's
    JSON type: an integer where its flag, of type ``kind``, takes one;
    for a config-only key its default's type, a number or an integer
    (type, not isinstance: a bool default is no integer), else an array
    of numbers (``k_ladder``).  A bool is no number, and :func:`_read_json`
    has refused numbers that are not finite.  A value
    of another type raises :class:`ConfigError` naming the key and the
    value; a key whose flag takes a string or a float takes any."""
    if kind is None:
        kind = type(default) if type(default) in (int, float) else list
    elif kind is not int:
        return val
    if kind is list:
        ok = type(val) is list and all(type(x) in (int, float) for x in val)
    else:
        ok = type(val) in (int, float) and (kind is float or val == int(val))
    if not ok:
        raise ConfigError(f"{key} = {val!r} is not " + {
            int: "an integer", float: "a number",
            list: "an array of numbers"}[kind])
    return val if kind is list else kind(val)


def _merge_config(args):
    """The command's table of CONFIG_KEYS filled in: each key from its
    flag, else from the --config document, else its default; a null
    value is unset.  A document that is not a JSON object or holds a
    number that is not finite, a key outside the table, a value that is
    not of its key's JSON type (:func:`_document_value`), or a REQUIRED
    key that neither sets, raises :class:`ConfigError`."""
    keys = CONFIG_KEYS[args.command]
    doc = {}
    if args.config:
        doc = _read_json(Path(args.config).read_text(encoding="utf-8"),
                         f"--config {args.config}")
        if not isinstance(doc, dict):
            raise ConfigError(f"--config {args.config} holds "
                              f"{json.dumps(doc)[:80]}, not a JSON object")
        unread = sorted(set(doc) - set(keys))
        if unread:
            raise ConfigError(
                f"--config keys {unread} are not read by {args.command}, "
                f"which reads {list(keys)}")
    cfg = {}
    for key, (kind, default, _text) in keys.items():
        val = getattr(args, key, None)
        if val is None:
            val = doc.get(key)
            if val is not None:
                val = _document_value(key, val, kind, default)
        if val is None and default is REQUIRED:
            raise ConfigError(f"missing --{key.replace('_', '-')} (a flag, "
                              f"or {key!r} in the --config document)")
        cfg[key] = default if val is None else val
    return cfg


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are
        # operational here (2 is reserved for verdict failures)
        return EXIT_OPERATIONAL if exc.code else EXIT_OK
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").unlink(missing_ok=True)  # a stale one
        cfg = _merge_config(args)
        report = HANDLERS[args.command](cfg, out)
        if not args.quiet:
            print(_dumps(report, indent=2))
        return EXIT_OK
    except VerdictFailure as exc:
        if not args.quiet:
            print(f"verdict failure: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except Exception as exc:
        record = {"error": {"type": type(exc).__name__,
                            "message": str(exc)}}
        if isinstance(exc, grid.SolveError):
            record["error"]["info"] = exc.info
        with contextlib.suppress(OSError):
            _write_json(out / "error.json", record)
        if not args.quiet:
            print(_dumps(record), file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
