"""The benchmark's three workloads: seeded inputs, operations and oracles.

Each workload is a closed loop with one client: the operations below run
one at a time, in list order, in one process.  An operation is one CLI
command (``orliczpde.cli.main``, called in-process) or one library call.
Every operation has an oracle; a known failure is an operation that
fails at the time the benchmark was written although its input is valid
(see README.md), so its failure is expected.

Only the values that ``draw`` picks depend on the seed, and each is
drawn from a range on which the oracle verdict was checked.  Oracle
inputs and known-failure inputs are fixed, so every seed shows the same
defects.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# The seeded values and their ranges.  Each range was scanned through
# the oracles (selftest.py re-checks the ends).
RANGES = {
    "calculus": {
        "table_alpha": (0.95, 1.03),  # A(t) = t^2 log(e + t)^alpha table
        "rf_power": (0.2, 0.6),       # datum f*(s) = s^-a on the pi-disk
    },
    "averages": {                     # exponents of the 3-axis split
        "p1": (1.6, 2.0), "p2": (2.4, 3.0), "p3": (3.2, 4.0),
    },
    "grid-sweep": {
        "grid_power": (0.5, 1.5),     # datum |x - centre|^-a at N = 65
    },
}

# The table's verdict flips in narrow windows of alpha (1.04 fails, see
# README.md), so alpha is drawn from the 0.005 grid on which every value
# was run and passes.
TABLE_ALPHA_STEP = 0.005

# Command groups: the time of each is summed over its operations
GROUPS = ("conjugate_s", "symmetrize_solve_s", "regularity_report_s",
          "phicirc_s", "phi_diamond_s", "verify_example_s", "grid_solve_s")

# Operations that fail at the time the benchmark was written, with the
# ROADMAP item that calls their input valid.
KNOWN_FAILURES = {
    "conjugate exp_power:beta=1.5":
        "exit 2: table range ignores t_max (ROADMAP item 5)",
    "embedding exp_minus_one":
        "exit 1: trusted range must reach 1e6 (ROADMAP item 5)",
    "approx-seq defaults":
        "exit 2: point mass does not settle on the default ladder "
        "(ROADMAP item 5)",
    "grid-solve N=65 p=1.2":
        "exit 1: SolveError, Newton does not converge (ROADMAP item 3)",
}

# AC6: centre value of -Lap u = 1 on the unit square (Fourier series)
FOURIER_CENTER = 0.0736713512666702

# AC10: the nine catalog cases and their regimes
CATALOG_CASES = (
    (("plap", "--p", "2", "--n", "3"), "subcritical"),
    (("iso_zyg", "--p", "2", "--alpha", "1", "--n", "3"), "subcritical"),
    (("aniso_plap", "--p", "2,4"), "bounded"),
    (("aniso_zyg", "--p", "2,2", "--alpha", "1,3"), "bounded"),
    (("aniso_trud", "--p", "2", "--q", "1.5", "--alpha", "1"),
     "subcritical"),
    (("aniso_trud", "--p", "2", "--q", "2", "--alpha", "1"), "exp"),
    (("aniso_trud", "--p", "2", "--q", "2", "--alpha", "2"), "double_exp"),
    (("aniso_trud", "--p", "2", "--q", "2", "--alpha", "3"), "bounded"),
    (("aniso_new", "--p", "2", "--beta", "1.5"), "bounded"),
)

# ROADMAP item 3's sweep, cut to fit the run-time budget: N = 129 with
# p = 3 (a max_iter stop like N = 65, p = 4, but 4-5 s) is left out.
GRID_SWEEP = ((65, 1.2), (65, 2.0), (65, 4.0),
              (129, 1.5), (129, 2.0), (129, 4.0),
              (257, 1.5), (257, 2.0), (257, 3.0))

SPLIT_24 = {"n": 2, "form": "split",
            "terms": [{"kind": "power", "p": 2}, {"kind": "power", "p": 4}]}
# three pairwise independent rows: R(w) has kinks where a row vanishes
KINKED = {"n": 2, "form": "linear_combination",
          "terms": [{"coeffs": [1, 0], "kind": "power", "p": 2},
                    {"coeffs": [0, 1], "kind": "power", "p": 3},
                    {"coeffs": [1, 1], "kind": "power", "p": 4}]}


@dataclass(frozen=True)
class Op:
    """One operation.

    A CLI operation runs ``cli.main(argv + --out/--seed/--quiet)`` and
    its result is the exit code.  A library operation runs
    ``call(prepare())``; only ``call`` is timed, and ``save`` writes its
    result as the artifact that the determinism check hashes.  ``check``
    gets the output directory and the result and returns a problem, or
    None when the oracle holds.
    """

    name: str
    group: str | None     # the command group it is summed into, if any
    check: Callable[[Path, Any], str | None]
    argv: tuple = ()
    prepare: Callable[[], Any] | None = None
    call: Callable[[Any], Any] | None = None
    save: Callable[[Any, Path], None] | None = None

    @property
    def known_failure(self):
        return KNOWN_FAILURES.get(self.name)


# ---------------------------------------------------------------------
# oracle helpers


def _report(out, fname):
    path = out / fname
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _passes(fname):
    def check(out, code):
        rep = _report(out, fname)
        if code != 0 or rep is None:
            return f"exit {code}"
        return None if rep.get("passes") else f"{fname}: passes is false"
    return check


def _key_equals(fname, key, expected):
    def check(out, code):
        rep = _report(out, fname)
        if code != 0 or rep is None:
            return f"exit {code}"
        got = rep.get(key)
        return None if got == expected else f"{key} {got!r} != {expected!r}"
    return check


def _tail_power(lo, hi):
    def check(out, code):
        rep = _report(out, "phicirc_report.json")
        if code != 0 or rep is None:
            return f"exit {code}"
        power = rep["tail_fit"]["power"]
        if not (isinstance(power, float) and lo <= power <= hi):
            return f"tail power {power!r} outside [{lo:g}, {hi:g}]"
        return None
    return check


def _tail_power_near(target, rtol=0.02):
    return _tail_power(target * (1.0 - rtol), target * (1.0 + rtol))


def _symmetrize_const(out, code):
    rep = _report(out, "symmetrize_solve_report.json")
    if code != 0 or rep is None:
        return f"exit {code}"
    # closed form on the pi-disk with f = 1, p = 2: v(0) = 1/4
    got = rep["center_value"]
    return None if abs(got - 0.25) <= 1e-6 else f"centre {got!r} != 1/4"


def _symmetrize_singular(out, code):
    rep = _report(out, "symmetrize_solve_report.json")
    if code != 0 or rep is None:
        return f"exit {code}"
    # the radial solution is the extremal of the sharp bound, so two
    # independent computations of sup u must agree
    got, bound = rep["center_value"], rep["boundedness_criterion"]
    if not (isinstance(bound, float) and abs(got - bound) <= 1e-5 * bound):
        return f"centre {got!r} vs bound {bound!r}"
    return None


def _regularity(out, code):
    rep = _report(out, "regularity_report.json")
    if code != 0 or rep is None:
        return f"exit {code}"
    if rep["level_set_u_holds"] and rep["level_set_grad_holds"]:
        return None
    return "level-set bounds fail"


def _grid_solve(out, code):
    rep = _report(out, "grid_solve_report.json")
    if code != 0 or rep is None:
        return f"exit {code}"
    if not (rep["energy_monotone"] and rep["truncation_energy"]["passes"]):
        return "energy or truncation check fails"
    return None


def _grid_center(out, code):
    problem = _grid_solve(out, code)
    if problem:
        return problem
    u = np.loadtxt(out / "u.csv", delimiter=",", comments="#")
    mid = u.shape[0] // 2
    got = float(u[mid, mid])
    if abs(got - FOURIER_CENTER) > 2e-4:
        return f"centre {got!r} != {FOURIER_CENTER} +- 2e-4"
    return None


def _verify_example(regime):
    def check(out, code):
        rep = _report(out, "verify_example_report.json")
        if code != 0 or rep is None:
            return f"exit {code}"
        if not rep["passes"]:
            return "checks fail"
        if rep["regime"] != regime:
            return f"regime {rep['regime']!r} != {regime!r}"
        return None
    return check


def _approx_seq(out, code):
    rep = _report(out, "approx_seq_report.json")
    if code != 0 or rep is None:
        return f"exit {code}"
    return None if rep["deviation_measures_decreasing"] else "not settling"


# ---------------------------------------------------------------------
# seeded inputs


def _write_table_csv(path, alpha):
    """1024-row tabulated Young function, the input shape used by AC1."""
    t = np.geomspace(1e-3, 1e5, 1024)
    v = t**2.0 * np.log(math.e + t) ** alpha
    with open(path, "w", newline="") as fh:
        fh.write("t,A(t)\n")
        for ti, vi in zip(t, v):
            fh.write(f"{float(ti)!r},{float(vi)!r}\n")


def _write_rearranged_csv(path, a):
    """Step realization of f*(s) = s^-a on (0, pi]: rows (s_{j-1}, v_j)
    and a trailing (s_m, v_m) sentinel, as ``--f`` expects."""
    s = np.concatenate([[0.0], np.geomspace(1e-10 * math.pi, math.pi, 512)])
    left = np.concatenate([[s[1]], s[1:-1]])
    v = left**-a
    v = np.concatenate([v, [v[-1]]])
    with open(path, "w", newline="") as fh:
        fh.write("s,value\n")
        for si, vi in zip(s, v):
            fh.write(f"{float(si)!r},{float(vi)!r}\n")


def _write_grid_csv(path, a, n_nodes=65):
    """Nodal datum |x - (1/2, 1/2)|^-a, floored at h/2, zero on the
    boundary."""
    h = 1.0 / (n_nodes - 1)
    x = np.linspace(0.0, 1.0, n_nodes)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.maximum(np.hypot(xx - 0.5, yy - 0.5), h / 2.0) ** -a
    vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = 0.0
    np.savetxt(path, vals, delimiter=",")


def _write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def draw(workload, seed):
    """The seeded values of a workload, each uniform in its range (the
    table's alpha rounded to its grid)."""
    rng = np.random.default_rng(seed)
    out = {}
    for key, (lo, hi) in RANGES[workload].items():
        value = float(rng.uniform(lo, hi))
        if key == "table_alpha":
            value = round(value / TABLE_ALPHA_STEP) * TABLE_ALPHA_STEP
        out[key] = round(value, 4)
    return out


def build(workload, values, in_dir, seed):
    """Write the input files for ``values`` and return the operations;
    ``seed`` is the one passed to the CLI."""
    in_dir = Path(in_dir)
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "calculus":
        return _calculus(values, in_dir)
    if workload == "averages":
        return _averages(values, in_dir, seed)
    return _grid_sweep(values, in_dir)


def _calculus(values, in_dir):
    table = in_dir / "table.csv"
    _write_table_csv(table, values["table_alpha"])
    singular = in_dir / "singular_rf.csv"
    _write_rearranged_csv(singular, values["rf_power"])
    conj_ok = _passes("conjugate_report.json")
    ops = [
        Op("conjugate power_log:p=2,alpha=1", "conjugate_s", conj_ok,
           ("conjugate", "--A", "power_log:p=2,alpha=1")),
        Op("conjugate table.csv", "conjugate_s", conj_ok,
           ("conjugate", "--A", str(table))),
        Op("conjugate exp_power:beta=1.5", "conjugate_s", conj_ok,
           ("conjugate", "--A", "exp_power:beta=1.5")),
        Op("embedding power:p=1.5", None,
           _key_equals("embedding_report.json", "dichotomy", "divergent"),
           ("embedding", "--phi-circ", "power:p=1.5", "--n", "2")),
        # an exponential average is the textbook convergent case
        Op("embedding exp_minus_one", None,
           _key_equals("embedding_report.json", "dichotomy", "convergent"),
           ("embedding", "--phi-circ", "exp_minus_one", "--n", "2")),
    ]
    for label, f in (("const:1", "const:1"), ("singular", str(singular))):
        ops.append(Op(
            f"admissibility {label}", None,
            _key_equals("admissibility_report.json", "verdict",
                        "admissible"),
            ("admissibility", "--phi-circ", "power:p=1.5", "--n", "2",
             "--f", f, "--omega", "pi")))
    ops.append(Op("symmetrize-solve const:1", "symmetrize_solve_s",
                  _symmetrize_const,
                  ("symmetrize-solve", "--phi", "power:p=2", "--n", "2",
                   "--f", "const:1", "--omega", "pi")))
    ops.append(Op("symmetrize-solve singular", "symmetrize_solve_s",
                  _symmetrize_singular,
                  ("symmetrize-solve", "--phi", "power:p=2", "--n", "2",
                   "--f", str(singular), "--omega", "pi")))
    for n_nodes in (65, 129):
        ops.append(Op(f"regularity-report N={n_nodes}",
                      "regularity_report_s", _regularity,
                      ("regularity-report", "--N", str(n_nodes), "--p", "2",
                       "--f", "const:1")))
    return ops


def _averages(values, in_dir, seed):
    from orliczpde import anisotropic

    ps = [values["p1"], values["p2"], values["p3"]]
    split3 = {"n": 3, "form": "split",
              "terms": [{"kind": "power", "p": p} for p in ps]}
    cfg3 = _write_config(in_dir / "split3.json", {"n_levels": 16})
    cfg_kinked = _write_config(in_dir / "kinked.json",
                               {"t_lo": 1, "t_hi": 1e20, "n_levels": 128})
    # phi_diamond's input: the 256-level split average, built once here
    # and copied before each call so no cached state carries over
    circ = anisotropic.phi_circ(anisotropic.from_json(SPLIT_24),
                                t_lo=1e-3, t_hi=1e6, n_levels=256, seed=seed)
    ops = [
        Op("phicirc split(2,4)", "phicirc_s", _tail_power_near(8.0 / 3.0),
           ("phicirc", "--phi", json.dumps(SPLIT_24))),
        # split sublevel measures scale exactly: power = n / sum(1/p_i)
        Op("phicirc split3", "phicirc_s",
           _tail_power_near(3.0 / sum(1.0 / p for p in ps)),
           ("phicirc", "--config", cfg3, "--phi", json.dumps(split3))),
        # growth lies between |xi|^3 (where the p=4 row vanishes) and
        # |xi|^4
        Op("phicirc kinked", "phicirc_s", _tail_power(3.0, 4.0),
           ("phicirc", "--config", cfg_kinked, "--phi", json.dumps(KINKED))),
        Op("phi_diamond split(2,4)", "phi_diamond_s",
           lambda out, result: _diamond_check(circ, result),
           prepare=lambda: copy.deepcopy(circ),
           call=lambda c: anisotropic.phi_diamond(c),
           save=_save_table),
    ]
    for args, regime in CATALOG_CASES:
        ops.append(Op(f"verify-example {' '.join(args)}", "verify_example_s",
                      _verify_example(regime), ("verify-example", *args)))
    return ops


def _diamond_check(circ, diamond):
    # circ is already convex, so its biconjugate must reproduce it
    lt = np.linspace(circ.log_t[0], circ.log_t[-1], 400)
    gap = float(np.max(np.abs(np.asarray(diamond.log_value(lt))
                              - np.asarray(circ.log_value(lt)))))
    if gap > 1e-6:
        return f"log-distance to Phi_circ {gap:g} > 1e-6"
    if not diamond.check_second_differences():
        return "not convex"
    return None


def _save_table(table, out):
    with open(out / "table.csv", "w", newline="") as fh:
        fh.write("log_t,log_v\n")
        for lt, lv in zip(table.log_t, table.log_v):
            fh.write(f"{float(lt)!r},{float(lv)!r}\n")


def _grid_sweep(values, in_dir):
    singular = in_dir / "singular_grid.csv"
    _write_grid_csv(singular, values["grid_power"])
    ops = []
    for n_nodes, p in GRID_SWEEP:
        check = _grid_center if (n_nodes, p) == (129, 2.0) else _grid_solve
        ops.append(Op(f"grid-solve N={n_nodes} p={p:g}", "grid_solve_s",
                      check,
                      ("grid-solve", "--N", str(n_nodes), "--p", f"{p:g}",
                       "--f", "const:1")))
    ops.append(Op("approx-seq defaults", None, _approx_seq,
                  ("approx-seq",)))
    ops.append(Op("approx-seq singular", None, _approx_seq,
                  ("approx-seq", "--N", "65", "--f", str(singular))))
    return ops
