"""Mutant census: every verdict must be able to fail.

Each mutant is a monkeypatch of one library function that a command
calls, never of the command's check itself.  A command run under a
mutant that it must catch exits 2 (a verdict failure); ``CENSUS`` lists
each (command, mutant) pair with the exit code it must give.  A pair
that a command does not catch yet is listed in ``OPEN`` with the
ROADMAP item that closes it, as a strict expected failure: it fails
the suite the day the command starts to catch it, so the row moves to
``CENSUS``.
"""

import json

import numpy as np
import pytest

from conftest import power_potential
from orliczpde import catalog, grid
from orliczpde.cli import main
from orliczpde.young import SampledYoungFunction


def scaled_solution(factor):
    """Mutant: ``grid.solve`` returns its field times ``factor``."""
    def patch(monkeypatch):
        solve = grid.solve

        def mutant(*args, **kwargs):
            u, info = solve(*args, **kwargs)
            return grid.GridField(factor * u.values), info

        monkeypatch.setattr(grid, "solve", mutant)
    return patch


def powered_phi_circ(power):
    """Mutant: the Phi_circ table that ``catalog.verify_asymptotics``
    builds is raised to ``power``: its log values, and both exponents
    of a stated tail t^sigma (log t)^beta, times ``power``.  A radial
    family's Phi_circ is its generator, not a table, and passes
    unchanged."""
    def patch(monkeypatch):
        phi_circ = catalog.phi_circ

        def mutant(*args, **kwargs):
            circ = phi_circ(*args, **kwargs)
            if not isinstance(circ, SampledYoungFunction):
                return circ
            out = SampledYoungFunction(circ.log_t, power * circ.log_v,
                                       name=circ.name)
            if circ.tail is not None:
                out.tail = tuple(power * e for e in circ.tail)
            return out

        monkeypatch.setattr(catalog, "phi_circ", mutant)
    return patch


MUTANTS = {
    "none": lambda monkeypatch: None,
    "u*0.5": scaled_solution(0.5),
    "u*1.5": scaled_solution(1.5),
    "u*3": scaled_solution(3.0),
    "phi_circ^1.2": powered_phi_circ(1.2),
}

GRID_SOLVE_P3 = ("grid-solve", "--N", "65", "--p", "3")
GRID_SOLVE_P15 = ("grid-solve", "--N", "65", "--p", "1.5")
REGULARITY_P15 = ("regularity-report", "--N", "65", "--p", "1.5")
# two anisotropic families whose Phi_circ is a table.  The radial
# families (plap, iso_zyg) are not listed under the phi_circ mutant:
# their Phi_circ is their generator, which it passes unchanged.
VERIFY_TRUD = ("verify-example", "aniso_trud", "--p", "2", "--q", "2",
               "--alpha", "1")
VERIFY_PLAP = ("verify-example", "aniso_plap", "--p", "2,4")

# (command, mutant, exit code it must give).  grid-solve catches a
# scaled field by its duality gap: a field that does not minimize the
# energy leaves a gap far above J's rounding level (ROADMAP item 17).
# verify-example catches a Phi_circ raised to the power 1.2 by its
# "phi_circ power" check: the tail power reads 1.2 times the family's.
CENSUS = [
    (GRID_SOLVE_P3, "none", 0),
    (GRID_SOLVE_P3, "u*0.5", 2),
    (GRID_SOLVE_P3, "u*1.5", 2),
    (GRID_SOLVE_P3, "u*3", 2),
    (GRID_SOLVE_P15, "none", 0),
    (GRID_SOLVE_P15, "u*0.5", 2),
    (GRID_SOLVE_P15, "u*1.5", 2),
    (GRID_SOLVE_P15, "u*3", 2),
    (REGULARITY_P15, "none", 0),
    (VERIFY_TRUD, "none", 0),
    (VERIFY_TRUD, "phi_circ^1.2", 2),
    (VERIFY_PLAP, "none", 0),
    (VERIFY_PLAP, "phi_circ^1.2", 2),
]

# Rows that fail today, each with the item that closes it.
OPEN = [
    (REGULARITY_P15, "u*0.5", 2,
     "ROADMAP item 2: the level-set constants are calibrated on the "
     "field they then check, so both checks hold by construction"),
    (REGULARITY_P15, "u*1.5", 2,
     "ROADMAP item 2: the level-set constants are calibrated on the "
     "field they then check, so both checks hold by construction"),
]


def _ids(row):
    command = row[0]
    case = command[1] if command[0] == "verify-example" else f"p={command[-1]}"
    return f"{command[0]} {case} {row[1]}"


@pytest.mark.parametrize(
    "command, mutant, code",
    [pytest.param(*row, id=_ids(row)) for row in CENSUS]
    + [pytest.param(*row[:3], id=_ids(row), marks=pytest.mark.xfail(
        strict=True, reason=row[3])) for row in OPEN])
def test_command_catches_mutant(command, mutant, code, monkeypatch,
                                tmp_path):
    MUTANTS[mutant](monkeypatch)
    assert main([*command, "--out", str(tmp_path), "--quiet"]) == code


def test_grid_solve_reports_the_gap_it_judges(monkeypatch, tmp_path):
    # the verdict is the gap of the field written, not the solver's
    MUTANTS["u*1.5"](monkeypatch)
    assert main([*GRID_SOLVE_P3, "--out", str(tmp_path), "--quiet"]) == 2
    report = json.loads((tmp_path / "grid_solve_report.json").read_text())
    check = report["gap_check"]
    assert not check["passes"] and check["duality_gap"] > check["gap_bound"]
    assert report["duality_gap"] <= report["gap_target"]


def test_gap_sees_a_one_percent_scaling():
    # at N = 65, p = 3 the field 1.01 u has a gap of 1.5e-4 of |J|,
    # eleven orders of magnitude above J's rounding level
    spec = grid.OperatorSpec(power_potential(3.0))
    f = grid.GridField.from_function(65, lambda x, y: np.ones_like(x))
    u, info = grid.solve(spec, f)
    gap, bound = grid.duality_gap(spec, f, grid.GridField(1.01 * u.values))
    assert gap / abs(info["energies"][-1]) == pytest.approx(1.5e-4, rel=0.05)
    assert gap > 1e9 * bound
