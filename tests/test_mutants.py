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
from orliczpde import grid
from orliczpde.cli import main


def scaled_solution(factor):
    """Mutant: ``grid.solve`` returns its field times ``factor``."""
    def patch(monkeypatch):
        solve = grid.solve

        def mutant(*args, **kwargs):
            out = solve(*args, **kwargs)
            if isinstance(out, tuple):
                u, info = out
                return grid.GridField(factor * u.values), info
            return grid.GridField(factor * out.values)

        monkeypatch.setattr(grid, "solve", mutant)
    return patch


MUTANTS = {
    "none": lambda monkeypatch: None,
    "u*0.5": scaled_solution(0.5),
    "u*1.5": scaled_solution(1.5),
    "u*3": scaled_solution(3.0),
}

GRID_SOLVE_P3 = ("grid-solve", "--N", "65", "--p", "3")
GRID_SOLVE_P15 = ("grid-solve", "--N", "65", "--p", "1.5")
REGULARITY_P15 = ("regularity-report", "--N", "65", "--p", "1.5")

# (command, mutant, exit code it must give).  grid-solve catches a
# scaled field by its duality gap: a field that does not minimize the
# energy leaves a gap far above J's rounding level (ROADMAP item 17).
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
    return f"{row[0][0]} p={row[0][-1]} {row[1]}"


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
    assert report["duality_gap"] <= report["gap_bound"]


def test_gap_sees_a_one_percent_scaling():
    # at N = 65, p = 3 the field 1.01 u has a gap of 1.5e-4 of |J|,
    # eleven orders of magnitude above J's rounding level
    spec = grid.OperatorSpec(power_potential(3.0))
    f = grid.GridField.from_function(65, lambda x, y: np.ones_like(x))
    u, info = grid.solve(spec, f, return_info=True)
    gap, bound = grid.duality_gap(spec, f, grid.GridField(1.01 * u.values))
    assert gap / abs(info["energies"][-1]) == pytest.approx(1.5e-4, rel=0.05)
    assert gap > 1e9 * bound
