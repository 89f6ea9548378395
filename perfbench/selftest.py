"""Self-tests of the benchmark itself (not part of the package's suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

``test_seeded_range_ends`` runs every workload once with its seeded
values at each end of their ranges and takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402

run.cap_threads()

import tracing  # noqa: E402
import workloads  # noqa: E402
from orliczpde import anisotropic, catalog, cli, embedding  # noqa: E402


def _exit_ok(out, code):
    return None if code == 0 else f"exit {code}"


def _cli_op(name, argv, check=_exit_ok):
    return workloads.Op(name, "test_s", check, tuple(argv))


def _traced(ops, tmp_path, seed=0):
    runner = run.Runner(ops, seed, tmp_path)
    runner.run_pass("warmup")
    runner.tracer = tracing.Tracer()
    runner.tracer.install()
    try:
        runner.run_pass("traced")
    finally:
        runner.tracer.uninstall()
    return runner


def test_every_binding_is_wrapped_and_restored():
    originals = (catalog.phi_circ, cli.sobolev_conjugate,
                 cli.HANDLERS["phicirc"], anisotropic.phi_circ)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert catalog.phi_circ is anisotropic.phi_circ
        assert catalog.phi_circ is not originals[0]
        assert cli.sobolev_conjugate is embedding.sobolev_conjugate
        assert cli.sobolev_conjugate is not originals[1]
        assert cli.HANDLERS["phicirc"] is cli.cmd_phicirc
        assert cli.HANDLERS["phicirc"] is not originals[2]
    finally:
        tr.uninstall()
    assert (catalog.phi_circ, cli.sobolev_conjugate,
            cli.HANDLERS["phicirc"], anisotropic.phi_circ) == originals


def test_traced_verify_example_nests_phi_circ(tmp_path):
    op = _cli_op("verify-example aniso_plap",
                 ["verify-example", "aniso_plap", "--p", "2,4"])
    runner = _traced([op], tmp_path)
    assert not runner.failures and runner.unexpected == 0
    tr = runner.tracer
    assert "anisotropic.phi_circ" in tr.children_of("catalog.verify_asymptotics")
    assert "cli.cmd_verify_example" in tr.children_of("cli.main")
    metrics = tr.layer_metrics()
    assert metrics["anisotropic.levels"] == 128
    assert metrics["anisotropic.self_s"] > 0.0
    assert metrics["grid.calls"] == 0


def test_traced_pass_writes_identical_artifacts(tmp_path):
    # a mismatch would mark the traced pass failed and unexpected
    ops = [
        _cli_op("symmetrize-solve", ["symmetrize-solve", "--phi", "power:p=2",
                                     "--n", "2", "--f", "const:1",
                                     "--omega", "pi"],
                workloads._symmetrize_const),
        _cli_op("grid-solve", ["grid-solve", "--N", "65", "--p", "3",
                               "--f", "const:1"], workloads._grid_solve),
        _cli_op("regularity-report", ["regularity-report", "--N", "65",
                                      "--p", "2"], workloads._regularity),
    ]
    runner = _traced(ops, tmp_path)
    assert runner.attempted == 6
    assert not runner.failures and runner.unexpected == 0
    m = runner.tracer.layer_metrics()
    assert m["grid.solves"] == 2
    assert m["grid.maxiter_hits"] == 0
    assert m["grid.newton_iters"] > 1
    assert m["grid.hess_applies"] > m["grid.newton_iters"]
    assert m["rearrangement.integrand_points"] > 0
    assert m["embedding.varrho_points"] > 0
    assert m["young.inverse_points"] > 0


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    # spans: 0 = [0, 10], children 1 = [1, 3] and 2 = [4, 8], 3 in 2
    for s, e, p in ((0, 10, -1), (1, 3, 0), (4, 8, 0), (5, 6, 2)):
        tr.start.append(s)
        tr.end.append(e)
        tr.parent.append(p)
        tr.name.append(0)
    assert list(tr.self_times()) == [4.0, 2.0, 3.0, 1.0]


def test_operation_names_and_groups(tmp_path):
    names = set()
    for w in workloads.RANGES:
        ops = workloads.build(w, workloads.draw(w, 0), tmp_path / w, seed=0)
        assert len({op.name for op in ops}) == len(ops)
        assert {op.group for op in ops} - {None} <= set(workloads.GROUPS)
        names.update(op.name for op in ops)
    assert set(workloads.KNOWN_FAILURES) <= names


def test_speed_probe_samples_during_block_and_restores_handler():
    with run.SpeedProbe() as probe:
        time.sleep(3 * run.SPEED_INTERVAL)
    # one sample before, about three from the timer, one after
    assert len(probe.samples) >= 4
    t0, t1 = probe.samples[1][0], probe.samples[2][0]
    assert probe.scaled(t0, t1) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_samples_are_scaled_by_their_own_probe():
    raw, scaled = run.sample_setup(2)
    assert len(raw) == len(scaled) == 2
    assert all(r > 0 and s > 0 for r, s in zip(raw, scaled))


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable if c == "python3" else c for c in cmd]
        + ["--workload", "calculus", "--seed", "1", "--seconds", "1",
           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.RANGES))
def test_seeded_range_ends(tmp_path, workload, end):
    """Every oracle holds with all seeded values at one end of their
    ranges: no failures beyond the known ones."""
    values = {k: lo_hi[end] for k, lo_hi in workloads.RANGES[workload].items()}
    ops = workloads.build(workload, values, tmp_path / "inputs", seed=0)
    runner = run.Runner(ops, 0, tmp_path)
    runner.run_pass("warmup")
    assert runner.unexpected == 0, runner.failures
    assert set(runner.failures) <= set(workloads.KNOWN_FAILURES)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
