"""Layered benchmark for orliczpde.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` samples the set-up time in fresh subprocesses, runs a
warm-up pass, then timed passes until ``--seconds`` of operation time
is measured, and reports the end-to-end metrics.  While the timed
passes run, ``SpeedProbe`` samples the machine's speed (``speed.py``),
and each operation's time is reported scaled to a fixed reference speed
by the samples taken while it ran; each set-up sample is scaled by
probes taken in its own interpreter.  ``--trace 1`` runs the warm-up
and the untraced timed passes the same way, then one traced pass, and
reports the per-layer metrics.  Every pass checks every output against
its oracle and hashes its artifacts; a hash that differs from the
warm-up pass at the same seed is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
lines (median, max and sample count of each timing, the machine, the
thread cap) come before it.  Artifacts of a run go to ``.perfbench/``
in the checkout and are deleted at the end, except the span file of a
traced run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BLAS/OpenMP pools: one thread, so a single-client run measures one
# core and two runs on a shared machine disturb each other less
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5

# Timed passes sample the machine's speed (speed.py) from a SIGALRM
# handler every SPEED_INTERVAL seconds.  Each operation's time is
# scaled by the samples taken while it ran, and one on either side.
SPEED_INTERVAL = 0.2

# A set-up sample prints the clock when build_parser() has returned,
# then the median of three speed probes taken after that
SETUP_CODE = f"""\
import statistics, sys, time
from orliczpde import cli
cli.build_parser()
done = time.perf_counter()
sys.path.insert(0, {str(HERE)!r})
import speed
print(done, statistics.median(speed.probe() for _ in range(3)))
"""


def cap_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info():
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_cap": THREAD_CAP}


def sample_setup(n):
    """Seconds from a fresh interpreter until ``orliczpde.cli`` is
    imported and ``build_parser()`` has returned, sampled one after
    another: the raw times, and the same scaled to the reference speed
    by the probes each interpreter takes after its import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              check=True, cwd=ROOT, capture_output=True,
                              text=True)
        done, probe = map(float, proc.stdout.split()[-2:])
        raw.append(done - t0)
        scaled.append((done - t0) * speed.REF / probe)
    return raw, scaled


class SpeedProbe:
    """Samples the machine's speed before, during and after a ``with``
    block, as (time, seconds of one probe)."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), speed.probe()))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL, SPEED_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scaled(self, t0, t1):
        """Seconds from t0 to t1 at the reference speed, by the median of
        the samples taken in between and the nearest one on either
        side."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, t0) - 1, 0)
        hi = bisect.bisect_right(times, t1) + 1
        local = [s for _, s in self.samples[lo:hi]]
        return (t1 - t0) * speed.REF / statistics.median(local)


def digest_dir(out):
    """SHA-256 over the relative paths and bytes of every file in out,
    and the total byte count."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(out)).encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest(), total


class Runner:
    """Runs passes over one workload's operations and keeps the record."""

    def __init__(self, ops, seed, work):
        self.ops = ops
        self.seed = seed
        self.work = work
        self.reference = {}     # op name -> digest, from the warm-up pass
        self.attempted = 0
        self.failures = {}      # op name -> problems seen
        self.failed = 0         # failed executions of every operation
        self.unexpected = 0     # ... that are not an expected known failure
        self.tracer = None
        self.passes = 0

    def run_op(self, op, out):
        """Runs one operation; returns its result and the clock readings
        before and after it."""
        from orliczpde import cli

        out.mkdir(parents=True)
        if op.call is None:
            argv = [*op.argv, "--out", str(out), "--seed", str(self.seed),
                    "--quiet"]
            t0 = time.perf_counter()
            result = cli.main(argv)
            t1 = time.perf_counter()
        else:
            arg = op.prepare()
            t0 = time.perf_counter()
            try:
                result = op.call(arg)
            except Exception as exc:  # a failed operation, not a failed run
                result = exc
            t1 = time.perf_counter()
            if not isinstance(result, Exception):
                op.save(result, out)
        return result, (t0, t1)

    @staticmethod
    def check(op, out, result):
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        try:
            return op.check(out, result)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            return f"oracle cannot read the output: {exc!r}"

    def run_pass(self, label):
        """One pass; returns {op name: (start, end)} and the artifact
        bytes."""
        pass_dir = self.work / f"pass-{self.passes}-{label}"
        self.passes += 1
        spans = {}
        artifact_bytes = 0
        for i, op in enumerate(self.ops):
            out = pass_dir / f"op{i:02d}"
            if self.tracer is not None:
                self.tracer.op_id = i
            result, spans[op.name] = self.run_op(op, out)
            if self.tracer is not None:
                self.tracer.op_id = -1
            problem = self.check(op, out, result)
            digest, size = digest_dir(out)
            artifact_bytes += size
            unexpected = problem and not op.known_failure
            if label == "warmup":
                self.reference[op.name] = digest
            elif self.reference[op.name] != digest:
                problem = (problem + "; " if problem else "") + (
                    "artifacts differ from the warm-up pass")
                unexpected = True
            self.attempted += 1
            if problem:
                self.failures.setdefault(op.name, []).append(problem)
                self.failed += 1
                self.unexpected += bool(unexpected)
            shutil.rmtree(out)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return spans, artifact_bytes

    def timed_passes(self, seconds):
        """Untraced passes until ``seconds`` of operation time is
        measured (at least one)."""
        passes = []
        while not passes or sum(map(duration, passes)) < seconds:
            passes.append(self.run_pass("timed")[0])
        return passes


def duration(spans):
    return sum(t1 - t0 for t0, t1 in spans.values())


def group_sums(ops, times):
    out = {}
    for op in ops:
        if op.group is not None:
            out[op.group] = out.get(op.group, 0.0) + times[op.name]
    return out


def summary_line(name, unit, values):
    return (f"  {name:<24} median {statistics.median(values):12.6g} {unit:<5}"
            f" max {max(values):12.6g}  n={len(values)}")


def main(argv=None):
    args = parse_args(argv)
    cap_threads()
    if not (SRC / "orliczpde" / "cli.py").is_file():
        print(f"perfbench: no orliczpde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resource

    import workloads
    # compiled and cached here, before the set-up samples time fresh
    # imports of it
    import orliczpde.cli  # noqa: F401

    if args.workload not in workloads.RANGES:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.RANGES)}", file=sys.stderr)
        return 2
    info = machine_info()
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        raw_setup, setup = (([], []) if args.trace
                            else sample_setup(SETUP_SAMPLES))
        drawn = workloads.draw(args.workload, args.seed)
        ops = workloads.build(args.workload, drawn, work / "inputs",
                              args.seed)
        runner = Runner(ops, args.seed, work)
        runner.run_pass("warmup")
        with SpeedProbe() as probe:
            passes = runner.timed_passes(args.seconds)
        raw_walls = [duration(p) for p in passes]
        scaled = [{name: probe.scaled(*span) for name, span in p.items()}
                  for p in passes]
        walls = [sum(p.values()) for p in scaled]
        groups = [group_sums(ops, p) for p in scaled]
        if args.trace:
            import tracing

            runner.tracer = tracing.Tracer()
            runner.tracer.install()
            try:
                traced, artifact_bytes = runner.run_pass("traced")
            finally:
                runner.tracer.uninstall()
            values = runner.tracer.layer_metrics()
            values["cli.artifact_bytes"] = artifact_bytes
            values["trace.overhead_s"] = (duration(traced)
                                          - statistics.median(raw_walls))
            for g in workloads.GROUPS:
                values[g] = statistics.median(gs.get(g, 0.0) for gs in groups)
            runner.tracer.save(
                WORK / (f"trace-{args.workload}-seed{args.seed}"
                        f"-pid{os.getpid()}.npz"), [op.name for op in ops])
        else:
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "pass_frac": 1.0 - runner.failed / runner.attempted,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  machine: {json.dumps(info)}")
    print(f"  seeded inputs: {json.dumps(drawn)}")
    if setup:
        print(summary_line("set-up, raw", "s", raw_setup))
        print(summary_line("setup_s", "s", setup))
    print(summary_line("timed pass, raw", "s", raw_walls))
    probes = [s for _, s in probe.samples]
    print(f"  speed probe median {statistics.median(probes) * 1e3:.4g} ms, "
          f"min {min(probes) * 1e3:.4g} ms over {len(probes)} samples "
          f"(reference {speed.REF * 1e3:g} ms)")
    print(summary_line("wall_s", "s", walls))
    for g in sorted(groups[0]):
        print(summary_line(g, "s", [gs[g] for gs in groups]))
    fail_frac = runner.failed / runner.attempted
    print(f"  fail_frac {fail_frac:.6g} ({runner.failed} of "
          f"{runner.attempted} operations)")
    for name, problems in runner.failures.items():
        known = workloads.KNOWN_FAILURES.get(name)
        tag = f"known failure: {known}" if known else "UNEXPECTED"
        print(f"  failed: {name}: {problems[0]} [{tag}]")
    # known failures show in pass_frac and above; "failed" and "correct"
    # report the failures nobody expects
    print(json.dumps({"correct": runner.unexpected == 0,
                      "attempted": runner.attempted,
                      "failed": runner.unexpected, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
