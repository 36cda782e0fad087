#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the circulant3 CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload riemann-generic --seed 1 --seconds 20 --trace 0

Drives ``circulant3.cli.main(argv)`` in this one single-threaded process, as a
closed loop with one caller: the next call starts when the previous one has
returned. Every op's output is checked against the recorded reference
(``gate.py``). ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a run with spans installed from outside the program
(``tracing.py``). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The workloads and the
layer -> metric -> workload map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported: the machine is shared.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import gate
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
WINDOW_S = 1.0  # op time per speed-scaling window of an untraced run
# Ops per block in a traced run: the first block gives the call counts, the
# following blocks alternate untraced and traced for timing and overhead.
TRACE_BLOCK_OPS = {"riemann-generic": 8, "theorems-parallel": 4, "point-queries": 28}

END_TO_END = (
    ("points_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import circulant3.cli\n"
    "from circulant3.specfile import load_spec\n"
    "load_spec(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from circulant3 import cli

    return cli


class Runner:
    """Issues ops through cli.main and passes each through the correctness gate."""

    def __init__(self, workload: str, spec_paths: dict[str, str]):
        self.cli = import_cli()
        self.reference = gate.load_reference(workload)["ops"]
        self.spec_paths = spec_paths
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.notes: list[str] = []

    def call(self, op: workloads.Op) -> tuple[float, int]:
        """Run one op; returns its wall time and the points it evaluated (0 if wrong)."""
        argv = workloads.concrete_argv(op, self.spec_paths)
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed op; the run goes on
                rc, error = None, traceback.format_exc()
            seconds = perf_counter() - t0
        self.attempted += 1
        expected = self.reference.get(op.key)
        if expected is None or expected["argv"] != list(op.argv):
            problems = [f"no reference for {op.key} {op.argv}"]
        elif error is not None:
            problems = [error]
        else:
            problems = gate.compare(expected, rc, out.getvalue())
        if problems:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{op.key}: " + "; ".join(problems[:3]))
            return seconds, 0
        return seconds, expected["points"]


def _warm_up(runner: Runner, workload: str, seed: int) -> None:
    """Run the last pool entry of the seed's order, untimed, so lazy set-up is done."""
    for op in workloads.pool_ops(workload, workloads.pool_order(workload, seed)[-1]):
        runner.call(op)


def measure_setup(spec_path: str, repeats: int) -> tuple[float, float]:
    """Median time, in fresh interpreters, to import circulant3.cli and load the
    spec; returned raw and scaled to nominal machine speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = speed.SpeedProbe()
    samples = []
    for _ in range(repeats + 1):  # the first run writes bytecode and warms the file cache
        probe.sample()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, spec_path],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    raw = statistics.median(samples[1:])
    return raw, raw * probe.scale()


def run_untraced(workload: str, seed: int, seconds: float, spec_paths, setup_repeats=SETUP_REPEATS):
    """End-to-end metrics, with times scaled to nominal machine speed (speed.py).

    The run is cut into windows of about WINDOW_S of op time. Each window is
    scaled by the kernel timings taken between its blocks, so that drift in
    machine speed during the run cancels as far as the kernel sees it.
    points_per_s is the median over windows, so a burst of contention moves
    one window, not the result.
    """
    runner = Runner(workload, spec_paths)
    setup_raw, setup_s = measure_setup(spec_paths[workloads.spec_for_setup(workload)], setup_repeats)
    _warm_up(runner, workload, seed)
    blocks = workloads.op_blocks(workload, seed)
    windows = []  # (probe, op times, points)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not windows:
        probe, times, points = speed.SpeedProbe(), [], 0
        while sum(times) < WINDOW_S:
            probe.sample()
            for op in next(blocks):  # whole blocks, so every point-queries cycle is complete
                dt, n = runner.call(op)
                times.append(dt)
                points += n
        windows.append((probe, times, points))
    scaled = [t * probe.scale() for probe, times, _ in windows for t in times]
    rates = [points / (sum(times) * probe.scale()) for probe, times, points in windows]
    metrics = {
        "points_per_s": statistics.median(rates),
        "call_p50_ms": 1e3 * statistics.median(scaled),
        "call_p90_ms": 1e3 * statistics.quantiles(scaled, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    raw = [t for _, times, _ in windows for t in times]
    runner.notes.append(
        f"{len(raw)} calls in {len(windows)} windows; unscaled: "
        f"points_per_s={sum(p for *_, p in windows) / sum(raw):.6g} "
        f"call_p50_ms={1e3 * statistics.median(raw):.6g} "
        f"call_p90_ms={1e3 * statistics.quantiles(raw, n=10)[8]:.6g} setup_s={setup_raw:.6g}"
    )
    units = dict(END_TO_END)
    return runner, {name: (value, units[name]) for name, value in metrics.items()}


def _take(blocks, count: int) -> list[workloads.Op]:
    ops: list[workloads.Op] = []
    while len(ops) < count:
        ops += next(blocks)
    return ops


def _run_ops(runner: Runner, ops) -> tuple[float, int]:
    wall = points = 0
    for op in ops:
        dt, n = runner.call(op)
        wall += dt
        points += n
    return wall, points


PER_LAYER = (
    # name, unit, how it is computed (see per_layer_metrics)
    ("cli.build_parser.ms_per_call", "ms/call"),
    ("cli.main.self_ms_per_call", "ms/call"),
    ("specfile.load_spec.ms_per_call", "ms/call"),
    ("expressions.parse.calls_per_point", "calls/point"),
    ("expressions.eval_value.calls_per_point", "calls/point"),
    ("expressions.eval_jet.calls_per_point", "calls/point"),
    ("expressions.eval_jet.self_us_per_point", "us/point"),
    ("jets.Jet2.created_per_point", "jets/point"),
    ("metric.metric_at.calls_per_point", "calls/point"),
    ("metric.metric_at.self_us_per_point", "us/point"),
    ("sampling.draws_per_point", "draws/point"),
    ("sampling.rejected_ratio", "ratio"),
    ("sampling.sample_admissible_points.self_ms_per_call", "ms/call"),
    ("curvature.christoffel_from_metric.calls_per_point", "calls/point"),
    ("curvature.christoffel_from_metric.self_us_per_point", "us/point"),
    ("curvature.riemann_from_metric.calls_per_point", "calls/point"),
    ("curvature.riemann_from_metric.self_us_per_point", "us/point"),
    ("curvature.check_q_invariance.calls_per_point", "calls/point"),
    ("curvature.check_q_invariance.self_us_per_point", "us/point"),
    ("curvature.sectional_curvature.calls_per_point", "calls/point"),
    ("curvature.sectional_curvature.self_us_per_point", "us/point"),
    ("curvature.relations.self_us_per_point", "us/point"),
    ("qstructure.induces_q_basis.calls_per_point", "calls/point"),
    ("qstructure.q_basis_angles.self_us_per_point", "us/point"),
    ("parallelism.nabla_q_from_table.self_us_per_call", "us/call"),
    ("parallelism.parallel_residual_from_metric.self_us_per_call", "us/call"),
    ("trace.overhead_ratio", "ratio"),
)
RELATIONS = (
    "curvature.check_sectional_difference_formula",
    "curvature.check_sectional_combination_formula",
    "curvature.check_equal_sectional_curvatures",
)


def per_layer_metrics(counts, count_points, timed: tracing.Tracer, timed_points, overhead):
    """Per-layer values: call counts from the first traced block (exact for a
    seed), times summed over every traced block. Per point means per accepted
    sample point, which is per call for --at ops."""
    calls, total, own = timed.calls, timed.total_ns, timed.self_ns

    def per_point(name):
        return counts[name] / count_points

    def self_us(name):
        return own[name] / 1e3 / timed_points

    def per_call(counter, name, ns_per_unit):
        return counter[name] / ns_per_unit / calls[name] if calls[name] else 0.0

    draws = counts["sampling.is_admissible"]
    sampled = count_points if draws else 0
    values = {
        "cli.build_parser.ms_per_call": per_call(total, "cli.build_parser", 1e6),
        "cli.main.self_ms_per_call": per_call(own, "cli.main", 1e6),
        "specfile.load_spec.ms_per_call": per_call(total, "specfile.load_spec", 1e6),
        "jets.Jet2.created_per_point": per_point(tracing.JET_COUNTER),
        "sampling.draws_per_point": per_point("sampling.is_admissible"),
        "sampling.rejected_ratio": (draws - sampled) / draws if draws else 0.0,
        "sampling.sample_admissible_points.self_ms_per_call":
            per_call(own, "sampling.sample_admissible_points", 1e6),
        "curvature.relations.self_us_per_point": sum(self_us(n) for n in RELATIONS),
        "parallelism.nabla_q_from_table.self_us_per_call":
            per_call(own, "parallelism.nabla_q_from_table", 1e3),
        "parallelism.parallel_residual_from_metric.self_us_per_call":
            per_call(own, "parallelism.parallel_residual_from_metric", 1e3),
        "trace.overhead_ratio": overhead,
    }
    for name, _ in PER_LAYER:
        if name not in values:
            span, kind = name.rsplit(".", 1)
            values[name] = per_point(span) if kind == "calls_per_point" else self_us(span)
    return values


def run_traced(workload: str, seed: int, seconds: float, spec_paths):
    runner = Runner(workload, spec_paths)
    _warm_up(runner, workload, seed)
    block = TRACE_BLOCK_OPS[workload]
    blocks = workloads.op_blocks(workload, seed)
    timed = tracing.Tracer()
    deadline = perf_counter() + seconds
    with timed:
        traced_wall, traced_points = _run_ops(runner, _take(blocks, block))
    counts, count_points = timed.calls.copy(), traced_points
    untraced_wall = untraced_points = 0
    while perf_counter() < deadline or not untraced_points:
        wall, points = _run_ops(runner, _take(blocks, block))
        untraced_wall += wall
        untraced_points += points
        with timed:
            wall, points = _run_ops(runner, _take(blocks, block))
        traced_wall += wall
        traced_points += points
    overhead = (traced_wall / traced_points) / (untraced_wall / untraced_points)
    values = per_layer_metrics(counts, count_points, timed, traced_points, overhead)
    units = dict(PER_LAYER)
    return runner, {name: (values[name], units[name]) for name, _ in PER_LAYER}


def _source_id() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "circulant3").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return f"commit={commit} src_sha256={digest.hexdigest()[:16]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circulant3" / "cli.py").is_file():
        print(f"perfbench: no circulant3 sources under {SRC}", file=sys.stderr)
        return 2
    if not gate.reference_path(args.workload).is_file():
        print(f"perfbench: missing reference {gate.reference_path(args.workload)}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        spec_paths = workloads.write_specs(Path(tmp))
        run = run_traced if args.trace else run_untraced
        runner, metrics = run(args.workload, args.seed, args.seconds, spec_paths)

    import numpy

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
          f"{_source_id()} " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    for line in runner.notes:
        print(f"# {line}")
    for line in runner.mismatches:
        print(f"# MISMATCH {line}")
    failed_ratio = runner.failed / runner.attempted
    print(f"failed_ratio = {failed_ratio:.6g} ratio ({runner.failed} of {runner.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
