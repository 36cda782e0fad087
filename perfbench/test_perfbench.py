"""Smoke test of the benchmark itself, at a small size.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json

import pytest

import gate
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_KINDS = ("calls_per_point", "created_per_point", "draws_per_point", "rejected_ratio")


@pytest.fixture
def spec_paths(tmp_path):
    return workloads.write_specs(tmp_path)


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, spec_paths):
    runner, metrics = run.run_untraced(workload, 3, 0.2, spec_paths, setup_repeats=1)
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert runner.attempted > 0 and runner.failed == 0, runner.mismatches


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_with_repeatable_counts(workload, spec_paths):
    cli = run.import_cli()
    originals = (cli.metric_at, cli.main, cli.sample_admissible_points.__globals__["metric_at"])
    first = run.run_traced(workload, 5, 0.1, spec_paths)[1]
    runner, second = run.run_traced(workload, 5, 0.1, spec_paths)
    assert (cli.metric_at, cli.main, cli.sample_admissible_points.__globals__["metric_at"]) == originals
    assert {name: unit for name, (_, unit) in second.items()} == _declared("per_layer")
    assert runner.failed == 0, runner.mismatches
    counts = [name for name in first if name.endswith(COUNT_KINDS)]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["metric.metric_at.calls_per_point"][0] >= 1


def test_gate_trips_on_a_corrupted_result(spec_paths, monkeypatch):
    runner = run.Runner("point-queries", spec_paths)
    riemann_op = workloads.pool_ops("point-queries", 0)[2]
    assert riemann_op.key == "0/riemann"
    assert runner.call(riemann_op)[1] == 1 and runner.failed == 0

    original = runner.cli.riemann_from_metric

    def corrupted(M):
        R = original(M)
        R.low[...] *= 1 + 1e-6  # keeps every symmetry verdict passing
        return R

    monkeypatch.setattr(runner.cli, "riemann_from_metric", corrupted)
    assert runner.call(riemann_op)[1] == 0
    assert runner.failed == 1
    assert "results.components.R1212" in runner.mismatches[0]
    assert "exit code" not in runner.mismatches[0]


def test_gate_checks_exit_code_and_verdict_flags():
    expected = {"argv": [], "exit": 1, "points": 1, "verdicts": {"identity": False},
                "results": {"scale": 0.5, "n": 3}}
    report = {"verdicts": {"identity": {"pass": False, "residual": 1.0, "tol": 1e-9}},
              "results": {"scale": 0.5 * (1 + 1e-10), "n": 3}, "meta": {"n": 1}}
    assert gate.compare(expected, 1, json.dumps(report)) == []
    assert gate.compare(expected, 0, json.dumps(report))  # exit code differs
    report["verdicts"]["identity"]["pass"] = True
    assert gate.compare(expected, 1, json.dumps(report))  # pass flag differs
    report["verdicts"]["identity"]["pass"] = False
    report["results"]["n"] = 4
    assert gate.compare(expected, 1, json.dumps(report))  # integer differs
