"""CLI contract: exit codes, JSON schema, determinism, golden output."""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import re
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from circulant3 import (
    builtin_example, christoffel_from_metric, cli, curvature, errors, load_spec, metric_at, parallelism,
    riemann_from_metric, sample_admissible_points,
)
from circulant3.cli import main

from exact import closed_form_error
from helpers import symmetry_verdicts_reference
from test_exact import C_CHRISTOFFEL, C_EPS, christoffel_errors

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

M5_SPEC = '''
name = "m5-file"

[metric]
A = "2*x1"
B = "2*x1 + x2 + x3"

[domain]
c1 = "2*x1 + x2 + x3"
c2 = "-x2 - x3"

[sample]
x1 = "1, 3"
x2 = "-2, -0.1"
x3 = "-2, -0.1"
'''

PARALLEL_SPEC = '''
name = "parallel-linear"

[metric]
A = "4*x1 + 2*x2 + 2"
B = "x1 + 2*x2 + 3*x3 + 1"

[sample]
x1 = "0.5, 1.5"
x2 = "0.3, 1.1"
x3 = "0.1, 0.7"
'''


@pytest.fixture()
def m5_spec(tmp_path):
    path = tmp_path / "m5.toml"
    path.write_text(M5_SPEC, encoding="utf-8")
    return str(path)


@pytest.fixture()
def parallel_spec(tmp_path):
    path = tmp_path / "parallel.toml"
    path.write_text(PARALLEL_SPEC, encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_report_schema(capsys, m5_spec):
    code, report = run_json(capsys, ["riemann", "--spec", m5_spec, "--at", "2,-1,-1"])
    assert set(report) == {"command", "spec_name", "inputs", "results", "verdicts", "meta"}
    assert report["command"] == "riemann"
    assert report["spec_name"] == "m5-file"
    assert report["inputs"]["point"] == [2.0, -1.0, -1.0]
    assert report["results"]["components"]["R1212"] == -0.125
    for verdict in report["verdicts"].values():
        assert set(verdict) == {"pass", "residual", "tol"}
        assert isinstance(verdict["pass"], bool)
    assert report["meta"] == {"seed": None, "n": 1}
    assert code == 0


def test_example_battery_exit_code_and_verdicts(capsys):
    code, report = run_json(capsys, ["example-m5", "--at", "2,-1,-1"])
    v = report["verdicts"]
    assert v["diagonal_matches_formula"]["pass"]
    assert v["closed_form_diagonal_match"]["pass"]
    assert v["not_parallel"]["pass"]
    assert v["not_flat"]["pass"]
    # the reference cross-component and invariance claims fail on the actual
    # curvature tensor; the battery reports that honestly
    assert not v["cross_components_zero"]["pass"]
    assert not v["identity_q_invariance"]["pass"]
    assert code == 1


def test_example_battery_golden_json(capsys):
    code = main(["example-m5", "--at", "2,-1,-1", "--json"])
    out = capsys.readouterr().out
    golden = (DATA / "example_m5_at.json").read_text(encoding="utf-8")
    assert out == golden
    assert code == 1


def test_json_byte_stability(capsys):
    main(["example-m5", "--at", "2,-1,-1", "--json"])
    first = capsys.readouterr().out
    main(["example-m5", "--at", "2,-1,-1", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_sampling_determinism(capsys, m5_spec):
    args = ["check-identity", "--spec", m5_spec, "--sample", "10", "--seed", "7"]
    code1, rep1 = run_json(capsys, args)
    code2, rep2 = run_json(capsys, args)
    assert code1 == code2
    assert rep1 == rep2
    main(args + ["--json"])
    raw1 = capsys.readouterr().out
    main(args + ["--json"])
    raw2 = capsys.readouterr().out
    assert raw1 == raw2
    _, rep3 = run_json(capsys, args[:-1] + ["8"])
    assert rep3 != rep1


def test_sampled_meta_and_counts(capsys, m5_spec):
    code, report = run_json(
        capsys, ["check-identity", "--spec", m5_spec, "--sample", "5", "--seed", "7"]
    )
    assert report["meta"] == {"seed": 7, "n": 5}
    assert report["results"]["points_accepted"] == 5
    counts = report["results"]["pass_counts"]
    assert counts["routes_agree"] == 5
    assert counts["identity"] == 0  # fails at every admissible point
    assert code == 1


def test_exit_code_usage_errors(capsys, m5_spec):
    assert main(["riemann", "--at", "1,2,3"]) == 2  # no --spec
    assert main(["riemann", "--spec", m5_spec, "--at", "1,2"]) == 2  # bad triple
    assert main(["riemann", "--spec", m5_spec]) == 2  # no --at
    assert main(["no-such-command"]) == 2
    assert main(["sectional", "--spec", m5_spec, "--at", "2,-1,-1"]) == 2  # missing --x/--y
    assert main(["angles", "--spec", m5_spec, "--at", "2,-1,-1", "--vector", "1,1,1"]) == 2
    assert main(["example-m5", "--spec", m5_spec, "--at", "2,-1,-1"]) == 2
    capsys.readouterr()


def _subparsers():
    """The parser of each subcommand, by name, from the shared command-line parser."""
    (commands,) = (a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return commands


POINT_OPTIONS = ("-h", "--help", "--at", "--json")
SAMPLED_OPTIONS = ("--sample", "--box", "--seed")
WEAK = "--allow-weak-metric"  # every command that builds a metric and whose result it can change
OPTIONS = {  # beside POINT_OPTIONS; --tol only where a verdict reads it
    "validate": ("--spec", *SAMPLED_OPTIONS, WEAK),
    "christoffel": ("--spec", "--fd-check", WEAK),
    "riemann": ("--spec", *SAMPLED_OPTIONS, "--tol", WEAK),
    "closed-form": ("--spec", *SAMPLED_OPTIONS, WEAK),
    "compare-curvature": ("--spec", *SAMPLED_OPTIONS, "--tol", WEAK),
    "sectional": ("--spec", "--x", "--y", WEAK),
    "angles": ("--spec", "--vector", WEAK),
    "qbasis": ("--spec", "--vector"),
    "orthobasis": ("--spec", *SAMPLED_OPTIONS, "--tol"),
    "check-identity": ("--spec", *SAMPLED_OPTIONS, "--tol", WEAK),
    "check-parallel": ("--spec", *SAMPLED_OPTIONS, "--tol", WEAK),
    "nabla-q": ("--spec", *SAMPLED_OPTIONS, WEAK),
    "verify-theorems": ("--spec", *SAMPLED_OPTIONS, "--vector", "--n-vectors", "--tol"),
    "example-m5": (*SAMPLED_OPTIONS, "--tol"),
}


def test_each_command_accepts_exactly_its_options():
    accepted = {
        command: sorted(s for action in parser._actions for s in action.option_strings)
        for command, parser in _subparsers().items()
    }
    assert accepted == {command: sorted(POINT_OPTIONS + options) for command, options in OPTIONS.items()}


def test_every_option_is_of_a_kind_the_walk_parses():
    # cli._walk parses a store action of one value with no choices and no string default (argparse would
    # pass a string default through the action's type) and a store_true action; every command is tabled
    for command, parser in _subparsers().items():
        for action in parser._actions:
            kind = type(action)
            store = kind is argparse._StoreAction and action.nargs is None and action.choices is None
            assert (store and not isinstance(action.default, str)) or kind in (
                argparse._StoreTrueAction, argparse._HelpAction
            ), (command, action.option_strings)
    assert list(cli._option_tables()) == list(cli._CORES)


OPTION_VALUES = {  # an argument of each option that takes one; the spec file is never opened
    "--spec": "m.toml",
    "--at": "1,2,3",
    "--sample": "3",
    "--box": "0:1,0:1,0:1",
    "--seed": "4",
    "--tol": "1e-6",
    "--vector": "1,0,0",
    "--n-vectors": "2",
    "--x": "1,0,0",
    "--y": "0,1,0",
}


def _argvs_of(command, options):
    """Argvs of command: every option it takes, with --at or with --sample, spaced, joined by '=' and
    abbreviated; then only what it requires."""
    names = [o for o in (*POINT_OPTIONS, *options) if o not in ("-h", "--help", "--at", "--sample")]
    for where in ("--at", "--sample") if "--sample" in options else ("--at",):
        pairs = [(o, OPTION_VALUES.get(o)) for o in (where, *names)]
        spaced = [a for o, v in pairs for a in (o, v) if a is not None]
        joined = [o if v is None else f"{o}={v}" for o, v in reversed(pairs)]
        abbreviated = [a for o, v in pairs for a in (o[:-1] if len(o) > 4 else o, v) if a is not None]
        yield from ([command, *spaced], [command, *joined], [command, *abbreviated])
    required = {"qbasis": ["--vector=1,1,0"], "angles": ["--vector=1,1,0"], "sectional": ["--x=1,0,0", "--y=0,0,1"]}
    spec = ["--spec", "m.toml"] if "--spec" in options and command != "qbasis" else []
    yield [command, *spec, *required.get(command, []), *([] if command == "qbasis" else ["--at=0,0,0"])]


def _plain(namespace):
    return [(k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(namespace).items()]


def test_main_parses_every_argv_as_the_parser_does(capsys, monkeypatch):
    parsed = []

    def run(args):
        parsed.append(args)
        return {"command": args.command, "spec_name": "-", "inputs": {}, "results": {}, "verdicts": {}, "meta": {}}

    monkeypatch.setattr(cli, "_run", run)
    for command, options in OPTIONS.items():
        for argv in _argvs_of(command, options):
            assert main(argv) == 0, argv
            assert _plain(parsed.pop()) == _plain(cli.build_parser().parse_args(argv)), argv
    capsys.readouterr()


_EMPTY_REPORT = {"command": "-", "spec_name": "-", "inputs": {}, "results": {}, "verdicts": {}, "meta": {}}


def _perfbench_pool_argvs(entries):
    """The argv of the first entries of each perfbench pool, as perfbench/workloads.py writes them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclass
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    paths = {"generic": "generic.toml", "parallel": "parallel.toml"}
    return [
        workloads.concrete_argv(op, paths)
        for name in workloads.WORKLOADS
        for index in range(entries)
        for op in workloads.pool_ops(name, index)
    ]


def test_main_parses_the_perfbench_pools_argv_with_no_argparse_parse(capsys, monkeypatch):
    parsed, parses = [], []
    monkeypatch.setattr(cli, "_run", lambda args: parsed.append(args) or _EMPTY_REPORT)
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    argvs = _perfbench_pool_argvs(4)
    assert {argv[0] for argv in argvs} == set(OPTIONS)  # the point-queries pool runs every command
    for argv in argvs:
        assert main(argv) == 0, argv
    assert parses == []
    for argv, args in zip(argvs, parsed):
        assert _plain(args) == _plain(cli.build_parser().parse_args(argv)), argv
    capsys.readouterr()


# argvs that the walk over a command's option table hands to build_parser().parse_args, beside those of
# main_argv_texts.json: argparse accepts them as written, abbreviated or repeated, refuses them or prints help
HANDED_OVER = [
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "--at=1,2,4"],  # a repeated option: argparse keeps the last
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "--json", "--json"],
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "--json=1"],
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "--json="],
    ["riemann", "--spec", "m.toml", "--sample", "3", "--seed", "-1"],
    ["riemann", "--spec", "m.toml", "--sample", "3", "--seed=-1"],
    ["riemann", "--spec", "m.toml", "--at"],
    ["riemann", "--spec", "m.toml", "--at", "--json"],
    ["riemann", "--spec", "m.toml", "--", "--at=1,2,3"],
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "--"],
    ["riemann", "--spec=--", "--at=1,2,3"],  # argparse drops a value '--'
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "-h"],
    ["riemann", "--spec", "m.toml", "--at=1,2,3", "--sample", "3"],
    ["riemann", "--spec", "m.toml", "--at=1,2,x"],
    ["riemann", "--at=1,2,3"],
    ["riemann", "--spec", "m.toml"],
    ["qbasis", "--vec=1,2,3", "--json"],  # an abbreviation
]


@pytest.mark.parametrize("argv", HANDED_OVER, ids=" ".join)
def test_main_hands_what_the_walk_cannot_parse_to_the_parser(capsys, monkeypatch, argv):
    assert cli._walk(argv, cli._option_tables()[argv[0]]) is None
    parsed = []
    monkeypatch.setattr(cli, "_run", lambda args: parsed.append(args) or _EMPTY_REPORT)
    code = main(argv)
    got = (code, *capsys.readouterr()) if not parsed else _plain(parsed.pop())
    try:
        want = _plain(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        want = (exc.code, *capsys.readouterr())
    assert got == want


def test_main_prints_what_the_parser_prints_where_it_refuses_an_argv(capsys, monkeypatch):
    # recorded from main when it handed every argv to build_parser().parse_args, at 80 columns:
    # help, --version, an unknown command, an option before the command, arguments left over, '--'
    monkeypatch.setenv("COLUMNS", "80")
    for case in json.loads((DATA / "main_argv_texts.json").read_text(encoding="utf-8")):
        assert _call(capsys, case["argv"]) == (case["exit_code"], case["stdout"], case["stderr"]), case["argv"]


def _python(*args):
    """python *args in a fresh interpreter that imports this checkout's package."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_python_m_circulant3_runs_the_command_line():
    done = _python("-m", "circulant3", "--version")
    assert (done.returncode, done.stdout) == (0, "circulant3 0.1.0\n")


def test_sectional_refuses_a_curvature_that_overflows_with_one_stderr_line(tmp_path):
    # the quotient overflows before it is scaled back; the refusal is the only line on stderr, with
    # Python's default warning filter in force, as the console script runs
    spec = tmp_path / "hessian.toml"
    spec.write_text('[metric]\nA = "8.9e307*x1^2 + 3"\nB = "1"\n', encoding="utf-8")
    argv = ["sectional", "--spec", str(spec), "--at=1e-200,0,0", "--x=1,-1,0", "--y=1,1,-2"]
    done = _python("-W", "default", "-m", "circulant3", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "error (sectional): sectional curvatures are not finite where A=3.0, B=1.0\n"
    )


@pytest.mark.parametrize(
    "message, argv",
    [
        ("--tol ", ["check-parallel", "--at", "2,-1,-1", "--tol", "nan"]),
        ("--tol ", ["check-parallel", "--at", "2,-1,-1", "--tol=-1e-9"]),
        ("--sample ", ["riemann", "--sample", "0"]),
        ("--sample ", ["riemann", "--sample", "-2"]),
        ("--n-vectors ", ["verify-theorems", "--at", "2,-1,-1", "--n-vectors", "0"]),
        ("--at ", ["riemann", "--at=nan,0,0"]),
        ("--at ", ["riemann", "--at=inf,-1,-1"]),
        ("--box ", ["riemann", "--sample", "2", "--box=1:inf,-2:-0.1,-2:-0.1"]),
        ("bad number in --at '1,x,3'", ["riemann", "--at=1,x,3"]),
        ("--box needs three low:high intervals, got '1:2,1:2'", ["riemann", "--sample", "2", "--box=1:2,1:2"]),
        ("interval must be low:high, got '1-2'", ["riemann", "--sample", "2", "--box=1-2,1:2,1:2"]),
        ("bad bound in 'a:2'", ["riemann", "--sample", "2", "--box=1:2,a:2,1:2"]),
        ("argument --sample: not allowed with argument --at", ["riemann", "--at=2,-1,-1", "--sample", "2"]),
        # a bad option is refused before the point is evaluated, so an inadmissible point does not exit 3
        ("required: --x", ["sectional", "--at=0,0,0", "--y=0,1,0"]),
        ("argument --vector: bad number in --vector '1,a,0'", ["verify-theorems", "--at=0,0,0", "--vector=1,a,0"]),
        ("argument --vector: --vector must be finite", ["angles", "--at=0,0,0", "--vector=1,0,inf"]),
        ("--n-vectors must be at least 1, got 0", ["verify-theorems", "--at=0,0,0", "--n-vectors=0"]),
        ("--n-vectors must be at least 1, got 0",
         ["verify-theorems", "--sample=3", "--box=-3:-2,-1:1,-1:1", "--n-vectors=0"]),
        # --n-vectors is checked even where --vector makes it unused
        ("--n-vectors must be at least 1, got 0",
         ["verify-theorems", "--at=2,-1,-1", "--vector=1,0,0", "--n-vectors=0"]),
        # only angles, qbasis and verify-theorems read --vector; the other commands refuse it
        ("unrecognized arguments: --vector=2,0,1", ["riemann", "--at=0.5,0.2,-0.3", "--vector=2,0,1"]),
        ("--seed must be at least 0, got -1", ["riemann", "--sample", "3", "--seed=-1"]),
        ("--seed must be at least 0, got -1", ["check-identity", "--at=0,0,0", "--seed=-1"]),
        ("--seed must be at least 0, got -1", ["verify-theorems", "--at=0,0,0", "--seed=-1"]),
        # the commands in cli.NOT_SAMPLED take no --sample, and example-m5 no --spec
        ("unrecognized arguments: --sample 2", ["christoffel", "--at=2,-1,-1", "--sample", "2"]),
        ("unrecognized arguments: --spec", ["example-m5", "--at=2,-1,-1"]),
        # --box is checked beside --at too, where it is unused
        ("--box needs three low:high intervals, got '1:2'", ["riemann", "--at=2,-1,-1", "--box=1:2"]),
        # only the commands whose verdicts read --tol take it, and qbasis builds no metric
        ("unrecognized arguments: --tol=0", ["closed-form", "--at=2,-1,-1", "--tol=0"]),
        ("unrecognized arguments: --tol=0", ["angles", "--at=2,-1,-1", "--vector=1,0,0", "--tol=0"]),
        ("unrecognized arguments: --allow-weak-metric", ["qbasis", "--vector=1,0,0", "--allow-weak-metric"]),
        # nor do the commands that need A > B > 0 at every point they run on
        ("unrecognized arguments: --allow-weak-metric", ["orthobasis", "--at=2,-1,-1", "--allow-weak-metric"]),
        ("unrecognized arguments: --allow-weak-metric",
         ["verify-theorems", "--at=2,-1,-1", "--allow-weak-metric"]),
        ("unrecognized arguments: --allow-weak-metric", ["example-m5", "--at=2,-1,-1", "--allow-weak-metric"]),
    ],
    ids=["tol-nan", "tol-negative", "sample-zero", "sample-negative", "n-vectors-zero",
         "at-nan", "at-inf", "box-inf", "at-not-a-number", "box-two-intervals", "box-no-colon",
         "box-bad-bound", "at-and-sample", "x-missing-at-inadmissible-point",
         "vector-not-a-number-at-inadmissible-point", "vector-inf-at-inadmissible-point",
         "n-vectors-zero-at-inadmissible-point", "n-vectors-zero-on-an-exhausting-box",
         "n-vectors-zero-with-vector", "vector-on-a-command-that-does-not-read-it",
         "seed-negative-sampled", "seed-negative-check-identity", "seed-negative-verify-theorems",
         "sample-on-a-command-that-is-not-sampled", "spec-on-example-m5", "box-malformed-beside-at",
         "tol-on-closed-form", "tol-on-angles", "allow-weak-metric-on-qbasis",
         "allow-weak-metric-on-orthobasis", "allow-weak-metric-on-verify-theorems",
         "allow-weak-metric-on-example-m5"],
)
def test_bad_numeric_option_is_usage_error(capsys, m5_spec, message, argv):
    assert main(argv + ["--spec", m5_spec]) == 2
    assert message in capsys.readouterr().err


def test_tol_zero_is_not_replaced_by_default(capsys, m5_spec):
    code, report = run_json(
        capsys, ["check-parallel", "--spec", m5_spec, "--at", "2,-1,-1", "--tol", "0"]
    )
    assert report["verdicts"]["parallel"]["tol"] == 0.0
    assert code == 1


def test_verify_theorems_builds_no_christoffel_table(capsys, monkeypatch, parallel_spec):
    # the curvature is formed in the eigenframe from the jets, with no Christoffel symbols
    import circulant3.curvature as curvature

    original = curvature.christoffel_from_metric
    built = []

    def counting(M):
        built.append(M)
        return original(M)

    monkeypatch.setattr(curvature, "christoffel_from_metric", counting)
    assert main(["verify-theorems", "--spec", parallel_spec, "--at", "1,0.7,0.4"]) == 0
    assert built == []
    capsys.readouterr()


def test_exit_code_domain_errors(capsys, m5_spec, tmp_path):
    assert main(["riemann", "--spec", m5_spec, "--at", "0,0,0"]) == 3
    free = tmp_path / "noconstraints.toml"
    free.write_text('[metric]\nA = "2*x1"\nB = "2*x1 + x2 + x3"\n', encoding="utf-8")
    assert main(["riemann", "--spec", str(free), "--at", "0,0,0"]) == 3
    # box entirely outside the chart: rejection sampling exhausts
    assert (
        main(
            ["check-identity", "--spec", m5_spec, "--sample", "3", "--seed", "0",
             "--box=-3:-2,-1:1,-1:1"]
        )
        == 3
    )
    capsys.readouterr()


NAN_CONSTRAINT = "x1*1e300*1e300 - x1*1e300*1e300 + 1"  # inf - inf at x1 > 0


@pytest.mark.parametrize("command", ["riemann", "validate"])
def test_chart_constraint_that_is_nan_is_an_evaluation_error(capsys, tmp_path, command):
    spec = tmp_path / "nan.toml"
    spec.write_text(f'[metric]\nA = "3"\nB = "1"\n[domain]\nc1 = "{NAN_CONSTRAINT}"\n', encoding="utf-8")
    assert main([command, "--spec", str(spec), "--at", "1,0,0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error ({command}): domain constraint evaluates to nan at point (1.0, 0.0, 0.0) "
        f"in subexpression '{NAN_CONSTRAINT}'\n"
    )
    assert "nan <= 0" not in err


def test_chart_constraints_are_refused_in_order_and_infinities_by_comparison(capsys, tmp_path):
    spec = tmp_path / "order.toml"
    # the constraint before the NaN one fails first; inf is inside the chart and -inf outside it
    for domain, message in (
        (f'c0 = "x1 - 2"\nc1 = "{NAN_CONSTRAINT}"', "domain constraint 'x1 - 2' is -1.0 <= 0"),
        ('c0 = "x1*1e300*1e300"\nc1 = "-x1*1e300*1e300"', "domain constraint '-x1*1e300*1e300' is -inf <= 0"),
    ):
        spec.write_text(f'[metric]\nA = "3"\nB = "1"\n[domain]\n{domain}\n', encoding="utf-8")
        assert main(["riemann", "--spec", str(spec), "--at", "1,0,0"]) == 3
        assert capsys.readouterr().err == f"error (riemann): {message} at point (1.0, 0.0, 0.0)\n"


# One instance of each error class the package raises, and of an OSError, with the exit
# code and the one line main prints for it
REFUSALS = (
    (errors.CirculantError("any refusal"), 2, "any refusal"),
    (errors.ExprSyntaxError("unexpected ')'", 3, ("number",)), 2,
     "unexpected ')' at offset 3 (expected number)"),
    (errors.EvalDomainError("math domain error", "log(x1)"), 3, "math domain error in subexpression 'log(x1)'"),
    (errors.PositivityViolation(2.0, -0.1, (0.5, 1, 2)), 3,
     "metric positivity A > B > 0 violated: A=2.0, B=-0.1 at point (0.5, 1.0, 2.0)"),
    (errors.DomainViolation("x1", -1.0, (-1, 0, 0)), 3,
     "domain constraint 'x1' is -1.0 <= 0 at point (-1.0, 0.0, 0.0)"),
    (errors.NotAQBasis("vector (1.0, 1.0, 1.0) does not induce a q-basis"), 2,
     "vector (1.0, 1.0, 1.0) does not induce a q-basis"),
    (errors.AngleRoutesDisagree("angle routes disagree"), 3, "angle routes disagree"),
    (errors.DegeneratePlane("span no plane"), 2, "span no plane"),
    (errors.IdentityRNotSatisfied("q-invariance fails\nso the verification is refused"), 1,
     "q-invariance fails\nso the verification is refused"),
    (errors.SamplingExhausted("accepted only 0 of 3 requested points"), 3,
     "accepted only 0 of 3 requested points"),
    (errors.SpecFileError("unknown key 'x4'", 7, 1), 2, "unknown key 'x4' (line 7, column 1)"),
    (FileNotFoundError(2, "No such file or directory", "absent.toml"), 2,
     "[Errno 2] No such file or directory: 'absent.toml'"),
)


def test_each_refusal_exits_with_the_code_of_its_class(capsys, monkeypatch):
    assert {type(exc) for exc, _, _ in REFUSALS} >= set(errors.CirculantError.__subclasses__())
    for exc, exit_code, message in REFUSALS:
        def refuse(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_run", refuse)
        assert main(["riemann", "--spec", "any.toml", "--at=0,0,0"]) == exit_code, exc
        assert capsys.readouterr() == ("", f"error (riemann): {message}\n")


METRIC = '[metric]\nA = "3"\nB = "1"\n'
SAMPLE = '[sample]\nx1 = "0, 1"\nx2 = "0, 1"\n'

# (spec text, where the point comes from, the message)
BAD_SPECS = (
    (METRIC + METRIC, "--at=0,0,0", "duplicate section [metric] (line 4)"),
    ('title = "m"\n' + METRIC, "--at=0,0,0", "unknown top-level key 'title'"),
    (METRIC + SAMPLE + 'x3 = "1"\n', "--at=0,0,0", "interval must be 'low, high', got '1' (line 7, column 7)"),
    (METRIC + SAMPLE + 'x3 = "0, a"\n', "--at=0,0,0", "bad interval bound in '0, a' (line 7, column 7)"),
    (METRIC + SAMPLE + 'x3 = "0, 1"\nx4 = "0, 1"\n', "--at=0,0,0", "unknown key 'x4' in [sample]"),
    (METRIC, "--sample=2", "sampling needs [sample] in the spec file or --box"),
)


def test_exit_code_spec_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text('[metric]\nA = "2**x1"\nB = "1"\n', encoding="utf-8")
    assert main(["riemann", "--spec", str(bad), "--at", "0,0,0"]) == 2
    assert main(["riemann", "--spec", str(tmp_path / "absent.toml"), "--at", "0,0,0"]) == 2
    capsys.readouterr()
    for text, where, message in BAD_SPECS:
        bad.write_text(text, encoding="utf-8")
        assert main(["riemann", "--spec", str(bad), where]) == 2, message
        assert message in capsys.readouterr().err


def test_spec_file_that_is_not_utf8_or_too_deep_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_bytes(b'[metric]\nA = "3\xff"\nB = "1"\n')
    assert main(["riemann", "--spec", str(bad), "--at", "0,0,0"]) == 2
    assert capsys.readouterr().err == (
        f"error (riemann): spec file {str(bad)!r} is not UTF-8 text: invalid start byte (line 2)\n"
    )
    bad.write_text(f'[metric]\nA = "{"(" * 3000 + "x1" + ")" * 3000}"\nB = "1"\n', encoding="utf-8")
    assert main(["riemann", "--spec", str(bad), "--at", "0,0,0"]) == 2
    assert capsys.readouterr().err == (
        "error (riemann): invalid expression: expression nested deeper than 100 levels "
        "at offset 99 (line 2, column 105)\n"
    )


def test_a_flat_sum_of_any_length_is_a_field(capsys, tmp_path):
    # a chain of one operator is one level deep: 3 + x1 + ... + x1 is the field 3 + 3000 x1, bit for bit
    outputs = []
    for A in ("3" + " + x1" * 3000, "3 + 3000*x1"):
        spec = tmp_path / "sum.toml"
        spec.write_text(f'name = "sum"\n[metric]\nA = "{A}"\nB = "1"\n', encoding="utf-8")
        outputs.append(_call(capsys, ["riemann", "--spec", str(spec), "--at", "0.25,0,0", "--json"]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_verify_theorems_refusal_and_success(capsys, m5_spec, parallel_spec):
    assert main(["verify-theorems", "--spec", m5_spec, "--at", "2,-1,-1"]) == 1
    err = capsys.readouterr().err
    assert "refused" in err
    code, report = run_json(
        capsys, ["verify-theorems", "--spec", parallel_spec, "--at", "1,0.7,0.4", "--seed", "3"]
    )
    assert code == 0
    assert all(v["pass"] for v in report["verdicts"].values())


def test_verify_theorems_sampled(capsys, parallel_spec):
    code, report = run_json(
        capsys, ["verify-theorems", "--spec", parallel_spec, "--sample", "4", "--seed", "5"]
    )
    assert code == 0
    assert report["results"]["pass_counts"]["sectional_difference"] == 4
    assert report["results"]["pass_counts"]["sectional_combination"] == 4
    assert report["results"]["pass_counts"]["equal_sectional"] == 4


def test_validate_exit_codes(capsys, m5_spec):
    assert main(["validate", "--spec", m5_spec, "--at", "2,-1,-1"]) == 0
    assert main(["validate", "--spec", m5_spec, "--at", "0,0,0"]) == 3
    capsys.readouterr()


LOG_DOMAIN_SPEC = '[metric]\nA = "4 + log(x1)"\nB = "1 + x2/4"\n[domain]\nc1 = "x1 + 2"\nc2 = "log(x2 + 5)"\n'


@pytest.mark.parametrize("extra", [[], ["--json"], ["--allow-weak-metric"]], ids=["text", "json", "weak"])
def test_validate_refuses_a_point_that_does_not_evaluate_as_riemann_does(capsys, tmp_path, extra):
    # log(x1) fails to evaluate at each point; a constraint fails first at x1 = -3 and at x2 = -6
    spec = tmp_path / "log-domain.toml"
    spec.write_text(LOG_DOMAIN_SPEC, encoding="utf-8")
    for x1, x2 in itertools.product((-3, -1, 0), (-6, 0)):
        head = ["--spec", str(spec), f"--at={x1},{x2},0", *extra]
        validate, riemann = (_call(capsys, [command, *head]) for command in ("validate", "riemann"))
        assert validate[:2] == riemann[:2] == (3, "")
        assert riemann[2].startswith("error (riemann): ")
        assert validate[2] == riemann[2].replace("error (riemann): ", "error (validate): ", 1)


@pytest.mark.parametrize(
    "A, at, message",
    [
        ("4 + log(x1)", "1e-300,0,0", "log of a jet overflows in a derivative at 1e-300 in subexpression 'log(x1)'"),
        ("3 + 1/x1", "1e-120,0,0", "division by a jet overflows in a derivative at 1e-120 in subexpression '1/x1'"),
        ("3 + sqrt(x1)", "1e-300,0,0", "sqrt of a jet overflows in a derivative at 1e-300 in subexpression 'sqrt(x1)'"),
    ],
    ids=["log", "reciprocal", "sqrt"],
)
def test_a_derivative_that_overflows_at_a_tiny_value_is_named(capsys, tmp_path, A, at, message):
    # x1 is not 0, but a power of it that a derivative divides by underflows to 0
    spec = tmp_path / "tiny-x1.toml"
    spec.write_text(f'[metric]\nA = "{A}"\nB = "1 + x2/4"\n', encoding="utf-8")
    for command in ("riemann", "validate"):
        assert main([command, "--spec", str(spec), f"--at={at}"]) == 3
        assert capsys.readouterr().err == f"error ({command}): {message}\n"


def test_a_power_that_overflows_is_named_with_the_error_text(capsys, tmp_path):
    # float pow raises OverflowError(ERANGE, its C library text); the message shows the text alone
    spec = tmp_path / "power.toml"
    spec.write_text('[metric]\nA = "3 + x1^2/5"\nB = "1"\n', encoding="utf-8")
    for command in ("riemann", "validate"):
        assert main([command, "--spec", str(spec), "--at=1e308,1e308,1e308"]) == 3
        assert capsys.readouterr().err == (
            f"error ({command}): Numerical result out of range in subexpression 'x1^2'\n"
        )


@pytest.mark.parametrize(
    "A, same, at",
    [("3 + x1^1", "3 + x1", "1e-310,0,0"), ("3 + x1^0", "4", "1e-160,0,0")],
    ids=["x1^1", "x1^0"],
)
def test_a_power_with_a_vanishing_derivative_evaluates_at_a_tiny_value(capsys, tmp_path, A, same, at):
    # the derivatives of x1^1 and x1^0 with a zero coefficient form no x1^-1 or x1^-2, which overflow here
    results = []
    for name, field in (("power", A), ("same", same)):
        spec = tmp_path / f"{name}.toml"
        spec.write_text(f'[metric]\nA = "{field}"\nB = "1"\n', encoding="utf-8")
        code, report = run_json(capsys, ["riemann", "--spec", str(spec), f"--at={at}"])
        assert code == 0
        results.append(report["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError("Unable to allocate 4.37 TiB for an array with shape (200000000000, 3) and data type float64"),
         "out of memory: Unable to allocate 4.37 TiB for an array with shape (200000000000, 3) and data type float64"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_running_out_of_memory_is_usage_error(capsys, monkeypatch, m5_spec, error, message):
    # never a real allocation: a request that is granted may exhaust the machine
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, "sample_admissible_points", exhausted)
    assert main(["riemann", "--spec", m5_spec, "--sample", "100000000000"]) == 2
    assert capsys.readouterr().err == f"error (riemann): {message}\n"


# q is parallel (lambda = A + 2B depends on x1 + x2 + x3 alone, nu = A - B on x1 - x2 and
# x2 - x3 alone) and the Hessians are not 0, so the metric is curved
CURVED_PARALLEL_SPEC = '[metric]\nA = "30 - 2*(x1 - x2)^2 + 4*x1 + 2*x2"\nB = "5 + (x1 - x2)^2 + x1 + 2*x2 + 3*x3"\n'


def test_check_parallel_verdicts(capsys, tmp_path, m5_spec, parallel_spec):
    code, report = run_json(capsys, ["check-parallel", "--spec", parallel_spec, "--at", "1,0.7,0.4"])
    assert code == 0
    assert report["verdicts"]["parallel"]["pass"]
    curved = tmp_path / "curved-parallel.toml"
    curved.write_text(CURVED_PARALLEL_SPEC, encoding="utf-8")
    sampled = ["--spec", str(curved), "--sample", "50", "--seed", "3", "--box=-1:1,-1:1,-1:1"]
    for command in ("check-parallel", "check-identity"):
        code, report = run_json(capsys, [command, *sampled])
        assert code == 0 and report["results"]["points_accepted"] == 50, report
    code, report = run_json(capsys, ["riemann", "--spec", str(curved), "--at=0.3,-0.2,0.1"])
    assert code == 0 and report["results"]["components"]["R1212"] < -2.0
    code, report = run_json(capsys, ["check-parallel", "--spec", m5_spec, "--at", "2,-1,-1"])
    assert code == 1
    assert not report["verdicts"]["parallel"]["pass"]
    assert report["verdicts"]["routes_agree"]["pass"]
    assert report["results"]["gradient_residual"] == [2.0, -2.0, -2.0]


# q-parallel but for a term 1e-4 x3 in A, at two scales of g: grad A - grad B . MIRROR is 1e-4 and 1e-12, while
# the criterion over lam and nu is 6.9e-12 and 6.9e-8, as nabla q is 2.8e-12 and 2.8e-8: the verdicts follow the
# criterion of degree 0, not the gradients, which scale with g
NEARLY_PARALLEL_SPECS = {
    "large": ('A = "4e6*x1 + 2e6*x2 + 2e7 + 1e-4*x3"\nB = "1e6*x1 + 2e6*x2 + 3e6*x3 + 5e6"', 0, True),
    "small": ('A = "4e-6*x1 + 2e-6*x2 + 2e-5 + 1e-12*x3"\nB = "1e-6*x1 + 2e-6*x2 + 3e-6*x3 + 5e-6"', 1, False),
}


@pytest.mark.parametrize("scale", NEARLY_PARALLEL_SPECS)
def test_check_parallel_verdicts_do_not_depend_on_the_scale_of_g(capsys, tmp_path, scale):
    fields, want_code, parallel = NEARLY_PARALLEL_SPECS[scale]
    spec = tmp_path / "spec.toml"
    spec.write_text(f"[metric]\n{fields}\n", encoding="utf-8")
    code, report = run_json(capsys, ["check-parallel", "--spec", str(spec), "--at=0.1,0.2,0.3"])
    assert code == want_code
    assert report["verdicts"]["parallel"]["pass"] is parallel
    assert report["verdicts"]["routes_agree"]["pass"]
    assert report["results"]["gradient_residual_max"] == (1e-4 if scale == "large" else 1e-12)


def test_check_parallel_forms_the_eigenframe_jets_once_per_call(capsys, monkeypatch, m5_spec, parallel_spec):
    # the Christoffel kernel's quotients are the verdicts' criterion too
    calls = []
    eigenframe_jets = curvature._eigenframe_jets

    def counted(*args):
        calls.append(1)
        return eigenframe_jets(*args)

    for module in (curvature, parallelism, cli):  # every module that binds it by name
        if getattr(module, "_eigenframe_jets", None) is eigenframe_jets:
            monkeypatch.setattr(module, "_eigenframe_jets", counted)
    for argv in (["--spec", m5_spec, "--at", "2,-1,-1"], ["--spec", parallel_spec, "--sample", "5"]):
        calls.clear()
        assert main(["check-parallel", *argv]) in (0, 1)
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_angles_command(capsys, m5_spec):
    code, report = run_json(
        capsys, ["angles", "--spec", m5_spec, "--at", "2,-1,-1", "--vector", "1,0,0"]
    )
    assert code == 0
    assert report["results"]["cos_phi_x_qx"] == -0.5
    assert abs(report["results"]["angles_rad"][0] - 2.0943951023931957) < 1e-15


def test_qbasis_command(capsys):
    code, report = run_json(capsys, ["qbasis", "--vector", "1,0,0"])
    assert code == 0 and report["verdicts"]["induces_q_basis"]["pass"]
    code, report = run_json(capsys, ["qbasis", "--vector", "1,1,1"])
    assert code == 1 and not report["verdicts"]["induces_q_basis"]["pass"]


def test_orthobasis_command(capsys, m5_spec):
    code, report = run_json(capsys, ["orthobasis", "--spec", m5_spec, "--at", "2,-1,-1"])
    assert code == 0
    assert report["verdicts"]["orthogonal"]["pass"]
    assert report["verdicts"]["induces_q_basis"]["pass"]


def test_sectional_command(capsys, m5_spec):
    code, report = run_json(
        capsys,
        ["sectional", "--spec", m5_spec, "--at", "2,-1,-1", "--x", "1,0,0", "--y", "0,1,0"],
    )
    assert code == 0
    assert abs(report["results"]["mu"] - (-1.0 / 96.0)) < 1e-15
    assert main(
        ["sectional", "--spec", m5_spec, "--at", "2,-1,-1", "--x", "1,0,0", "--y", "2,0,0"]
    ) == 2
    capsys.readouterr()


def test_compare_curvature_command(capsys, m5_spec, parallel_spec):
    # the closed-form route disagrees with the numeric tensor off the diagonal
    code, report = run_json(capsys, ["compare-curvature", "--spec", m5_spec, "--at", "2,-1,-1"])
    assert code == 1
    assert not report["verdicts"]["closed_form_matches_numeric"]["pass"]
    rel = report["results"]["relative_difference"]
    assert rel["R1212"] < 1e-12
    assert rel["R1213"] > 0.1


def test_closed_form_command(capsys, m5_spec):
    from circulant3 import closed_form_from_metric, load_spec, metric_at

    code, report = run_json(capsys, ["closed-form", "--spec", m5_spec, "--at", "2,-1,-1"])
    assert code == 0
    want = closed_form_from_metric(metric_at(load_spec(m5_spec).metric, (2.0, -1.0, -1.0)))
    assert report["results"]["components"] == {name: float(v) for name, v in want.items()}
    assert report["verdicts"] == {}
    code, report = run_json(capsys, ["closed-form", "--spec", m5_spec, "--sample", "4", "--seed", "2"])
    assert code == 0
    assert report["results"] == {"points_accepted": 4, "pass_counts": {}, "max_residuals": {}}
    assert report["verdicts"] == {}


def _ref_symmetry_residuals(low, tol):
    """The four symmetry residuals of one point's tensor and their bound, from einsum-transposed copies."""
    return [
        abs(low + np.einsum("ijkh->jikh", low)).max(),
        abs(low + np.einsum("ijkh->ijhk", low)).max(),
        abs(low - np.einsum("ijkh->khij", low)).max(),
        abs(low + np.einsum("ijkh->jkih", low) + np.einsum("ijkh->kijh", low)).max(),
        tol * (1.0 + abs(low).max()),
    ]


@pytest.mark.parametrize("n", [None, 1, 40])
def test_symmetry_verdicts_are_the_per_point_reference_bit_for_bit(n):
    # curvature, whose residuals are rounding, and arbitrary tensors, whose residuals are not
    example = builtin_example().metric
    if n is None:
        M = metric_at(example, (2.0, -1.0, -1.0))
    else:
        M = sample_admissible_points(example, ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1)), n, 71)[1]
    arbitrary = np.random.default_rng(71).standard_normal(M.D.shape + (3,) * 4)
    for low in (riemann_from_metric(M).low, arbitrary):
        verdicts = cli._symmetry_verdicts(low, 1e-9)
        got = [v["residual"] for v in verdicts.values()] + [verdicts["first_bianchi"]["tol"]]
        want = [_ref_symmetry_residuals(point, 1e-9) for point in low.reshape((-1,) + (3,) * 4)]
        assert np.stack(got, axis=-1).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("batch", [(), (1,), (40,), (500,)], ids=str)
def test_symmetry_verdicts_over_distinct_entries_are_the_five_view_reference_bit_for_bit(batch):
    # non-symmetric tensors, some entries NaN or +-inf: a residual that is NaN, inf - inf, must be the maximum
    rng = np.random.default_rng(36)
    for special in ([], [math.nan], [math.inf, -math.inf], [math.nan, math.inf, -math.inf]):
        low = rng.standard_normal(batch + (3,) * 4) * 10.0 ** rng.integers(-3, 4, batch + (3,) * 4)
        if special:
            flat = low.reshape(-1)
            flat[rng.integers(0, flat.size, max(1, flat.size // 100))] = rng.choice(special, max(1, flat.size // 100))
        for tol in (1e-9, 0.0):
            with np.errstate(invalid="ignore"):  # inf - inf, and 0 * inf in the bound
                got, want = cli._symmetry_verdicts(low, tol), symmetry_verdicts_reference(low, tol)
            assert list(got) == list(want)
            for name in want:
                for key in ("pass", "residual", "tol"):
                    g, w = np.asarray(got[name][key]), np.asarray(want[name][key])
                    assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes()), (special, name, key)


def test_christoffel_fd_check(capsys, m5_spec):
    code, report = run_json(
        capsys, ["christoffel", "--spec", m5_spec, "--at", "2,-1,-1", "--fd-check"]
    )
    assert code == 0
    assert report["verdicts"]["fd_consistent"]["pass"]
    assert report["results"]["gamma"][0][0][0] == -0.125


def test_christoffel_fd_check_warns_only_for_the_point_asked(capsys, tmp_path):
    # A > B > 0 fails at the point (B = 0) and at five of its six stencil points; g is the identity
    weak = tmp_path / "weak.toml"
    weak.write_text('[metric]\nA = "1 + x1"\nB = "2*x1"\n', encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["christoffel", "--spec", str(weak), "--at=0,0,0", "--fd-check", "--allow-weak-metric"])
    assert code == 0
    assert [str(w.message) for w in caught] == [
        "A > B > 0 fails at (0.0, 0.0, 0.0) (A=1.0, B=0.0) but g is still positive definite; continuing"
    ]
    capsys.readouterr()


EDGE_SPEC = '[metric]\nA = "3 + x1"\nB = "1"\n[domain]\nc1 = "x1"\n'


def test_christoffel_fd_check_steps_down_near_the_chart_edge(capsys, tmp_path):
    # the 1e-5 and 1e-6 stencils around x1 = 1e-6 leave the chart (x1 > 0); the 1e-7 one does not
    spec = tmp_path / "edge.toml"
    spec.write_text(EDGE_SPEC, encoding="utf-8")
    code, report = run_json(capsys, ["christoffel", "--spec", str(spec), "--at=1e-6,0,0", "--fd-check"])
    assert code == 0
    assert report["verdicts"]["fd_consistent"]["pass"]
    # where every step leaves the chart, the 1e-5 stencil's refusal stands
    code, out, err = _call(capsys, ["christoffel", "--spec", str(spec), "--at=1e-9,0,0", "--fd-check"])
    assert (code, out) == (3, "")
    assert err == "error (christoffel): domain constraint 'x1' is -9.999e-06 <= 0 at point (-9.999e-06, 0.0, 0.0)\n"


def test_christoffel_fd_check_keeps_the_1e_5_step_where_its_stencil_is_admissible(capsys, tmp_path):
    spec = tmp_path / "edge.toml"
    spec.write_text(EDGE_SPEC, encoding="utf-8")
    p = np.array([0.5, 0.25, -0.125])
    _, report = run_json(capsys, ["christoffel", "--spec", str(spec), "--at=0.5,0.25,-0.125", "--fd-check"])
    m = load_spec(str(spec)).metric
    h = 1e-5
    gamma = cli.christoffel_from_metric(metric_at(m, p + np.kron(np.eye(3), [[h], [-h]]))).gamma
    fd = (gamma[0::2] - gamma[1::2]) / (2 * h)
    want = float(np.max(np.abs(fd - cli.christoffel_from_metric(metric_at(m, p)).dgamma)))
    assert report["verdicts"]["fd_consistent"]["residual"] == want


def test_allow_weak_metric(capsys, tmp_path):
    weak = tmp_path / "weak.toml"
    weak.write_text('[metric]\nA = "2"\nB = "-0.5"\n', encoding="utf-8")
    assert main(["riemann", "--spec", str(weak), "--at", "0,0,0"]) == 3
    capsys.readouterr()
    with pytest.warns(UserWarning):
        code = main(["riemann", "--spec", str(weak), "--at", "0,0,0", "--allow-weak-metric"])
    assert code == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["orthobasis", "verify-theorems"])
def test_weak_metric_refusal_names_the_point(capsys, tmp_path, command):
    # the metric is positive definite but B < 0, so no q-basis construction exists, and
    # neither command takes --allow-weak-metric: the point is refused where its metric is built
    weak = tmp_path / "weak.toml"
    weak.write_text('[metric]\nA = "2"\nB = "-0.1 + 0*x1"\n', encoding="utf-8")
    code = main([command, "--spec", str(weak), "--at", "0.5,1,2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "at point (0.5, 1.0, 2.0)" in err
    assert "nan" not in err


def test_nabla_q_command(capsys, m5_spec):
    code, report = run_json(capsys, ["nabla-q", "--spec", m5_spec, "--at", "2,-1,-1"])
    assert code == 0
    assert report["results"]["max_abs"] == 0.625
    assert report["verdicts"] == {}


# The benchmark's generic and q-parallel manifolds and boxes. The golden
# files of their sampled runs are reference outputs: never regenerate them.
GENERIC_SPEC = '''
name = "generic"
[metric]
A = "3 + x1^2/5 + exp(x3)/7"
B = "1 + sin(x2)/4 + x1*x3/9"
'''

PARALLEL_BENCH_SPEC = '''
name = "parallel"
[metric]
A = "4*x1 + 2*x2 + 20"
B = "x1 + 2*x2 + 3*x3 + 5"
'''

# The cyclic family A = a(s), B = b(s), s = x1 + x2 + x3: q-invariant curvature, q not parallel.
# Its Hessians do not vanish, so its golden file pins the second-derivative terms of Gamma.
CYCLIC_SPEC = '''
name = "cyclic"
[metric]
A = "3 + exp((x1 + x2 + x3)/3)/7 + (x1 + x2 + x3)^2/10"
B = "1 + sin(x1 + x2 + x3)/4"
'''

# The warped family: g has eigenvalue lambda = 12 + s^2/10 on (1, 1, 1) and
# nu = (2 + sin(s/4))(1 + (x1 - x2)^2/5) on the plane orthogonal to it, with
# A = (lambda + 2 nu)/3 and B = (lambda - nu)/3. R is q-invariant and q is not
# parallel, and the relations run over a metric that is not a function of s alone.
WARPED_SPEC = '''
name = "warped"
[metric]
A = "(12 + (x1 + x2 + x3)^2/10 + 2*(2 + sin((x1 + x2 + x3)/4))*(1 + (x1 - x2)^2/5))/3"
B = "(12 + (x1 + x2 + x3)^2/10 - (2 + sin((x1 + x2 + x3)/4))*(1 + (x1 - x2)^2/5))/3"
'''


@pytest.mark.parametrize(
    "spec_text, argv, golden",
    [
        (GENERIC_SPEC, ["riemann", "--sample", "40", "--seed", "3", "--box=-6:6,-1:1,-6:6"],
         "riemann_generic_sample40_seed3.json"),
        (PARALLEL_BENCH_SPEC, ["verify-theorems", "--sample", "4", "--seed", "3", "--box=-1:1,-1:1,-1:1"],
         "verify_theorems_parallel_sample4_seed3.json"),
        (GENERIC_SPEC, ["validate", "--sample", "40", "--seed", "3", "--box=-6:6,-1:1,-6:6"],
         "validate_generic_sample40_seed3.json"),
        (GENERIC_SPEC, ["orthobasis", "--sample", "40", "--seed", "3", "--box=-6:6,-1:1,-6:6"],
         "orthobasis_generic_sample40_seed3.json"),
        (CYCLIC_SPEC, ["verify-theorems", "--sample", "8", "--seed", "3", "--box=-1:1,-1:1,-1:1"],
         "verify_theorems_cyclic_sample8_seed3.json"),
        (WARPED_SPEC, ["verify-theorems", "--sample", "8", "--seed", "3", "--box=-1:1,-1:1,-1:1"],
         "verify_theorems_warped_sample8_seed3.json"),
    ],
    ids=["riemann-generic", "verify-theorems-parallel", "validate-generic", "orthobasis-generic",
         "verify-theorems-cyclic", "verify-theorems-warped"],
)
def test_sampled_golden_json(capsys, tmp_path, spec_text, argv, golden):
    spec = tmp_path / "spec.toml"
    spec.write_text(spec_text, encoding="utf-8")
    code = main(argv[:1] + ["--spec", str(spec)] + argv[1:] + ["--json"])
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")
    assert code == 0


def _builtin(obj):
    """The default hook of the reference json.dumps: numpy values as the builtins they hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, default=_builtin)


def test_json_writer_is_json_dumps_of_the_builtin_tree():
    tree = {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1],
        "numpy": [np.float64(0.1), np.float32(0.1), np.int64(-7), np.bool_(True), np.bool_(False), True, 3],
        "numpy floats": {"nan": np.float64(math.nan), "inf": np.float64(math.inf), "-inf": np.float64(-math.inf),
                         "-0.0": np.float64(-0.0), "in a tuple": (np.float64(-0.0), np.bool_(False), np.int64(0))},
        "nested arrays": [np.array([[True], [False]]), (np.array(-0.0), np.array([[np.int64(2)]])), [[], ()]],
        "arrays": {"0-d": np.array(2.5), "2-d": np.array([[1.0, -0.0], [math.nan, math.inf]]),
                   "bool": np.array([True, False]), "tuple": (1, (2.0, None))},
        "empty": {"dict": {}, "list": [], "tuple": (), "array": np.zeros(0), "none": None},
        "spec_name": 'a "name"\nwith é',
        'key "é"\n': "",
    }
    assert cli._json(tree) == reference_json(tree)
    # a top-level leaf goes through _json_scalar, as a numpy value inside a container does
    for leaf in (None, math.nan, -0.0, 2.5, True, 7, np.float64(-math.inf), np.array(1.0), "é", 'a "b"', [], {}, ()):
        assert cli._json(leaf) == reference_json(leaf)


def _point_query(tmp_path, command):
    """command at one point, as the benchmark's point-queries cycle calls it."""
    if command == "example-m5":
        return ["example-m5", "--at=2,-1,-1"]
    spec = tmp_path / f"{command}.toml"
    spec.write_text(PARALLEL_BENCH_SPEC if command == "verify-theorems" else GENERIC_SPEC, encoding="utf-8")
    extra = {"sectional": ["--x=1,0,0", "--y=0.2,1,0.5"], "angles": ["--vector=1,0.2,-0.4"],
             "qbasis": ["--vector=1,0.2,-0.4"], "verify-theorems": ["--seed=5"], "check-identity": ["--seed=5"]}
    return [command, "--spec", str(spec), "--at=0.5,0.2,-0.3", *extra.get(command, [])]


@pytest.mark.parametrize("command", cli._CORES)
def test_a_point_query_builds_its_metric_once(capsys, monkeypatch, tmp_path, command):
    built = []

    def counting(m, p, **kwargs):
        built.append(p)
        return metric_at(m, p, **kwargs)

    monkeypatch.setattr(cli, "metric_at", counting)
    assert main(_point_query(tmp_path, command)) in (0, 1)
    # validate classifies its point itself, and qbasis needs no metric
    assert len(built) == (0 if command in ("validate", "qbasis") else 1)
    capsys.readouterr()


def test_json_writer_is_json_dumps_on_every_report_of_a_point_query_cycle(tmp_path):
    # the 14 commands at one point each, and two sampled runs
    generic = tmp_path / "generic.toml"
    generic.write_text(GENERIC_SPEC, encoding="utf-8")
    argvs = [_point_query(tmp_path, command) for command in cli._CORES]
    for command in ("riemann", "validate"):
        argvs.append([command, "--spec", str(generic), "--sample=3", "--box=-6:6,-1:1,-6:6"])
    for argv in argvs:
        report = cli._run(cli.build_parser().parse_args(argv))
        assert cli._json(report) == reference_json(report), argv


@pytest.mark.parametrize(
    "argv, vector",
    [
        (["qbasis", "--vector=1e200,0,1"], "(1e+200, 0.0, 1.0)"),
        (["angles", "--spec", "{generic}", "--at=0.1,0.2,0.3", "--vector=1e200,0,1"], "(1e+200, 0.0, 1.0)"),
        # x @ g @ x overflows in the orthogonality test before the q-basis test refuses x
        (["orthobasis", "--spec", "{huge}", "--at=0,0,0"], "(0.0, -5.358983848622453e+199, 2e+200)"),
    ],
    ids=["qbasis", "angles", "orthobasis"],
)
def test_overflowing_vector_is_usage_error(capsys, tmp_path, argv, vector):
    specs = {"generic": tmp_path / "generic.toml", "huge": tmp_path / "huge.toml"}
    specs["generic"].write_text(GENERIC_SPEC, encoding="utf-8")
    specs["huge"].write_text('[metric]\nA = "3e200"\nB = "1e200"\n', encoding="utf-8")
    assert main([a.format(**specs) for a in argv]) == 2  # a numpy RuntimeWarning fails the call
    err = capsys.readouterr().err
    assert err.startswith(f"error ({argv[0]}): vector {vector} is too large for the q-basis test")


@pytest.mark.parametrize(
    "argv",
    [
        ["angles", "--at=0,0,0", "--vector=1,-1,0.001"],
        ["verify-theorems", "--at=0,0,0", "--vector=1,-1,0.001"],
    ],
    ids=["angles", "verify-theorems"],
)
def test_angle_routes_that_disagree_are_a_metric_error(capsys, tmp_path, argv):
    # A - B = 1e-10 and (x1 + x2 + x3)^2 = 1e-6, so g(x, x) is tiny against |x|^2
    # and the two cosine routes part beyond ANGLE_ROUTE_TOL
    spec = tmp_path / "near.toml"
    spec.write_text('[metric]\nA = "1.0000000001"\nB = "1"\n', encoding="utf-8")
    assert main([argv[0], "--spec", str(spec), *argv[1:]]) == 3
    assert capsys.readouterr().err == (
        f"error ({argv[0]}): angle routes disagree beyond 1e-10: "
        "inner-product 0.999700059863156 vs closed form 0.9997000599632321\n"
    )


@pytest.mark.parametrize(
    "B, argv, exit_code",
    [
        ("1", ["validate"], 0),  # admissible and positive definite; D overflows, g_inv is still the inverse
        ("-1", ["riemann", "--allow-weak-metric"], 0),  # weak but positive definite: admitted with a warning
    ],
    ids=["validate", "riemann-weak"],
)
def test_an_overflowing_positivity_minor_is_infinite_not_a_traceback(capsys, tmp_path, B, argv, exit_code):
    spec = tmp_path / "huge.toml"
    spec.write_text(f'[metric]\nA = "1e200"\nB = "{B}"\n', encoding="utf-8")
    code, out, err = _call(capsys, [argv[0], "--spec", str(spec), "--at=0,0,0", *argv[1:], "--json"])
    assert code == exit_code
    assert err == ""
    if argv[0] == "validate":
        report = json.loads(out)
        assert report["results"]["minors"] == [1e200, math.inf, math.inf]
        assert report["results"]["D"] == math.inf  # reported unscaled
        assert report["verdicts"]["positive_definite"]["pass"]
        inverse = report["verdicts"]["inverse_consistent"]
        assert inverse["pass"] and inverse["residual"] <= 1e-12


TINY_SPEC = '[metric]\nA = "3e-200"\nB = "1e-200"\n'


def test_a_tiny_metric_whose_D_underflows_has_flat_curvature_not_nan(capsys, tmp_path):
    # D = (A - B)(A + 2B) underflows to 0, yet g_inv is finite and the constant metric is flat
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_SPEC, encoding="utf-8")
    head = ["--spec", str(spec), "--at=0,0,0", "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the call
        assert main(["sectional", *head, "--x=1,0,0", "--y=0,1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["mu"] == 0.0
        for command in ("riemann", "closed-form"):
            assert main([command, *head]) == 0
            assert set(json.loads(capsys.readouterr().out)["results"]["components"].values()) == {0.0}
        assert main(["compare-curvature", *head]) == 0
        capsys.readouterr()
        assert main(["check-parallel", *head]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["results"]["nabla_q_max"] == 0.0
    assert all(verdict["pass"] for verdict in report["verdicts"].values())


def test_closed_form_on_a_huge_metric_is_finite(capsys, tmp_path):
    # D = (A - B)(A + 2B) overflows unless A, B and their derivatives are rescaled first
    spec = tmp_path / "huge.toml"
    spec.write_text('[metric]\nA = "3e200 + 1e199*x1^2"\nB = "1e200 + 1e198*sin(x2)"\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the call
        assert main(["compare-curvature", "--spec", str(spec), "--at=0.3,-0.2,0.1", "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert _finite(results["closed_form"]) and _finite(results["numeric"]), results
    assert results["closed_form"]["R2323"] != 0.0


def test_a_tiny_metric_passes_validate(capsys, tmp_path):
    # g = 1e-200 circ(3, 1, 1) is positive definite, though its minors underflow to 0
    spec = tmp_path / "tiny.toml"
    spec.write_text(TINY_SPEC, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the call
        code = main(["validate", "--spec", str(spec), "--at=0,0,0", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = json.loads(captured.out)
    assert report["results"]["minors"] == [3e-200, 0.0, 0.0]  # reported unscaled
    assert report["verdicts"]["positive_definite"]["pass"]


def test_verify_theorems_on_a_tiny_metric_holds_as_on_the_metric_it_scales(capsys, tmp_path):
    # the cyclic pair times 1e-200: g(x, x) of the orthogonal generator and B (A - B) underflow
    # unless the metric is rescaled first
    spec = tmp_path / "tiny-cyclic.toml"
    spec.write_text(
        '[metric]\nA = "1e-200*(3 + exp((x1 + x2 + x3)/3)/7 + (x1 + x2 + x3)^2/10)"\n'
        'B = "1e-200*(1 + sin(x1 + x2 + x3)/4)"\n',
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the call
        code = main(["verify-theorems", "--spec", str(spec), "--sample", "8", "--seed", "3",
                     "--box=-1:1,-1:1,-1:1", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    results = json.loads(captured.out)["results"]
    assert results["pass_counts"] == dict.fromkeys(results["max_residuals"], 8)
    assert all(residual <= 1e-12 for residual in results["max_residuals"].values()), results


@pytest.mark.parametrize("x, y", [("1e-200,0,0", "0,1e-200,0"), ("1e200,0,0", "0,1,0")], ids=["tiny", "huge"])
def test_sectional_curvature_does_not_depend_on_the_vectors_scale(capsys, tmp_path, x, y):
    spec = tmp_path / "generic.toml"
    spec.write_text(GENERIC_SPEC, encoding="utf-8")
    head = ["sectional", "--spec", str(spec), "--at=0.1,0.2,0.3", "--json"]
    code, out, _ = _call(capsys, [*head, "--x=1,0,0", "--y=0,1,0"])
    assert code == 0
    unit = json.loads(out)["results"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the call
        assert main([*head, f"--x={x}", f"--y={y}"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    results = json.loads(captured.out)["results"]
    assert math.isclose(results["mu"], unit["mu"], rel_tol=1e-14)
    assert results["gram_determinant"] == (0.0 if x.startswith("1e-200") else math.inf)
    # a degenerate plane still names the vectors as given
    assert main([*head, "--x=1e-200,0,0", "--y=3e-200,0,0"]) == 2
    assert capsys.readouterr().err == (
        "error (sectional): vectors (1e-200, 0.0, 0.0) and (3e-200, 0.0, 0.0) span no plane\n"
    )


def _finite(value):
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize(
    "argv",
    [["sectional", "--x=1,0,0", "--y=0,1,0"], ["orthobasis"], ["verify-theorems"]],
    ids=["sectional", "orthobasis", "verify-theorems"],
)
def test_a_huge_metric_gives_finite_results_without_a_warning(capsys, tmp_path, argv):
    # g(x,x) g(y,y) and (A - B)(A + 3B) overflow unless the metric is rescaled first
    spec = tmp_path / "huge.toml"
    spec.write_text('[metric]\nA = "1e200"\nB = "1"\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the call
        code = main([argv[0], "--spec", str(spec), "--at=0,0,0", *argv[1:], "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    results = json.loads(captured.out)["results"]
    if argv[0] == "sectional":
        assert results["mu"] == 0.0
    else:
        assert _finite(results), results
    if argv[0] == "orthobasis":
        assert results["vector"] == [0.0, 0.0, 2.0]


@pytest.mark.parametrize(
    "sample, box, message",
    [
        ("", "--box=-1e308:1e308,-1:1,-1:1",
         "--box interval '-1e308:1e308' is too wide (high - low overflows)"),
        ('x1 = "-1e308, 1e308"', None,
         "interval '-1e308, 1e308' is too wide (high - low overflows) for x1 (line 5, column 7)"),
        ('x1 = "-inf, 1"', None,
         "bounds must be finite, got '-inf, 1' for x1 (line 5, column 7)"),
    ],
    ids=["box-option", "spec-too-wide", "spec-infinite"],
)
def test_box_with_an_infinite_or_overflowing_width_is_usage_error(capsys, tmp_path, sample, box, message):
    spec = tmp_path / "wide.toml"
    section = f'[sample]\n{sample}\nx2 = "-1, 1"\nx3 = "-1, 1"\n' if sample else ""
    spec.write_text(f'[metric]\nA = "3"\nB = "1"\n{section}', encoding="utf-8")
    argv = ["riemann", "--spec", str(spec), "--sample", "3"] + ([box] if box else [])
    assert main(argv) == 2
    if box:  # refused by the parser: its usage line, then the message
        expected = _subparsers()["riemann"].format_usage() + f"circulant3 riemann: error: argument --box: {message}\n"
    else:
        expected = f"error (riemann): {message}\n"
    assert capsys.readouterr().err == expected


def test_error_messages_print_plain_numbers(capsys, tmp_path):
    spec = tmp_path / "generic.toml"
    spec.write_text(GENERIC_SPEC, encoding="utf-8")
    parallel = tmp_path / "parallel.toml"
    parallel.write_text(PARALLEL_BENCH_SPEC, encoding="utf-8")
    weak = tmp_path / "weak.toml"
    weak.write_text('[metric]\nA = "2"\nB = "-0.1 + 0*x1"\n', encoding="utf-8")
    at = ["--spec", str(spec), "--at=0.1,0.2,0.3"]
    # NotAQBasis from the relation checks, at a point and over a sample
    not_a_basis = ["verify-theorems", "--spec", str(parallel), "--vector=1,1,1"]
    failing = [
        (["angles", *at, "--vector=0,0,0"], 2),  # NotAQBasis
        ([*not_a_basis, "--at=0.1,0.2,0.3"], 2),
        ([*not_a_basis, "--sample", "3", "--box=-1:1,-1:1,-1:1"], 2),
        (["sectional", *at, "--x=1,0,0", "--y=2,0,0"], 2),  # DegeneratePlane
        (["orthobasis", "--spec", str(weak), "--at=0.5,1,2"], 3),
    ]
    for argv, exit_code in failing:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"error ({argv[0]}): ")
        assert not [line for line in err.splitlines() if "np.float64" in line], err
        if argv[:len(not_a_basis)] == not_a_basis:
            assert err == "error (verify-theorems): vector (1.0, 1.0, 1.0) does not induce a q-basis\n"


def test_angles_refuses_a_vector_that_induces_no_q_basis(capsys, tmp_path):
    # the refusal of sectional_relations, word for word
    spec = tmp_path / "generic.toml"
    spec.write_text(GENERIC_SPEC, encoding="utf-8")
    code, out, err = _call(capsys, ["angles", "--spec", str(spec), "--at=0.1,0.2,0.3", "--vector=1,1,1"])
    assert (code, out) == (2, "")
    assert err == "error (angles): vector (1.0, 1.0, 1.0) does not induce a q-basis\n"


# -- a sampled run against its points one by one ----------------------------------

# Linear fields plus a term that is negligible at small x1 and not at large x1:
# the curvature is q-invariant to the check's tolerance at some sampled points
# and not at others.
PARTLY_INVARIANT_SPEC = '''
name = "partly-invariant"
[metric]
A = "4*x1 + 2*x2 + 20 + 1e-7*exp(12*x1)"
B = "x1 + 2*x2 + 3*x3 + 5"
'''

CUBE = ((-1.0, 1.0),) * 3
CUBE_ARG = "--box=-1:1,-1:1,-1:1"
M5_BOX = ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1))  # the [sample] box of M5_SPEC


def _call(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _at(p):
    return "--at=" + ",".join(repr(float(c)) for c in p)


def _sampled(capsys, spec_path, head, box, n, seed):
    """The sampled run of head and the same command at each of its points alone."""
    from circulant3.specfile import load_spec

    box_arg = "--box=" + ",".join(f"{lo:g}:{hi:g}" for lo, hi in box)
    sampled = _call(capsys, [*head, "--sample", str(n), "--seed", str(seed), box_arg])
    points = sample_admissible_points(load_spec(spec_path).metric, box, n, seed)[0]
    return sampled, [_call(capsys, [*head, "--seed", str(seed), _at(p)]) for p in points]


@pytest.mark.parametrize(
    "spec_text, box, n, seed, extra, exit_code, first_failing",
    [
        # IdentityRNotSatisfied at a later point; the first point passes the identity
        (PARTLY_INVARIANT_SPEC, CUBE, 5, 3, [], 1, 1),
        (PARTLY_INVARIANT_SPEC, CUBE, 5, 11, [], 1, 3),
        (M5_SPEC, M5_BOX, 3, 0, [], 1, 0),
        # NotAQBasis: the first point passes the identity, so the vector is tested there
        (PARTLY_INVARIANT_SPEC, CUBE, 5, 3, ["--vector=1,1,1"], 2, 0),
        (PARALLEL_BENCH_SPEC, CUBE, 3, 0, ["--vector=1,1,1"], 2, 0),
    ],
    ids=["identity-later-point", "identity-fourth-point", "identity-first-point",
         "not-a-basis-before-identity", "not-a-basis"],
)
def test_verify_theorems_sampled_refusal_is_the_first_failing_points(
    capsys, tmp_path, spec_text, box, n, seed, extra, exit_code, first_failing
):
    spec = tmp_path / "spec.toml"
    spec.write_text(spec_text, encoding="utf-8")
    head = ["verify-theorems", "--spec", str(spec), *extra]
    sampled, per_point = _sampled(capsys, str(spec), head, box, n, seed)
    failing = [i for i, (code, _, _) in enumerate(per_point) if code != 0]
    assert failing[0] == first_failing
    assert sampled == per_point[first_failing]
    assert sampled[0] == exit_code


def test_verify_theorems_weak_metric_refusals(capsys, tmp_path):
    # the metric is positive definite but B < 0: no q-basis construction exists
    weak = tmp_path / "weak.toml"
    weak.write_text('[metric]\nA = "2"\nB = "-0.1 + 0*x1"\n', encoding="utf-8")
    head = ["verify-theorems", "--spec", str(weak)]
    code, _, err = _call(capsys, [*head, "--at=0.5,1,2"])
    assert code == 3
    assert err == (
        "error (verify-theorems): metric positivity A > B > 0 violated: A=2.0, B=-0.1 "
        "at point (0.5, 1.0, 2.0)\n"
    )
    # the sampler admits only A > B > 0, so a sampled run never reaches the constructions
    code, _, err = _call(capsys, [*head, "--sample", "3", CUBE_ARG])
    assert code == 3
    assert err.startswith("error (verify-theorems): accepted only 0 of 3 requested points")


@pytest.mark.parametrize(
    "command, spec_text, box, extra",
    [
        ("check-identity", M5_SPEC, M5_BOX, []),
        ("check-identity", PARTLY_INVARIANT_SPEC, CUBE, []),
        ("verify-theorems", PARALLEL_BENCH_SPEC, CUBE, []),
        ("verify-theorems", PARALLEL_BENCH_SPEC, CUBE, ["--vector=0.3,-1.2,2"]),
    ],
    ids=["check-identity-m5", "check-identity-partly-invariant", "verify-theorems",
         "verify-theorems-vector"],
)
def test_sampled_report_summarizes_its_points_bit_for_bit(capsys, tmp_path, command, spec_text, box, extra):
    spec = tmp_path / "spec.toml"
    spec.write_text(spec_text, encoding="utf-8")
    (code, out, _), per_point = _sampled(capsys, str(spec), [command, "--spec", str(spec), *extra, "--json"],
                                         box, 6, 7)
    report = json.loads(out)
    verdicts = [json.loads(row[1])["verdicts"] for row in per_point]
    for name, v in report["verdicts"].items():
        assert report["results"]["pass_counts"][name] == sum(row[name]["pass"] for row in verdicts)
        assert v["residual"] == max([0.0, *(row[name]["residual"] for row in verdicts)])
    assert code == (0 if all(v["pass"] for v in report["verdicts"].values()) else 1)


def test_verify_theorems_sampled_computes_each_relation_quantity_once_per_run(capsys, monkeypatch, tmp_path):
    import circulant3.curvature as curvature
    import circulant3.qstructure as qstructure

    calls = Counter()
    contracted = []

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            if name == "riemann_apply":
                contracted.append([np.shape(v) for v in args[1:]])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    once = ("check_q_invariance", "construct_basis_vectors")
    for name in ("sectional_curvature", "riemann_apply", "christoffel_from_metric", *once):
        count(curvature, name)
    count(qstructure, "induces_q_basis")  # through require_q_basis
    count(qstructure, "_require_positive")  # the positivity test of both basis constructions
    spec = tmp_path / "spec.toml"
    spec.write_text(PARALLEL_BENCH_SPEC, encoding="utf-8")
    argv = ["verify-theorems", "--spec", str(spec), "--sample", "4", "--seed", "3", CUBE_ARG]
    assert main(argv) == 0
    # 4 points, 5 vectors: one riemann_apply of the 18 planes that the relations read, one flat stack of
    # batch-first vectors at every point: the three planes {S[k], S[k+1]} of the q-orbit S of each of the
    # 5 vectors u, then plane 0 of x and y over powers of two and of the unit x; no call of
    # sectional_curvature and no Christoffel table; the vectors' q-basis test and the rest once
    assert calls == {"riemann_apply": 1, "induces_q_basis": 1, "_require_positive": 1, **dict.fromkeys(once, 1)}
    assert contracted == [[(18, 4, 3)] * 4]
    capsys.readouterr()


def test_verify_theorems_refuses_a_drawn_vector_that_induces_no_q_basis(capsys, monkeypatch, tmp_path):
    # the vectors are drawn in one call and tested once, by the relation checks, which name the first bad one
    class Ones:
        def standard_normal(self, shape):
            return np.ones(shape)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Ones())
    spec = tmp_path / "spec.toml"
    spec.write_text(PARALLEL_BENCH_SPEC, encoding="utf-8")
    code, out, err = _call(capsys, ["verify-theorems", "--spec", str(spec), "--at=0.5,0.2,-0.3"])
    assert (code, out) == (2, "")
    assert err == "error (verify-theorems): vector (1.0, 1.0, 1.0) does not induce a q-basis\n"


def test_verify_theorems_refuses_a_vector_whose_plane_is_degenerate(capsys, tmp_path):
    # A - B = 1e-14: the plane {u, qu} of u = (1, 0.5, 0) is degenerate at the origin
    spec = tmp_path / "spec.toml"
    spec.write_text('[metric]\nA = "1.00000000000001"\nB = "1"\n', encoding="utf-8")
    code, out, err = _call(capsys, ["verify-theorems", "--spec", str(spec), "--at=0,0,0", "--vector=1,0.5,0"])
    assert (code, out) == (2, "")
    assert err == "error (verify-theorems): vectors (1.0, 0.5, 0.0) and (-0.5, 0.0, -1.0) span no plane\n"


@pytest.mark.parametrize("where", [["--at=0.2,-0.4,0.6"], ["--sample", "5", CUBE_ARG]], ids=["at", "sample"])
def test_check_identity_contracts_its_sampled_tuples_once_per_run(capsys, monkeypatch, tmp_path, where):
    import circulant3.curvature as curvature

    calls = []
    original = curvature.riemann_apply

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curvature, "riemann_apply", counting)
    spec = tmp_path / "spec.toml"
    spec.write_text(PARALLEL_BENCH_SPEC, encoding="utf-8")
    assert main(["check-identity", "--spec", str(spec), *where, "--seed", "3"]) == 0
    # the 20 tuples' q-images and originals, stacked over (40, *batch)
    assert len(calls) == 1
    assert calls[0][1].shape[0] == 40
    capsys.readouterr()


def test_verify_theorems_passes_on_the_cyclic_family_where_q_is_not_parallel(capsys, tmp_path):
    spec = tmp_path / "cyclic.toml"
    spec.write_text(CYCLIC_SPEC, encoding="utf-8")
    run = ["--spec", str(spec), "--sample", "6", "--seed", "3", CUBE_ARG, "--json"]
    code, out, _ = _call(capsys, ["verify-theorems", *run])
    assert code == 0
    relations = ("sectional_difference", "sectional_combination", "equal_sectional")
    assert json.loads(out)["results"]["pass_counts"] == dict.fromkeys(relations, 6)
    code, out, _ = _call(capsys, ["check-parallel", *run])
    assert code == 1
    assert json.loads(out)["results"]["pass_counts"]["parallel"] == 0


def test_main_builds_the_parser_once(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    cli._option_tables.cache_clear()  # derived from the parser on the first main call
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["qbasis", "--vector=1,0,0"]) == 0
    assert "circulant3" in built
    first = len(built)
    assert main(["qbasis", "--vector=1,1,1"]) == 1
    assert len(built) == first
    capsys.readouterr()


def test_a_call_does_not_inherit_the_previous_calls_options(capsys, parallel_spec):
    import circulant3.cli as cli

    plain = ["verify-theorems", "--spec", parallel_spec, "--at", "1,0.7,0.4"]
    cli.build_parser.cache_clear()
    fresh = _call(capsys, plain)
    _call(capsys, [*plain, "--tol", "0", "--json", "--vector=1,0,0", "--seed", "4"])
    again = _call(capsys, plain)
    assert again == fresh
    code, out, _ = again
    assert code == 0
    assert "  n_vectors = 5\n" in out and "vector =" not in out and "tol=1.000e-08" in out


@pytest.mark.parametrize("tol, exit_code", [("1", 0), ("1e-3", 0), ("1e-5", 1)])
def test_verify_theorems_refuses_where_check_identity_fails_at_the_same_tol(capsys, tmp_path, tol, exit_code):
    spec = tmp_path / "partly.toml"
    spec.write_text(PARTLY_INVARIANT_SPEC, encoding="utf-8")
    run = ["--spec", str(spec), "--sample", "5", "--seed", "3", "--box=-1:1,-1:1,-1:1", "--tol", tol]
    identity, _, _ = _call(capsys, ["check-identity", *run])
    theorems, _, err = _call(capsys, ["verify-theorems", *run])
    assert identity == theorems == exit_code
    assert ("q-invariance fails" in err) == (exit_code == 1)
    if tol == "1e-5":
        assert err == (
            "error (verify-theorems): curvature q-invariance fails at this point "
            "(diagonal spread 5.064e-05, cross spread 5.424e-07)\n"
            "the requested check assumes the curvature q-invariance identity; "
            "it does not hold at this point, so the verification is refused\n"
        )


# Specs at the edge of the double range, and what each command does there, from the exact values
# (tests/exact.py). huge-gradient: A_1 = 1.5e308, so d Gamma (about (A_1 / A)^2) overflows, and so
# does every curvature component (about A_1^2 / A). huge-hessian: A_11 = 1e308, yet R1212 = 5e307,
# max |Gamma| = 2e107 and max |d Gamma| = 2e307 are finite, and reported. tiny-metric: Gamma is about
# A_1 / A = 3e199, so d Gamma overflows, while R1212 is about -2e199; its sectional curvatures (about
# 1e599) are not finite, and its closed-form components (0, 0, -1e199, -2.5e198, 2.5e198, -2.5e198) are.
# Finite closed-form components are checked against the reference formulas in 50-digit arithmetic
# (exact.closed_form_error), and finite Christoffel symbols against exact_christoffel.
OVERFLOW_CASES = {
    "huge-gradient": ('A = "1.5e308*x1 + 3"\nB = "1"', "1e-300,0,0", "A=150000003.0, B=1.0"),
    "huge-hessian": ('A = "5e307*x1^2 + 3"\nB = "1"', "1e-200,0,0", "A=3.0, B=1.0"),
    "tiny-metric": ('A = "3e-200 + x1"\nB = "1e-200"', "1e-300,0,0", "A=3e-200, B=1e-200"),
}
CURVATURE_COMMANDS = {
    "christoffel": [], "riemann": [], "closed-form": [], "compare-curvature": [],
    "sectional": ["--x=1,0,0", "--y=0,1,0"], "check-identity": [], "check-parallel": [], "nabla-q": [],
    "verify-theorems": [],
}
GAMMA, CURVATURE, CLOSED_FORM = "Christoffel symbols or their derivatives", "curvature components", "closed-form components"
# (exit code, the values refused as not finite): None where the command reports finite results, and
# "q-invariance" where verify-theorems refuses a finite curvature that is not q-invariant
OVERFLOW_OUTCOMES = {
    "huge-gradient": {"closed-form": (3, CLOSED_FORM), "riemann": (3, CURVATURE),
                      "compare-curvature": (3, CURVATURE), "sectional": (3, CURVATURE),
                      "check-identity": (3, CURVATURE), "verify-theorems": (3, CURVATURE)},
    "huge-hessian": {"closed-form": (0, None), "riemann": (0, None), "compare-curvature": (1, None),
                     "sectional": (0, None), "check-identity": (1, None), "verify-theorems": (1, "q-invariance"),
                     "christoffel": (0, None), "check-parallel": (1, None), "nabla-q": (0, None)},
    "tiny-metric": {"closed-form": (0, None), "riemann": (0, None), "compare-curvature": (1, None),
                    "sectional": (3, "sectional curvatures"), "check-identity": (1, None),
                    "verify-theorems": (1, "q-invariance")},
}


@pytest.mark.parametrize("command", CURVATURE_COMMANDS)
@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_curvature_that_is_not_finite_is_a_domain_error(capsys, tmp_path, case, command):
    fields, point, where = OVERFLOW_CASES[case]
    spec = tmp_path / "spec.toml"
    spec.write_text(f"[metric]\n{fields}\n", encoding="utf-8")
    argv = [command, "--spec", str(spec), f"--at={point}", *CURVATURE_COMMANDS[command]]
    want, what = OVERFLOW_OUTCOMES[case].get(command, (3, GAMMA))  # where d Gamma overflows
    for flags in ([], ["--json"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + flags)
        out, err = capsys.readouterr()
        assert code == want
        if what is None:
            assert err == "" and not re.search(r"\b(nan|inf|infinity)\b", out.lower())
            if command in ("closed-form", "compare-curvature") and flags:
                results = json.loads(out)["results"]
                cf = results["components" if command == "closed-form" else "closed_form"]
                M = metric_at(load_spec(str(spec)).metric, np.array(point.split(","), dtype=float))
                pytest.importorskip("mpmath")
                assert closed_form_error(cf, M.A_jet, M.B_jet) <= C_EPS
            if command == "christoffel" and flags:  # the table's values, within the bound of the exact ones
                results = json.loads(out)["results"]
                M = metric_at(load_spec(str(spec)).metric, np.array(point.split(","), dtype=float))
                ct = christoffel_from_metric(M)
                assert results == {"gamma": ct.gamma.tolist(), "dgamma_max_abs": float(np.abs(ct.dgamma).max())}
                assert max(christoffel_errors(M)) <= C_CHRISTOFFEL
        elif what == "q-invariance":
            assert out == "" and err.startswith(f"error ({command}): curvature q-invariance fails at this point")
        else:
            assert (out, err) == ("", f"error ({command}): {what} are not finite where {where}\n")


def test_orthogonal_basis_products_that_are_not_finite_are_a_domain_error(capsys, tmp_path):
    # g(x, x) of the orthogonal-basis generator (0, ~0, 2) is about 4 A = 6e308
    spec = tmp_path / "spec.toml"
    spec.write_text('[metric]\nA = "1.5e308*x1 + 3"\nB = "1"\n', encoding="utf-8")
    _, M = sample_admissible_points(load_spec(str(spec)).metric, ((1.0, 1.1), (0.0, 1.0), (0.0, 1.0)), 3, 0)
    for where, flags in (("1.5e+308", ["--at=1,1,1"]), ("1.5e+308", ["--at=1,1,1", "--json"]),
                         (repr(float(M.A[0])), ["--sample=3", "--box=1:1.1,0:1,0:1"])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["orthobasis", "--spec", str(spec), *flags])
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error (orthobasis): orthogonal-basis inner products are not finite where A={where}, B=1.0\n"
        )


def test_a_sample_with_a_point_whose_curvature_is_not_finite_is_refused_whole(capsys, tmp_path):
    # every point of the box has A'(x1) = 1.5e308; the first accepted one is named
    spec = tmp_path / "spec.toml"
    spec.write_text('[metric]\nA = "1.5e308*x1 + 3"\nB = "1"\n', encoding="utf-8")
    box = ((1e-300, 2e-300), (-1.0, 1.0), (-1.0, 1.0))
    _, M = sample_admissible_points(load_spec(str(spec)).metric, box, 3, 0)
    code = main(["riemann", "--spec", str(spec), "--sample=3", "--box=1e-300:2e-300,-1:1,-1:1", "--json"])
    assert code == 3
    assert capsys.readouterr() == (
        "", f"error (riemann): curvature components are not finite where A={float(M.A[0])!r}, B=1.0\n"
    )


@pytest.mark.parametrize(
    "spec_text, argv, code, golden",
    [
        (None, ["example-m5", "--at", "2,-1,-1"], 1, "example_m5_at.txt"),
        (PARALLEL_BENCH_SPEC, ["verify-theorems", "--sample", "4", "--seed", "3", "--box=-1:1,-1:1,-1:1"], 0,
         "verify_theorems_parallel_sample4_seed3.txt"),
    ],
    ids=["example-m5", "verify-theorems-parallel"],
)
def test_text_report_golden(capsys, tmp_path, spec_text, argv, code, golden):
    if spec_text is not None:
        spec = tmp_path / "spec.toml"
        spec.write_text(spec_text, encoding="utf-8")
        argv = argv[:1] + ["--spec", str(spec)] + argv[1:]
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")
