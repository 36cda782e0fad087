"""CLI contract: exit codes, JSON schema, determinism, golden output."""

from __future__ import annotations

import itertools
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from circulant3 import cli, load_spec, metric_at, sample_admissible_points
from circulant3.cli import main

DATA = Path(__file__).parent / "data"

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
        ("give either --at or --sample, not both", ["riemann", "--at=2,-1,-1", "--sample", "2"]),
        # a bad option is refused before the point is evaluated, so an inadmissible point does not exit 3
        ("required: --x", ["sectional", "--at=0,0,0", "--y=0,1,0"]),
        ("argument --vector: bad number in --vector '1,a,0'", ["riemann", "--at=0,0,0", "--vector=1,a,0"]),
        ("argument --vector: --vector must be finite", ["angles", "--at=0,0,0", "--vector=1,0,inf"]),
        ("--n-vectors must be at least 1, got 0", ["verify-theorems", "--at=0,0,0", "--n-vectors=0"]),
        ("--n-vectors must be at least 1, got 0",
         ["verify-theorems", "--sample=3", "--box=-3:-2,-1:1,-1:1", "--n-vectors=0"]),
        # --n-vectors is checked even where --vector makes it unused
        ("--n-vectors must be at least 1, got 0",
         ["verify-theorems", "--at=2,-1,-1", "--vector=1,0,0", "--n-vectors=0"]),
    ],
    ids=["tol-nan", "tol-negative", "sample-zero", "sample-negative", "n-vectors-zero",
         "at-nan", "at-inf", "box-inf", "at-not-a-number", "box-two-intervals", "box-no-colon",
         "box-bad-bound", "at-and-sample", "x-missing-at-inadmissible-point",
         "vector-not-a-number-at-inadmissible-point", "vector-inf-at-inadmissible-point",
         "n-vectors-zero-at-inadmissible-point", "n-vectors-zero-on-an-exhausting-box",
         "n-vectors-zero-with-vector"],
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


def test_verify_theorems_builds_one_christoffel_table_per_point(capsys, monkeypatch, parallel_spec):
    import circulant3.curvature as curvature

    original = curvature.christoffel_from_metric
    built = []

    def counting(M):
        built.append(M)
        return original(M)

    monkeypatch.setattr(curvature, "christoffel_from_metric", counting)
    assert main(["verify-theorems", "--spec", parallel_spec, "--at", "1,0.7,0.4"]) == 0
    assert len(built) == 1
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


def test_christoffel_fd_check(capsys, m5_spec):
    code, report = run_json(
        capsys, ["christoffel", "--spec", m5_spec, "--at", "2,-1,-1", "--fd-check"]
    )
    assert code == 0
    assert report["verdicts"]["fd_consistent"]["pass"]
    assert report["results"]["gamma"][0][0][0] == -0.125


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
    # the metric is positive definite but B < 0, so no q-basis construction exists
    weak = tmp_path / "weak.toml"
    weak.write_text('[metric]\nA = "2"\nB = "-0.1 + 0*x1"\n', encoding="utf-8")
    with pytest.warns(UserWarning):
        code = main([command, "--spec", str(weak), "--at", "0.5,1,2", "--allow-weak-metric"])
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
    ],
    ids=["riemann-generic", "verify-theorems-parallel", "validate-generic", "orthobasis-generic",
         "verify-theorems-cyclic"],
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
        "arrays": {"0-d": np.array(2.5), "2-d": np.array([[1.0, -0.0], [math.nan, math.inf]]),
                   "bool": np.array([True, False]), "tuple": (1, (2.0, None))},
        "empty": {"dict": {}, "list": [], "tuple": (), "array": np.zeros(0), "none": None},
        "spec_name": 'a "name"\nwith é',
        'key "é"\n': "",
    }
    assert cli._json(tree) == reference_json(tree)
    for leaf in (None, math.nan, np.array(1.0), "é", [], {}):
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
    assert capsys.readouterr().err == f"error (riemann): {message}\n"


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
        (["orthobasis", "--spec", str(weak), "--at=0.5,1,2", "--allow-weak-metric"], 3),
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
    head = ["verify-theorems", "--spec", str(weak), "--allow-weak-metric"]
    code, _, err = _call(capsys, [*head, "--at=0.5,1,2"])
    assert code == 3
    assert err == (
        "error (verify-theorems): metric positivity A > B > 0 violated: A=2.0, B=-0.1 "
        "at point (0.5, 1.0, 2.0)\n"
    )
    # the curvature is flat, so the identity holds and the vector is tested first
    code, _, err = _call(capsys, [*head, "--at=0.5,1,2", "--vector=1,1,1"])
    assert code == 2
    assert err == "error (verify-theorems): vector (1.0, 1.0, 1.0) does not induce a q-basis\n"
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
    import circulant3.cli as cli
    import circulant3.curvature as curvature

    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(cli, "_random_q_basis_vectors")
    once = ("induces_q_basis", "check_q_invariance", "construct_orthogonal_vector",
            "construct_special_angle_vector", "christoffel_from_metric")
    for name in ("sectional_curvature", "riemann_apply", *once):
        count(curvature, name)
    spec = tmp_path / "spec.toml"
    spec.write_text(PARALLEL_BENCH_SPEC, encoding="utf-8")
    argv = ["verify-theorems", "--spec", str(spec), "--sample", "4", "--seed", "3", CUBE_ARG]
    assert main(argv) == 0
    # 4 points, 5 vectors: one contraction of the planes {u, qu}, {qu, q^2u} and {q^2u, u}
    # stacked over all vectors and points, one of {x, qx}, {y, qy} and R(x, qx, x, q^2x);
    # no call of sectional_curvature; the vectors' q-basis test and the rest once
    assert calls == {"riemann_apply": 2, **dict.fromkeys(once, 1), "_random_q_basis_vectors": 1}
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
    import argparse

    import circulant3.cli as cli

    cli.build_parser.cache_clear()
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


# Specs whose curvature is not finite at the point: a huge first or second
# derivative of A (the sums in Gamma overflow), or a tiny metric with ordinary
# derivatives (g^-1 is about 1e200, so d Gamma overflows).
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


@pytest.mark.parametrize("command", CURVATURE_COMMANDS)
@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_curvature_that_is_not_finite_is_a_domain_error(capsys, tmp_path, case, command):
    fields, point, where = OVERFLOW_CASES[case]
    spec = tmp_path / "spec.toml"
    spec.write_text(f"[metric]\n{fields}\n", encoding="utf-8")
    argv = [command, "--spec", str(spec), f"--at={point}", *CURVATURE_COMMANDS[command]]
    what = "closed-form components" if command == "closed-form" else "Christoffel symbols or their derivatives"
    for flags in ([], ["--json"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + flags)
        out, err = capsys.readouterr()
        if (case, command) == ("huge-hessian", "closed-form"):  # formed over 2^e, where no term overflows
            assert code == 0 and "nan" not in out.lower() and "inf" not in out.lower()
            continue
        assert code == 3
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
        "", f"error (riemann): Christoffel symbols or their derivatives are not finite "
        f"where A={float(M.A[0])!r}, B=1.0\n"
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
