"""Parser, printer and evaluator tests for the scalar-field DSL."""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from circulant3 import eval_jet, eval_value, parse, to_source
from circulant3.errors import EvalDomainError, ExprSyntaxError
from circulant3.expressions import MAX_DEPTH

from helpers import fd_gradient, fd_hessian, random_expression


def test_parse_simple_product():
    expr = parse("2*x1")
    assert expr.program == (("num", 2.0), ("x", 0), ("*", None))
    assert expr.spans == ((0, 1), (2, 4), (0, 4))


def test_parse_example_field():
    expr = parse("2*x1 + x2 + x3")
    assert expr.program == (("num", 2.0), ("x", 0), ("*", None), ("x", 1), ("+", None), ("x", 2), ("+", None))
    assert expr.spans == ((0, 1), (2, 4), (0, 4), (7, 9), (0, 9), (12, 14), (0, 14))


def test_parse_every_entry_and_its_span():
    # a chain's entry spans from its first operand to its right operand; parentheses widen the span
    # of their subexpression's last entry
    source = "-(x1 + 2) * sqrt(x3)^-2.5"
    expr = parse(source)
    assert expr.program == (("x", 0), ("num", 2.0), ("+", None), ("neg", None), ("x", 2), ("sqrt", None),
                            ("^", -2.5), ("*", None))
    assert [source[lo:hi] for lo, hi in expr.spans] == [
        "x1", "2", "(x1 + 2)", "-(x1 + 2)", "x3", "sqrt(x3)", "sqrt(x3)^-2.5", source]
    assert expr.source == source
    assert parse(" ( ( x1 ) ) ").spans == ((1, 11),)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + + x2")
    assert err.value.offset == 5
    assert err.value.expected


def test_empty_input():
    with pytest.raises(ExprSyntaxError, match="empty input"):
        parse("")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'x4'"):
        parse("x1 + x4")


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("2x1")


def test_unmatched_parenthesis():
    with pytest.raises(ExprSyntaxError):
        parse("sin(x1")


def test_double_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x1^2^3")


def test_exponent_must_be_literal():
    with pytest.raises(ExprSyntaxError):
        parse("x1^x2")


def test_unary_minus_binds_looser_than_power():
    expr = parse("-x1^2")
    assert expr.program == (("x", 0), ("^", 2.0), ("neg", None))
    assert eval_value(expr, (2.0, 0.0, 0.0)) == -4.0


def test_unary_minus_binds_tighter_than_product():
    assert eval_value(parse("-x1 + x2"), (3.0, 1.0, 0.0)) == -2.0
    # '-' applies to the first factor only
    assert eval_value(parse("-x1 * x2"), (3.0, 2.0, 0.0)) == -6.0


def test_negative_exponent_literal():
    assert eval_value(parse("x1^-2"), (2.0, 0.0, 0.0)) == 0.25


def test_parse_refuses_an_expression_deeper_than_max_depth():
    # the parser recurses through parentheses, functions, minuses and powers
    for source, offset in (
        ("(" * 3000 + "x1" + ")" * 3000, MAX_DEPTH - 1),  # the parenthesis that opens level MAX_DEPTH
        ("-" * 3000 + "x1", MAX_DEPTH - 1),
        ("sin(" * 3000 + "x1" + ")" * 3000, 4 * (MAX_DEPTH - 1)),
        ("(" * (MAX_DEPTH - 2) + "x1^2" + ")" * (MAX_DEPTH - 2) + "^2", 2 * MAX_DEPTH),
        # a chain is one level: inside MAX_DEPTH - 1 pairs, the outermost '(' makes the tree too deep
        ("(" * (MAX_DEPTH - 1) + "x1 + x1 - x1" + ")" * (MAX_DEPTH - 1), 0),
        ("x2 * " + "(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1), 3),  # the '*' above them
    ):
        with pytest.raises(ExprSyntaxError) as err:
            parse(source)
        assert str(err.value) == f"expression nested deeper than {MAX_DEPTH} levels at offset {offset}"


def test_an_expression_at_max_depth_evaluates():
    p = (0.5, 0.25, 2.0)
    for source, value in (
        ("(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1), 0.5),
        ("x3" + " + x3" * (MAX_DEPTH - 1), 2.0 * MAX_DEPTH),
        ("-" * (MAX_DEPTH - 1) + "x2", -0.25),  # an odd number of minuses
        ("sin(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1), None),
    ):
        f = parse(source)
        assert parse(to_source(f)) == f
        jet = eval_jet(f, p)
        assert jet.value == eval_value(f, p)
        if value is not None:
            assert eval_value(f, p) == value


def test_a_flat_chain_is_one_level_at_any_length():
    p = (0.5, 0.25, 2.0)
    for source, value in (
        ("3" + " + x1" * 3000, 3 + 3000 * 0.5),
        ("(" * (MAX_DEPTH - 2) + "x1 + x1 - x1" + ")" * (MAX_DEPTH - 2), 0.5),
        ("x3" + " * x3 / x3" * 1500 + " * x2", 0.5),
    ):
        f = parse(source)
        assert parse(to_source(f)) == f
        jet = eval_jet(f, p)
        assert jet.value == eval_value(f, p) == value
    sum_3000 = eval_jet(parse("3" + " + x1" * 3000), p)
    assert np.array_equal(sum_3000.grad, [3000.0, 0.0, 0.0]) and not sum_3000.hess.any()
    assert to_source(parse("3" + " + x1" * 3000)) == "3.0" + " + x1" * 3000
    # programs compare without recursion, and every operator, operand and length counts
    long_sum = parse("3" + " + x1" * 3000)
    for other in ("3" + " + x1" * 2999, "3" + " + x1" * 2999 + " - x1", "3" + " + x1" * 2999 + " + x2",
                  "2" + " + x1" * 3000, "3" + " + x1" * 2999 + " + x1 * 1"):
        assert parse(other) != long_sum and long_sum != parse(other)
    assert long_sum != parse("x1") and parse("x1") != long_sum


def test_a_long_chain_hashes_and_prints_without_recursion():
    long_sum = parse("3" + " + x1" * 3000)
    assert hash(long_sum) == hash(parse("3" + " + x1" * 3000))
    assert len({long_sum, parse("3" + " + x1" * 3000), parse("3" + " + x1" * 2999 + " + x2")}) == 2
    # the source and spans do not count
    assert parse("(3)" + " +x1" * 3000) == long_sum and hash(parse("(3)" + " +x1" * 3000)) == hash(long_sum)
    text = repr(long_sum)
    assert text.count("('x', 0), ('+', None)") == 3000 and text.startswith("ScalarFieldExpr(program=(('num', 3.0), ")
    assert str(long_sum) == to_source(long_sum) == "3.0" + " + x1" * 3000


def test_a_chain_folds_from_the_left_as_the_nested_tree_does():
    rng = np.random.default_rng(5)
    for level in ("+-", "*/"):
        for _ in range(20):
            values = rng.uniform(0.1, 3.0, size=40).tolist()
            ops = rng.choice(list(level), size=39).tolist()
            source = f"{values[0]!r}" + "".join(f" {op} {v!r}" for op, v in zip(ops, values[1:]))
            expected = values[0]
            for op, v in zip(ops, values[1:]):
                expected = {"+": expected + v, "-": expected - v, "*": expected * v, "/": expected / v}[op]
            f = parse(source)
            assert eval_value(f, (0.0, 0.0, 0.0)) == expected
            assert to_source(f) == source


def test_a_domain_error_in_a_chain_names_the_link_that_fails():
    with pytest.raises(EvalDomainError) as err:
        eval_value(parse("x1 + 2 / x2 * 3 + x3"), (1.0, 0.0, 1.0))
    assert str(err.value) == "float division by zero in subexpression '2 / x2'"
    with pytest.raises(EvalDomainError) as err:
        eval_value(parse("x1 * 2 / x2 * 3"), (1.0, 0.0, 1.0))
    assert err.value.subexpression == "x1 * 2 / x2"


def test_eval_value_examples():
    p = (2.0, -1.0, -1.0)
    assert eval_value(parse("2*x1"), p) == 4.0
    assert eval_value(parse("2*x1 + x2 + x3"), p) == 2.0


def test_eval_value_domain_errors():
    with pytest.raises(EvalDomainError) as err:
        eval_value(parse("sqrt(x1)"), (-1.0, 0.0, 0.0))
    assert "sqrt(x1)" in str(err.value)
    with pytest.raises(EvalDomainError):
        eval_value(parse("log(x2)"), (0.0, 0.0, 0.0))
    with pytest.raises(EvalDomainError):
        eval_value(parse("1 / x3"), (0.0, 0.0, 0.0))
    with pytest.raises(EvalDomainError):
        eval_value(parse("x1^-1"), (0.0, 0.0, 0.0))


def test_eval_jet_linear_field():
    jet = eval_jet(parse("2*x1"), (2.0, -1.0, -1.0))
    assert jet.value == 4.0
    assert np.array_equal(jet.grad, [2.0, 0.0, 0.0])
    assert np.array_equal(jet.hess, np.zeros((3, 3)))


def test_eval_jet_bilinear():
    jet = eval_jet(parse("x1*x2"), (1.7, -0.4, 2.2))
    assert jet.value == 1.7 * -0.4
    assert np.allclose(jet.grad, [-0.4, 1.7, 0.0], rtol=0, atol=0)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(jet.hess, expected)


def test_eval_jet_constant_gradient_field():
    jet = eval_jet(parse("2*x1 + x2 + x3"), (0.3, 1.9, -4.2))
    assert np.array_equal(jet.grad, [2.0, 1.0, 1.0])
    assert np.array_equal(jet.hess, np.zeros((3, 3)))


def test_round_trip_structural_equality():
    rng = np.random.default_rng(42)
    for _ in range(60):
        src = random_expression(rng)
        first = parse(src)
        again = parse(to_source(first))
        assert again == first, f"round trip changed {src!r} -> {to_source(first)!r}"


def test_round_trip_fixed_cases():
    for src in (
        "x1 - x2 - x3",
        "x1 - (x2 - x3)",
        "x1 / x2 / x3",
        "-(x1 + x2)",
        "(-x1)^2",
        "-x1^2",
        "sqrt(exp(sin(cos(log(2.5 + x1)))))",
        "1e-3*x1 + 2.5E+2",
        "x1^-2.5",
    ):
        expr = parse(src)
        assert parse(to_source(expr)) == expr


def test_jet_value_equals_plain_value_exactly():
    rng = np.random.default_rng(7)
    for _ in range(100):
        src = random_expression(rng)
        expr = parse(src)
        p = rng.uniform(-1.0, 1.0, size=3)
        assert eval_jet(expr, p).value == eval_value(expr, p)


def test_jet_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(40):
        expr = parse(random_expression(rng))
        p = rng.uniform(-1.0, 1.0, size=3)
        jet = eval_jet(expr, p)
        assert np.max(np.abs(jet.grad - fd_gradient(expr, p))) < 1e-6
        assert np.max(np.abs(jet.hess - fd_hessian(expr, p))) < 1e-4


def test_non_finite_point_rejected():
    with pytest.raises(ValueError):
        eval_value(parse("x1"), (float("nan"), 0.0, 0.0))
    with pytest.raises(ValueError):
        eval_value(parse("x1"), (1.0, 2.0))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_batch_evaluation_equals_single_points_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(40):
        expr = parse(random_expression(rng))
        pts = rng.uniform(-1.0, 1.0, size=(17, 3))
        batch = eval_jet(expr, pts)
        values = eval_value(expr, pts)
        assert batch.value.shape == (17,) and batch.grad.shape == (17, 3)
        for i, p in enumerate(pts):
            single = eval_jet(expr, p)
            assert _same_bits(batch.value[i], single.value)
            assert _same_bits(batch.grad[i], single.grad)
            assert _same_bits(batch.hess[i], single.hess)
            assert _same_bits(values[i], eval_value(expr, p))


def test_batch_evaluation_of_every_primitive_and_constant_fields():
    pts = np.array([[0.7, -1.3, 2.0], [3.1, 0.2, 0.5], [1e-3, 4.0, 1e-9]])
    for src in ("sqrt(x1) * x2^3 - x3^-2.5 * 0 + exp(x2) / (2 + x3^2)",
                "log(x1) / cos(x3) + sin(x1*x2) - x2^-1", "2.5", "sqrt(2) * 3"):
        expr = parse(src)
        batch = eval_jet(expr, pts)
        values = eval_value(expr, pts)
        for i, p in enumerate(pts):
            single = eval_jet(expr, p)
            assert _same_bits(batch.value[i], single.value), src
            assert _same_bits(batch.grad[i], single.grad), src
            assert _same_bits(batch.hess[i], single.hess), src
            assert _same_bits(values[i], eval_value(expr, p)), src


@pytest.mark.parametrize(
    "src, x1",
    [("sqrt(x1)", -1.0), ("log(x1)", 0.0), ("1 / x1", 0.0), ("x1^-1", 0.0), ("x1^-2.5", -1.0),
     ("exp(x1 * 1000)", 1.0)],
)
def test_batch_domain_error_matches_the_failing_point(src, x1):
    expr = parse(src)
    good = np.array([0.5, 0.0, 0.0])
    bad = np.array([x1, 0.0, 0.0])
    for evaluate in (eval_jet, eval_value):
        with pytest.raises(EvalDomainError) as single:
            evaluate(expr, bad)
        with pytest.raises(EvalDomainError) as batch:
            evaluate(expr, np.array([good, bad, good]))
        assert str(batch.value) == str(single.value)
        assert type(batch.value.__cause__) is type(single.value.__cause__)


def test_mixed_batch_domain_error_is_that_of_its_first_failing_point():
    # x1^-3 at 1e-70 overflows only a derivative (1e-70^-5), at 0.0 its value: the jets fail at the
    # first of the two, the values at the second, each with the error that point raises alone
    expr = parse("x1^-3")
    pts = np.array([[0.5, 0.0, 0.0], [1e-70, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for evaluate, first, cause in ((eval_jet, 1, OverflowError), (eval_value, 2, ZeroDivisionError)):
        with pytest.raises(EvalDomainError) as single:
            evaluate(expr, pts[first])
        with pytest.raises(EvalDomainError) as batch:
            evaluate(expr, pts)
        assert str(batch.value) == str(single.value)
        assert type(batch.value.__cause__) is type(single.value.__cause__) is cause


def test_batch_evaluation_emits_no_numpy_warnings():
    pts = np.array([[1e300, 1e-320, 1.0], [2.0, 3.0, 1e-200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(eval_value(parse("x1 * x1 - x1 * x1 / x2"), pts)).all()
        with pytest.raises(EvalDomainError):
            eval_jet(parse("x1 * x1"), pts)
        with pytest.raises(EvalDomainError):
            eval_jet(parse("x1 / x3"), pts)


# -- corpus: every source's printed text, bits and errors, as recorded in tests/data ---------------------

CORPUS = Path(__file__).parent / "data" / "expressions_corpus.json"
CORPUS_POINTS = np.array([[0.5, -0.25, 0.75], [-0.9, 0.3, 1.1], [1.0, 0.0, -0.5]])


def _outcome(evaluate, expr, p) -> bytes:
    """The bits evaluate gives at p, or the text and cause of the EvalDomainError it raises."""
    try:
        out = evaluate(expr, p)
    except EvalDomainError as exc:
        return f"error {exc} ({type(exc.__cause__).__name__})".encode()
    if evaluate is eval_value:
        return np.asarray(out, dtype=float).tobytes()
    return out.value.tobytes() + out.grad.tobytes() + out.hess.tobytes()


def corpus_record(source: str) -> dict:
    """The syntax error parse raises on source, or to_source of the parsed field, a sha256 of the
    eval_value and eval_jet bits (or domain errors) at each CORPUS_POINTS point and at the batch of them,
    and the texts of the domain errors among them."""
    try:
        expr = parse(source)
    except ExprSyntaxError as exc:
        return {"source": source, "syntax_error": str(exc)}
    digest, errors = hashlib.sha256(), []
    for evaluate in (eval_value, eval_jet):
        for p in (*CORPUS_POINTS, CORPUS_POINTS):
            outcome = _outcome(evaluate, expr, p)
            digest.update(outcome + b"|")
            if outcome.startswith(b"error ") and outcome.decode() not in errors:
                errors.append(outcome.decode())
    return {"source": source, "to_source": to_source(expr), "sha256": digest.hexdigest(), "errors": errors}


def test_the_expression_corpus_prints_evaluates_and_fails_as_recorded():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(corpus) > 300
    for case in corpus:
        assert corpus_record(case["source"]) == case, case["source"][:80]
