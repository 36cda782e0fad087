"""Property tests: a batch gives, bit for bit, what its elements give one at a time.

The references are the computations of one vector or one point as they ran
before these functions took batches: Python floats, float pow and
np.linalg.norm. The curvature kernel is checked against its batch-first
reference (test_kernel_layout.py) at random batch sizes, and the jets of
generated expressions over a batch against those of each point; printing a
generated expression and parsing it back gives the same tree; every jet
operation returns a Hessian equal to its transpose bit for bit. Beyond bits:
the curvature of generated fields has the tensor symmetries and the first
Bianchi identity, q is an isometry of every circulant metric, and the
command line, fuzzed over commands, specs, points and samples, exits 0-3
without raising or letting a RuntimeWarning through. hypothesis is needed
here only (the test extra); the budgets are small and derandomized so that
every run checks the same examples.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from circulant3 import (  # noqa: E402
    MetricFunctions,
    check_equal_sectional_curvatures,
    check_positive_definite,
    check_sectional_combination_formula,
    check_sectional_difference_formula,
    construct_special_angle_vector,
    induces_q_basis,
    isometry_residual,
    jets,
    metric_at,
    riemann_from_metric,
    sectional_relations,
)
from circulant3.cli import _CORES, main  # noqa: E402
from circulant3.errors import CirculantError, EvalDomainError, NotAQBasis  # noqa: E402
from circulant3.expressions import (  # noqa: E402
    FUNCTIONS,
    Binary,
    Const,
    Coord,
    Power,
    ScalarFieldExpr,
    Unary,
    eval_jet,
    parse,
    to_source,
)
from circulant3.metric import metric_from_jets  # noqa: E402
from circulant3.qstructure import Q_BASIS_EPS, q_basis_test  # noqa: E402

from helpers import random_manifold, random_point, random_q_basis_vector, random_q_invariant_manifold  # noqa: E402
from test_curvature import _ref_relations, nonflat_parallel  # noqa: E402
from test_kernel_layout import MANIFOLDS, assert_kernel_is_the_reference, metric_batch  # noqa: E402

SMALL = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# moderate coordinates, and any finite double (cubes overflow beyond ~5.6e102)
coordinate = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
vectors = st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=6).map(np.array)

OVERFLOW = "overflow"


def _reference(x):
    """(defect, threshold) of one vector as the scalar test computes them; OVERFLOW where it refuses."""
    x1, x2, x3 = x.tolist()
    try:
        defect = 3.0 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3)
    except OverflowError:
        defect = OVERFLOW
    try:
        with np.errstate(over="ignore"):
            threshold = Q_BASIS_EPS * max(1.0, float(np.linalg.norm(x)) ** 3)
    except OverflowError:
        threshold = OVERFLOW
    return defect, threshold


def _outcome(fn, x):
    try:
        return fn(x)
    except NotAQBasis as exc:
        return str(exc)


def _too_large(x):
    return f"vector {tuple(x.tolist())} is too large for the q-basis test: its cubes overflow"


def _expected(rows, values):
    """The batch result a per-vector computation gives: the first refusal, else the values."""
    for x, value in zip(rows, values):
        if value is OVERFLOW:
            return _too_large(x)
    return values


def _same(got, want):
    if isinstance(want, str):
        return got == want
    got = np.asarray(got)
    return got.shape == (len(want),) and got.tobytes() == np.array(want, dtype=got.dtype).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered in dot")  # x @ x of a huge x, as in np.linalg.norm
@SMALL
@given(vectors)
def test_q_basis_criterion_over_a_batch_equals_each_vector_bit_for_bit(xs):
    # one refusal for a vector where either value overflows, as induces_q_basis refuses
    tests = [OVERFLOW if OVERFLOW in ref else ref for ref in map(_reference, xs)]
    passes = [OVERFLOW if t is OVERFLOW else abs(t[0]) > t[1] for t in tests]
    want = _expected(xs, tests)
    got = _outcome(q_basis_test, xs)
    if isinstance(want, str):
        assert got == want
    else:
        assert _same(got[0], [c for c, _ in want]) and _same(got[1], [b for _, b in want])
    assert _same(_outcome(induces_q_basis, xs), _expected(xs, passes))
    for x, test, passed in zip(xs, tests, passes):
        if test is OVERFLOW:
            assert _outcome(q_basis_test, x) == _outcome(induces_q_basis, x) == _too_large(x)
        else:
            single = q_basis_test(x)
            assert [type(v) for v in single] == [float, float]
            assert np.array(single).tobytes() == np.array(test).tobytes()
            verdict = induces_q_basis(x)
            assert type(verdict) is bool and verdict == passed


# A > B > 0 as B and A / B, some at or near A = 2B, where the special-angle
# equation degenerates, and some just above A = B, where its root is nearest -1
ratio = st.one_of(
    st.floats(1.001, 1e6),
    st.sampled_from([2.0, 2.0 + 1e-12, 2.0 - 4e-16, 1.0 + 2**-52, 1.0 + 1e-9]),
)
admissible_batches = st.lists(st.tuples(st.floats(1e-6, 1e6), ratio), min_size=1, max_size=8).map(
    lambda rows: (np.array([b * r for b, r in rows]), np.array([b for b, _ in rows]))
)


def _special_angle_reference(A, B):
    """The special-angle vector of one point, as the loop over points chose it, from A and B over 2^e."""
    e = math.frexp(A)[1]
    A, B = math.ldexp(A, -e), math.ldexp(B, -e)
    y = np.array([1.0, 0.0, 0.0])
    if abs(A - 2 * B) >= 1e-12:
        root = 2.0 * math.sqrt(B * (A - B))
        roots = ((A + root) / (A - 2 * B), (A - root) / (A - 2 * B))
        y[2] = next(t for t in roots if induces_q_basis([1.0, 0.0, t]))
    return y


EDGE_B = np.array([1e-300, 1.0, 1e300])


@SMALL
@given(admissible_batches)
@example((np.nextafter(EDGE_B, np.inf), EDGE_B))  # A the double next above B
def test_special_angle_vector_over_a_batch_equals_each_point_bit_for_bit(AB):
    A, B = AB
    y = construct_special_angle_vector(A, B)
    for i in range(len(A)):
        want = _special_angle_reference(float(A[i]), float(B[i])).tobytes()
        assert y[i].tobytes() == want
        assert construct_special_angle_vector(float(A[i]), float(B[i])).tobytes() == want


@SMALL
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6))
def test_positive_definite_check_over_a_batch_equals_each_point_bit_for_bit(pairs):
    A, B = (np.array(c) for c in zip(*pairs))
    batch = check_positive_definite(A, B)  # an overflowing (A - B)^2 is +inf, never an OverflowError
    for i, (a, b) in enumerate(pairs):
        ok, minors = check_positive_definite(a, b)
        assert batch.positive_definite[i] == ok
        for batch_minor, minor in zip(batch.minors, minors):
            assert math.isnan(minor) or batch_minor[i].tobytes() == np.float64(minor).tobytes()


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(MANIFOLDS)), n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_curvature_kernel_is_the_batch_first_reference_at_any_batch_size(name, n, seed):
    assert_kernel_is_the_reference(metric_batch(name, seed, (n,)))


# Expression trees over every node kind. Constants are non-negative, as the
# grammar's numbers are: a negative one is a unary minus of its magnitude.
leaves = st.one_of(
    st.builds(Coord, st.integers(1, 3)),
    st.builds(Const, st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.5, 1e-300, 1e300]))),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(Unary, st.sampled_from(("neg", *FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(Power, children, st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, -2.5])),
    ),
    max_leaves=8,
)
TREES = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@TREES
@given(trees)
def test_printing_a_tree_and_parsing_it_back_gives_the_same_tree(tree):
    assert parse(to_source(tree)).root == tree


def _bits(jet):
    return jet.value.tobytes() + jet.grad.tobytes() + jet.hess.tobytes()


def _bits_or_error(expr, p):
    try:
        return _bits(eval_jet(expr, p))
    except EvalDomainError as exc:
        return str(exc)


@TREES
@given(trees, st.floats(0.0, 3.0), st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 3), min_size=1, max_size=5))
def test_batch_jets_of_a_tree_equal_each_points_bit_for_bit(tree, c, points):
    # -tree - c: the jets' negation and their difference with a number, on every example
    expr = ScalarFieldExpr(Binary("-", Unary("neg", tree), Const(c)))
    pts = np.array(points)
    singles = [_bits_or_error(expr, p) for p in pts]
    errors = [s for s in singles if isinstance(s, str)]
    if errors:  # the batch raises what one of its points raises
        assert _bits_or_error(expr, pts) in errors
        return
    batch = eval_jet(expr, pts)
    assert [_bits(batch[i]) for i in range(len(pts))] == singles


# Jets over a batch of 1 to 3 points with symmetric Hessians, and numbers: most
# of magnitude 1/12 to 10 with full mantissas (x / 3), so that sums round, and
# some zeros of either sign
entry = st.one_of(
    st.builds(lambda x, sign: sign * x / 3, st.floats(0.25, 30.0), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0.0, -0.0, 1e-3]),
)
jet_batches = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        lambda v, g, h: jets.Jet2(np.array(v), np.array(g), np.array(h)[:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]),
        st.lists(entry, min_size=n, max_size=n),
        st.lists(st.lists(entry, min_size=3, max_size=3), min_size=n, max_size=n),
        st.lists(st.lists(entry, min_size=6, max_size=6), min_size=n, max_size=n),
    )
)
JET_OPS = {
    "jet + jet": lambda a, b, c: a + b,
    "jet - jet": lambda a, b, c: a - b,
    "jet * jet": lambda a, b, c: a * b,
    "jet / jet": lambda a, b, c: a / b,
    "jet + c": lambda a, b, c: a + c,
    "jet - c": lambda a, b, c: a - c,
    "c - jet": lambda a, b, c: c - a,
    "jet * c": lambda a, b, c: a * c,
    "jet / c": lambda a, b, c: a / c,
    "c / jet": lambda a, b, c: c / a,
    "neg": lambda a, b, c: -a,
    "jet ** -2": lambda a, b, c: a ** -2,
    "jet ** 3": lambda a, b, c: a ** 3,
    "jet ** 2.5": lambda a, b, c: a ** 2.5,
    "sqrt": lambda a, b, c: jets.sqrt(a),
    "exp": lambda a, b, c: jets.exp(a),
    "log": lambda a, b, c: jets.log(a),
    "sin": lambda a, b, c: jets.sin(a),
    "cos": lambda a, b, c: jets.cos(a),
    "getitem": lambda a, b, c: a[-1:],
    "concatenate": lambda a, b, c: jets.concatenate([a, b]),
}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(jet_batches, jet_batches, entry)
def test_every_jet_operation_returns_a_hessian_that_is_its_transpose_bit_for_bit(a, b, c):
    b = b[np.arange(len(a.value)) % len(b.value)]  # a batch of a's size
    for name, op in JET_OPS.items():
        try:
            h = op(a, b, c).hess
        except (ValueError, ZeroDivisionError, OverflowError):  # outside the operation's domain
            continue
        assert h.tobytes() == h.swapaxes(-1, -2).tobytes(), name


# -- the curvature tensor over generated fields ---------------------------------
# A = 2 + a^2 + b^2 and B = 1 + b^2 for generated trees a and b: A > B > 0
# wherever both evaluate, with Hessians of every node kind.


def _generated_metric(a, b, p):
    """The metric of the fields built from trees a and b at p; None where they do not evaluate."""
    a, b = to_source(a), to_source(b)
    m = MetricFunctions.from_sources(f"2 + ({a})^2 + ({b})^2", f"1 + ({b})^2")
    try:
        return metric_at(m, p)
    except CirculantError:  # a subexpression outside its domain, or A = B after rounding
        return None


@TREES
@given(trees, trees, st.tuples(*[st.floats(-3.0, 3.0)] * 3))
def test_curvature_of_generated_fields_has_the_tensor_symmetries_and_first_bianchi(a, b, p):
    M = _generated_metric(a, b, np.array(p))
    if M is None:
        return
    try:
        R = riemann_from_metric(M)
    except EvalDomainError as exc:  # the curvature overflows: refused, never returned
        assert "are not finite where" in str(exc)
        return
    low = R.low
    # every term the kernel sums is bounded by |g| (|g^-1| |d^2 g| + |g^-1|^2 |dg|^2), in Python floats
    g, g_inv = float(np.abs(M.g).max()), float(np.abs(M.g_inv).max())
    d1 = max(float(np.abs(j.grad).max()) for j in (M.A_jet, M.B_jet))
    d2 = max(float(np.abs(j.hess).max()) for j in (M.A_jet, M.B_jet))
    tol = 1e-12 * g * (g_inv * d2 + g_inv * g_inv * d1 * d1)
    for name, residual in (
        ("antisymmetry_first_pair", low + np.einsum("ijkh->jikh", low)),
        ("antisymmetry_second_pair", low + np.einsum("ijkh->ijhk", low)),
        ("pair_symmetry", low - np.einsum("ijkh->khij", low)),
        ("first_bianchi", low + np.einsum("ijkh->jkih", low) + np.einsum("ijkh->kijh", low)),
    ):
        assert float(np.abs(residual).max()) <= tol, name


triples = st.tuples(coordinate, coordinate, coordinate).map(np.array)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(admissible_batches, triples, triples)
def test_q_is_an_isometry_of_every_circulant_metric(AB, x, y):
    A, B = AB
    M = metric_from_jets(*(jets.Jet2(v, np.zeros(v.shape + (3,)), np.zeros(v.shape + (3, 3))) for v in (A, B)))
    # x @ g @ y sums nine products, each bounded by max(A, B) |x_i| |y_j|, in some order;
    # where that bound overflows, so may the inner products, and the residual is NaN
    with np.errstate(over="ignore"):
        bound = np.maximum(A, B) * np.abs(x).sum() * np.abs(y).sum()
    residual = isometry_residual(M, x, y)
    assert residual.shape == A.shape
    assert np.all((residual <= 1e-14 * bound) | np.isinf(bound))


# The relations of q-basis vectors of any magnitude: sectional_relations divides
# each vector and the metric by powers of two and shares them between the planes;
# over a batch of points and vectors, and in the single-relation views of one
# vector, it gives the bits of the serial reference. A vector below about 2^-11
# fails the q-basis test (its threshold is absolute below |x| = 1) and is refused.
_rng = np.random.default_rng(1400)
RELATION_CASES = [  # (fields, box, tol): tol = inf computes the relations where the identity fails
    (*nonflat_parallel(), 1e-9),
    (MetricFunctions.from_sources("4*x1 + 2*x2 + 20", "x1 + 2*x2 + 3*x3 + 5"), ((-1.0, 1.0),) * 3, 1e-9),
    (random_q_invariant_manifold(_rng), ((-1.0, 1.0),) * 3, 1e-9),
    (random_manifold(_rng), ((-1.0, 1.0),) * 3, math.inf),
]


def _relation_values(rel):
    d, c, e = rel.difference, rel.combination, rel.equal
    return np.stack([d.lhs, d.rhs, c.lhs, c.rhs, e.mu_u_qu, e.mu_qu_q2u, e.mu_q2u_u], axis=-1)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    case=st.sampled_from(range(len(RELATION_CASES))),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3),
    exponents=st.lists(st.integers(-60, 60), min_size=1, max_size=3),
)
def test_relations_of_vectors_scaled_by_powers_of_two_are_the_serial_reference_bit_for_bit(
    case, seed, n, exponents
):
    m, box, tol = RELATION_CASES[case]
    rng = np.random.default_rng(seed)
    pts = np.array([random_point(rng, box) for _ in range(n)])
    U = np.array([np.ldexp(random_q_basis_vector(rng), k) for k in exponents])
    R = riemann_from_metric(metric_at(m, pts))
    ok = np.asarray(induces_q_basis(U))
    if not ok.all():
        with pytest.raises(NotAQBasis, match=re.escape(f"vector {tuple(U[np.argmin(ok)].tolist())} ")):
            sectional_relations(R, U, tol=tol)
        U = U[ok]
    # want[v, i]: vector v at point i, one point and one vector at a time
    want = np.array([[[v for pair in _ref_relations(m, p, u) for v in pair] for p in pts] for u in U])
    assert _relation_values(sectional_relations(R, U, tol=tol)).tobytes() == want.reshape(len(U), n, 7).tobytes()
    for u, want_u in zip(U, want):
        views = (check_sectional_difference_formula(R, u, tol), check_sectional_combination_formula(R, u, tol))
        got = [views[0].lhs, views[0].rhs, views[1].lhs, views[1].rhs]
        e = check_equal_sectional_curvatures(R, u, tol)
        got += [e.mu_u_qu, e.mu_qu_q2u, e.mu_q2u_u]
        assert np.stack(got, axis=-1).tobytes() == want_u.tobytes()


# -- the command line never raises ------------------------------------------------
# Every command at a point or over a sample, text or JSON, on a pool of specs
# that includes metrics whose curvature overflows (a huge gradient, a huge
# Hessian, a tiny metric with ordinary derivatives) at x1 = 1e-300 or 1e-200,
# and one whose Gamma is finite and whose curvature is not, over its box.
FUZZ_SPECS = {
    "generic": ('A = "3 + x1^2/5 + exp(x3)/7"', 'B = "1 + sin(x2)/4 + x1*x3/9"', "-6, 6", "-1, 1", "-6, 6"),
    "parallel": ('A = "4*x1 + 2*x2 + 20"', 'B = "x1 + 2*x2 + 3*x3 + 5"', "-1, 1", "-1, 1", "-1, 1"),
    "cyclic": ('A = "3 + exp((x1 + x2 + x3)/3)/7 + (x1 + x2 + x3)^2/10"', 'B = "1 + sin(x1 + x2 + x3)/4"',
               "-1, 1", "-1, 1", "-1, 1"),
    "domain": ('A = "4 + log(x1)"', 'B = "1 + x2/4"\n[domain]\nc1 = "x1"', "0.5, 3", "-1, 1", "-1, 1"),
    "weak": ('A = "2 + 0*x1"', 'B = "-0.5 + x2/10"', "-1, 1", "-1, 1", "-1, 1"),
    "tiny": ('A = "3e-200"', 'B = "1e-200"', "-1, 1", "-1, 1", "-1, 1"),
    "huge": ('A = "3e200"', 'B = "1e200"', "-1, 1", "-1, 1", "-1, 1"),
    "huge-gradient": ('A = "1.5e308*x1 + 3"', 'B = "1"', "1e-300, 2e-300", "-1, 1", "-1, 1"),
    "huge-hessian": ('A = "5e307*x1^2 + 3"', 'B = "1"', "1e-200, 2e-200", "-1, 1", "-1, 1"),
    "tiny-metric": ('A = "3e-200 + x1"', 'B = "1e-200"', "1e-300, 2e-300", "-1, 1", "-1, 1"),
    "huge-curvature": ('A = "3e200 + 4e307*x1^2"', 'B = "1e200 - 4e307*x1^2/3 + 4e307*x2^2"',
                       "1e-53, 2e-53", "1e-53, 2e-53", "1e-53, 2e-53"),
}


@pytest.fixture(scope="module")
def fuzz_specs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, (A, B, *box) in FUZZ_SPECS.items():
        sample = "".join(f'x{i} = "{interval}"\n' for i, interval in enumerate(box, 1))
        (directory / f"{name}.toml").write_text(f"[metric]\n{A}\n{B}\n[sample]\n{sample}", encoding="utf-8")
        paths[name] = str(directory / f"{name}.toml")
    return paths


VECTOR_OPTIONS = {"sectional": ("--x", "--y"), "angles": ("--vector",), "qbasis": ("--vector",),
                  "verify-theorems": ("--vector",)}


@st.composite
def argvs(draw, paths):
    command = draw(st.sampled_from(tuple(_CORES)))
    argv = [command]
    if command != "example-m5":
        argv += ["--spec", paths[draw(st.sampled_from(sorted(paths)))]]
    if draw(st.booleans()):
        argv += [f"--sample={draw(st.integers(1, 3))}", f"--seed={draw(st.integers(0, 3))}"]
    else:
        x1 = draw(st.sampled_from([1e-300, 1e-200, 0.5, 1.0, -1.0]))
        x2, x3 = (draw(st.sampled_from([0.0, 0.3, -0.5, 1.0])) for _ in range(2))
        argv.append(f"--at={x1!r},{x2!r},{x3!r}")
    numbers = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-300, 1e200]))
    for option in VECTOR_OPTIONS.get(command, ()):
        if draw(st.integers(0, 4)):  # now and then left out
            argv.append(f"{option}=" + ",".join(repr(draw(numbers)) for _ in range(3)))
    argv += draw(st.lists(st.sampled_from(["--json", "--allow-weak-metric"]), unique=True))
    return argv


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_the_command_line_exits_0_to_3_and_lets_no_runtime_warning_through(fuzz_specs, data):
    argv = data.draw(argvs(fuzz_specs))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
