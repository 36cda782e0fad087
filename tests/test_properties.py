"""Property tests: a batch gives, bit for bit, what its elements give one at a time.

The references are the computations of one vector or one point in Python
floats (float pow, math.fsum for the q-basis test's sigma and delta), and the
exact cubic in Fractions. The Christoffel kernel is checked against its coordinate-frame
reference, and the readers of the stored tensors against batch-first einsums
(test_kernel_layout.py), at random batch sizes; every bivector form (riemann_apply,
sectional curvatures, the relations) at each point of batches up to 500; the jets of
generated expressions over a batch against those of each point; the relations
and the angles refuse exactly the vectors the q-basis test refuses; printing a
generated expression and parsing it back gives the same program; every jet
operation returns a Hessian equal to its transpose bit for bit, and the bits
and errors of the three-array reference (jets_reference.py). Beyond bits:
the curvature of generated fields has the tensor symmetries and the first
Bianchi identity, its components over random rational fields are within
C_EPS eps of the exact oracle (test_exact.py), their sectional curvatures
within C_SECTIONAL eps, and their Christoffel symbols
and derivatives within C_CHRISTOFFEL eps, check-parallel's verdicts keep
their bits where g is scaled by a power of two, q is an isometry of every
circulant metric, the command line, fuzzed over commands, specs, points and samples, exits 0-3
without raising or letting a RuntimeWarning through, and main parses an argv of a command's options
and stray tokens as build_parser().parse_args does. hypothesis is needed
here only (the test extra); the budgets are small and derandomized so that
every run checks the same examples.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from circulant3 import (  # noqa: E402
    Q_MATRIX,
    MetricFunctions,
    check_equal_sectional_curvatures,
    check_positive_definite,
    check_q_invariance,
    check_sectional_combination_formula,
    check_sectional_difference_formula,
    construct_basis_vectors,
    induces_q_basis,
    jets,
    metric_at,
    q_basis_angles,
    riemann_apply,
    riemann_from_metric,
    sample_admissible_points,
    sectional_curvature,
    sectional_relations,
)
from circulant3 import cli  # noqa: E402
from circulant3.cli import _CORES, NO_WEAK, NOT_SAMPLED, main  # noqa: E402
from circulant3.errors import CirculantError, EvalDomainError, NotAQBasis, PositivityViolation  # noqa: E402
from circulant3.expressions import (  # noqa: E402
    FUNCTIONS,
    eval_jet,
    parse,
    to_source,
)
from circulant3.metric import metric_from_jets  # noqa: E402
from circulant3.qstructure import Q_BASIS_EPS, q_basis_test  # noqa: E402

import jets_reference  # noqa: E402
from exact import exact_components, fraction_jet  # noqa: E402
from helpers import (  # noqa: E402
    JET_OPS,
    isometry_residual,
    jet_outcome,
    random_manifold,
    random_point,
    random_q_basis_vector,
    random_q_invariant_manifold,
)
from test_curvature import _ref_gram, _ref_relations, _ricci, nonflat_parallel  # noqa: E402
from test_exact import (  # noqa: E402
    C_CHRISTOFFEL, C_EPS, C_SECTIONAL, EPS, assert_float_jet_is_exact_jet, christoffel_errors, sectional_error,
    worst_error,
)
from test_kernel_layout import MANIFOLDS, assert_kernel_is_the_reference, metric_batch  # noqa: E402

SMALL = settings(max_examples=150, deadline=None, database=None, derandomize=True)

# moderate coordinates, and any finite double (cubes overflow beyond ~5.6e102)
coordinate = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
vectors = st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=6).map(np.array)

TINY = Fraction(2) ** -1074  # the spacing of the subnormal doubles


@np.errstate(all="ignore")  # np.ldexp gives inf and 0 where math.ldexp raises or rounds
def _q_basis_reference(x):
    """(cubic, bound, induces) of one vector in Python floats: sigma and delta by math.fsum over x / 2^k."""
    k = math.frexp(max(abs(v) for v in x))[1]
    xs = [math.ldexp(v, -k) for v in x]
    d = [xs[0] - xs[1], xs[1] - xs[2], xs[2] - xs[0]]
    sigma, delta = math.fsum(xs), 0.5 * math.fsum(t * t for t in d)
    cubic = -(sigma * delta)
    norm_sq = (sigma * sigma + 2.0 * delta) / 3.0
    bound = Q_BASIS_EPS * (norm_sq * math.sqrt(norm_sq))
    return float(np.ldexp(cubic, 3 * k)), float(np.ldexp(bound, 3 * k)), abs(cubic) > bound


@SMALL
@given(vectors)
def test_q_basis_test_over_a_batch_is_each_vector_alone_and_the_exact_cubic(xs):
    # no refusal and no warning at any magnitude: each vector's cubic, bound and verdict are those of the
    # serial reference bit for bit, inf where the cubic or bound overflows at x itself; the cubic is within
    # 8 eps of the exact 3 x1 x2 x3 - (x1^3 + x2^3 + x3^3), up to what the subnormal doubles can hold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cubic, bound, induces = q_basis_test(xs)
        singles = [q_basis_test(x) for x in xs]
    assert [type(v) for v in singles[0]] == [np.float64, np.float64, np.bool_]
    assert [tuple(map(float, v)) for v in singles] == list(zip(cubic.tolist(), bound.tolist(), induces.tolist()))
    assert np.array_equal(induces_q_basis(xs), induces)
    for x, single in zip(xs, singles):
        want = _q_basis_reference(x.tolist())
        assert np.array(single[:2]).tobytes() == np.array(want[:2]).tobytes() and single[2] == want[2]
        x1, x2, x3 = map(Fraction, x.tolist())
        exact = 3 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3)
        if math.isinf(single[0]):
            assert abs(exact) > Fraction(np.finfo(float).max)
        else:
            floor = Fraction(2) ** -1000 * max(abs(x1), abs(x2), abs(x3)) ** 3 + TINY
            assert abs(Fraction(single[0]) - exact) <= Fraction(8 * EPS) * abs(exact) + floor


ratio = st.one_of(
    st.floats(1.001, 1e6),
    st.sampled_from([2.0, 2.0 + 1e-12, 2.0 - 4e-16, 1.0 + 2**-52, 1.0 + 1e-9]),
)
admissible_batches = st.lists(st.tuples(st.floats(1e-6, 1e6), ratio), min_size=1, max_size=8).map(
    lambda rows: (np.array([b * r for b, r in rows]), np.array([b for b, _ in rows]))
)


def _special_angle_reference(A, B):
    """The special-angle vector of one point in Python floats, (1, -1, 0) + t (1, 1, 1) with
    t = sqrt(4 nu / (3 lam)), from A and B over 2^e."""
    e = math.frexp(A)[1]
    A, B = math.ldexp(A, -e), math.ldexp(B, -e)
    t = math.sqrt(4.0 * (A - B) / (3.0 * (A + 2.0 * B)))
    return np.array([t + 1.0, t - 1.0, t + 0.0])


EDGE_B = np.array([1e-300, 1.0, 1e300])


@SMALL
@given(admissible_batches)
@example((np.nextafter(EDGE_B, np.inf), EDGE_B))  # A the double next above B
def test_special_angle_vector_over_a_batch_equals_each_point_bit_for_bit(AB):
    A, B = AB
    y = construct_basis_vectors(A, B)[1]
    assert induces_q_basis(y).all()
    for i in range(len(A)):
        want = _special_angle_reference(float(A[i]), float(B[i])).tobytes()
        assert y[i].tobytes() == want
        assert construct_basis_vectors(float(A[i]), float(B[i]))[1].tobytes() == want


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


# riemann_apply, sectional_curvature and the relations form every R(x, y, z, u) as a bivector form of the six
# entries of s at its point, by elementwise products and sums: each point of a batch has the bits it has alone.
@pytest.mark.parametrize("shape", [(), (1,), (4,), (40,), (500,)], ids=str)
@settings(max_examples=2, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(MANIFOLDS)), seed=st.integers(0, 2**16))
def test_bivector_forms_over_a_batch_are_each_point_alone_bit_for_bit(shape, name, seed):
    M = metric_batch(name, seed, shape)
    R = riemann_from_metric(M)
    rng = np.random.default_rng(seed)
    x, y, z, u = rng.standard_normal((4,) + shape + (3,))
    U = np.array([random_q_basis_vector(rng) for _ in range(3)])
    forms, mu = riemann_apply(R, x, y, z, u), sectional_curvature(R, x, y)
    relations = _relation_values(sectional_relations(R, U, tol=math.inf))  # (V, *batch, 7)
    for i in np.ndindex(shape):
        Ri = riemann_from_metric(M[i])
        assert np.asarray(forms[i]).tobytes() == np.asarray(riemann_apply(Ri, x[i], y[i], z[i], u[i])).tobytes()
        assert np.asarray(mu[i]).tobytes() == np.asarray(sectional_curvature(Ri, x[i], y[i])).tobytes()
        alone = _relation_values(sectional_relations(Ri, U, tol=math.inf))
        assert relations[(slice(None), *i)].tobytes() == alone.tobytes()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(MANIFOLDS)), n=st.integers(1, 8), seed=st.integers(0, 2**16), k=st.integers(-200, 200)
)
def test_check_parallel_verdicts_are_unchanged_where_g_is_scaled_by_a_power_of_two(name, n, seed, k):
    # parallelism is a property of the connection, which g and 2^k g share; so is each verdict's residual
    make, box = MANIFOLDS[name]
    m = make(np.random.default_rng(seed))
    points, M = sample_admissible_points(m, box, n, seed)
    scaled = MetricFunctions.from_sources(*(f"{2.0**k!r}*({f.source})" for f in (m.A, m.B)))
    args = SimpleNamespace(tol=1e-9)
    want = _CORES["check-parallel"](None, points, M, args)[1]
    got = _CORES["check-parallel"](None, points, metric_at(scaled, points), args)[1]
    assert list(got) == list(want)
    for verdict in want:
        for key in ("pass", "residual", "tol"):
            assert np.asarray(got[verdict][key]).tobytes() == np.asarray(want[verdict][key]).tobytes(), (verdict, key)


# Expression source over every kind of entry: a coordinate, a number, a unary minus, a function, the
# four operators and a power, each operand in parentheses. Numbers are non-negative, as the grammar's
# numbers are: a negative one is a unary minus of its magnitude.
leaves = st.one_of(
    st.builds("x{}".format, st.integers(1, 3)),
    st.builds(repr, st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.5, 1e-300, 1e300]))),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds("-({})".format, children),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), children),
        st.builds("({}) {} ({})".format, children, st.sampled_from("+-*/"), children),
        st.builds("({})^{!r}".format, children, st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, -2.5])),
    ),
    max_leaves=8,
)
TREES = settings(max_examples=60, deadline=None, database=None, derandomize=True)


@TREES
@given(trees)
def test_printing_a_tree_and_parsing_it_back_gives_the_same_tree(tree):
    f = parse(tree)
    assert parse(to_source(f)) == f


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
    expr = parse(f"-({tree}) - {c!r}")
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
jet_parts = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        lambda v, g, h: (np.array(v), np.array(g), np.array(h)[:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]),
        st.lists(entry, min_size=n, max_size=n),
        st.lists(st.lists(entry, min_size=3, max_size=3), min_size=n, max_size=n),
        st.lists(st.lists(entry, min_size=6, max_size=6), min_size=n, max_size=n),
    )
)


def _same_size(a, b):
    """b's parts cycled to a batch of a's size."""
    return tuple(x[np.arange(len(a[0])) % len(b[0])] for x in b)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(jet_parts, jet_parts, entry)
def test_every_jet_operation_returns_a_hessian_that_is_its_transpose_bit_for_bit(a, b, c):
    a, b = jets.Jet2(*a), jets.Jet2(*_same_size(a, b))
    for name, op in JET_OPS.items():
        try:
            h = op(jets, a, b, c).hess
        except (ValueError, ZeroDivisionError, OverflowError):  # outside the operation's domain
            continue
        assert h.tobytes() == h.swapaxes(-1, -2).tobytes(), name


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(jet_parts, jet_parts, entry)
def test_every_jet_operation_is_the_three_array_reference_bit_for_bit(a, b, c):
    b = _same_size(a, b)
    for name, op in JET_OPS.items():
        got = jet_outcome(op, jets, jets.Jet2(*a), jets.Jet2(*b), c)
        assert got == jet_outcome(op, jets_reference, jets_reference.Jet2(*a), jets_reference.Jet2(*b), c), name


# -- the curvature tensor over generated fields ---------------------------------
# A = 2 + a^2 + b^2 and B = 1 + b^2 for generated sources a and b: A > B > 0
# wherever both evaluate, with Hessians of every kind of entry.


def _generated_metric(a, b, p):
    """The metric of the fields built from sources a and b at p; None where they do not evaluate."""
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


# In 3D the curvature is a function of the Ricci tensor rho and g, and q is a
# g-isometry, so R is q-invariant exactly where Q^T rho Q = rho: an exact test
# that shares no index algebra with check_q_invariance's component chains.
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**16), invariant=st.booleans(), n=st.integers(1, 6))
def test_q_invariance_verdict_is_the_ricci_commutator_test_on_generated_fields(seed, invariant, n):
    rng = np.random.default_rng(seed)
    m = random_q_invariant_manifold(rng) if invariant else random_manifold(rng)
    R = riemann_from_metric(metric_at(m, np.array([random_point(rng) for _ in range(n)])))
    rho = _ricci(R)[0]
    Q = Q_MATRIX.astype(float)
    commutator = abs(Q.T @ rho @ Q - rho).max(axis=(-2, -1))
    passed = check_q_invariance(R).passed
    assert np.array_equal(passed, commutator <= 1e-9 * (1.0 + abs(rho).max(axis=(-2, -1))))
    assert (passed == invariant).all()


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
    exponents=st.lists(st.integers(-60, 60), min_size=1, max_size=8),
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


# the kinds of drawn vector: a standard normal one, t (1, 1, 1) with delta = 0, and one whose sigma is 0 up to
# rounding; the last two induce no q-basis
_KINDS = (
    lambda rng: rng.standard_normal(3),
    lambda rng: np.full(3, rng.standard_normal()),
    lambda rng: (lambda v: v - v.mean())(rng.standard_normal(3)),
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    case=st.sampled_from(range(len(RELATION_CASES))),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3),
    draws=st.lists(st.tuples(st.sampled_from(range(len(_KINDS))), st.integers(-200, 200)), min_size=1, max_size=8),
)
def test_relations_and_angles_of_scaled_vectors_refuse_as_the_q_basis_test_and_are_the_serial_reference(
    case, seed, n, draws
):
    # both read the q-basis test from the invariants of their own pass: they refuse exactly the vectors that
    # induces_q_basis refuses, naming the first, and give the others the bits of the serial reference
    m, box, tol = RELATION_CASES[case]
    rng = np.random.default_rng(seed)
    pts = np.array([random_point(rng, box) for _ in range(n)])
    U = np.array([np.ldexp(_KINDS[kind](rng), k) for kind, k in draws])
    M = metric_at(m, pts)
    R = riemann_from_metric(M)
    ok = np.asarray(induces_q_basis(U))
    if not ok.all():
        named = re.escape(f"vector {tuple(U[np.argmin(ok)].tolist())} does not induce a q-basis")
        with pytest.raises(NotAQBasis, match=named):
            sectional_relations(R, U, tol=tol)
        for i in range(n):
            with pytest.raises(NotAQBasis, match=named):
                q_basis_angles(M[i], U)
        U = U[ok]
        assume(len(U))
    want = np.array([[[v for pair in _ref_relations(m, p, u) for v in pair] for p in pts] for u in U])
    assert _relation_values(sectional_relations(R, U, tol=tol)).tobytes() == want.reshape(len(U), n, 7).tobytes()
    for i in range(n):
        gram = np.array([_ref_gram(float(M.A[i]), float(M.B[i]), u) for u in U])
        assert q_basis_angles(M[i], U).cos_phi_x_qx.tobytes() == (gram[:, 1] / gram[:, 0]).tobytes()


def test_relations_on_an_empty_batch_still_refuse_a_vector_that_induces_no_q_basis():
    # no point holds a copy of u to read its verdict from, so the pass tests U alone
    R = riemann_from_metric(metric_at(MetricFunctions.from_sources("3 + x1*x1", "1"), np.empty((0, 3))))
    with pytest.raises(NotAQBasis, match=re.escape("vector (1.0, 1.0, 1.0) does not induce a q-basis")):
        sectional_relations(R, [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert sectional_relations(R, [1.0, 0.0, 0.0]).difference.lhs.shape == (0,)


def test_relations_on_a_weak_metric_refuse_its_positivity_before_the_q_basis_test():
    # construct_basis_vectors tests A > B > 0 before the one invariants call that gives the vectors' q-basis test
    with pytest.warns(UserWarning, match="still positive definite"):
        M = metric_at(MetricFunctions.from_sources("2", "-0.5"), np.array([0.1, 0.2, 0.3]), allow_weak=True)
    for U in ([1.0, 1.0, 1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(PositivityViolation, match="A=2.0, B=-0.5"):
            sectional_relations(riemann_from_metric(M), U, tol=math.inf)


# -- the command line never raises ------------------------------------------------
# Every command at a point or over a sample, text or JSON, on a pool of specs
# that includes metrics at the edge of the double range (a huge gradient, a
# huge Hessian, a tiny metric with ordinary derivatives) at x1 = 1e-300 or
# 1e-200, where the Christoffel derivatives overflow and the curvature, its
# sectional curvatures or neither do, and one whose Gamma is finite and whose
# curvature is not, over its box.
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
        argv.append(f"--sample={draw(st.integers(1, 3))}")
    else:
        x1 = draw(st.sampled_from([1e-300, 1e-200, 0.5, 1.0, -1.0]))
        x2, x3 = (draw(st.sampled_from([0.0, 0.3, -0.5, 1.0])) for _ in range(2))
        argv.append(f"--at={x1!r},{x2!r},{x3!r}")
    if command not in NOT_SAMPLED:  # --at runs echo --seed; a negative seed is refused
        argv.append(f"--seed={draw(st.integers(-1, 3))}")
    numbers = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-300, 1e200]))
    for option in VECTOR_OPTIONS.get(command, ()):
        if draw(st.integers(0, 4)):  # now and then left out
            argv.append(f"{option}=" + ",".join(repr(draw(numbers)) for _ in range(3)))
    flags = ["--json"] if command in NO_WEAK else ["--json", "--allow-weak-metric"]  # where it is taken
    argv += draw(st.lists(st.sampled_from(flags), unique=True))
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


# An argv is a command, some of the options it takes with a value each type accepts, spaced or joined by '=',
# in any order, and up to two more tokens anywhere: options as written, abbreviated or not taken by the
# command, with or without a value or '=value' that their type accepts or refuses, bare values, '--' and '-h'.
_VALUES = {"--spec": "m.toml", "--at": "1,2,3", "--sample": "3", "--box": "0:1,0:1,0:1", "--seed": "4",
           "--tol": "1e-6", "--vector": "1,1,0", "--x": "1,0,0", "--y": "0,1,0", "--n-vectors": "2"}
_OPTION_TOKENS = (*_VALUES, "--json", "--allow-weak-metric", "--fd-check", "--sp", "--vec", "--allow", "--version")
_VALUE_TOKENS = (*_VALUES.values(), "-1,2,3", "nan,0,0", "0", "-1", "x", "", "--", "-h")
_noise = st.one_of(
    st.sampled_from(_OPTION_TOKENS),
    st.sampled_from(_VALUE_TOKENS),
    st.builds("{}={}".format, st.sampled_from(_OPTION_TOKENS), st.sampled_from(_VALUE_TOKENS)),
)


@st.composite
def _command_argvs(draw):
    command = draw(st.sampled_from(tuple(_CORES)))
    parser = next(a for a in cli.build_parser()._actions if a.dest == "command").choices[command]
    options = [s for a in parser._actions for s in a.option_strings if s.startswith("--") and s != "--help"]
    words = []
    for option in draw(st.permutations(options)):
        if draw(st.integers(0, 2)):  # now and then left out
            value = _VALUES.get(option)
            words.append([option] if value is None else draw(st.sampled_from([[option, value], [f"{option}={value}"]])))
    for noise in draw(st.lists(_noise, max_size=2)):
        words.insert(draw(st.integers(0, len(words))), [noise])
    return [command, *(token for word in words for token in word)]


def _plain(namespace):
    return [(k, v.tolist() if isinstance(v, np.ndarray) else v) for k, v in vars(namespace).items()]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(argv=_command_argvs())
def test_main_parses_any_argv_as_the_parser_does(argv):
    # the Namespace that parse_args returns, or its exit code, stdout and stderr
    parsed = []
    empty = {"command": argv[0], "spec_name": "-", "inputs": {}, "results": {}, "verdicts": {}, "meta": {}}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_run", lambda args: parsed.append(args) or empty):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    got = _plain(parsed.pop()) if parsed else (code, out.getvalue(), err.getvalue())
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            want = _plain(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        want = (exc.code, out.getvalue(), err.getvalue())
    assert got == want, argv


# The exact oracle of test_exact.py over random rational fields: a field is a constant plus up to
# three terms (k/16) x_a^i x_b^j, each perhaps over (1 + x_c^2), so |field - constant| <= 3/8 on
# [-1, 1]^3. B = 2 + field and A = B + 1 + field keep A > B > 0 there.
_term = st.builds(
    lambda k, a, i, b, j, over: f"{k}/16*x{a}^{i}*x{b}^{j}" + (f"/(1 + x{over}^2)" if over else ""),
    st.integers(-2, 2), st.integers(1, 3), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2),
    st.integers(0, 3),
)
_field = st.lists(_term, min_size=1, max_size=3).map(" + ".join)
_points = st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 3)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(fA=_field, fB=_field, points=st.lists(_points, min_size=1, max_size=4))
def test_curvature_of_random_rational_fields_is_within_a_few_eps_of_the_exact_value(fA, fB, points):
    # the curvature, and the Christoffel symbols and their derivatives, of the same float jets
    B = f"2 + {fB}"
    m = MetricFunctions.from_sources(f"{B} + 1 + {fA}", B)
    M = metric_at(m, np.array(points))
    assert worst_error(riemann_from_metric(M), M) <= C_EPS
    assert max(christoffel_errors(M)) <= C_CHRISTOFFEL
    for i, p in enumerate(points):
        assert_float_jet_is_exact_jet(m.A, p, M.A_jet[i])
        assert_float_jet_is_exact_jet(m.B, p, M.B_jet[i])


_vector = st.tuples(*[st.floats(-4.0, 4.0, allow_subnormal=False)] * 3).filter(lambda v: max(map(abs, v)) > 1e-3)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(fA=_field, fB=_field, points=st.lists(_points, min_size=1, max_size=3), x=_vector, y=_vector)
def test_sectional_curvature_of_random_rational_fields_is_within_c_sectional_eps_of_the_exact_value(
    fA, fB, points, x, y
):
    # the bivector form of the float curvature over the plane's Gram determinant, against R(x, y, x, y) / det in
    # exact arithmetic of the same jets and vectors, in units of eps * max|R| * |x|^2 |y|^2 / det (test_exact.py)
    B = f"2 + {fB}"
    M = metric_at(MetricFunctions.from_sources(f"{B} + 1 + {fA}", B), np.array(points))
    x, y = np.array(x), np.array(y)
    c = np.cross(x, y)
    assume(np.dot(c, c) > 1e-6 * np.dot(x, x) * np.dot(y, y))  # the degeneracy test refuses thinner planes
    mu = sectional_curvature(riemann_from_metric(M), x, y)
    for i in range(len(points)):
        want = exact_components(fraction_jet(M.A_jet[i]), fraction_jet(M.B_jet[i]))
        if any(want.values()):
            assert sectional_error(mu[i], want, M.A[i], M.B[i], x, y) <= C_SECTIONAL
