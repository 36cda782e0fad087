"""Property tests: a batch gives, bit for bit, what its elements give one at a time.

The references are the computations of one vector or one point as they ran
before these functions took batches: Python floats, float pow and
np.linalg.norm. The curvature kernel is checked against its batch-first
reference (test_kernel_layout.py) at random batch sizes, and the jets of
generated expressions over a batch against those of each point; printing a
generated expression and parsing it back gives the same tree; every jet
operation returns a Hessian equal to its transpose bit for bit. hypothesis is
needed here only (the test extra); the budget is small and derandomized so
that every run checks the same examples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from circulant3 import check_positive_definite, construct_special_angle_vector, induces_q_basis, jets  # noqa: E402
from circulant3.errors import EvalDomainError, NotAQBasis  # noqa: E402
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
from circulant3.qstructure import Q_BASIS_EPS, q_basis_defect, q_basis_threshold  # noqa: E402

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
    refs = [_reference(x) for x in xs]
    defects = [d for d, _ in refs]
    thresholds = [t for _, t in refs]
    passes = [OVERFLOW if OVERFLOW in (d, t) else abs(d) > t for d, t in refs]
    for fn, values in (
        (q_basis_defect, defects),
        (q_basis_threshold, thresholds),
        (induces_q_basis, passes),
    ):
        assert _same(_outcome(fn, xs), _expected(xs, values)), fn.__name__
        for x, value in zip(xs, values):
            single = _outcome(fn, x)
            if value is OVERFLOW:
                assert single == _too_large(x)
            else:
                assert type(single) is type(value)
                assert np.array(single).tobytes() == np.array(value).tobytes(), fn.__name__


# A > B > 0 as B and A / B, some at or near A = 2B, where the special-angle
# equation degenerates
ratio = st.one_of(st.floats(1.001, 1e6), st.sampled_from([2.0, 2.0 + 1e-12, 2.0 - 4e-16]))
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


@SMALL
@given(admissible_batches)
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
