"""Circulant metric assembly, admissibility, positivity, inner products and sampling."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from circulant3 import (
    MetricFunctions,
    check_positive_definite,
    inner,
    metric_at,
    sample_admissible_points,
)
from circulant3 import sampling
from circulant3.errors import CirculantError, DomainViolation, PositivityViolation, SamplingExhausted
from circulant3.expressions import eval_value
from circulant3.jets import Jet2
from circulant3.metric import admissibility, metric_from_jets
from circulant3.sampling import MAX_DRAW_FACTOR, is_admissible
from circulant3.specfile import builtin_example

from helpers import eager_metric, random_admissible_AB, random_manifold, random_point


def test_example_metric_at_canonical_point():
    m = builtin_example().metric
    M = metric_at(m, (2.0, -1.0, -1.0))
    assert M.A == 4.0 and M.B == 2.0
    assert np.array_equal(M.g, [[4, 2, 2], [2, 4, 2], [2, 2, 4]])
    assert M.D == 16.0  # (A-B)(A+2B) by hand
    assert np.max(np.abs(M.g @ M.g_inv - np.eye(3))) <= 1e-12


def test_constant_fields():
    m = MetricFunctions.from_sources("2", "1")
    M = metric_at(m, (9.0, 9.0, 9.0))
    assert np.array_equal(M.g, [[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert M.D == 4.0


def test_positivity_violation():
    m = MetricFunctions.from_sources("1", "2")
    with pytest.raises(PositivityViolation) as err:
        metric_at(m, (0.0, 0.0, 0.0))
    assert err.value.A == 1.0 and err.value.B == 2.0


def test_check_positive_definite_values():
    ok, minors = check_positive_definite(4.0, 2.0)
    assert ok
    assert minors == (4.0, 12.0, 32.0)  # hand-evaluated leading minors

    ok, minors = check_positive_definite(1.0, 1.0)
    assert not ok
    assert minors[1] == 0.0

    # negative off-diagonal dominating the diagonal: not positive definite
    ok, minors = check_positive_definite(2.0, -3.0)
    assert not ok
    assert minors == (2.0, -5.0, -100.0)

    # positive definite yet outside the admissible cone A > B > 0
    ok, _ = check_positive_definite(2.0, -0.5)
    assert ok


def test_check_positive_definite_counts_an_overflowing_square_as_infinite():
    # (A - B)^2 overflows float pow; the last minor takes the sign of A + 2B
    assert check_positive_definite(1e200, 1.0) == (True, (1e200, math.inf, math.inf))
    ok, minors = check_positive_definite(1e200, -0.6e200)  # A + 2B < 0
    assert not ok and minors[2] == -math.inf
    ok, minors = check_positive_definite(np.array([1e200, 1e200, 4.0]), np.array([1.0, -0.6e200, 2.0]))
    assert ok.tolist() == [True, False, True]
    assert minors[2].tolist() == [math.inf, -math.inf, 32.0]


def test_check_positive_definite_judges_underflowing_minors_by_their_signs():
    # g = 1e-200 circ(3, 1, 1) is positive definite, yet its last two minors underflow to 0
    assert check_positive_definite(3e-200, 1e-200) == (True, (3e-200, 0.0, 0.0))
    ok, minors = check_positive_definite(np.array([3e-200, 1e-200]), np.array([1e-200, 3e-200]))
    assert ok.tolist() == [True, False] and minors[1].tolist() == [0.0, -0.0]


def test_inner_products():
    m = builtin_example().metric
    M = metric_at(m, (2.0, -1.0, -1.0))
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    ones = np.ones(3)
    assert inner(M, e1, e1) == 4.0
    assert inner(M, e1, e2) == 2.0
    assert inner(M, ones, ones) == 24.0  # 3A + 6B by hand


def test_inner_symmetric_and_positive():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = random_manifold(rng)
        M = metric_at(m, random_point(rng))
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert abs(inner(M, x, y) - inner(M, y, x)) < 1e-12
            assert inner(M, x, x) > 0.0


def test_inverse_closed_form_matches_linalg():
    rng = np.random.default_rng(22)
    for _ in range(50):
        A, B = random_admissible_AB(rng)
        m = MetricFunctions.from_sources(repr(A), repr(B))
        M = metric_at(m, (0.0, 0.0, 0.0))
        assert np.max(np.abs(M.g_inv - np.linalg.inv(M.g))) < 1e-12


def test_D_equals_det_over_gap():
    rng = np.random.default_rng(23)
    for _ in range(50):
        A, B = random_admissible_AB(rng)
        m = MetricFunctions.from_sources(repr(A), repr(B))
        M = metric_at(m, (0.0, 0.0, 0.0))
        expected = np.linalg.det(M.g) / (A - B)
        assert abs(M.D - expected) <= 1e-10 * abs(expected)


def test_domain_constraint_violation():
    spec = builtin_example()
    with pytest.raises(DomainViolation) as err:
        metric_at(spec.metric, (1.0, 1.0, 1.0))  # x2 + x3 > 0 breaks the chart
    assert err.value.constraint == "-x2 - x3"


def test_allow_weak_metric():
    m = MetricFunctions.from_sources("2", "-0.5")
    with pytest.raises(PositivityViolation):
        metric_at(m, (0.0, 0.0, 0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        M = metric_at(m, (0.0, 0.0, 0.0), allow_weak=True)
    assert caught and "positive definite" in str(caught[0].message)
    assert M.D > 0

    # not even positive definite: rejected regardless
    bad = MetricFunctions.from_sources("1", "2")
    with pytest.raises(PositivityViolation):
        metric_at(bad, (0.0, 0.0, 0.0), allow_weak=True)


def test_metric_at_batch_raises_like_its_first_failing_point():
    # c1 guards the log in c2 and in A; B > 0 fails for x3 < -9
    m = MetricFunctions.from_sources("5 + log(x1)", "1 + x3/9", ("x1", "log(x1) + 2"))
    good = [1.0, 0.0, 0.0]
    cases = [
        [good, [1.0, 0.0, -10.0], [-1.0, 0.0, 0.0]],  # PositivityViolation before a DomainViolation
        [good, [-1.0, 0.0, 0.0], [1.0, 0.0, -10.0]],  # DomainViolation of the guard, not a log error
        [good, [0.01, 0.0, 0.0], [-1.0, 0.0, 0.0]],  # DomainViolation of the second constraint
    ]
    for pts in cases:
        first_bad = np.array(pts[1])
        with pytest.raises(CirculantError) as single:
            metric_at(m, first_bad)
        with pytest.raises(CirculantError) as batch:
            metric_at(m, np.array(pts))
        assert type(batch.value) is type(single.value)
        assert str(batch.value) == str(single.value)
    M = metric_at(m, np.array([good, [2.0, 1.0, 3.0]]))
    assert M.g.shape == (2, 3, 3) and M.D.shape == (2,)


def test_metric_at_batch_admits_weak_points_with_a_warning():
    m = MetricFunctions.from_sources("2", "-0.5 + 0*x1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        M = metric_at(m, np.zeros((2, 3)), allow_weak=True)
        single = metric_at(m, np.zeros(3), allow_weak=True)
    assert len(caught) == 3 and "positive definite" in str(caught[0].message)
    assert np.array_equal(M.g[1], single.g)


# -- rejection sampling: batched classification against a serial reference ---


def serial_reference(m, box, n, seed):
    """One draw at a time, each classified by is_admissible."""
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    accepted = []
    for _ in range(MAX_DRAW_FACTOR * n):
        p = rng.uniform(lows, highs)
        if is_admissible(m, p):
            accepted.append(p)
            if len(accepted) == n:
                return np.array(accepted)
    raise SamplingExhausted(
        f"accepted only {len(accepted)} of {n} requested points after "
        f"{MAX_DRAW_FACTOR * n} draws from box {box}"
    )


GENERIC = MetricFunctions.from_sources("3 + x1^2/5 + exp(x3)/7", "1 + sin(x2)/4 + x1*x3/9")
LOG_X1 = MetricFunctions.from_sources("4 + log(x1)", "1 + x2/4")
PERIODIC = MetricFunctions.from_sources("3 + sin(x1)*cos(x2)", "1 + sin(x3)/2")  # A > B > 0 everywhere
HALF_PLANE = MetricFunctions.from_sources("3 + sin(x1)", "x2")  # admissible where x2 > 0


@pytest.mark.parametrize(
    "m, box, n, chunks",
    [
        (GENERIC, ((-6.0, 6.0), (-1.0, 1.0), (-6.0, 6.0)), 40, 1),
        (LOG_X1, ((-1.0, 3.0), (-1.0, 1.0), (-1.0, 1.0)), 30, 1),  # evaluation errors for x1 <= 0
        (builtin_example().metric, builtin_example().sample_box, 25, 1),  # [domain] constraints
        (PERIODIC, ((0.0, 1e-320),) * 3, 20, 1),  # subnormal bounds and widths
        (PERIODIC, ((1e-300, 1e300),) * 3, 20, 1),
        (PERIODIC, ((-1e307, 1e307), (-5e306, 5e306), (0.0, 1.5e307)), 20, 1),  # widths near 1e307
        (HALF_PLANE, ((-6.0, 6.0), (-5.0, 1.0), (-6.0, 6.0)), 40, 3),  # a sixth of the draws accepted
    ],
    ids=["generic", "log-x1", "domain", "subnormal", "1e-300-to-1e300", "width-near-1e307", "low-acceptance"],
)
def test_sampler_matches_serial_reference(m, box, n, chunks, monkeypatch):
    # one chunk is returned as it is, several are joined: both give the bits of the serial draws
    drawn = []

    def classify(m, p):  # one call per chunk of draws
        drawn.append(len(p))
        return admissibility(m, p)

    monkeypatch.setattr(sampling, "admissibility", classify)
    for seed in range(4):
        drawn.clear()
        points, M = sample_admissible_points(m, box, n, seed)
        assert len(drawn) == chunks, seed
        assert points.tobytes() == serial_reference(m, box, n, seed).tobytes()
        reference = metric_at(m, points)
        for got, want in [(M.A_jet.data, reference.A_jet.data), (M.B_jet.data, reference.B_jet.data),
                          (M.e, reference.e), (M.g, reference.g), (M.g_inv, reference.g_inv), (M.D, reference.D)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_admissibility_marks_a_point_that_fails_to_evaluate_and_never_raises():
    m = MetricFunctions.from_sources("5 + log(x1)", "1 + x3/9", ("x1", "log(x1) + 2"))
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 1.0, 3.0], [0.01, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ok, A_jet, B_jet, values = admissibility(m, pts)
    assert ok.tolist() == [is_admissible(m, p) for p in pts] == [True, False, True, False, False]
    assert len(values) == 2 and all(v.shape == (5,) for v in values)
    for i in (1, 4):  # log(x1) fails to evaluate there
        assert np.isnan(A_jet[i].hess).all() and np.isnan(B_jet[i].grad).all()
        assert all(np.isnan(v[i]) for v in values)
        one_ok, one_A, _, one_values = admissibility(m, pts[i])
        assert one_ok.shape == () and not one_ok and np.isnan(one_A.value)
        assert len(one_values) == 2 and all(np.isnan(v) for v in one_values)
    for i in (0, 2, 3):  # evaluated points keep the bits they have alone
        alone = admissibility(m, pts[i])[1]
        assert A_jet[i].hess.tobytes() == alone.hess.tobytes()
        for c, v in zip(m.domain_constraints, values):
            assert np.float64(v[i]).tobytes() == np.float64(eval_value(c, pts[i])).tobytes()


def test_sampler_exhaustion_matches_serial_reference():
    # the box barely touches the chart: 1 of the 500 draws is admissible
    m = builtin_example().metric
    box = ((0.0, 0.2), (-2.0, -0.1), (-2.0, -0.1))
    with pytest.raises(SamplingExhausted) as reference:
        serial_reference(m, box, 5, 0)
    with pytest.raises(SamplingExhausted) as batched:
        sample_admissible_points(m, box, 5, 0)
    assert str(batched.value) == str(reference.value)
    assert "accepted only 1 of 5" in str(batched.value)


@pytest.mark.parametrize(
    "box", [((-1e308, 1e308), (0.0, 1.0), (0.0, 1.0)), ((0.0, math.inf),) * 3, ((math.nan, 1.0),) * 3],
    ids=["width-overflows", "infinite-bound", "nan-bound"],
)
def test_sampler_refuses_a_box_as_generator_uniform_does(box):
    lows, highs = np.array(box).T
    with np.errstate(all="ignore"), pytest.raises(OverflowError) as reference:
        np.random.default_rng(0).uniform(lows, highs)
    with np.errstate(all="ignore"), pytest.raises(OverflowError) as sampled:
        sample_admissible_points(GENERIC, box, 5, 0)
    assert str(sampled.value) == str(reference.value)


# The values of A and B over a batch: ordinary; tiny, where D underflows; huge, where D overflows; and
# beyond the double range, where A + 2B overflows (7e307 + 1e300 x1 and 6e307)
METRIC_VALUES = {
    "normal": lambda u: (3.0 + u, 1.0 + u * u / 4),
    "tiny": lambda u: (np.full(u.shape, 3e-200), np.full(u.shape, 1e-200)),
    "huge": lambda u: (np.full(u.shape, 3e200), np.full(u.shape, 1e200)),
    "beyond-range": lambda u: (7e307 + 1e300 * u, np.full(u.shape, 6e307)),
}


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (40,), (2, 3)], ids=str)
@pytest.mark.parametrize("case", METRIC_VALUES)
def test_g_its_inverse_and_D_are_formed_where_read_with_the_bits_of_the_eager_formulas(case, shape):
    rng = np.random.default_rng(37)
    A, B = METRIC_VALUES[case](rng.uniform(-1.0, 1.0, shape))
    M = metric_from_jets(*(Jet2(v, rng.normal(size=shape + (3,)), np.zeros(shape + (3, 3))) for v in (A, B)))
    want = eager_metric(np.asarray(A), np.asarray(B))
    assert M.A.shape == shape
    for name, got, want_bits in zip(("g", "g_inv", "D", "e"), (M.g, M.g_inv, M.D, M.e), map(_bits, want)):
        assert _bits(got) == want_bits, name
    for i in np.ndindex(shape):  # each point of the batch, alone
        Mi = M[i]
        for name, got, w in zip(("g", "g_inv", "D", "e"), (Mi.g, Mi.g_inv, Mi.D, Mi.e), want):
            assert _bits(got) == _bits(w[i]), (name, i)
