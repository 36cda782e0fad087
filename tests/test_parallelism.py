"""Covariant derivative of q and the gradient parallelism criterion."""

from __future__ import annotations

import numpy as np

from circulant3 import (
    MetricFunctions,
    christoffel_equalities_from_table,
    christoffel_from_metric,
    metric_at,
    nabla_q_from_table,
    parallel_residual_from_metric,
)
from circulant3.parallelism import MIRROR_MATRIX
from circulant3.specfile import builtin_example

from helpers import random_manifold, random_parallel_manifold, random_point

P5 = np.array([2.0, -1.0, -1.0])


def test_mirror_matrix_shape():
    assert np.array_equal(MIRROR_MATRIX, MIRROR_MATRIX.T)
    assert np.array_equal(np.ones(3) @ MIRROR_MATRIX, np.ones(3))


def test_constant_fields_trivially_parallel():
    m = MetricFunctions.from_sources("2", "1")
    M = metric_at(m, (3.0, 1.0, -2.0))
    ct = christoffel_from_metric(M)
    assert nabla_q_from_table(ct).max_abs == 0.0
    assert np.array_equal(parallel_residual_from_metric(M), np.zeros(3))
    assert christoffel_equalities_from_table(ct) == 0.0


def test_shifted_pair_is_parallel():
    # grad B . MIRROR = (1,1,1) = grad A by construction
    m = MetricFunctions.from_sources("x1 + x2 + x3 + 1", "x1 + x2 + x3")
    M = metric_at(m, (0.9, 0.8, 0.7))
    ct = christoffel_from_metric(M)
    assert np.array_equal(parallel_residual_from_metric(M), np.zeros(3))
    assert nabla_q_from_table(ct).max_abs < 1e-10
    assert christoffel_equalities_from_table(ct) < 1e-10


def test_example_manifold_not_parallel():
    m = builtin_example().metric
    M = metric_at(m, P5)
    ct = christoffel_from_metric(M)
    res = parallel_residual_from_metric(M)
    assert np.array_equal(res, [2.0, -2.0, -2.0])  # grad A - grad B . MIRROR by hand
    assert nabla_q_from_table(ct).max_abs > 1e-6
    assert christoffel_equalities_from_table(ct) > 1e-6


def test_gradient_residual_componentwise():
    rng = np.random.default_rng(61)
    for _ in range(10):
        m = random_manifold(rng)
        p = random_point(rng)
        M = metric_at(m, p)
        A1, A2, A3 = M.A_jet.grad
        B1, B2, B3 = M.B_jet.grad
        expected = np.array(
            [A1 - (-B1 + B2 + B3), A2 - (B1 - B2 + B3), A3 - (B1 + B2 - B3)]
        )
        assert np.allclose(parallel_residual_from_metric(M), expected, atol=1e-14)


def test_parallel_iff_gradient_criterion():
    rng = np.random.default_rng(62)
    inconclusive = 0
    for k in range(24):
        m = random_parallel_manifold(rng) if k % 2 == 0 else random_manifold(rng)
        M = metric_at(m, random_point(rng))
        nq = nabla_q_from_table(christoffel_from_metric(M)).max_abs
        grad = float(np.max(np.abs(parallel_residual_from_metric(M))))
        for first, second in ((nq, grad), (grad, nq)):
            if first <= 1e-9:
                if second > 1e-8:
                    raise AssertionError(f"equivalence violated: {nq=} {grad=}")
                if second > 1e-9:
                    inconclusive += 1
    assert inconclusive <= 2


def test_christoffel_equalities_track_parallelism():
    rng = np.random.default_rng(63)
    for k in range(12):
        m = random_parallel_manifold(rng) if k % 2 == 0 else random_manifold(rng)
        M = metric_at(m, random_point(rng))
        grad = float(np.max(np.abs(parallel_residual_from_metric(M))))
        gamma_res = christoffel_equalities_from_table(christoffel_from_metric(M))
        if grad <= 1e-9:
            assert gamma_res <= 1e-8
        if gamma_res <= 1e-9:
            assert grad <= 1e-7  # criterion is linear in the residual scale
