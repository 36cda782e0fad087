"""The tensor-first Christoffel and Riemann kernel against the same contractions run batch-first.

In the reference below every einsum carries the batch as a leading
``...``, the plainest way to write them. The kernel must give every element of
Gamma, dGamma and low bit for bit, and every array the same strides,
because later einsums over these arrays sum in an order that follows their
operands' strides. tests/test_properties.py runs the same check at random
batch sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from circulant3 import sample_admissible_points
from circulant3.curvature import riemann_from_metric
from circulant3.specfile import builtin_example

from helpers import BOX, random_manifold, random_parallel_manifold, random_q_invariant_manifold

_EYE = np.eye(3)
_ONES = np.ones((3, 3))


def _metric_derivatives(M):
    dA, dB = M.A_jet.grad, M.B_jet.grad
    HA, HB = M.A_jet.hess, M.B_jet.hess
    dg = dA[..., None, None] * _EYE + dB[..., None, None] * (_ONES - _EYE)
    ddg = HA[..., None, None] * _EYE + HB[..., None, None] * (_ONES - _EYE)
    return dg, ddg


def reference_christoffel(M):
    dg, ddg = _metric_derivatives(M)
    ginv = M.g_inv
    # C[i,j,t] = d_i g_tj + d_j g_ti - d_t g_ij
    C = (
        np.einsum("...itj->...ijt", dg)
        + np.einsum("...jti->...ijt", dg)
        - np.einsum("...tij->...ijt", dg)
    )
    gamma = 0.5 * np.einsum("...ijt,...th->...ijh", C, ginv)
    dginv = -np.einsum("...ab,...kbc,...cd->...kad", ginv, dg, ginv)
    dC = (
        np.einsum("...kitj->...kijt", ddg)
        + np.einsum("...kjti->...kijt", ddg)
        - np.einsum("...ktij->...kijt", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("...kth,...ijt->...kijh", dginv, C) + np.einsum("...th,...kijt->...kijh", ginv, dC)
    )
    return gamma, dgamma


def reference_riemann(M):
    gamma, dgamma = reference_christoffel(M)
    up = (
        np.einsum("...jikh->...ijkh", dgamma)
        - np.einsum("...kijh->...ijkh", dgamma)
        + np.einsum("...ikt,...tjh->...ijkh", gamma, gamma)
        - np.einsum("...ijt,...tkh->...ijkh", gamma, gamma)
    )
    low = np.einsum("...kijt,...th->...ijkh", up, M.g)
    return gamma, dgamma, low


MANIFOLDS = {
    "generic": (random_manifold, BOX),
    "cyclic": (random_q_invariant_manifold, BOX),
    "parallel": (random_parallel_manifold, BOX),
    "example": (lambda rng: builtin_example().metric, builtin_example().sample_box),
}
SHAPES = [(), (1,), (4,), (40,), (500,)]


def metric_batch(name, seed, shape):
    make, box = MANIFOLDS[name]
    n = int(np.prod(shape, dtype=int))
    _, M = sample_admissible_points(make(np.random.default_rng(seed)), box, n, seed)
    return M[0] if shape == () else M


def assert_kernel_is_the_reference(M):
    R = riemann_from_metric(M)
    got = (R.christoffel.gamma, R.christoffel.dgamma, R.low)
    for name, a, b in zip(("gamma", "dgamma", "low"), got, reference_riemann(M)):
        assert a.shape == b.shape and a.strides == b.strides, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", MANIFOLDS)
def test_kernel_is_the_batch_first_einsum_bit_for_bit_and_stride_for_stride(name, shape):
    for seed in (1, 2):
        assert_kernel_is_the_reference(metric_batch(name, seed, shape))
