"""The stored tensors' layout, and the readers of Gamma and R against references.

christoffel_from_metric forms Gamma and dGamma in g's eigenframe, one
row per point, and stores them as formed: batch first and C-contiguous
(gamma and dgamma). riemann_from_metric stores the six entries of R's bivector
form tensor first (s, C-contiguous) and R gathered from them tensor first (t,
C-contiguous), handing out the batch-first view low. Their values have their
own references: the exact oracle (tests/exact.py, test_exact.py) for both,
and here, for Gamma and dGamma, reference_christoffel, the coordinate-frame
route through g^-1 and d g^-1 = -g^-1 (d g) g^-1, within C_CHRISTOFFEL eps of
the largest entry on four well-conditioned manifolds. test_curvature.py
checks that each point has the bits it has alone. The strides of an array
can change the order in which a later einsum sums. So every reader that
contracts Gamma or t by an einsum (nabla_q_from_table, the CLI's symmetry
verdicts) must give the bits of the same batch-first einsum over
batch-first arrays: Gamma as stored, and a copy of R.t in its own index
order, (...,k,i,j,h), read through the view (...,i,j,k,h). A C-contiguous
low, (...,i,j,k,h) in memory, is not that reference: einsum sums it in
another order, and at N = 40 its results differ from the reference's in
the last bits (by up to 5e-13 of an element on these manifolds).
riemann_apply reads s alone, by elementwise products and sums, so strides
play no part in it: it gives the same bits over a batch-first copy of s and
Fortran-ordered vectors, and it lies within C_APPLY eps * max|s| * |x||y||z||u|
of the five-operand einsum over t (helpers.riemann_apply_reference), on the
vector shapes the library hands it: one vector (3,), one per point, the stack
(18, *batch, 3) of the 18 planes sectional_relations forms (5 vectors), the
stack (40, 1, 3) of sampled_q_invariance_residual (20 samples), and one more
broadcast stack. tests/test_properties.py runs the same check at random batch
sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from circulant3 import Q_MATRIX, sample_admissible_points
from circulant3.cli import _symmetry_verdicts
from circulant3.curvature import CurvatureTensor, christoffel_from_metric, max_abs, riemann_apply, riemann_from_metric
from circulant3.jets import batch_first
from circulant3.parallelism import nabla_q_from_table
from circulant3.specfile import builtin_example

from helpers import (
    BIVECTOR_PAIRS,
    BOX,
    metric_derivatives,
    random_manifold,
    random_parallel_manifold,
    random_q_invariant_manifold,
    riemann_apply_reference,
)
from test_exact import C_CHRISTOFFEL, EPS

# riemann_apply against the einsum, in units of eps * max|s| * |x||y||z||u|: the largest seen over these
# manifolds (8 seeds, batches up to 500) is about 9.6; a rounding analysis of the bivector form alone gives about 33
C_APPLY = 32.0
# s_PQ = low[a, b, c, d] for e_P = e_a ^ e_b and e_Q = e_c ^ e_d, in the order s stores them: 00, 11, 22, 01, 02, 12
_S_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def reference_christoffel(M):
    """Gamma and dGamma in the coordinate frame, batch first: 2 Gamma_ij^h = g^th (d_i g_tj + d_j g_ti - d_t g_ij)."""
    dg, ddg = metric_derivatives(M)
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


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def assert_kernel_is_the_reference(M):
    ct = christoffel_from_metric(M)
    for name, got, want in zip(("gamma", "dgamma"), (ct.gamma, ct.dgamma), reference_christoffel(M)):
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= C_CHRISTOFFEL * EPS * np.abs(want).max(), name
    R = riemann_from_metric(M)
    # a batch-first copy of R.t[k,i,j,h,*batch] in its index order, and low[...,i,j,k,h] a view of it
    low = np.moveaxis(np.ascontiguousarray(batch_first(R.t, 4)), -4, -2)
    # each stored once and C-contiguous: s and R tensor first, with the batch-first low a view of R, whose
    # entries are those of s; Gamma and dGamma batch first, as formed
    batch = M.D.shape
    assert R.s.flags.c_contiguous and R.s.shape == (6,) + batch
    assert R.t.flags.c_contiguous and R.t.shape == (3, 3, 3, 3) + batch
    assert np.shares_memory(R.t, R.low) and R.low.shape == batch + (3, 3, 3, 3)
    for entry, (P, Q) in zip(R.s, _S_ENTRIES):
        assert _bits(R.low[(..., *BIVECTOR_PAIRS[P], *BIVECTOR_PAIRS[Q])]) == _bits(entry)
    for name, stored, rank in (("Gamma", ct.gamma, 3), ("dGamma", ct.dgamma, 4)):
        assert stored.flags.c_contiguous and stored.shape == batch + (3,) * rank, name
    # riemann_apply is within C_APPLY eps of the einsum over t, and has the same bits over a batch-first copy of s
    # and Fortran-ordered vectors
    rng = np.random.default_rng(5)
    strided = CurvatureTensor(R.t, batch_first(np.ascontiguousarray(batch_first(R.s, 1)), R.s.ndim - 1), M)
    for shape in ((3,), batch + (3,), (18,) + batch + (3,), (40, 1, 3), (5, 1, 3)):
        vectors = rng.standard_normal((4,) + shape)
        got, want = riemann_apply(R, *vectors), riemann_apply_reference(R, *vectors)
        norms = np.prod(np.linalg.norm(vectors, axis=-1), axis=0)
        assert got.shape == want.shape, shape
        assert (abs(got - want) <= C_APPLY * EPS * max_abs(R) * norms).all(), shape
        assert _bits(riemann_apply(strided, *(np.asfortranarray(v) for v in vectors))) == _bits(got), shape
    # the readers of Gamma and t give the bits of the batch-first einsums over batch-first arrays
    Q = Q_MATRIX.astype(float)
    want = np.einsum("...ith,tj->...ijh", ct.gamma, Q) - np.einsum("...ijt,ht->...ijh", ct.gamma, Q)
    assert _bits(nabla_q_from_table(ct).nq) == _bits(want)
    got, want = _symmetry_verdicts(R.low, 1e-9), _symmetry_verdicts(low, 1e-9)
    assert [_bits(v[key]) for v in got.values() for key in sorted(v)] == [
        _bits(v[key]) for v in want.values() for key in sorted(v)
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", MANIFOLDS)
def test_kernel_is_the_batch_first_einsum_bit_for_bit_and_stride_for_stride(name, shape):
    for seed in (1, 2):
        assert_kernel_is_the_reference(metric_batch(name, seed, shape))
