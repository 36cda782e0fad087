"""The structure q, its basis criterion, angles and constructed vectors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from circulant3 import (
    MetricFunctions,
    Q_MATRIX,
    apply_q,
    construct_basis_vectors,
    construct_orthogonal_vector,
    induces_q_basis,
    inner,
    metric_at,
    q_basis_angles,
)
from circulant3.errors import NotAQBasis, PositivityViolation
from circulant3.qstructure import invariants, q_basis_test, vector_invariants

from helpers import (
    cos_angle_closed_form, isometry_residual, orthogonality_defect, random_admissible_AB, random_q_basis_vector,
)


def _metric(A: float, B: float):
    return metric_at(MetricFunctions.from_sources(repr(A), repr(B)), (0.0, 0.0, 0.0))


def test_q_cubes_to_minus_identity_exactly():
    assert np.array_equal(Q_MATRIX @ Q_MATRIX @ Q_MATRIX, -np.eye(3, dtype=int))
    assert not np.array_equal(Q_MATRIX, -np.eye(3, dtype=int))


def test_apply_q_examples():
    assert np.array_equal(apply_q([1, 2, 3]), [-2, -3, -1])
    assert np.array_equal(apply_q(apply_q([1, 2, 3])), [3, 1, 2])
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(apply_q(apply_q(apply_q(x))), -x)
    assert np.array_equal(apply_q([0, 0, 0]), [0, 0, 0])


def test_apply_q_is_a_signed_gather_exact_at_any_entry():
    # the bits of the product by Q_MATRIX on finite vectors, a batch included; an infinite entry moves to its
    # own slot alone, with no NaN and no RuntimeWarning where the product gives [nan, nan, -inf]
    x = np.random.default_rng(36).standard_normal((4, 5, 3)) * 10.0 ** np.arange(-150, 150, 20)[:, None, None, None]
    for v in (x[0, 0, 0], x):
        assert apply_q(v).tobytes() == (Q_MATRIX @ v[..., None])[..., 0].tobytes()
    assert apply_q([math.inf, 1.0, 1.0]).tolist() == [-1.0, -1.0, -math.inf]
    assert np.signbit(apply_q([-0.0, 0.0, -0.0])).tolist() == [False, False, False]


def test_isometry_residual():
    M = _metric(4.0, 2.0)
    assert isometry_residual(M, [1, 0, 0], [0, 1, 0]) == 0.0
    x = np.array([1.0, 2.0, 3.0])
    assert isometry_residual(M, x, x) < 1e-12
    rng = np.random.default_rng(31)
    for _ in range(100):
        A, B = random_admissible_AB(rng)
        M = _metric(A, B)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        g = inner(M, x, y)
        assert isometry_residual(M, x, y) <= 1e-12 * (1.0 + abs(g))


def test_induces_q_basis():
    assert not induces_q_basis([1.0, 1.0, 1.0])
    assert induces_q_basis([1.0, 0.0, 0.0])
    x = construct_orthogonal_vector(4.0, 2.0)
    assert induces_q_basis(x)


def test_angles_of_first_basis_vector():
    M = _metric(4.0, 2.0)
    rep = q_basis_angles(M, [1.0, 0.0, 0.0])
    assert rep.a == 1.0 and rep.b == 0.0
    assert rep.cos_phi_x_qx == -0.5  # -B/A
    assert abs(rep.angles[0] - 2 * math.pi / 3) < 1e-15
    assert abs(rep.angles[1] - math.pi / 3) < 1e-15
    assert abs(rep.angles[2] - 2 * math.pi / 3) < 1e-15


def test_angles_of_orthogonal_vector():
    M = _metric(4.0, 2.0)
    x = construct_orthogonal_vector(4.0, 2.0)
    assert np.allclose(x, [0.0, -6.0 + math.sqrt(20.0), 4.0])
    rep = q_basis_angles(M, x)
    assert abs(rep.cos_phi_x_qx) < 1e-12
    assert abs(rep.cos_phi_x_q2x) < 1e-12
    assert abs(rep.cos_theta_qx_q2x) < 1e-12


def test_angles_rejects_degenerate_vector():
    M = _metric(4.0, 2.0)
    with pytest.raises(NotAQBasis):
        q_basis_angles(M, [1.0, 1.0, 1.0])


def test_angles_do_not_depend_on_the_metric_magnitude_bit_for_bit():
    # A = 3 * 2^1022 makes x @ g @ x overflow unscaled; each metric over its
    # power of two is g(3, 1), so every cosine keeps the bits of the plain metric
    x = [1.0, 0.2, -0.4]
    plain = q_basis_angles(_metric(3.0, 1.0), x)
    for scale in (2.0**1022, 2.0**-1000):
        with np.errstate(all="raise"):
            rep = q_basis_angles(_metric(3.0 * scale, scale), x)
        for name in ("cos_phi_x_qx", "cos_phi_x_q2x", "cos_theta_qx_q2x"):
            assert getattr(rep, name) == getattr(plain, name), (scale, name)


def test_angle_routes_and_ranges():
    rng = np.random.default_rng(32)
    for _ in range(200):
        A, B = random_admissible_AB(rng)
        M = _metric(A, B)
        x = random_q_basis_vector(rng)
        rep = q_basis_angles(M, x)
        closed = cos_angle_closed_form(A, B, x)
        assert abs(rep.cos_phi_x_qx - closed) <= 1e-10
        assert abs(rep.cos_phi_x_q2x + closed) <= 1e-10
        assert abs(rep.cos_theta_qx_q2x - closed) <= 1e-10
        # cosine chain equalities
        assert abs(rep.cos_phi_x_qx - rep.cos_theta_qx_q2x) <= 1e-12
        assert abs(rep.cos_phi_x_qx + rep.cos_phi_x_q2x) <= 1e-12
        # open-interval bounds
        assert -1.0 < rep.cos_phi_x_qx and 0.5 - rep.cos_phi_x_qx > 1e-12
        assert 1.0 > rep.cos_phi_x_q2x and rep.cos_phi_x_q2x + 0.5 > 1e-12


def test_q_norm_preserved():
    rng = np.random.default_rng(33)
    for _ in range(100):
        A, B = random_admissible_AB(rng)
        M = _metric(A, B)
        x = rng.standard_normal(3)
        nx = inner(M, x, x)
        nqx = inner(M, apply_q(x), apply_q(x))
        assert abs(nx - nqx) <= 1e-12 * (1.0 + nx)


def test_orthogonality_defect_values():
    M = _metric(4.0, 2.0)
    x = construct_orthogonal_vector(4.0, 2.0)
    a, _ = (float(x @ x), None)
    denom = 4.0 * a  # A a + 2 B b scale proxy
    assert abs(orthogonality_defect(M, x)) <= 1e-9 * denom
    assert orthogonality_defect(M, [1.0, 0.0, 0.0]) == 2.0  # B * a with a=1, b=0
    assert orthogonality_defect(M, [1.0, 1.0, 1.0]) == 3 * 4.0 + 6 * 2.0  # 3A + 6B


def test_vector_invariants_are_the_sums_left_to_right_bit_for_bit():
    # a = x1 x1 + x2 x2 + x3 x3 and b = x1 x2 + x1 x3 + x2 x3, each added left to right in float arithmetic,
    # for one vector and over a batch, zeros of either sign among the entries
    rng = np.random.default_rng(36)
    x = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-100, 100, (200, 3))
    x[:50] *= rng.random((50, 3)) < 0.5
    x[50:60, 1] = -0.0
    expected = [(x1 * x1 + x2 * x2 + x3 * x3, x1 * x2 + x1 * x3 + x2 * x3) for x1, x2, x3 in x.tolist()]
    a, b = vector_invariants(x.reshape(20, 10, 3))
    assert list(zip(a.ravel().tolist(), b.ravel().tolist())) == expected
    assert vector_invariants(x[7]) == expected[7] and isinstance(vector_invariants(x[7])[0], float)


def test_construct_orthogonal_vector():
    assert np.allclose(construct_orthogonal_vector(2.0, 1.0), [0.0, -3.0 + math.sqrt(5.0), 2.0])
    with pytest.raises(PositivityViolation):
        construct_orthogonal_vector(1.0, 2.0)
    rng = np.random.default_rng(34)
    for _ in range(100):
        A, B = random_admissible_AB(rng)
        M = _metric(A, B)
        x = construct_orthogonal_vector(A, B)
        qx = apply_q(x)
        q2x = apply_q(qx)
        norm = inner(M, x, x)
        assert induces_q_basis(x)
        for u, v in ((x, qx), (x, q2x), (qx, q2x)):
            assert abs(inner(M, u, v)) <= 1e-9 * norm


def test_construct_special_angle_vector():
    # y = (1, -1, 0) + sqrt(4 nu / (3 lam)) (1, 1, 1): at A = 4, B = 2, nu = 2 and lam = 8
    t = math.sqrt(1.0 / 3.0)
    assert np.allclose(construct_basis_vectors(4.0, 2.0)[1], [1.0 + t, -1.0 + t, t], rtol=0.0, atol=1e-15)
    # over a batch, each point's vectors are its own, bit for bit
    batch = construct_basis_vectors(np.array([6.0, 4.0, 3.0]), np.array([4.0, 2.0, 1.0]))
    for i, (A, B) in enumerate(((6.0, 4.0), (4.0, 2.0), (3.0, 1.0))):
        assert [v[i].tobytes() for v in batch] == [v.tobytes() for v in construct_basis_vectors(A, B)]
    with pytest.raises(PositivityViolation):
        construct_basis_vectors(1.0, 2.0)
    rng = np.random.default_rng(35)
    for _ in range(100):
        A, B = random_admissible_AB(rng)
        x, y = construct_basis_vectors(A, B)
        assert x.tobytes() == construct_orthogonal_vector(A, B).tobytes()
        assert induces_q_basis(y)
        M = _metric(A, B)
        rep = q_basis_angles(M, y)
        assert abs(rep.cos_phi_x_qx + 0.5) <= 1e-10
        assert abs(rep.angles[0] - 2 * math.pi / 3) <= 1e-9
    # at A the double next above B, nu / lam is about 7e-17 and t about 9e-9: the entries 1 + t and -1 + t
    # round sigma = 3t by up to 3 eps / 4, so cos(y, qy) is -1/2 to about eps / (6t) there, as for any vector of
    # doubles whose sum is that small against its entries
    for B in (1e-300, 1.0, 1e300):
        A = float(np.nextafter(B, np.inf))
        y = construct_basis_vectors(A, B)[1]
        assert abs(q_basis_angles(_metric(A, B), y).cos_phi_x_qx + 0.5) <= np.finfo(float).eps / y[2]


def _signed_permutations(v):
    """v (3, N) with its components in every order, each with either sign."""
    for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
        for sign in (1.0, -1.0):
            yield sign, sign * v[list(order)]


def test_invariants_are_correctly_rounded_for_every_signed_permutation():
    # sigma is math.fsum of the entries and delta half math.fsum of the rounded squares of their differences,
    # bit for bit, over random magnitudes, near-total cancellation and ties next to 2^53 and to 1 + 2^-52
    rng = np.random.default_rng(37)
    n = 20000
    a, b = rng.standard_normal((2, n))
    cases = [
        rng.standard_normal((3, n)) * 2.0 ** rng.integers(-60, 60, (3, n)),
        np.stack([a, b, -(a + b) + rng.standard_normal(n) * 2.0 ** rng.integers(-110, -40, n)]),
        np.stack([np.full(n, 2.0**53), rng.integers(-4, 5, n).astype(float), rng.choice([0.5, -0.5, 1.5, 2**-60], n)]),
        np.stack([np.ones(n), rng.choice([2**-53, -2**-53, 3 * 2**-54, 2**-106], n),
                  rng.choice([2**-53, -2**-105, 2**-160, 0.0, -0.0], n)]),
    ]
    for v in cases:
        d = v - v[[1, 2, 0]]
        sigma = np.array([math.fsum(c) for c in v.T.tolist()])
        delta = np.array([math.fsum(c) for c in (d * d).T.tolist()]) / 2
        for sign, w in _signed_permutations(v):
            got = invariants(w)
            # an exact zero sum is +0.0 for either sign of the terms, as fsum gives it
            assert (got[0] + 0.0).tobytes() == (sign * sigma + 0.0).tobytes() and got[1].tobytes() == delta.tobytes()


def test_the_q_basis_test_is_the_cubic_sigma_delta_at_any_magnitude():
    # 3 x1 x2 x3 - (x1^3 + x2^3 + x3^3) = -sigma delta, within a few eps of its terms; the verdict of x is that
    # of x scaled by any power of two, and the cubic and bound scale with it
    rng = np.random.default_rng(38)
    x = rng.standard_normal((500, 3))
    cubic, bound, induces = q_basis_test(x)
    x1, x2, x3 = x.T
    terms = 3 * abs(x1 * x2 * x3) + abs(x1) ** 3 + abs(x2) ** 3 + abs(x3) ** 3
    assert (abs(cubic - (3 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3))) <= 8 * np.finfo(float).eps * terms).all()
    assert np.allclose(bound, 1e-10 * np.linalg.norm(x, axis=-1) ** 3, rtol=1e-15, atol=0.0)
    for k in (-1000, -400, 400, 1000):
        assert np.array_equal(q_basis_test(np.ldexp(x, k))[2], induces)
    assert q_basis_test([1e-120, 0.0, 1e-120])[2] and not q_basis_test([1e-120, 1e-120, 1e-120])[2]
    assert q_basis_test([1e200, 0.0, 1.0])[:2] == (-math.inf, math.inf)
