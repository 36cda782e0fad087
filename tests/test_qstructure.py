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
    cos_angle_closed_form,
    induces_q_basis,
    inner,
    metric_at,
    q_basis_angles,
)
from circulant3.errors import AngleRoutesDisagree, NotAQBasis, PositivityViolation
from circulant3.qstructure import require_angle_routes_agree, vector_invariants

from helpers import isometry_residual, orthogonality_defect, random_admissible_AB, random_q_basis_vector


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
    assert np.array_equal(construct_basis_vectors(4.0, 2.0)[1], [1.0, 0.0, 0.0])
    y = construct_basis_vectors(6.0, 4.0)[1]
    assert np.allclose(y, [1.0, 0.0, -3.0 - 2.0 * math.sqrt(2.0)])
    # over a batch that has a point with A = 2B, each point's vectors are its own, bit for bit
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


def test_the_angle_routes_refuse_the_first_cosine_that_disagrees_at_its_first_element():
    # cos(x, qx) agrees everywhere; cos(x, q^2 x) disagrees at element 2, and cos(qx, q^2 x) at 0 and 1
    A, B = np.array([3.0, 3.0, 3.0]), np.array([1.0, 1.0, 1.0])
    x = np.array([[1.0, 0.5, -0.25]] * 3)
    closed = cos_angle_closed_form(A, B, x)
    cosines = (closed.copy(), -closed, closed.copy())
    cosines[1][2] += 1e-6
    cosines[2][:2] -= 1e-3
    require_angle_routes_agree((closed, -closed, closed), A, B, x)
    with pytest.raises(AngleRoutesDisagree) as info:
        require_angle_routes_agree(cosines, A, B, x)
    assert str(info.value) == (
        f"angle routes disagree beyond 1e-10: inner-product {float(cosines[1][2])!r} "
        f"vs closed form {float(-closed[2])!r}"
    )
