"""Christoffel symbols, curvature tensor, sectional curvature, q-invariance."""

from __future__ import annotations

import argparse
import math
import warnings

import numpy as np
import pytest

from circulant3 import (
    MetricFunctions,
    Q_MATRIX,
    apply_q,
    induces_q_basis,
    check_equal_sectional_curvatures,
    check_q_invariance,
    check_sectional_combination_formula,
    check_sectional_difference_formula,
    christoffel_from_metric,
    closed_form_from_metric,
    construct_orthogonal_vector,
    inner,
    is_flat,
    metric_at,
    riemann_apply,
    riemann_from_metric,
    sample_admissible_points,
    sectional_curvature,
    sectional_relations,
)
from circulant3.cli import _cmd_orthobasis
from circulant3.curvature import COMPONENT_INDEX, _rescaled, sampled_q_invariance_residual
from circulant3.errors import DegeneratePlane, EvalDomainError, IdentityRNotSatisfied, NotAQBasis
from circulant3.jets import concatenate
from circulant3.metric import inners, metric_from_jets
from circulant3.parallelism import christoffel_equalities_from_table, nabla_q_from_table, parallel_residual_from_metric
from circulant3.qstructure import q_basis_angles, q_orbit_cosines
from circulant3.specfile import builtin_example, example_diagonal_value

from exact import closed_form_error
from helpers import (
    BOX,
    metric_compatibility_residual,
    q_basis_cosines_reference,
    random_manifold,
    random_parallel_manifold,
    random_point,
    random_q_basis_vector,
    random_q_invariant_manifold,
    random_warped_manifold,
)
from test_exact import C_EPS

P5 = np.array([2.0, -1.0, -1.0])


def nonflat_parallel():
    """Linear fields with grad A = grad B . MIRROR: parallel q, curved metric."""
    m = MetricFunctions.from_sources("4*x1 + 2*x2 + 2", "x1 + 2*x2 + 3*x3 + 1")
    box = ((0.5, 1.5), (0.3, 1.1), (0.1, 0.7))
    return m, box


# -- Christoffel ---------------------------------------------------------------


def test_constant_metric_has_zero_connection():
    ct = christoffel_from_metric(metric_at(MetricFunctions.from_sources("2", "1"), (5.0, -3.0, 0.1)))
    assert np.array_equal(ct.gamma, np.zeros((3, 3, 3)))
    assert np.array_equal(ct.dgamma, np.zeros((3, 3, 3, 3)))


def test_example_christoffel_spot_values():
    # direct evaluation of the defining formula at the canonical point:
    # Gamma_11^1 = -1/8; the whole table and its derivatives are checked against
    # a symbolic derivation in test_oracle.py::test_example_christoffel_symbols_are_the_derived_ones
    ct = christoffel_from_metric(metric_at(builtin_example().metric, P5))
    g = ct.gamma
    assert g[0, 0, 0] == -0.125
    assert np.allclose(g[0, 0], [-0.125, 0.375, 0.375])
    assert np.allclose(g[0, 1], [-0.25, 0.25, 0.25])
    assert np.allclose(g[1, 2], [0.0, 0.0, 0.0])
    # torsion-free: symmetric in the lower index pair
    assert np.max(np.abs(g - np.einsum("ijh->jih", g))) == 0.0


def test_christoffel_lower_symmetry_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        ct = christoffel_from_metric(metric_at(random_manifold(rng), random_point(rng)))
        assert np.max(np.abs(ct.gamma - np.einsum("ijh->jih", ct.gamma))) < 1e-14


def test_dgamma_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(8):
        m = random_manifold(rng)
        p = random_point(rng, ((-0.8, 0.8),) * 3)
        ct = christoffel_from_metric(metric_at(m, p))
        fd = np.empty((3, 3, 3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            gp = christoffel_from_metric(metric_at(m, p + e)).gamma
            gm = christoffel_from_metric(metric_at(m, p - e)).gamma
            fd[k] = (gp - gm) / (2 * h)
        assert np.max(np.abs(fd - ct.dgamma)) < 1e-5


def test_connection_is_metric_compatible():
    rng = np.random.default_rng(43)
    for _ in range(10):
        assert metric_compatibility_residual(metric_at(random_manifold(rng), random_point(rng))) < 1e-9


def test_parallel_manifold_group_christoffels():
    # with the gradient criterion satisfied, the 27 symbols collapse to three
    # group values (1/2D)(A A_k + B (B_next - 3 B_k + B_prev)) for k = 1, 2, 3
    m, box = nonflat_parallel()
    rng = np.random.default_rng(44)
    p = random_point(rng, box)
    M = metric_at(m, p)
    A, B, D = M.A, M.B, M.D
    A1, A2, A3 = M.A_jet.grad
    B1, B2, B3 = M.B_jet.grad
    group = {
        1: (A * A1 + B * (B2 - 3 * B1 + B3)) / (2 * D),
        2: (A * A2 + B * (B3 - 3 * B2 + B1)) / (2 * D),
        3: (A * A3 + B * (B1 - 3 * B3 + B2)) / (2 * D),
    }
    gamma = christoffel_from_metric(M).gamma
    groups = {
        1: [(1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 2, 3), (2, 3, 1), (3, 3, 2)],
        2: [(1, 1, 3), (1, 2, 1), (1, 3, 2), (2, 2, 2), (2, 3, 3), (3, 3, 1)],
        3: [(1, 1, 2), (1, 2, 3), (1, 3, 1), (2, 2, 1), (2, 3, 2), (3, 3, 3)],
    }
    for k, members in groups.items():
        for (i, j, hh) in members:
            assert abs(gamma[i - 1, j - 1, hh - 1] - group[k]) < 1e-12


# -- Riemann tensor ------------------------------------------------------------


def test_flat_for_constant_fields():
    R = riemann_from_metric(metric_at(MetricFunctions.from_sources("2", "1"), (1.0, 2.0, 3.0)))
    assert np.array_equal(R.low, np.zeros((3, 3, 3, 3)))
    assert is_flat(R, 0.0)


def test_example_components_at_canonical_point():
    R = riemann_from_metric(metric_at(builtin_example().metric, P5))
    assert abs(R.component(1, 2, 1, 2) - (-0.125)) <= 1e-10
    assert abs(R.component(1, 3, 1, 3) - (-0.125)) <= 1e-10
    assert abs(R.component(2, 3, 2, 3) - (-0.125)) <= 1e-10
    # cross components of the actual curvature at this point (the exact
    # values of tests/oracle.py, derived symbolically): -1/2, -1/4, +1/4
    assert abs(R.component(1, 2, 1, 3) - (-0.5)) <= 1e-10
    assert abs(R.component(1, 2, 2, 3) - (-0.25)) <= 1e-10
    assert abs(R.component(1, 3, 2, 3) - 0.25) <= 1e-10


def test_example_diagonal_matches_closed_formula_across_chart():
    m = builtin_example().metric
    for p in ([2.0, -1.0, -1.0], [1.5, -0.3, -0.9], [1.1, -1.7, -0.2], [2.7, -0.4, -1.3]):
        R = riemann_from_metric(metric_at(m, p))
        want = example_diagonal_value(p)
        for comp in ((1, 2, 1, 2), (1, 3, 1, 3), (2, 3, 2, 3)):
            assert abs(R.component(*comp) - want) <= 1e-10 * abs(want)


def test_tensor_symmetries_random():
    rng = np.random.default_rng(45)
    for _ in range(15):
        R = riemann_from_metric(metric_at(random_manifold(rng), random_point(rng)))
        lo = R.low
        scale = 1e-9 * (1.0 + float(np.max(np.abs(lo))))
        assert np.max(np.abs(lo + np.einsum("ijkh->jikh", lo))) <= scale
        assert np.max(np.abs(lo + np.einsum("ijkh->ijhk", lo))) <= scale
        assert np.max(np.abs(lo - np.einsum("ijkh->khij", lo))) <= scale
        bianchi = lo + np.einsum("ijkh->jkih", lo) + np.einsum("ijkh->kijh", lo)
        assert np.max(np.abs(bianchi)) <= scale


def test_closed_form_example_reproduces_reference_values():
    cf = closed_form_from_metric(metric_at(builtin_example().metric, P5))
    assert cf == {"R1212": -0.125, "R1313": -0.125, "R2323": -0.125, "R1213": 0.0, "R1223": 0.0, "R1323": 0.0}


def test_closed_form_constant_fields_vanish():
    cf = closed_form_from_metric(metric_at(MetricFunctions.from_sources("2", "1"), (0.0, 0.0, 0.0)))
    assert all(v == 0.0 for v in cf.values())


def test_closed_form_diagonal_matches_numeric_on_example_chart():
    # on the built-in example the diagonal components of both routes agree
    # everywhere; the cross components do not (see the acceptance analysis)
    m = builtin_example().metric
    for p in ([2.0, -1.0, -1.0], [1.5, -0.3, -0.9], [2.2, -0.5, -1.1]):
        M = metric_at(m, p)
        R = riemann_from_metric(M)
        cf = closed_form_from_metric(M)
        for name in ("R1212", "R1313", "R2323"):
            i, j, k, h = COMPONENT_INDEX[name]
            assert abs(cf[name] - R.low[i, j, k, h]) <= 1e-10 * (1 + abs(cf[name]))


# -- sectional curvature and applications ---------------------------------------


def test_sectional_on_example_plane():
    m = builtin_example().metric
    R = riemann_from_metric(metric_at(m, P5))
    mu = sectional_curvature(R, [1, 0, 0], [0, 1, 0])
    assert abs(mu - (-0.125 / 12.0)) <= 1e-12  # R1212 / (g11 g22 - g12^2) = -1/96


def test_sectional_scale_invariance():
    rng = np.random.default_rng(46)
    m = random_manifold(rng)
    p = random_point(rng)
    R = riemann_from_metric(metric_at(m, p))
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    mu = sectional_curvature(R, x, y)
    for _ in range(20):
        lam = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        kap = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
        mu2 = sectional_curvature(R, lam * x, kap * y)
        assert abs(mu - mu2) <= 1e-10 * (1.0 + abs(mu))


def test_sectional_degenerate_plane():
    m = builtin_example().metric
    R = riemann_from_metric(metric_at(m, P5))
    with pytest.raises(DegeneratePlane):
        sectional_curvature(R, [1.0, 2.0, 3.0], [2.0, 4.0, 6.0])


def test_flat_manifold_zero_sectional():
    m = MetricFunctions.from_sources("3", "1")
    p = (0.0, 0.0, 0.0)
    R = riemann_from_metric(metric_at(m, p))
    assert sectional_curvature(R, [1, 0, 0], [0, 0, 1]) == 0.0


def test_riemann_apply_extracts_components():
    R = riemann_from_metric(metric_at(builtin_example().metric, P5))
    e = np.eye(3)
    assert riemann_apply(R, e[0], e[1], e[0], e[1]) == R.low[0, 1, 0, 1]
    assert abs(riemann_apply(R, e[0], e[1], e[0], e[2]) - R.component(1, 2, 1, 3)) < 1e-15


def test_riemann_apply_antisymmetry():
    rng = np.random.default_rng(47)
    R = riemann_from_metric(metric_at(random_manifold(rng), random_point(rng)))
    for _ in range(20):
        x, y, z, u = rng.standard_normal((4, 3))
        v1 = riemann_apply(R, x, y, z, u)
        v2 = riemann_apply(R, y, x, z, u)
        assert abs(v1 + v2) <= 1e-12 * (1.0 + abs(v1))


def test_is_flat_tolerance_semantics():
    R = riemann_from_metric(metric_at(builtin_example().metric, P5))
    assert not is_flat(R, 1e-9)
    assert is_flat(R, 1.0)


# -- q-invariance of the curvature ---------------------------------------------


def test_example_fails_q_invariance_with_route_agreement():
    R = riemann_from_metric(metric_at(builtin_example().metric, P5))
    chk = check_q_invariance(R)
    assert not chk.passed
    assert not sampled_q_invariance_residual(R, 0, 20) <= chk.threshold
    assert chk.diagonal_residual <= 1e-12
    assert chk.cross_residual > 0.1


def test_flat_manifold_passes_q_invariance():
    R = riemann_from_metric(metric_at(MetricFunctions.from_sources("2", "1"), (0.0, 0.0, 0.0)))
    chk = check_q_invariance(R)
    assert chk.passed and sampled_q_invariance_residual(R, 0, 20) <= chk.threshold


def test_nonflat_parallel_manifold_passes_q_invariance():
    m, box = nonflat_parallel()
    rng = np.random.default_rng(48)
    for _ in range(5):
        R = riemann_from_metric(metric_at(m, random_point(rng, box)))
        assert not is_flat(R, 1e-9)
        chk = check_q_invariance(R)
        assert chk.passed and sampled_q_invariance_residual(R, 0, 20) <= chk.threshold


def test_q_invariance_routes_agree_on_random_manifolds():
    rng = np.random.default_rng(49)
    for _ in range(15):
        m = random_manifold(rng) if rng.integers(0, 2) else random_parallel_manifold(rng)
        R = riemann_from_metric(metric_at(m, random_point(rng)))
        chk = check_q_invariance(R)
        assert chk.passed == (sampled_q_invariance_residual(R, 0, 20) <= chk.threshold)


def test_q_invariance_routes_agree_on_quadratic_manifold():
    # both routes must reach the same verdict, whichever it is
    m = MetricFunctions.from_sources("2 + x1^2 / 10", "1")
    R = riemann_from_metric(metric_at(m, (1.0, 0.5, -0.2)))
    chk = check_q_invariance(R)
    assert chk.passed == (sampled_q_invariance_residual(R, 0, 20) <= chk.threshold)


# -- sectional-curvature relations on q-invariant manifolds ---------------------


def test_sectional_difference_formula_machine_precision():
    m, box = nonflat_parallel()
    rng = np.random.default_rng(50)
    for _ in range(10):
        p = random_point(rng, box)
        u = rng.standard_normal(3)
        if not induces_q_basis(u):
            continue
        chk = check_sectional_difference_formula(riemann_from_metric(metric_at(m, p)), u)
        assert chk.residual <= 1e-10 * (1.0 + abs(chk.lhs))


def test_sectional_combination_formula_machine_precision():
    m, box = nonflat_parallel()
    rng = np.random.default_rng(51)
    for _ in range(10):
        p = random_point(rng, box)
        u = rng.standard_normal(3)
        if not induces_q_basis(u):
            continue
        chk = check_sectional_combination_formula(riemann_from_metric(metric_at(m, p)), u)
        assert chk.residual <= 1e-10 * (1.0 + abs(chk.lhs))


def test_equal_sectional_curvatures_on_invariant_manifold():
    m, box = nonflat_parallel()
    rng = np.random.default_rng(52)
    for _ in range(10):
        p = random_point(rng, box)
        u = rng.standard_normal(3)
        if not induces_q_basis(u):
            continue
        chk = check_equal_sectional_curvatures(riemann_from_metric(metric_at(m, p)), u)
        r1, r2 = chk.residuals
        assert max(r1, r2) <= 1e-10 * (1.0 + abs(chk.mu_u_qu))


def test_difference_formula_orthonormal_generator_case():
    # u equal to the orthonormal generator: both sides vanish
    m, box = nonflat_parallel()
    p = (1.0, 0.7, 0.4)
    M = metric_at(m, p)
    x = construct_orthogonal_vector(M.A, M.B)
    x = x / np.sqrt(inner(M, x, x))
    chk = check_sectional_difference_formula(riemann_from_metric(M), x)
    assert abs(chk.lhs) <= 1e-12
    assert abs(chk.rhs) <= 1e-12


def test_relation_checks_refuse_without_invariance():
    R = riemann_from_metric(metric_at(builtin_example().metric, P5))
    with pytest.raises(IdentityRNotSatisfied):
        check_sectional_difference_formula(R, [1.0, 0.0, 0.0])
    with pytest.raises(IdentityRNotSatisfied):
        check_sectional_combination_formula(R, [1.0, 0.0, 0.0])
    with pytest.raises(IdentityRNotSatisfied):
        check_equal_sectional_curvatures(R, [1.0, 0.0, 0.0])


def test_relation_checks_reject_degenerate_vector():
    m, _ = nonflat_parallel()
    R = riemann_from_metric(metric_at(m, (1.0, 0.7, 0.4)))
    with pytest.raises(NotAQBasis):
        check_sectional_difference_formula(R, [1.0, 1.0, 1.0])


def test_relation_refusals_come_identity_first_then_the_first_vector_off_the_basis():
    m, _ = nonflat_parallel()
    R = riemann_from_metric(metric_at(m, (1.0, 0.7, 0.4)))
    u_ok, u_bad = [0.4, -1.1, 0.2], [2.0, 2.0, 2.0]
    with pytest.raises(NotAQBasis, match=r"^vector \(2\.0, 2\.0, 2\.0\) does not induce a q-basis$"):
        sectional_relations(R, [u_ok, u_bad])
    example = riemann_from_metric(metric_at(builtin_example().metric, P5))
    with pytest.raises(IdentityRNotSatisfied):
        sectional_relations(example, [u_ok, u_bad])


CYCLIC_PAIR = MetricFunctions.from_sources(
    "3 + exp((x1 + x2 + x3)/3)/7 + (x1 + x2 + x3)^2/10", "1 + sin(x1 + x2 + x3)/4"
)


def test_relations_hold_on_the_cyclic_family_where_q_is_not_parallel():
    rng = np.random.default_rng(56)
    for m in [CYCLIC_PAIR] + [random_q_invariant_manifold(rng) for _ in range(3)]:
        pts = np.array([random_point(rng) for _ in range(8)])
        M = metric_at(m, pts)
        R = riemann_from_metric(M)
        assert check_q_invariance(R).passed.all()
        assert (nabla_q_from_table(christoffel_from_metric(M)).max_abs > 1e-4).all()
        U = [random_q_basis_vector(rng) for _ in range(5)]
        rel = sectional_relations(R, U)
        d, c, e = rel.difference, rel.combination, rel.equal
        assert d.lhs.shape == (5, 8)
        assert (abs(e.mu_u_qu) > 1e-4).all()  # the planes are curved
        assert (d.residual <= 1e-8 * (1.0 + abs(d.lhs))).all()
        assert (c.residual <= 1e-8 * (1.0 + abs(c.lhs))).all()
        assert (np.maximum(*e.residuals) <= 1e-8 * (1.0 + abs(e.mu_u_qu))).all()


def test_q_transformed_plane_has_equal_sectional_via_apply():
    # directly: mu(qu, q^2 u) values used by the equal-curvature check
    m, box = nonflat_parallel()
    p = (1.0, 0.7, 0.4)
    R = riemann_from_metric(metric_at(m, p))
    u = np.array([0.4, -1.1, 0.2])
    mu1 = sectional_curvature(R, u, apply_q(u))
    mu2 = sectional_curvature(R, apply_q(u), apply_q(apply_q(u)))
    assert abs(mu1 - mu2) <= 1e-12 * (1.0 + abs(mu1))


# -- exact 3D oracles from the Ricci tensor ------------------------------------
# In dimension 3 the curvature tensor is a function of rho_jk = g^ih R_ijkh and
# g. q is a g-isometry, so R is q-invariant exactly where Q^T rho Q = rho, and
# the sectional curvature of a plane with g-unit normal n is rho(n, n) - tau / 2,
# tau = g^jk rho_jk. Neither shares code with the component chains of
# check_q_invariance, riemann_apply or the Gram route.

WARPED_LAMBDA = "(12 + (x1 + x2 + x3)^2/10)"  # the eigenvalue of g on (1, 1, 1)
WARPED_NU = "((2 + sin(x1 + x2 + x3)/4)*(1 + (x1 - x2)^2/5))"  # on the plane orthogonal to it
# (fields, box, whether R is q-invariant on it)
RICCI_ORACLE_FAMILIES = {
    "generic": (
        MetricFunctions.from_sources("3 + x1^2/5 + exp(x3)/7", "1 + sin(x2)/4 + x1*x3/9"),
        ((-1.0, 1.0),) * 3,
        False,
    ),
    "cyclic": (CYCLIC_PAIR, ((-1.0, 1.0),) * 3, True),
    "nonflat-parallel": (*nonflat_parallel(), True),
    "example": (builtin_example().metric, ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1)), False),
    "warped": (
        MetricFunctions.from_sources(f"({WARPED_LAMBDA} + 2*{WARPED_NU})/3", f"({WARPED_LAMBDA} - {WARPED_NU})/3"),
        ((-2.0, 2.0),) * 3,
        True,
    ),
}


def _ricci(R):
    rho = np.einsum("...ih,...ijkh->...jk", R.metric.g_inv, R.low)
    return rho, np.einsum("...jk,...jk->...", R.metric.g_inv, rho)


def _normal_sectional(M, rho, tau, x, y):
    """rho(n, n) - tau / 2, with n the g-unit normal g^-1 (x cross y) of the plane {x, y}."""
    c = np.cross(x, y)
    n = np.einsum("...ij,...j->...i", M.g_inv, c)
    n = n / np.sqrt(np.einsum("...i,...i->...", n, c))[..., None]
    return np.einsum("...i,...ij,...j->...", n, rho, n) - tau / 2


@pytest.mark.parametrize("family", RICCI_ORACLE_FAMILIES)
def test_q_invariance_is_the_ricci_commutator_test(family):
    m, box, invariant = RICCI_ORACLE_FAMILIES[family]
    R = riemann_from_metric(sample_admissible_points(m, box, 20, 1)[1])
    rho = _ricci(R)[0]
    Q = Q_MATRIX.astype(float)
    commutator = abs(Q.T @ rho @ Q - rho).max(axis=(-2, -1))
    chk = check_q_invariance(R)
    assert np.array_equal(commutator <= 1e-9 * (1.0 + abs(rho).max(axis=(-2, -1))), chk.passed)
    assert (chk.passed == invariant).all()


@pytest.mark.parametrize("family", RICCI_ORACLE_FAMILIES)
def test_sectional_curvatures_are_the_ricci_normal_formula(family):
    m, box, _ = RICCI_ORACLE_FAMILIES[family]
    rng = np.random.default_rng(62)
    M = sample_admissible_points(m, box, 100, 2)[1]
    R = riemann_from_metric(M)
    rho, tau = _ricci(R)
    bound = 1e-13 * abs(rho).max(axis=(-2, -1))
    x, y = rng.standard_normal((2, 100, 3))
    assert (abs(sectional_curvature(R, x, y) - _normal_sectional(M, rho, tau, x, y)) <= bound).all()
    U = np.array([random_q_basis_vector(rng) for _ in range(4)])
    rel = sectional_relations(R, U, tol=math.inf)
    orbit = np.stack([U, apply_q(U), apply_q(apply_q(U)), U])[:, :, None, :]  # vectors before points
    for k, mu in enumerate((rel.equal.mu_u_qu, rel.equal.mu_qu_q2u, rel.equal.mu_q2u_u)):
        assert (abs(mu - _normal_sectional(M, rho, tau, orbit[k], orbit[k + 1])) <= bound).all()
    # mu(x, qx) of the orthogonal-basis generator, from the difference relation's left side
    gen = construct_orthogonal_vector(M.A, M.B)
    mu_x = rel.equal.mu_u_qu - rel.difference.lhs
    assert (abs(mu_x - _normal_sectional(M, rho, tau, gen, apply_q(gen))) <= bound).all()


def test_batch_curvature_equals_point_by_point_bit_for_bit():
    rng = np.random.default_rng(47)
    for m in [random_manifold(rng) for _ in range(6)] + [random_parallel_manifold(rng) for _ in range(2)]:
        pts = np.array([random_point(rng) for _ in range(9)])
        M = metric_at(m, pts)
        R = riemann_from_metric(M)
        chk = check_q_invariance(R)
        cf = closed_form_from_metric(M)
        grad_res = parallel_residual_from_metric(M)
        ct = christoffel_from_metric(M)
        nq = nabla_q_from_table(ct).nq
        equalities = christoffel_equalities_from_table(ct)
        for i, p in enumerate(pts):
            Mi = metric_at(m, p)
            Ri = riemann_from_metric(Mi)
            cti = christoffel_from_metric(Mi)
            for batch, single in [
                (M.g, Mi.g), (M.g_inv, Mi.g_inv), (M.D, Mi.D),
                (ct.gamma, cti.gamma),
                (ct.dgamma, cti.dgamma),
                (R.low, Ri.low),
                (grad_res, parallel_residual_from_metric(Mi)),
                (nq, nabla_q_from_table(cti).nq),
                (equalities, christoffel_equalities_from_table(cti)),
            ]:
                assert batch[i].tobytes() == np.asarray(single).tobytes()
            chk_i = check_q_invariance(Ri)
            assert chk.passed[i] == chk_i.passed
            assert chk.diagonal_residual[i] == chk_i.diagonal_residual
            assert chk.cross_residual[i] == chk_i.cross_residual
            for name, value in closed_form_from_metric(Mi).items():
                assert cf[name][i] == value


# -- the relations over a batch against the point-by-point computation ----------
# A serial reference: the relation checks as they were computed one point at a
# time, with scalar inner products float(x @ g @ y), q as Q_MATRIX @ x and
# the contraction np.einsum("ijkh,i,j,k,h->", ...). The batch must give the
# same bits at every point.


def _ref_inner(g, x, y):
    return float(x @ g @ y)


def _ref_apply(low, x, y, z, u):
    return float(np.einsum("ijkh,i,j,k,h->", low, x, y, z, u))


def _ref_mu(g, low, x, y):
    gxx, gyy, gxy = _ref_inner(g, x, x), _ref_inner(g, y, y), _ref_inner(g, x, y)
    den = gxx * gyy - gxy * gxy
    assert den > 1e-12 * gxx * gyy
    return _ref_apply(low, x, y, x, y) / den


def _ref_relations(m, p, u):
    """(difference lhs, rhs), (combination lhs, rhs), (mu_u_qu, mu_qu_q2u, mu_q2u_u) at p."""
    M = metric_at(m, p)
    g, low = M.g, riemann_from_metric(M).low
    A, B = M.A, M.B
    x = np.array([0.0, -(A + B) + math.sqrt((A - B) * (A + 3 * B)), 2.0 * B])
    x = x / np.sqrt(_ref_inner(g, x, x))
    qx = Q_MATRIX @ x
    q2x = Q_MATRIX @ qx
    qu = Q_MATRIX @ u
    q2u = Q_MATRIX @ qu
    cphi = _ref_inner(g, u, qu) / _ref_inner(g, u, u)
    mu_u = _ref_mu(g, low, u, qu)
    mu_x = _ref_mu(g, low, x, qx)
    difference = (mu_u - mu_x, (2.0 * cphi / (1.0 - cphi)) * _ref_apply(low, x, qx, x, q2x))
    y = np.array([1.0, 0.0, 0.0])
    if abs(A - 2 * B) >= 1e-12:
        root = 2.0 * math.sqrt(B * (A - B))
        roots = ((A + root) / (A - 2 * B), (A - root) / (A - 2 * B))
        y[2] = next(t for t in roots if induces_q_basis([1.0, 0.0, t]))
    mu_y = _ref_mu(g, low, y, Q_MATRIX @ y)
    combination = (mu_u, ((1.0 + 2.0 * cphi) * mu_x - 3.0 * cphi * mu_y) / (1.0 - cphi))
    equal = (mu_u, _ref_mu(g, low, qu, q2u), _ref_mu(g, low, q2u, u))
    return difference, combination, equal


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_relation_checks_over_a_batch_equal_the_serial_reference_bit_for_bit():
    rng = np.random.default_rng(53)
    m, box = nonflat_parallel()
    manifolds = [  # (fields, box, whether the curvature is q-invariant there)
        (m, box, True),
        (MetricFunctions.from_sources("4*x1 + 2*x2 + 20", "x1 + 2*x2 + 3*x3 + 5"), None, True),
        (MetricFunctions.from_sources("3", "1"), None, True),
        (MetricFunctions.from_sources("2*x1 + 4", "x1 + 2"), None, False),  # A = 2B
        (random_q_invariant_manifold(rng), None, True),
    ]
    manifolds += [(random_manifold(rng), None, False) for _ in range(4)]
    for m, box, invariant in manifolds:
        pts = np.array([random_point(rng, box or ((-1.0, 1.0),) * 3) for _ in range(7)])
        batch = riemann_from_metric(metric_at(m, pts))
        single = riemann_from_metric(metric_at(m, pts[3]))
        U = np.array([random_q_basis_vector(rng) for _ in range(5)])
        # ref[v, k, i]: vector v, quantity k, point i, one point and one vector at a time
        ref = np.array([[[v for pair in _ref_relations(m, p, u) for v in pair] for p in pts] for u in U])
        ref = ref.transpose(0, 2, 1)
        tol = 1e-9 if invariant else math.inf  # computed anyway where the identity fails
        for R, want in ((batch, ref), (single, ref[:, :, 3])):
            rel = sectional_relations(R, U, tol=tol)  # (V, N) and one point with V vectors
            d, c, e = rel.difference, rel.combination, rel.equal
            got = [d.lhs, d.rhs, c.lhs, c.rhs, e.mu_u_qu, e.mu_qu_q2u, e.mu_q2u_u]
            assert _bits(np.stack(got, axis=1)) == _bits(want)
            for v in (0, 4):  # the single-relation views of one vector
                d = check_sectional_difference_formula(R, U[v], tol=tol)
                c = check_sectional_combination_formula(R, U[v], tol=tol)
                e = check_equal_sectional_curvatures(R, U[v], tol=tol)
                got = [d.lhs, d.rhs, c.lhs, c.rhs, e.mu_u_qu, e.mu_qu_q2u, e.mu_q2u_u]
                assert _bits(got) == _bits(want[v])


def test_sectional_curvature_rescaling_keeps_the_bits_of_the_plain_quotient():
    rng = np.random.default_rng(55)
    pts = np.array([random_point(rng) for _ in range(6)])
    M = metric_at(random_manifold(rng), pts)
    R = riemann_from_metric(M)
    for _ in range(100):
        x, y = rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(2, 1))
        want = [_ref_mu(M.g[i], R.low[i], x, y) for i in range(6)]
        assert _bits(sectional_curvature(R, x, y)) == _bits(want)
        xs = x * 10.0 ** rng.uniform(-5.0, 5.0, size=(6, 1))  # one vector per point
        want = [_ref_mu(M.g[i], R.low[i], xs[i], y) for i in range(6)]
        assert _bits(sectional_curvature(R, xs, y)) == _bits(want)


def _ref_sampled_residual(low, seed, samples):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        vecs = rng.standard_normal((4, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        qvecs = [Q_MATRIX @ v for v in vecs]
        worst = max(worst, abs(_ref_apply(low, *qvecs) - _ref_apply(low, *vecs)))
    return worst


def test_sampled_q_invariance_residual_over_a_batch_is_bit_identical_per_point():
    rng = np.random.default_rng(54)
    for m in [random_manifold(rng), random_parallel_manifold(rng), builtin_example().metric]:
        box = ((1.0, 3.0), (-2.0, -0.1), (-2.0, -0.1)) if m.domain_constraints else ((-1.0, 1.0),) * 3
        pts, M = sample_admissible_points(m, box, 6, 54)
        R = riemann_from_metric(M)
        for seed in (0, 7):
            batch = sampled_q_invariance_residual(R, seed, 20)
            assert batch.shape == (6,)
            for i, p in enumerate(pts):
                single = sampled_q_invariance_residual(riemann_from_metric(metric_at(m, p)), seed, 20)
                assert _bits(batch[i]) == _bits(single) == _bits(_ref_sampled_residual(R.low[i], seed, 20))


@pytest.mark.parametrize("shape", [(), (1,), (6,), (40,)])
def test_sampled_q_invariance_residual_is_the_per_tuple_reference_bit_for_bit(shape):
    # one draw, one q-map and one stacked contraction give each tuple's and point's bits
    rng = np.random.default_rng(57)
    for m in (random_manifold(rng), random_q_invariant_manifold(rng)):
        M = sample_admissible_points(m, ((-1.0, 1.0),) * 3, math.prod(shape), 57)[1]
        R = riemann_from_metric(M if shape else M[0])
        lows = R.low.reshape((-1,) + R.low.shape[-4:])
        for samples in (1, 20, 64):
            for seed in (0, 7, 2024):
                got = sampled_q_invariance_residual(R, seed, samples)
                assert np.shape(got) == shape
                assert _bits(got) == _bits([_ref_sampled_residual(low, seed, samples) for low in lows])


def test_batch_refusals_name_their_first_failing_point():
    # a batch that passes the identity at its first point and fails it at the others
    example = metric_at(builtin_example().metric, np.array([[1.5, -0.3, -0.9], [2.0, -1.0, -1.0]]))
    parallel = metric_at(nonflat_parallel()[0], np.array([[1.0, 0.7, 0.4]]))
    mixed = metric_from_jets(
        concatenate([parallel.A_jet, example.A_jet]), concatenate([parallel.B_jet, example.B_jet])
    )
    batch = riemann_from_metric(mixed)
    alone = riemann_from_metric(example[0])
    for check in (
        check_sectional_difference_formula,
        check_sectional_combination_formula,
        check_equal_sectional_curvatures,
    ):
        with pytest.raises(IdentityRNotSatisfied) as batch_error:
            check(batch, [1.0, 0.0, 0.0])
        with pytest.raises(IdentityRNotSatisfied) as point_error:
            check(alone, [1.0, 0.0, 0.0])
        assert str(batch_error.value) == str(point_error.value)
    x = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(DegeneratePlane, match=r"^vectors \(1\.0, 2\.0, 3\.0\) and \(2\.0, 4\.0, 6\.0\) "):
        sectional_curvature(riemann_from_metric(example), x, [[0.0, 1.0, 0.0], [2.0, 4.0, 6.0]])


def test_sectional_relations_refuse_a_degenerate_plane_of_a_vector_naming_its_first_vector():
    # A - B = 1e-14 at the origin: g is all but singular, and the plane {u, qu} of u = (1, 0.5, 0) is
    # degenerate in it; the refusal names u and qu as given, and over a stack the first vector whose
    # plane is degenerate
    R = riemann_from_metric(metric_at(MetricFunctions.from_sources("1.00000000000001", "1"), [0.0, 0.0, 0.0]))
    for U, named in (
        ([1.0, 0.5, 0.0], "(1.0, 0.5, 0.0) and (-0.5, 0.0, -1.0)"),
        ([[1.0, 0.5, 0.0], [0.4, -1.1, 0.2]], "(1.0, 0.5, 0.0) and (-0.5, 0.0, -1.0)"),
        ([[0.4, -1.1, 0.2], [1.0, 0.5, 0.0]], "(0.4, -1.1, 0.2) and (1.1, -0.2, -0.4)"),
    ):
        with pytest.raises(DegeneratePlane) as info:
            sectional_relations(R, U)
        assert str(info.value) == f"vectors {named} span no plane"


def test_curvature_that_is_not_finite_is_refused_at_the_first_such_point_of_a_batch():
    # A = 3e-200 + x1, B = 1e-200: at x1 = 0.5 an ordinary metric; at x1 = 1e-200 and 1e-300
    # g^-1 is about 1e200 and the derivatives are ordinary, so d Gamma overflows. R, formed
    # without g^-1, is about 1e199 there and finite (tests/test_exact.py checks its value), and so
    # are the closed-form components, formed with the derivatives over their own powers of two
    m = MetricFunctions.from_sources("3e-200 + x1", "1e-200")
    tiny = metric_at(m, np.array([[0.5, 0.0, 0.0], [1e-200, 0.0, 0.0], [1e-300, 0.0, 0.0]]))
    with np.errstate(all="raise"), pytest.raises(EvalDomainError) as error:  # and no FloatingPointError
        christoffel_from_metric(tiny)
    assert str(error.value) == "Christoffel symbols or their derivatives are not finite where A=4e-200, B=1e-200"
    christoffel_from_metric(tiny[0])  # the ordinary point alone
    with np.errstate(all="raise"):
        assert np.isfinite(riemann_from_metric(tiny).t).all()
        cf = closed_form_from_metric(tiny)
    assert [float(cf[name][2]) for name in COMPONENT_INDEX] == [0.0, 0.0, -1e199, -2.5e198, 2.5e198, -2.5e198]
    # A_1 = 1e200: at x1 = 1, A = 1e200 and R is about A_1^2 / A = 1e200; at x1 = 1e-200 and 0,
    # A is about 3 and R about 1e400
    m = MetricFunctions.from_sources("3 + 1e200*x1", "1")
    M = metric_at(m, np.array([[1.0, 0.0, 0.0], [1e-200, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with np.errstate(all="raise"), pytest.raises(EvalDomainError) as error:
        riemann_from_metric(M)
    assert str(error.value) == "curvature components are not finite where A=4.0, B=1.0"
    riemann_from_metric(M[0])
    # a huge first derivative: the sums of d_i g_tj in Gamma overflow, and so does R
    M = metric_at(MetricFunctions.from_sources("1.5e308*x1 + 3", "1"), (1e-300, 0.0, 0.0))
    with pytest.raises(EvalDomainError, match=r"^Christoffel symbols .* where A=150000003\.0, B=1\.0$"):
        christoffel_from_metric(M)
    with pytest.raises(EvalDomainError, match=r"^curvature components .* where A=150000003\.0, B=1\.0$"):
        riemann_from_metric(M)
    # the closed form's R2323 is about -A_1^2 / 4A: -7.5e307 where A = 7.5e307, and about -4e607
    # where A = 1.5e8 + 3, the point that is refused
    M = metric_at(MetricFunctions.from_sources("1.5e308*x1 + 3", "1"), np.array([[0.5, 0.0, 0.0], [1e-300, 0.0, 0.0]]))
    with np.errstate(all="raise"), pytest.raises(EvalDomainError) as error:
        closed_form_from_metric(M)
    assert str(error.value) == "closed-form components are not finite where A=150000003.0, B=1.0"
    assert closed_form_from_metric(M[0])["R2323"] == -7.5e307
    # Gamma and d Gamma finite, the curvature not: R_ijk^h is about 1e107 and g about 1e201
    m = MetricFunctions.from_sources("3e200 + 4e307*x1^2", "1e200 - 4e307*x1^2/3 + 4e307*x2^2")
    M = metric_at(m, (1e-53, 1e-53, 1e-53))
    christoffel_from_metric(M)
    with pytest.raises(EvalDomainError, match=r"^curvature components are not finite where A=4\.3e\+201, B=2\.7"):
        riemann_from_metric(M)
    # the closed-form components of the tiny metric at every point, against the reference formulas
    # evaluated in 50-digit arithmetic on the same jets
    pytest.importorskip("mpmath")
    for i in range(3):
        assert closed_form_error({name: v[i] for name, v in cf.items()}, tiny.A_jet[i], tiny.B_jet[i]) <= C_EPS


def test_sectional_curvature_that_is_not_finite_is_refused():
    # A = 3e-200 + s, B = 1e-200 with s = x1 + x2 + x3: at s = 1e-300, R is about 1e199 and
    # g about 1e-200, so a sectional curvature is about 1e599; at s = 0.5 all are ordinary.
    # The metric is cyclic, so its curvature is q-invariant and the relations reach their quotients
    m = MetricFunctions.from_sources("3e-200 + (x1 + x2 + x3)", "1e-200")
    M = metric_at(m, np.array([[0.5, 0.0, 0.0], [1e-300, 0.0, 0.0]]))
    R = riemann_from_metric(M)
    u = [1.0, 2.0, 4.0]
    for refused in (lambda: sectional_curvature(R, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                    lambda: sectional_relations(R, u)):
        with np.errstate(over="raise", invalid="raise", divide="raise"), pytest.raises(EvalDomainError) as error:
            refused()
        assert str(error.value) == "sectional curvatures are not finite where A=3e-200, B=1e-200"
    R0 = riemann_from_metric(M[0])
    assert np.isfinite(sectional_curvature(R0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    assert np.isfinite(sectional_relations(R0, u).equal.mu_u_qu).all()


def test_sectional_curvature_whose_quotient_overflows_is_refused_with_no_warning():
    # A Hessian of 1.78e308 at x1 = 1e-200 gives a curvature whose quotient by the plane's Gram
    # determinant overflows before it is scaled back: refused as not finite, with no float warning
    m = MetricFunctions.from_sources("8.9e307*x1^2 + 3", "1")
    R = riemann_from_metric(metric_at(m, (1e-200, 0.0, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match=r"^sectional curvatures are not finite where A=3\.0, B=1\.0$"):
            sectional_curvature(R, [1.0, -1.0, 0.0], [1.0, 1.0, -2.0])


# -- the q-orbit Gram entries against plain inner products -------------------------


def _all_bits(arrays):
    return [np.asarray(a).shape for a in arrays], b"".join(np.asarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize(
    "make",
    [random_manifold, random_q_invariant_manifold, random_parallel_manifold, random_warped_manifold],
    ids=["generic", "cyclic", "parallel", "warped"],
)
def test_shared_gram_cosines_are_q_basis_cosines_bit_for_bit(make):
    # angles reads the cosines from the Gram entries of u's q-orbit, and sectional_relations
    # from those of u over a power of two; the reference forms plain inner products of u itself
    rng = np.random.default_rng(19)
    for seed in range(3):
        _, M = sample_admissible_points(make(rng), BOX, 12, seed)
        for exponent in range(-3, 101, 3):
            U = rng.standard_normal((6, 3)) * 10.0**exponent
            U = U[induces_q_basis(U)]
            for metric, u in ((M, U.reshape(len(U), 1, 3)), (M[0], U)):  # vectors by points, and one point
                want = _all_bits(q_basis_cosines_reference(metric, u))
                rep = q_basis_angles(metric, u)
                assert _all_bits((rep.cos_phi_x_qx, rep.cos_phi_x_q2x, rep.cos_theta_qx_q2x)) == want, exponent
                assert _all_bits(q_orbit_cosines(metric, _rescaled(u)[0])) == want, exponent
        # orthobasis's four products of the unscaled generator over the unscaled g
        x = construct_orthogonal_vector(M.A, M.B)
        qx = apply_q(x)
        q2x = apply_q(qx)
        results = _cmd_orthobasis(None, None, M, argparse.Namespace(tol=1e-9))[0]
        reported = [results[k] for k in ("norm_sq", "g_x_qx", "g_x_q2x", "g_qx_q2x")]
        assert _all_bits(reported) == _all_bits([*inners(M.g, x, (x, qx, q2x)), *inners(M.g, qx, (q2x,))])
