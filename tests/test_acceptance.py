"""Acceptance suite: one test per criterion, one printed PASS line each.

Four criteria were first written as reference claims that the Levi-Civita
curvature of these metrics does not have: vanishing cross components and
q-invariance on the example manifold, the bundled closed-form components,
and the sectional-curvature relations on the example. Their tests
(test_ac1_cross_components_zero, test_ac2_identity_holds_on_example,
test_ac3_closed_form_oracle_equivalence,
test_ac6_sectional_relations_on_example) now check the true value of the
same quantity against the exact curvature in oracle.py, which
test_oracle.py re-derives symbolically from the metric. Each docstring
says which claim the oracle refutes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from circulant3 import (
    MetricFunctions,
    apply_q,
    check_equal_sectional_curvatures,
    check_q_invariance,
    check_sectional_combination_formula,
    check_sectional_difference_formula,
    christoffel_from_metric,
    construct_orthogonal_vector,
    eval_jet,
    induces_q_basis,
    inner,
    is_flat,
    metric_at,
    nabla_q_from_table,
    parallel_residual_from_metric,
    parse,
    q_basis_angles,
    riemann_from_metric,
    sample_admissible_points,
)
from circulant3.cli import main
from circulant3.curvature import COMPONENT_INDEX, sampled_q_invariance_residual
from circulant3.errors import IdentityRNotSatisfied
from circulant3.specfile import builtin_example, example_diagonal_value

from helpers import (
    cos_angle_closed_form,
    fd_gradient,
    fd_hessian,
    random_admissible_AB,
    random_expression,
    random_manifold,
    random_parallel_manifold,
    random_point,
    random_q_basis_vector,
)
from oracle import example_components, generic_components

DATA = Path(__file__).parent / "data"
SPOT = np.array([2.0, -1.0, -1.0])


def _example_points(n=25, seed=2024):
    spec = builtin_example()
    points, _ = sample_admissible_points(spec.metric, spec.sample_box, n, seed)
    return points


# ---------------------------------------------------------------- AC-1 --


def test_ac1_diagonal_reproduction_and_spot_value():
    m = builtin_example().metric
    for p in _example_points():
        R = riemann_from_metric(metric_at(m, p))
        want = example_diagonal_value(p)
        for name in ("R1212", "R1313", "R2323"):
            i, j, k, h = COMPONENT_INDEX[name]
            got = R.low[i, j, k, h]
            assert abs(got - want) <= 1e-8 * abs(want), (p, name, got, want)
    R = riemann_from_metric(metric_at(m, SPOT))
    assert abs(R.component(1, 2, 1, 2) - (-0.125)) <= 1e-10
    print("AC-1 (diagonal components match the closed formula; spot value -1/8): PASS")


def test_ac1_cross_components_zero():
    """The example's cross components equal their exact values.

    The reference claims R1213 = R1323 = R1223 = 0 on the example. The
    oracle refutes it: with den = (x2 + x3)(3 x1 + x2 + x3), R1213 =
    2 x1 / den, R1223 = x1 / den and R1323 = -x1 / den, nonzero wherever
    x1 > 0.
    """
    m = builtin_example().metric
    for p in _example_points():
        R = riemann_from_metric(metric_at(m, p))
        exact = example_components(*p)
        for name in ("R1213", "R1323", "R1223"):
            i, j, k, h = COMPONENT_INDEX[name]
            got, want = R.low[i, j, k, h], exact[name]
            assert abs(got - want) <= 1e-8 * abs(want), (p, name, got, want)
    R = riemann_from_metric(metric_at(m, SPOT))
    assert abs(R.component(1, 2, 1, 3) - (-0.5)) <= 1e-10
    assert abs(R.component(1, 2, 2, 3) - (-0.25)) <= 1e-10
    assert abs(R.component(1, 3, 2, 3) - 0.25) <= 1e-10
    print("AC-1 (cross components match the exact values; the zero claim is refuted): PASS")


# ---------------------------------------------------------------- AC-2 --


def test_ac2_identity_holds_on_example():
    """Both q-invariance routes find the identity failing, by the exact amount.

    The reference claims R(qx,qy,qz,qu) = R(x,y,z,u) on the example. The
    oracle refutes it: the diagonal components agree, but the cross
    components R1213, R1323, -R1223 are 2 x1, -x1, -x1 over
    den = (x2 + x3)(3 x1 + x2 + x3), so their spread is 3 |x1| / |den|.
    """
    m = builtin_example().metric
    for p in _example_points():
        R = riemann_from_metric(metric_at(m, p))
        chk = check_q_invariance(R)
        x1, x2, x3 = p
        spread = 3 * abs(x1) / abs((x2 + x3) * (3 * x1 + x2 + x3))
        assert not chk.passed, p
        assert abs(chk.cross_residual - spread) <= 1e-8 * spread, (p, chk.cross_residual, spread)
        assert chk.diagonal_residual <= chk.threshold, p
        assert sampled_q_invariance_residual(R, 0, 20) > chk.threshold, p
    print("AC-2 (q-invariance identity fails on the example by the exact spread): PASS")


def test_ac2_not_parallel_and_not_flat():
    m = builtin_example().metric
    for p in _example_points():
        M = metric_at(m, p)
        assert nabla_q_from_table(christoffel_from_metric(M)).max_abs > 1e-6
        assert not is_flat(riemann_from_metric(M), 1e-9)
    print("AC-2 (structure not parallel, manifold not flat): PASS")


# ---------------------------------------------------------------- AC-3 --


def _ac3_sample(seed=7, manifolds=50, points=5):
    rng = np.random.default_rng(seed)
    for _ in range(manifolds):
        m = random_manifold(rng)
        for _ in range(points):
            yield m, random_point(rng, ((-0.9, 0.9),) * 3)


def test_ac3_closed_form_oracle_equivalence():
    """The numeric tensor matches the derived closed-form components.

    The reference claims its six closed forms (closed_form_from_metric) are
    the curvature of g = circ(A, B, B). The oracle refutes it: their Hessian
    terms are exactly minus the derived ones and their first-order terms
    differ by a nonzero polynomial (test_oracle.py pins both). So the
    components are checked against the derived closed forms
    (oracle.generic_components) instead.
    """
    for m, p in _ac3_sample():
        M = metric_at(m, p)
        R = riemann_from_metric(M)
        cf = generic_components(
            M.A, M.B, M.A_jet.grad, M.B_jet.grad, M.A_jet.hess, M.B_jet.hess
        )
        scale = max(1.0, float(np.max(np.abs(R.low))))
        for name, (i, j, k, h) in COMPONENT_INDEX.items():
            rel = abs(cf[name] - R.low[i, j, k, h]) / scale
            assert rel <= 1e-7, (name, p, cf[name], R.low[i, j, k, h])
    print("AC-3 (derived closed-form components match the numeric tensor): PASS")


def test_ac3_tensor_symmetries_and_bianchi():
    for m, p in _ac3_sample(seed=8, manifolds=50, points=5):
        lo = riemann_from_metric(metric_at(m, p)).low
        scale = 1e-9 * (1.0 + float(np.max(np.abs(lo))))
        assert np.max(np.abs(lo + np.einsum("ijkh->jikh", lo))) <= scale
        assert np.max(np.abs(lo + np.einsum("ijkh->ijhk", lo))) <= scale
        assert np.max(np.abs(lo - np.einsum("ijkh->khij", lo))) <= scale
        assert (
            np.max(np.abs(lo + np.einsum("ijkh->jkih", lo) + np.einsum("ijkh->kijh", lo)))
            <= scale
        )
    print("AC-3 (tensor symmetries and first Bianchi identity): PASS")


# ---------------------------------------------------------------- AC-4 --


def test_ac4_angle_suite():
    rng = np.random.default_rng(11)
    for _ in range(500):
        A, B = random_admissible_AB(rng)
        M = metric_at(MetricFunctions.from_sources(repr(A), repr(B)), (0.0, 0.0, 0.0))
        x = random_q_basis_vector(rng)
        rep = q_basis_angles(M, x)
        closed = cos_angle_closed_form(A, B, x)
        assert abs(rep.cos_phi_x_qx - closed) <= 1e-10
        assert abs(rep.cos_phi_x_q2x + closed) <= 1e-10
        assert abs(rep.cos_theta_qx_q2x - closed) <= 1e-10
        assert abs(rep.cos_phi_x_qx - rep.cos_theta_qx_q2x) <= 1e-12
        assert abs(rep.cos_phi_x_qx + rep.cos_phi_x_q2x) <= 1e-12
        assert -1.0 < rep.cos_phi_x_qx < 0.5
        assert -0.5 < rep.cos_phi_x_q2x < 1.0
    print("AC-4 (angle formulas, chain equalities and ranges, 500 vectors): PASS")


# ---------------------------------------------------------------- AC-5 --


def test_ac5_orthogonal_basis_constructor():
    rng = np.random.default_rng(13)
    for _ in range(100):
        A, B = random_admissible_AB(rng)
        M = metric_at(MetricFunctions.from_sources(repr(A), repr(B)), (0.0, 0.0, 0.0))
        x = construct_orthogonal_vector(A, B)
        assert induces_q_basis(x)
        qx = apply_q(x)
        q2x = apply_q(qx)
        norm = inner(M, x, x)
        for u, v in ((x, qx), (x, q2x), (qx, q2x)):
            assert abs(inner(M, u, v)) < 1e-9 * norm
    print("AC-5 (orthogonal q-basis construction, 100 random metrics): PASS")


# ---------------------------------------------------------------- AC-6 --


def test_ac6_sectional_relations_on_example():
    """The relation checks refuse the example, and the relations do fail there.

    The reference claims the sectional-curvature relations hold on the
    example. They assume the q-invariance identity, which the oracle
    refutes there (see AC-2), so every check must refuse with
    IdentityRNotSatisfied; computed anyway, each relation misses the 1e-8
    contract. The companion test shows them holding where the identity
    holds.
    """
    m = builtin_example().metric
    points = _example_points(10, seed=5)
    rng = np.random.default_rng(17)
    refusals = 0
    for p in points:
        R = riemann_from_metric(metric_at(m, p))
        for _ in range(10):
            u = random_q_basis_vector(rng)
            for check in (
                check_sectional_difference_formula,
                check_sectional_combination_formula,
                check_equal_sectional_curvatures,
            ):
                with pytest.raises(IdentityRNotSatisfied):
                    check(R, u)
            refusals += 1
            chk = check_sectional_difference_formula(R, u, tol=math.inf)
            assert chk.residual > 1e-8 * (1.0 + abs(chk.lhs)), (p, u)
            cmb = check_sectional_combination_formula(R, u, tol=math.inf)
            assert cmb.residual > 1e-8 * (1.0 + abs(cmb.lhs)), (p, u)
            eq = check_equal_sectional_curvatures(R, u, tol=math.inf)
            assert max(eq.residuals) > 1e-8 * (1.0 + abs(eq.mu_u_qu)), (p, u)
    assert refusals == 100
    print("AC-6 (sectional-curvature relations refused and failing on the example): PASS")


def test_ac6_companion_relations_where_identity_holds():
    # companion evidence: on a curved manifold with parallel q (hence with the
    # invariance identity) the same relations pass at far below the tolerance
    m = MetricFunctions.from_sources("4*x1 + 2*x2 + 2", "x1 + 2*x2 + 3*x3 + 1")
    box = ((0.5, 1.5), (0.3, 1.1), (0.1, 0.7))
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = random_point(rng, box)
        R = riemann_from_metric(metric_at(m, p))
        for _ in range(10):
            u = random_q_basis_vector(rng)
            chk = check_sectional_difference_formula(R, u)
            assert chk.residual <= 1e-8 * (1.0 + abs(chk.lhs))
            cmb = check_sectional_combination_formula(R, u)
            assert cmb.residual <= 1e-8 * (1.0 + abs(cmb.lhs))
            eq = check_equal_sectional_curvatures(R, u)
            assert max(eq.residuals) <= 1e-8 * (1.0 + abs(eq.mu_u_qu))
    print("AC-6 companion (relations hold where the identity holds): PASS")


# ---------------------------------------------------------------- AC-7 --


def test_ac7_parallelism():
    derived = MetricFunctions.from_sources("x1 + x2 + x3 + 1", "x1 + x2 + x3")
    rng = np.random.default_rng(23)
    for _ in range(10):
        M = metric_at(derived, rng.uniform(0.2, 1.5, size=3))  # keeps B > 0
        assert nabla_q_from_table(christoffel_from_metric(M)).max_abs < 1e-10
        assert np.max(np.abs(parallel_residual_from_metric(M))) == 0.0

    m5 = builtin_example().metric
    for p in _example_points(5, seed=29):
        M = metric_at(m5, p)
        assert nabla_q_from_table(christoffel_from_metric(M)).max_abs > 1e-6
        assert np.max(np.abs(parallel_residual_from_metric(M))) > 1e-6

    inconclusive = 0
    for k in range(50):
        m = random_parallel_manifold(rng) if k % 2 == 0 else random_manifold(rng)
        M = metric_at(m, random_point(rng))
        nq = nabla_q_from_table(christoffel_from_metric(M)).max_abs
        grad = float(np.max(np.abs(parallel_residual_from_metric(M))))
        for first, second in ((nq, grad), (grad, nq)):
            if first <= 1e-9:
                assert second <= 1e-8, f"equivalence violated: nabla={nq} grad={grad}"
                if second > 1e-9:
                    inconclusive += 1
    print(f"AC-7 (parallelism criterion; {inconclusive} guard-band cases): PASS")


# ---------------------------------------------------------------- AC-8 --


def test_ac8_jet_and_connection_derivatives():
    rng = np.random.default_rng(31)
    for _ in range(200):
        expr = parse(random_expression(rng))
        p = rng.uniform(-1.0, 1.0, size=3)
        jet = eval_jet(expr, p)
        assert np.max(np.abs(jet.grad - fd_gradient(expr, p))) < 1e-6
        assert np.max(np.abs(jet.hess - fd_hessian(expr, p))) < 1e-4

    h = 1e-5
    for _ in range(10):
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
    print("AC-8 (jets vs finite differences; connection derivatives): PASS")


# ---------------------------------------------------------------- AC-9 --


def test_ac9_cli_contract(capsys, tmp_path):
    # golden report bytes
    code = main(["example-m5", "--at", "2,-1,-1", "--json"])
    out = capsys.readouterr().out
    assert out == (DATA / "example_m5_at.json").read_text(encoding="utf-8")
    assert code == 1  # two battery verdicts fail honestly (see AC-1/AC-2)

    # exit-code matrix
    spec_path = tmp_path / "m5.toml"
    spec_path.write_text(
        '[metric]\nA = "2*x1"\nB = "2*x1 + x2 + x3"\n'
        '[domain]\nc1 = "2*x1 + x2 + x3"\nc2 = "-x2 - x3"\n'
        '[sample]\nx1 = "1, 3"\nx2 = "-2, -0.1"\nx3 = "-2, -0.1"\n',
        encoding="utf-8",
    )
    spec = str(spec_path)
    matrix = [
        (["validate", "--spec", spec, "--at", "2,-1,-1"], 0),
        (["angles", "--spec", spec, "--at", "2,-1,-1", "--vector", "1,0,0"], 0),
        (["check-identity", "--spec", spec, "--at", "2,-1,-1"], 1),
        (["verify-theorems", "--spec", spec, "--at", "2,-1,-1"], 1),
        (["riemann", "--spec", spec], 2),
        (["riemann", "--at", "2,-1,-1"], 2),
        (["angles", "--spec", spec, "--at", "2,-1,-1", "--vector", "1,1,1"], 2),
        (["riemann", "--spec", spec, "--at", "0,0,0"], 3),
        (["validate", "--spec", spec, "--at", "0,0,0"], 3),
    ]
    for argv, expected in matrix:
        assert main(argv) == expected, argv
        capsys.readouterr()

    # seeded-sampling determinism
    args = ["example-m5", "--sample", "10", "--seed", "42", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
    print("AC-9 (CLI golden report, exit codes, determinism): PASS")
