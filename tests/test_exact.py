"""The numeric curvature against exact rational arithmetic (exact.py).

The reference for the kernel is the exact curvature of the float jets it
reads: generic_components over the Fractions of A's and B's jets. Rounding of
the jets themselves then plays no part, so the bound measures the kernel
alone. The jets have their own exact reference, the Fraction jet of the same
expression tree, and where a field is evaluated without rounding the two
routes meet: the built-in example gives R1212 = -1/8 exactly.

The bound is C_EPS * eps * max|R| for every component, over random rational
fields (test_properties.py, with hypothesis) and over a family whose metric
nears degeneracy (A - B = G (1 + x3)
with A about 1, G down to 1e-10), where the error of a route through g^-1
grows like (A / (A - B))^2.

Sectional curvature has the exact reference R(x, y, x, y) / (g(x, x) g(y, y) -
g(x, y)^2) of the same exact components and rational vectors. Its bound is
C_SECTIONAL * eps * max|R| * |x|^2 |y|^2 / det, with det the exact Gram
determinant, on well-conditioned specs: R(x, y, x, y) is contracted from x and
y, so its error scales with |x|^2 |y|^2, not with |x ^ y|^2, which is smaller on
a thin plane (a plane with |x|^2 |y|^2 = 198 |x ^ y|^2 gave 777 eps in units of
the latter). The bound holds near degeneracy too: the determinant is formed
from the invariants of x ^ y as a sum of non-negative terms in lam and nu
(qstructure), so it keeps a few eps of relative accuracy as nu / lam nears 0.

The q-structure routes have exact references in the coordinate frame
(exact_orbit_cosine, exact_plane, exact_cubic): cos(x, qx) within
C_QSTRUCTURE eps, the plane determinant and the q-basis cubic within
C_QSTRUCTURE eps of their magnitude, on the generic, cyclic and
near-degenerate families (G = 1e-2, 1e-6, 1e-10). Through the Gram matrix the
determinant was off by up to 3e10 eps at G = 1e-10, and cos(x, qx) by 2.4e-7
through the paper's closed form in a and b.

The Christoffel symbols have the exact reference of exact_christoffel on the
same Fraction jets, formed in the coordinate frame with g^-1 in Fractions.
Gamma is bounded by C_CHRISTOFFEL * eps * max|Gamma| and dGamma by
C_CHRISTOFFEL * eps * max|dGamma| on every family here, near degeneracy
included: like R, both are formed in g's eigenframe, where the only division
is by an eigenvalue.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from circulant3 import (
    MetricFunctions, apply_q, christoffel_from_metric, construct_basis_vectors, induces_q_basis, metric_at, parse,
    q_basis_angles, riemann_from_metric, sample_admissible_points, sectional_curvature, sectional_relations,
)
from circulant3.cli import main
from circulant3.curvature import COMPONENT_INDEX, components, sectional_plane
from circulant3.expressions import eval_jet
from circulant3.metric import admissibility
from circulant3.qstructure import q_basis_test
from circulant3.specfile import builtin_example

from exact import (
    exact_christoffel, exact_components, exact_cubic, exact_curvature, exact_jet, exact_orbit_cosine, exact_plane,
    exact_sectional, fraction_jet,
)
from helpers import (
    BOX, random_manifold, random_q_basis_vector, random_q_invariant_manifold, random_warped_manifold,
)

EPS = np.finfo(float).eps
C_EPS = 8.0  # the largest error seen over these tests is about 2.4 eps; 8 leaves a margin
C_SECTIONAL = 64.0  # the largest error seen on these specs (16 seeds) is about 37 eps
# the largest error of Gamma seen over these tests is about 9.3 eps (near degeneracy, G = 1e-10); of dGamma
# about 3.2 eps (the same)
C_CHRISTOFFEL = 64.0
C_QSTRUCTURE = 8.0  # the largest error of cos(x, qx), a plane determinant or a cubic seen here is about 3 eps


def worst_error(R, M):
    """max over points and components of |R - exact(float jets)| / max |exact|, in units of eps."""
    numeric = components(R)
    worst = 0.0
    for i in np.ndindex(M.A.shape):
        want = exact_components(fraction_jet(M.A_jet[i]), fraction_jet(M.B_jet[i]))
        scale = max(abs(v) for v in want.values())
        for name, value in want.items():
            error = abs(Fraction(float(numeric[name][i])) - value)
            worst = max(worst, float(error / scale) / EPS if scale else float(error))
    return worst


def christoffel_errors(M) -> tuple[float, float]:
    """max over points of |Gamma - exact| / max |exact Gamma|, and the same of dGamma, in units of eps.

    The exact values are exact_christoffel of the Fractions of the float jets."""
    ct = christoffel_from_metric(M)
    worst = [0.0, 0.0]
    for i in np.ndindex(M.A.shape):
        exact = exact_christoffel(fraction_jet(M.A_jet[i]), fraction_jet(M.B_jet[i]))
        for k, (got, want) in enumerate(zip((ct.gamma[i], ct.dgamma[i]), exact)):
            want = np.array(want, dtype=object).ravel()
            error = max(abs(Fraction(float(a)) - b) for a, b in zip(got.ravel(), want))
            scale = max(abs(b) for b in want)
            worst[k] = max(worst[k], float(error / scale) / EPS if scale else float(error))
    return worst[0], worst[1]


def near_degenerate_metric(G: str):
    """A valid metric, A > B > 0 on [0,1]^3, whose eigenvalue nu = A - B is G (1 + x3) against lam about 3,
    at 100 points of [0,1]^3."""
    m = MetricFunctions.from_sources(f"1 + {G}*(1 + x3) + x1^2/100 + x2*x3/50", "1 + x1^2/100 + x2*x3/50")
    return metric_at(m, np.random.default_rng(11).uniform(0.0, 1.0, (100, 3)))


@pytest.mark.parametrize("G", ["1e-2", "1e-4", "1e-6", "1e-8", "1e-10"])
def test_curvature_near_degeneracy_is_within_a_few_eps_of_the_exact_value(G):
    M = near_degenerate_metric(G)
    assert worst_error(riemann_from_metric(M), M) <= C_EPS


@pytest.mark.parametrize("G", ["1e-2", "1e-4", "1e-6", "1e-8", "1e-10"])
def test_christoffel_symbols_near_degeneracy_are_within_c_eps_of_the_exact_value(G):
    gamma, dgamma = christoffel_errors(near_degenerate_metric(G))
    assert gamma <= C_CHRISTOFFEL and dgamma <= C_CHRISTOFFEL


def test_example_curvature_is_exact():
    # the example's fields are linear and its point small integers: the jets are exact, and so is R
    example = builtin_example().metric
    p = (2.0, -1.0, -1.0)
    want = exact_curvature(example, p)
    assert want["R1212"] == Fraction(-1, 8)
    got = components(riemann_from_metric(metric_at(example, p)))
    assert {name: Fraction(float(v)) for name, v in got.items()} == want


def _entries(jet):
    return (jet.value, *jet.grad, *sum(jet.hess, ()))


def assert_float_jet_is_exact_jet(f, p, jet):
    """The float jet of f at p is the exact one up to a few roundings of its largest entry."""
    want = _entries(exact_jet(f, p))
    scale = max(1, *map(abs, want))
    assert all(abs(a - b) <= 16 * EPS * scale for a, b in zip(_entries(fraction_jet(jet)), want))


def test_exact_jets_are_the_float_jets_of_the_same_tree():
    f = parse("(3 - x1/4)^2 * x2 + 1/(2 + x3^2) - -x1 * x2 * x3 + x1^0 + (x2 + 3)^-2")
    for p in ((0.5, -0.25, 0.75), (0.1, 0.2, 0.3), (0.0, 1.0, -1.0)):
        assert_float_jet_is_exact_jet(f, p, eval_jet(f, np.array(p)))


@pytest.mark.parametrize("source", ["sqrt(x1)", "exp(x1)", "log(2 + x1)", "sin(x2)", "cos(x3)", "x1^0.5"])
def test_exact_jets_refuse_what_is_not_rational(source):
    with pytest.raises(ValueError, match="no exact jet"):
        exact_jet(parse(source), (0.5, 0.5, 0.5))


# Specs at the edge of the double range whose curvature is finite: riemann reports it, at the bound
# against the exact curvature of the same fields at the same point. A Hessian of 1e307 to 1e308
# (A_11 = 2c) puts R1212 near c; a tiny metric with ordinary derivatives puts R1212 near -2e199;
# a metric whose eigenvalue A + 2B = 1.9e308 is beyond the double range has a finite R near 1e293.
EDGE_SPECS = {
    "hessian-1e307": ('5e306*x1^2 + 3', "1", (1e-200, 0.0, 0.0)),
    "hessian-4e307": ('2e307*x1^2 + 3', "1", (1e-200, 0.0, 0.0)),
    "hessian-1e308": ('5e307*x1^2 + 3', "1", (1e-200, 0.0, 0.0)),
    "tiny-metric": ('3e-200 + x1', "1e-200", (1e-300, 0.0, 0.0)),
    "metric-above-range": ('7e307 + 1e300*x1', "6e307", (0.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("case", EDGE_SPECS)
def test_riemann_reports_finite_curvature_at_the_edge_of_the_double_range(capsys, tmp_path, case):
    A, B, p = EDGE_SPECS[case]
    spec = tmp_path / "spec.toml"
    spec.write_text(f'[metric]\nA = "{A}"\nB = "{B}"\n', encoding="utf-8")
    assert main(["riemann", "--spec", str(spec), "--at=" + ",".join(map(repr, p)), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)["results"]["components"]
    want = exact_curvature(MetricFunctions.from_sources(A, B), p)
    scale = max(abs(v) for v in want.values())
    assert set(got) == set(COMPONENT_INDEX)
    for name, value in want.items():
        assert abs(Fraction(got[name]) - value) <= Fraction(C_EPS * EPS) * scale, name


# q-invariant specs, so that sectional_relations computes its curvatures: the q-parallel benchmark
# spec, and one of each of the cyclic and warped families
SECTIONAL_SPECS = {
    "parallel": lambda rng: MetricFunctions.from_sources("4*x1 + 2*x2 + 20", "x1 + 2*x2 + 3*x3 + 5"),
    "cyclic": random_q_invariant_manifold,
    "warped": random_warped_manifold,
}


def sectional_error(mu, want: dict, A, B, x, y) -> float:
    """|mu - exact| in units of eps * max|R| * |x|^2 |y|^2 / det, for the exact components want."""
    _, det = exact_plane(A, B, x, y)
    norms = sum(Fraction(float(v)) ** 2 for v in x) * sum(Fraction(float(v)) ** 2 for v in y)
    unit = max(abs(v) for v in want.values()) * norms / det
    return float(abs(Fraction(float(mu)) - exact_sectional(want, A, B, x, y)) / unit) / EPS


@pytest.mark.parametrize("spec", SECTIONAL_SPECS)
def test_sectional_curvatures_are_within_c_eps_of_the_exact_value(spec):
    rng = np.random.default_rng(29)
    M = metric_at(SECTIONAL_SPECS[spec](rng), rng.uniform(-1.0, 1.0, (6, 3)))
    R = riemann_from_metric(M)
    pairs = rng.standard_normal((8, 2, 3))
    U = np.array([random_q_basis_vector(rng) for _ in range(4)])
    mu_pairs = [sectional_curvature(R, x, y) for x, y in pairs]
    rel = sectional_relations(R, U).equal
    orbit = [U, apply_q(U), apply_q(apply_q(U)), U]
    worst = 0.0
    for i in range(6):
        want = exact_components(fraction_jet(M.A_jet[i]), fraction_jet(M.B_jet[i]))
        A, B = float(M.A[i]), float(M.B[i])
        for (x, y), mu in zip(pairs, mu_pairs):
            worst = max(worst, sectional_error(mu[i], want, A, B, x, y))
        for k, mu in enumerate((rel.mu_u_qu, rel.mu_qu_q2u, rel.mu_q2u_u)):
            for v in range(len(U)):
                worst = max(worst, sectional_error(mu[v, i], want, A, B, orbit[k][v], orbit[k + 1][v]))
    assert worst <= C_SECTIONAL


@pytest.mark.parametrize("spec", [*SECTIONAL_SPECS, "example"])
def test_christoffel_symbols_and_their_derivatives_are_within_c_eps_of_the_exact_value(spec):
    rng = np.random.default_rng(31)
    if spec == "example":
        m, box = builtin_example().metric, builtin_example().sample_box
        points = np.array([rng.uniform(lo, hi, 12) for lo, hi in box]).T
        points = points[[bool(admissibility(m, p)[0]) for p in points]]
    else:
        m, points = SECTIONAL_SPECS[spec](rng), rng.uniform(-1.0, 1.0, (12, 3))
    gamma, dgamma = christoffel_errors(metric_at(m, points))
    assert gamma <= C_CHRISTOFFEL and dgamma <= C_CHRISTOFFEL


# The q-structure rows of the ledger: a few points of each family, random vectors and planes, and the
# constructed vectors x and y of each point for the cubic.
Q_FAMILIES = ["generic", "cyclic", "1e-2", "1e-6", "1e-10"]


def q_family(name, rng):
    """Four points of the generic or cyclic family, or of the near-degenerate one with nu = G (1 + x3)."""
    if name in ("generic", "cyclic"):
        make = random_manifold if name == "generic" else random_q_invariant_manifold
        return sample_admissible_points(make(rng), BOX, 4, 1)[1]
    return near_degenerate_metric(name)[:4]


@pytest.mark.parametrize("family", Q_FAMILIES)
def test_q_structure_routes_are_within_c_eps_of_the_exact_value(family):
    # at each point, random vectors and vectors whose part along (1, 1, 1) is about sqrt(nu / lam) of the rest,
    # where lam sigma^2 and nu delta are alike and cos(u, qu) is most sensitive to sigma: a sigma summed in
    # plain floats is off by about eps |u|, which is sqrt(lam / nu) eps of sigma there
    rng = np.random.default_rng(41)
    M = q_family(family, rng)
    x, y = construct_basis_vectors(M.A, M.B)
    R = riemann_from_metric(M)
    pairs = rng.standard_normal((12, 2, 3))
    dets = [sectional_plane(R, p, q)[1] for p, q in pairs]
    worst = [0.0, 0.0, 0.0]  # cos, determinant, cubic
    for i in range(len(M.A)):
        A, B = float(M.A[i]), float(M.B[i])
        rest = rng.standard_normal((6, 3))
        rest -= rest.mean(axis=1, keepdims=True)
        along = rng.uniform(0.2, 2.0, (6, 1)) * np.sqrt((A - B) / (A + 2 * B)) * np.linalg.norm(rest, axis=1)[:, None]
        U = np.concatenate((rng.standard_normal((6, 3)), rest + along))
        U = U[induces_q_basis(U)]
        cos = q_basis_angles(M[i], U).cos_phi_x_qx
        for u, c in zip(U, cos):
            worst[0] = max(worst[0], float(abs(Fraction(float(c)) - exact_orbit_cosine(A, B, u))) / EPS)
        for (p, q), det in zip(pairs, dets):
            want = exact_plane(A, B, p, q)[1]
            worst[1] = max(worst[1], float(abs(Fraction(float(det[i])) - want) / want) / EPS)
        for u in (*U, x[i], y[i]):
            want = exact_cubic(u)
            worst[2] = max(worst[2], float(abs(Fraction(float(q_basis_test(u)[0])) - want) / abs(want)) / EPS)
    assert max(worst) <= C_QSTRUCTURE, worst


@pytest.mark.parametrize("G", ["1e-2", "1e-6", "1e-10"])
def test_sectional_curvatures_near_degeneracy_are_within_c_eps_of_the_exact_value(G):
    rng = np.random.default_rng(43)
    M = near_degenerate_metric(G)[:4]
    R = riemann_from_metric(M)
    pairs = rng.standard_normal((8, 2, 3))
    mus = [sectional_curvature(R, x, y) for x, y in pairs]
    worst = 0.0
    for i in range(len(M.A)):
        want = exact_components(fraction_jet(M.A_jet[i]), fraction_jet(M.B_jet[i]))
        A, B = float(M.A[i]), float(M.B[i])
        for (x, y), mu in zip(pairs, mus):
            worst = max(worst, sectional_error(mu[i], want, A, B, x, y))
    assert worst <= C_SECTIONAL
