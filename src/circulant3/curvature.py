"""Christoffel symbols, the Riemann tensor, sectional curvature and the
q-invariance property of the curvature.

All derivatives of the metric come from jets of A and B; nothing here is
finite-differenced. The numeric route is

    2 Gamma_ij^h = g^{th} (d_i g_tj + d_j g_ti - d_t g_ij)
    R_ijk^h      = d_j Gamma_ik^h - d_k Gamma_ij^h
                   + Gamma_ik^t Gamma_tj^h - Gamma_ij^t Gamma_tk^h

with the (0,4) tensor low[i,j,k,h] = g(R(e_i, e_j) e_k, e_h), the index
order and sign being pinned by the built-in example manifold (its
R_1212 at (2,-1,-1) equals -1/8). This route agrees with independent
computer-algebra implementations of the Levi-Civita curvature.

christoffel_from_metric, riemann_from_metric, closed_form_from_metric,
check_q_invariance and is_flat take a metric (or tensor) batch and return
results with its leading batch shape, () for one point or (N,) for N
points; the einsums carry the batch as ``...``. The remaining functions
(sectional curvature, the relation checks, riemann_apply) work at one
point.

closed_form_components evaluates a set of six reference component
formulas verbatim. The two routes agree on the built-in example's
diagonal components yet differ elsewhere (the reference formulas'
first-order terms do not belong to any curvature of these metrics); the
comparison is reported, never patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, IdentityRNotSatisfied, NotAQBasis
from .metric import MetricAtPoint, MetricFunctions, inner, metric_at
from .qstructure import (
    apply_q,
    construct_orthogonal_vector,
    construct_special_angle_vector,
    induces_q_basis,
    q_basis_angles,
)

_EYE = np.eye(3)
_ONES = np.ones((3, 3))

COMPONENT_INDEX = {
    "R1212": (0, 1, 0, 1),
    "R1313": (0, 2, 0, 2),
    "R2323": (1, 2, 1, 2),
    "R1213": (0, 1, 0, 2),
    "R1223": (0, 1, 1, 2),
    "R1323": (0, 2, 1, 2),
}


@dataclass(frozen=True)
class ChristoffelTable:
    """gamma[...,i,j,h] = Gamma_ij^h and dgamma[...,k,i,j,h] = d_k Gamma_ij^h."""

    gamma: np.ndarray
    dgamma: np.ndarray


@dataclass(frozen=True)
class CurvatureTensor:
    """up[...,i,j,k,h] = R_ijk^h (first slot transported); low = (0,4) tensor."""

    up: np.ndarray
    low: np.ndarray
    christoffel: ChristoffelTable  # the table up was built from

    def component(self, i: int, j: int, k: int, h: int) -> float:
        """Lowered component by 1-based indices."""
        return self.low[..., i - 1, j - 1, k - 1, h - 1]


@dataclass(frozen=True)
class ClosedFormComponents:
    R1212: np.ndarray
    R1313: np.ndarray
    R2323: np.ndarray
    R1213: np.ndarray
    R1223: np.ndarray
    R1323: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in COMPONENT_INDEX}


def index_first(a: np.ndarray, rank: int) -> np.ndarray:
    """a with its last rank (tensor index) axes moved in front of its batch axes.

    Indexing the result by all rank indices gives a number for one point
    and an (N,) array for a batch.
    """
    return a.transpose(tuple(range(a.ndim - rank, a.ndim)) + tuple(range(a.ndim - rank)))


def components(R: "CurvatureTensor") -> dict[str, np.ndarray]:
    """The lowered components named in COMPONENT_INDEX, with R's batch shape."""
    low = index_first(R.low, 4)
    return {name: low[i, j, k, h] for name, (i, j, k, h) in COMPONENT_INDEX.items()}


def _metric_derivatives(M: MetricAtPoint):
    dA, dB = M.A_jet.grad, M.B_jet.grad
    HA, HB = M.A_jet.hess, M.B_jet.hess
    dg = dA[..., None, None] * _EYE + dB[..., None, None] * (_ONES - _EYE)
    ddg = HA[..., None, None] * _EYE + HB[..., None, None] * (_ONES - _EYE)
    return dg, ddg


def christoffel_from_metric(M: MetricAtPoint) -> ChristoffelTable:
    """Christoffel symbols and their first derivatives from metric jets."""
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
    return ChristoffelTable(gamma, dgamma)


def christoffel(m: MetricFunctions, p) -> ChristoffelTable:
    return christoffel_from_metric(metric_at(m, p))


def riemann_from_metric(M: MetricAtPoint) -> CurvatureTensor:
    ct = christoffel_from_metric(M)
    gamma, dgamma = ct.gamma, ct.dgamma
    up = (
        np.einsum("...jikh->...ijkh", dgamma)
        - np.einsum("...kijh->...ijkh", dgamma)
        + np.einsum("...ikt,...tjh->...ijkh", gamma, gamma)
        - np.einsum("...ijt,...tkh->...ijkh", gamma, gamma)
    )
    low = np.einsum("...kijt,...th->...ijkh", up, M.g)
    return CurvatureTensor(up, low, ct)


def riemann(m: MetricFunctions, p) -> CurvatureTensor:
    """The curvature tensor at p; low[i,j,k,h] = g(R(e_i,e_j)e_k, e_h)."""
    return riemann_from_metric(metric_at(m, p))


def closed_form_components(m: MetricFunctions, p) -> ClosedFormComponents:
    """Evaluate the six reference closed-form (0,4) components verbatim.

    D = (A - B)(A + 2B). See the module docstring for how these relate
    to the numeric tensor.
    """
    return closed_form_from_metric(metric_at(m, p))


def closed_form_from_metric(M: MetricAtPoint) -> ClosedFormComponents:
    A, B = M.A, M.B
    A1, A2, A3 = index_first(M.A_jet.grad, 1)
    B1, B2, B3 = index_first(M.B_jet.grad, 1)
    HA, HB = index_first(M.A_jet.hess, 2), index_first(M.B_jet.hess, 2)
    A11, A22, A33 = HA[0, 0], HA[1, 1], HA[2, 2]
    A12, A13, A23 = HA[0, 1], HA[0, 2], HA[1, 2]
    B11, B22, B33 = HB[0, 0], HB[1, 1], HB[2, 2]
    B12, B13, B23 = HB[0, 1], HB[0, 2], HB[1, 2]
    B21, B31 = B12, B13
    D = M.D
    cAB = (A + B) / (4.0 * D)
    cB = B / (4.0 * D)
    R1212 = (
        0.5 * (2 * B21 - A11 - A22)
        + cAB * (2 * A3 * B2 - A3**2 + (B1 - B2 - B3) * (B1 + B2 - B3))
        - cB * (2 * A1 * (B1 + B2 - B3) - 2 * B2 * (B1 + B2 - B3) - 2 * A1 * A3 + 2 * A3 * B2)
    )
    R1313 = (
        0.5 * (2 * B31 - A11 - A33)
        + cAB * (2 * A2 * B3 - A2**2 + (-B1 + B2 + B3) * (-B1 + B2 - B3))
        - cB * (2 * A1 * (B1 - B2 + B3) - 2 * B3 * (B1 - B2 + B3) - 2 * A1 * A2 + 2 * A2 * B3)
    )
    R2323 = (
        0.5 * (2 * B23 - A22 - A33)
        + cAB * (2 * B3 * A1 - A1**2 + (B1 - B2 + B3) * (B1 - B2 - B3))
        - cB * (2 * A2 * (B2 + B3 - B1) + 2 * B3 * (B1 - B2 - B3) - 2 * A1 * A2 + 2 * A1 * B3)
    )
    R1213 = (
        0.5 * (B21 + B31 - B11 - A23)
        + cAB * (A1 * (B2 - B3 + B1) + 2 * B3 * (-B1 - B2 + B3) + A2 * A3)
        - cB * (
            A1**2 + A2**2 + A3**2 + 2 * A1 * (A2 - B3) - 2 * A3 * (B1 - B3) - 2 * A2 * B3
            + (B1 - B2 - B3) * (B1 + B2 - B3)
        )
    )
    R1223 = (
        0.5 * (B22 - B12 - B23 + A13)
        + cAB * (A2 * (B2 + B3 - B1) - (2 * B3 - A1) * (2 * B2 - A3))
        - cB * (
            -(A1**2) + A2**2 + A3**2 + 2 * A1 * (B2 + B3) + 2 * A2 * (B2 - B3) - 4 * B2 * B3
            + 2 * A3 * (B3 - B1) + (B1 + B2 - B3) * (B1 - B2 - B3)
        )
    )
    # the last product reads "+(-B1+B2+B3)(B1-B2+B3)": the source text drops
    # the opening parenthesis
    R1323 = (
        0.5 * (B23 - B33 + B13 - A12)
        + cAB * ((2 * B2 - A1) * (2 * B3 - A2) - A3 * (-B1 + B2 + B3))
        - cB * (
            A1**2 - A2**2 - A3**2 - 2 * A1 * (B2 + B3) + 2 * A2 * (B1 - B2) + 4 * B2 * B3
            + 2 * A3 * (B2 - B3) + (-B1 + B2 + B3) * (B1 - B2 + B3)
        )
    )
    return ClosedFormComponents(R1212, R1313, R2323, R1213, R1223, R1323)


def riemann_apply(R: CurvatureTensor, x, y, z, u) -> float:
    """Full contraction R(x, y, z, u) of the lowered tensor."""
    x, y, z, u = (np.asarray(v, dtype=float) for v in (x, y, z, u))
    return float(np.einsum("ijkh,i,j,k,h->", R.low, x, y, z, u))


def sectional_curvature(M: MetricAtPoint, R: CurvatureTensor, x, y) -> float:
    """R(x,y,x,y) / (g(x,x) g(y,y) - g(x,y)^2) for a non-degenerate plane."""
    gxx = inner(M, x, x)
    gyy = inner(M, y, y)
    gxy = inner(M, x, y)
    den = gxx * gyy - gxy * gxy
    if not den > 1e-12 * gxx * gyy:
        x, y = (tuple(np.asarray(v, float).tolist()) for v in (x, y))
        raise DegeneratePlane(f"vectors {x} and {y} span no plane")
    return riemann_apply(R, x, y, x, y) / den


def max_abs(low: np.ndarray) -> np.ndarray:
    """max |low[...,i,j,k,h]| over the tensor indices of a batch of (0,4) tensors."""
    return np.abs(low).max(axis=(-4, -3, -2, -1))


def is_flat(R: CurvatureTensor, tol: float):
    """Where every lowered component is below tol in magnitude."""
    return max_abs(R.low) <= tol


@dataclass(frozen=True)
class QInvarianceCheck:
    """Component verdict of R(qx,qy,qz,qu) = R(x,y,z,u), with R's batch shape."""

    passed: np.ndarray
    diagonal_residual: np.ndarray  # spread of R1212, R1313, R2323
    cross_residual: np.ndarray  # spread of R1213, R1323, -R1223
    scale: np.ndarray  # max |R_ijkh|
    threshold: np.ndarray  # tol * (1 + scale), the bound both spreads must meet


def check_q_invariance(R: CurvatureTensor, tol: float = 1e-9) -> QInvarianceCheck:
    """Check the curvature identity R(qx,qy,qz,qu) = R(x,y,z,u) by components.

    R_1212 = R_1313 = R_2323 and R_1213 = R_1323 = -R_1223. (Transporting
    each slot through q permutes coordinate indices by 1->3->2->1 with
    signs cancelling; the minus on R_1223 follows from the tensor
    antisymmetries and is confirmed by sampled_q_invariance_residual.)
    """
    c = components(R)
    scale = max_abs(R.low)
    threshold = tol * (1.0 + scale)
    diag = np.array([c["R1212"], c["R1313"], c["R2323"]])
    cross = np.array([c["R1213"], c["R1323"], -c["R1223"]])
    diag_res = diag.max(axis=0) - diag.min(axis=0)
    cross_res = cross.max(axis=0) - cross.min(axis=0)
    passed = (diag_res <= threshold) & (cross_res <= threshold)
    return QInvarianceCheck(passed, diag_res, cross_res, scale, threshold)


def sampled_q_invariance_residual(R: CurvatureTensor, seed: int, samples: int) -> float:
    """max |R(qx,qy,qz,qu) - R(x,y,z,u)| over random unit vector 4-tuples.

    An oracle for check_q_invariance that shares none of its index algebra.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        vecs = rng.standard_normal((4, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        qvecs = [apply_q(v) for v in vecs]
        lhs = riemann_apply(R, *qvecs)
        rhs = riemann_apply(R, *vecs)
        worst = max(worst, abs(lhs - rhs))
    return worst


@dataclass(frozen=True)
class RelationCheck:
    """Residual of one verified equality, with both sides kept for tolerances."""

    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _orthonormal_generator(M: MetricAtPoint) -> np.ndarray:
    x = construct_orthogonal_vector(M.A, M.B)
    return x / np.sqrt(inner(M, x, x))


def _require_identity_and_basis(R, u, tol, require_identity):
    check = check_q_invariance(R, tol=tol)
    if require_identity and not check.passed:
        raise IdentityRNotSatisfied(
            "curvature q-invariance fails at this point "
            f"(diagonal spread {check.diagonal_residual:.3e}, cross spread {check.cross_residual:.3e})"
        )
    if not induces_q_basis(u):
        raise NotAQBasis(f"vector {tuple(np.asarray(u, float).tolist())} does not induce a q-basis")


def check_sectional_difference_formula(
    M: MetricAtPoint, R: CurvatureTensor, u, tol: float = 1e-9, require_identity: bool = True
) -> RelationCheck:
    """mu(u,qu) - mu(x,qx) = (2 cos phi / (1 - cos phi)) R(x, qx, x, q^2 x).

    M and R are the metric and curvature at one point (riemann_from_metric(M)).
    x is the normalized orthogonal-basis generator, phi = angle(u, qu).
    Valid on manifolds whose curvature is q-invariant; refuses elsewhere
    unless require_identity=False (diagnostic use).
    """
    _require_identity_and_basis(R, u, tol, require_identity)
    x = _orthonormal_generator(M)
    qx = apply_q(x)
    q2x = apply_q(qx)
    cphi = q_basis_angles(M, u).cos_phi_x_qx
    lhs = sectional_curvature(M, R, u, apply_q(u)) - sectional_curvature(M, R, x, qx)
    rhs = (2.0 * cphi / (1.0 - cphi)) * riemann_apply(R, x, qx, x, q2x)
    return RelationCheck(lhs, rhs)


def check_sectional_combination_formula(
    M: MetricAtPoint, R: CurvatureTensor, u, tol: float = 1e-9, require_identity: bool = True
) -> RelationCheck:
    """mu(u,qu) = ((1+2cos phi) mu(x,qx) - 3 cos phi mu(y,qy)) / (1 - cos phi).

    y is a constructed vector with angle(y, qy) = 2 pi / 3.
    """
    _require_identity_and_basis(R, u, tol, require_identity)
    x = _orthonormal_generator(M)
    y = construct_special_angle_vector(M.A, M.B)
    cphi = q_basis_angles(M, u).cos_phi_x_qx
    mu_x = sectional_curvature(M, R, x, apply_q(x))
    mu_y = sectional_curvature(M, R, y, apply_q(y))
    lhs = sectional_curvature(M, R, u, apply_q(u))
    rhs = ((1.0 + 2.0 * cphi) * mu_x - 3.0 * cphi * mu_y) / (1.0 - cphi)
    return RelationCheck(lhs, rhs)


@dataclass(frozen=True)
class EqualSectionalCheck:
    mu_u_qu: float
    mu_qu_q2u: float
    mu_q2u_u: float

    @property
    def residuals(self) -> tuple[float, float]:
        return (abs(self.mu_u_qu - self.mu_qu_q2u), abs(self.mu_u_qu - self.mu_q2u_u))


def check_equal_sectional_curvatures(
    M: MetricAtPoint, R: CurvatureTensor, u, tol: float = 1e-9, require_identity: bool = True
) -> EqualSectionalCheck:
    """Sectional curvatures of the planes {u,qu}, {qu,q^2u}, {q^2u,u}.

    Equal on manifolds with q-invariant curvature.
    """
    _require_identity_and_basis(R, u, tol, require_identity)
    qu = apply_q(u)
    q2u = apply_q(qu)
    return EqualSectionalCheck(
        mu_u_qu=sectional_curvature(M, R, u, qu),
        mu_qu_q2u=sectional_curvature(M, R, qu, q2u),
        mu_q2u_u=sectional_curvature(M, R, q2u, u),
    )
