"""Christoffel symbols, the Riemann tensor, sectional curvature and the
q-invariance property of the curvature.

All derivatives of the metric come from jets of A and B; nothing here is
finite-differenced. The numeric route is

    2 Gamma_ij^h = g^{th} (d_i g_tj + d_j g_ti - d_t g_ij)
    R_ijk^h      = d_j Gamma_ik^h - d_k Gamma_ij^h
                   + Gamma_ik^t Gamma_tj^h - Gamma_ij^t Gamma_tk^h

with the (0,4) tensor low[i,j,k,h] = g(R(e_i, e_j) e_k, e_h), the index
order and sign being pinned by the built-in example manifold (its
R_1212 at (2,-1,-1) equals -1/8). The test suite checks this route
against exact components of the Levi-Civita curvature (tests/oracle.py),
which tests/test_oracle.py derives symbolically from the metric.

Every function takes a metric (or tensor) batch and returns results with
its leading batch shape, () for one point or (N,) for N points; the
einsums and matrix products carry the batch as ``...``, and each point's
result is bit for bit the one a batch of that point alone gives. Vectors
are one vector (3,) shared by all points or one per point (..., 3). A
check that refuses a batch names its first failing point.

closed_form_from_metric evaluates a set of six reference component
formulas verbatim. The two routes agree on the built-in example's
diagonal components yet differ elsewhere (against the derived components,
the reference formulas' Hessian terms carry the opposite sign and their
first-order terms differ by a nonzero polynomial); the comparison is
reported, never patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePlane, IdentityRNotSatisfied, NotAQBasis
from .metric import MetricAtPoint, first_point, inner, inners
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

    def __getitem__(self, index) -> "CurvatureTensor":
        """The tensor at part of the batch, e.g. one point."""
        ct = self.christoffel
        return CurvatureTensor(
            self.up[index], self.low[index], ChristoffelTable(ct.gamma[index], ct.dgamma[index])
        )


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


def riemann_from_metric(M: MetricAtPoint) -> CurvatureTensor:
    """The curvature tensor at M's points; low[...,i,j,k,h] = g(R(e_i,e_j)e_k, e_h)."""
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


def closed_form_from_metric(M: MetricAtPoint) -> ClosedFormComponents:
    """Evaluate the six reference closed-form (0,4) components verbatim.

    D = (A - B)(A + 2B). See the module docstring for how these relate
    to the numeric tensor.
    """
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


def riemann_apply(R: CurvatureTensor, x, y, z, u):
    """Full contraction R(x, y, z, u) of the lowered tensor."""
    x, y, z, u = (np.asarray(v, dtype=float) for v in (x, y, z, u))
    return np.einsum("...ijkh,...i,...j,...k,...h->...", R.low, x, y, z, u)


def sectional_curvature(M: MetricAtPoint, R: CurvatureTensor, x, y):
    """R(x,y,x,y) / (g(x,x) g(y,y) - g(x,y)^2) for a non-degenerate plane."""
    gxx, gxy = inners(M, x, (x, y))
    gyy = inner(M, y, y)
    den = gxx * gyy - gxy * gxy
    degenerate = ~(den > 1e-12 * gxx * gyy)
    if degenerate.any():
        i = first_point(degenerate)
        x, y = (np.broadcast_to(np.asarray(v, float), den.shape + (3,))[i] for v in (x, y))
        x, y = tuple(x.tolist()), tuple(y.tolist())
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


def sampled_q_invariance_residual(R: CurvatureTensor, seed: int, samples: int):
    """max |R(qx,qy,qz,qu) - R(x,y,z,u)| over random unit vector 4-tuples.

    An oracle for check_q_invariance that shares none of its index algebra.
    The tuples depend on the seed only: they are drawn once and contracted
    against the whole batch, each point keeping the first largest residual.
    """
    rng = np.random.default_rng(seed)
    worst = np.zeros(R.low.shape[:-4])
    for _ in range(samples):
        vecs = rng.standard_normal((4, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        residual = abs(riemann_apply(R, *apply_q(vecs)) - riemann_apply(R, *vecs))
        worst = np.where(residual > worst, residual, worst)
    return worst[()]


@dataclass(frozen=True)
class RelationCheck:
    """Residual of one verified equality, with both sides kept for tolerances."""

    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return abs(self.lhs - self.rhs)


def _orthonormal_generator(M: MetricAtPoint) -> np.ndarray:
    x = construct_orthogonal_vector(M.A, M.B)
    return x / np.sqrt(inner(M, x, x))[..., None]


@dataclass(frozen=True)
class RelationFrame:
    """A metric and curvature batch set up for the sectional-curvature relations.

    R is riemann_from_metric(M). The relations hold where the curvature is
    q-invariant; they refuse elsewhere unless require_identity=False
    (diagnostic use). What they share across vectors is computed over the
    whole batch on first use and kept: the q-invariance verdict, the
    normalized orthogonal-basis generator x, the special-angle vector y
    (angle(y, qy) = 2 pi / 3), mu(x, qx), mu(y, qy) and R(x, qx, x, q^2 x).
    """

    M: MetricAtPoint
    R: CurvatureTensor
    tol: float = 1e-9
    require_identity: bool = True

    @cached_property
    def identity(self) -> QInvarianceCheck:
        return check_q_invariance(self.R, tol=self.tol)

    @cached_property
    def x(self) -> np.ndarray:
        return _orthonormal_generator(self.M)

    @cached_property
    def mu_x(self) -> np.ndarray:
        return sectional_curvature(self.M, self.R, self.x, apply_q(self.x))

    @cached_property
    def mu_y(self) -> np.ndarray:
        y = construct_special_angle_vector(self.M.A, self.M.B)
        return sectional_curvature(self.M, self.R, y, apply_q(y))

    @cached_property
    def r_x(self) -> np.ndarray:
        qx = apply_q(self.x)
        return riemann_apply(self.R, self.x, qx, self.x, apply_q(qx))


def _require_identity_and_basis(frame: RelationFrame, u):
    check = frame.identity
    if frame.require_identity and not check.passed.all():
        i = first_point(~check.passed)
        raise IdentityRNotSatisfied(
            "curvature q-invariance fails at this point "
            f"(diagonal spread {check.diagonal_residual[i]:.3e}, "
            f"cross spread {check.cross_residual[i]:.3e})"
        )
    if not induces_q_basis(u):
        raise NotAQBasis(f"vector {tuple(np.asarray(u, float).tolist())} does not induce a q-basis")


def check_sectional_difference_formula(frame: RelationFrame, u) -> RelationCheck:
    """mu(u,qu) - mu(x,qx) = (2 cos phi / (1 - cos phi)) R(x, qx, x, q^2 x).

    u is one vector; both sides have the frame's batch shape. x is the
    normalized orthogonal-basis generator, phi = angle(u, qu).
    """
    _require_identity_and_basis(frame, u)
    mu_x = frame.mu_x
    cphi = q_basis_angles(frame.M, u).cos_phi_x_qx
    lhs = sectional_curvature(frame.M, frame.R, u, apply_q(u)) - mu_x
    rhs = (2.0 * cphi / (1.0 - cphi)) * frame.r_x
    return RelationCheck(lhs, rhs)


def check_sectional_combination_formula(frame: RelationFrame, u) -> RelationCheck:
    """mu(u,qu) = ((1+2cos phi) mu(x,qx) - 3 cos phi mu(y,qy)) / (1 - cos phi).

    y is a constructed vector with angle(y, qy) = 2 pi / 3.
    """
    _require_identity_and_basis(frame, u)
    mu_x, mu_y = frame.mu_x, frame.mu_y
    cphi = q_basis_angles(frame.M, u).cos_phi_x_qx
    lhs = sectional_curvature(frame.M, frame.R, u, apply_q(u))
    rhs = ((1.0 + 2.0 * cphi) * mu_x - 3.0 * cphi * mu_y) / (1.0 - cphi)
    return RelationCheck(lhs, rhs)


@dataclass(frozen=True)
class EqualSectionalCheck:
    mu_u_qu: np.ndarray
    mu_qu_q2u: np.ndarray
    mu_q2u_u: np.ndarray

    @property
    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        return (abs(self.mu_u_qu - self.mu_qu_q2u), abs(self.mu_u_qu - self.mu_q2u_u))


def check_equal_sectional_curvatures(frame: RelationFrame, u) -> EqualSectionalCheck:
    """Sectional curvatures of the planes {u,qu}, {qu,q^2u}, {q^2u,u}.

    Equal on manifolds with q-invariant curvature.
    """
    _require_identity_and_basis(frame, u)
    M, R = frame.M, frame.R
    qu = apply_q(u)
    q2u = apply_q(qu)
    return EqualSectionalCheck(
        mu_u_qu=sectional_curvature(M, R, u, qu),
        mu_qu_q2u=sectional_curvature(M, R, qu, q2u),
        mu_q2u_u=sectional_curvature(M, R, q2u, u),
    )
