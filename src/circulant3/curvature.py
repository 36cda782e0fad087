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

Layout. christoffel_from_metric and riemann_from_metric contract
C-contiguous arrays whose tensor indices come first and whose batch axes
come last (``"ijt...,th...->ijh..."``), so that each einsum's inner loop
runs over the batch rather than over an index of length 3; the API stays
batch-first. Strides matter beyond speed: an einsum may sum in an order
that follows its operands' strides (riemann_apply sums over all four
indices of R.low; nabla_q_from_table reads gamma). So gamma and dgamma
are C-contiguous batch-first arrays, and low has the memory order
(batch..., k, i, j, h) in which a batch-first einsum over R_ijk^h leaves
it, viewed as (batch..., i, j, k, h). tests/test_kernel_layout.py pins
every element and every stride against the same contractions run
batch-first.

Overflow. The three curvature kernels silence numpy's float warnings and
raise EvalDomainError where Gamma, its derivatives, low or a closed-form
component is not finite, naming A and B at the first such point.

A CurvatureTensor carries its metric, so sectional curvature and the
sectional-curvature relations take R alone. The relations also take a
stack of V vectors (V, 3):
sectional_relations evaluates all three over every vector and point at
once, with results of shape (V, *batch), each element bit for bit that of
its vector and point alone. The single-relation checks are views of it.
sectional_curvature divides its vectors and the metric by powers of two
before it tests the plane and forms the quotient, which is exact, so the
result does not depend on the vectors' lengths or the metric's magnitude,
and no Gram term overflows or underflows. sectional_relations normalizes
the orthogonal-basis generator in the same way.

sectional_relations gives each of its five sectional curvatures the bits
sectional_curvature gives, but builds each quantity once. It forms
g / 2^e once (shared scaled metric) and rescales u once; qu and q^2u are
q-images of the rescaled u, which is exact because q only permutes and
negates entries. Each Gram entry g(u,u), g(qu,qu), g(q^2u,q^2u) is formed
once and shared by the two planes that use it (shared Gram entries). Two
einsums over a stacked leading axis contract the planes {u,qu}, {qu,q^2u},
{q^2u,u}, and then {x,qx}, {y,qy} with R(x,qx,x,q^2x) (stacked
contractions). Both functions test a plane with one helper,
_plane_determinant.

closed_form holds a set of six reference component formulas verbatim,
and closed_form_from_metric evaluates them over a power of two. The two
routes agree on the built-in example's diagonal components yet differ
elsewhere (against the derived components,
the reference formulas' Hessian terms carry the opposite sign and their
first-order terms differ by a nonzero polynomial); the comparison is
reported, never patched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, IdentityRNotSatisfied, NotAQBasis
from .metric import MetricAtPoint, first_point, inners, require_finite
from .qstructure import (
    apply_q,
    construct_orthogonal_vector,
    construct_special_angle_vector,
    induces_q_basis,
    q_basis_cosines,
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
    """low[...,i,j,k,h] = g(R(e_i, e_j) e_k, e_h), the (0,4) tensor."""

    low: np.ndarray
    christoffel: ChristoffelTable  # the table low was built from
    metric: MetricAtPoint  # the metric the table was built from, which lowers R_ijk^h

    def component(self, i: int, j: int, k: int, h: int) -> float:
        """Lowered component by 1-based indices."""
        return self.low[..., i - 1, j - 1, k - 1, h - 1]

    def __getitem__(self, index) -> "CurvatureTensor":
        """The tensor at part of the batch, e.g. one point."""
        ct = self.christoffel
        table = ChristoffelTable(ct.gamma[index], ct.dgamma[index])
        return CurvatureTensor(self.low[index], table, self.metric[index])


@functools.cache
def _index_first_axes(ndim: int, rank: int) -> tuple[int, ...]:
    return (*range(ndim - rank, ndim), *range(ndim - rank))


def index_first(a: np.ndarray, rank: int) -> np.ndarray:
    """a with its last rank (tensor index) axes moved in front of its batch axes.

    Indexing the result by all rank indices gives a number for one point
    and an (N,) array for a batch.
    """
    return a.transpose(_index_first_axes(a.ndim, rank))


def components(R: "CurvatureTensor") -> dict[str, np.ndarray]:
    """The lowered components named in COMPONENT_INDEX, with R's batch shape."""
    low = index_first(R.low, 4)
    return {name: low[i, j, k, h] for name, (i, j, k, h) in COMPONENT_INDEX.items()}


def _tensor_first(a: np.ndarray, rank: int) -> np.ndarray:
    """index_first(a, rank) as a C-contiguous array: tensor indices first, batch axes last."""
    return np.ascontiguousarray(index_first(a, rank))


def _batch_first(a: np.ndarray, rank: int) -> np.ndarray:
    """A C-contiguous copy of a with its first rank (tensor index) axes moved last."""
    return np.array(index_first(a, a.ndim - rank), order="C")


def _metric_derivatives(M: MetricAtPoint):
    dA, dB = M.A_jet.grad, M.B_jet.grad
    HA, HB = M.A_jet.hess, M.B_jet.hess
    dg = dA[..., None, None] * _EYE + dB[..., None, None] * (_ONES - _EYE)
    ddg = HA[..., None, None] * _EYE + HB[..., None, None] * (_ONES - _EYE)
    return dg, ddg


@np.errstate(all="ignore")
def christoffel_from_metric(M: MetricAtPoint) -> ChristoffelTable:
    """Christoffel symbols and their first derivatives from metric jets."""
    dg, ddg = _metric_derivatives(M)
    dg, ddg, ginv = _tensor_first(dg, 3), _tensor_first(ddg, 4), _tensor_first(M.g_inv, 2)
    # C[i,j,t] = d_i g_tj + d_j g_ti - d_t g_ij
    C = np.einsum("itj...->ijt...", dg) + np.einsum("jti...->ijt...", dg) - np.einsum("tij...->ijt...", dg)
    gamma = 0.5 * np.einsum("ijt...,th...->ijh...", C, ginv)
    dginv = -np.einsum("ab...,kbc...,cd...->kad...", ginv, dg, ginv)
    dC = (
        np.einsum("kitj...->kijt...", ddg)
        + np.einsum("kjti...->kijt...", ddg)
        - np.einsum("ktij...->kijt...", ddg)
    )
    dgamma = 0.5 * (
        np.einsum("kth...,ijt...->kijh...", dginv, C) + np.einsum("th...,kijt...->kijh...", ginv, dC)
    )
    gamma, dgamma = _batch_first(gamma, 3), _batch_first(dgamma, 4)
    require_finite(M, "Christoffel symbols or their derivatives", gamma, dgamma)
    return ChristoffelTable(gamma, dgamma)


@np.errstate(all="ignore")
def riemann_from_metric(M: MetricAtPoint) -> CurvatureTensor:
    """The curvature tensor at M's points; low[...,i,j,k,h] = g(R(e_i,e_j)e_k, e_h)."""
    ct = christoffel_from_metric(M)
    gamma, dgamma = _tensor_first(ct.gamma, 3), _tensor_first(ct.dgamma, 4)
    up = (
        np.einsum("jikh...->ijkh...", dgamma)
        - np.einsum("kijh...->ijkh...", dgamma)
        + np.einsum("ikt...,tjh...->ijkh...", gamma, gamma)
        - np.einsum("ijt...,tkh...->ijkh...", gamma, gamma)
    )
    # low in memory order (batch..., k, i, j, h), viewed as (batch..., i, j, k, h)
    low = _batch_first(np.einsum("kijt...,th...->kijh...", up, _tensor_first(M.g, 2)), 4)
    low = low.swapaxes(-4, -3).swapaxes(-3, -2)
    require_finite(M, "curvature components", low)
    return CurvatureTensor(low, ct, M)


@np.errstate(all="ignore")
def closed_form_from_metric(M: MetricAtPoint) -> dict[str, np.ndarray]:
    """The six reference closed-form (0,4) components, verbatim, by the names of COMPONENT_INDEX.

    The formulas run on A, B and their derivatives over the power of two 2^e
    of metric_from_jets (M.e), where max(|A|, |B|) / 2^e is in [0.5, 1), and
    each component, homogeneous of degree one in them, is scaled back by 2^e.
    The scaling is exact: components in the normal range keep their bits, and
    a metric whose D would under- or overflow still gets its components. See
    the module docstring for how these relate to the numeric tensor.
    """
    e = M.e
    A, B = np.ldexp(M.A, -e), np.ldexp(M.B, -e)
    dA, dB = (index_first(np.ldexp(j.grad, -e[..., None]), 1) for j in (M.A_jet, M.B_jet))
    HA, HB = (index_first(np.ldexp(j.hess, -e[..., None, None]), 2) for j in (M.A_jet, M.B_jet))
    cf = {name: np.ldexp(c, e) for name, c in zip(COMPONENT_INDEX, closed_form(A, B, dA, dB, HA, HB))}
    require_finite(M, "closed-form components", *cf.values())
    return cf


def closed_form(A, B, dA, dB, HA, HB) -> tuple:
    """The six reference components R1212, R1313, R2323, R1213, R1223, R1323, verbatim.

    A, B are the field values, dA, dB their gradients (dA[i] = d_i A) and
    HA, HB their Hessians (HA[i][j] = d_i d_j A), indices 0-based. Only
    ``+ - * / **`` appear, so floats, arrays or sympy symbols evaluate them.
    D = (A - B)(A + 2B).
    """
    A1, A2, A3 = dA[0], dA[1], dA[2]
    B1, B2, B3 = dB[0], dB[1], dB[2]
    A11, A22, A33 = HA[0][0], HA[1][1], HA[2][2]
    A12, A13, A23 = HA[0][1], HA[0][2], HA[1][2]
    B11, B22, B33 = HB[0][0], HB[1][1], HB[2][2]
    B12, B13, B23 = HB[0][1], HB[0][2], HB[1][2]
    B21, B31 = B12, B13
    D = (A - B) * (A + 2 * B)
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
    return R1212, R1313, R2323, R1213, R1223, R1323


def riemann_apply(R: CurvatureTensor, x, y, z, u):
    """Full contraction R(x, y, z, u) of the lowered tensor."""
    x, y, z, u = (np.asarray(v, dtype=float) for v in (x, y, z, u))
    return np.einsum("...ijkh,...i,...j,...k,...h->...", R.low, x, y, z, u)


def _rescaled(v):
    """v over a power of two, with max |v_i| in [0.5, 1) (a zero vector stays), and that exponent.

    The division is exact, so a quotient of forms of equal degree in v keeps its bits.
    """
    v = np.asarray(v, dtype=float)
    e = np.frexp(np.abs(v).max(axis=-1))[1]
    return np.ldexp(v, -e[..., None]), e


def _gram(g, x, y):
    """g(x,x), g(y,y) and g(x,y), x @ g formed once."""
    gxx, gxy = inners(g, x, (x, y))
    return gxx, inners(g, y, (y,))[0], gxy


def _plane_determinant(gxx, gyy, gxy, planes):
    """The Gram determinant gxx gyy - gxy^2 of a batch of planes, their sectional curvature's denominator.

    Raises DegeneratePlane at the first element where it is not above
    1e-12 gxx gyy, naming the vectors (x, y) that planes() returns: those
    the caller was given, before any rescaling.
    """
    den = gxx * gyy - gxy * gxy
    degenerate = ~(den > 1e-12 * gxx * gyy)
    if degenerate.any():
        i = first_point(degenerate)
        x, y = (tuple(np.broadcast_to(np.asarray(v, float), den.shape + (3,))[i].tolist()) for v in planes())
        raise DegeneratePlane(f"vectors {x} and {y} span no plane")
    return den


def sectional_curvature(R: CurvatureTensor, x, y):
    """R(x,y,x,y) / (g(x,x) g(y,y) - g(x,y)^2) for a non-degenerate plane, g = R.metric.g.

    x and y are one vector (3,) or a batch (..., 3) broadcasting against R's
    batch. Both, and g, are rescaled by powers of two first (_rescaled,
    R.metric.g_scaled), so neither the degeneracy test nor the quotient
    depends on their magnitudes.
    """
    xs, ys = _rescaled(x)[0], _rescaled(y)[0]
    den = _plane_determinant(*_gram(R.metric.g_scaled, xs, ys), lambda: (x, y))
    return np.ldexp(riemann_apply(R, xs, ys, xs, ys) / den, -2 * R.metric.e)


@np.errstate(over="ignore", under="ignore")
def gram_determinant(M: MetricAtPoint, x, y):
    """g(x,x) g(y,y) - g(x,y)^2; inf where it overflows and 0 where it underflows."""
    (xs, ex), (ys, ey) = _rescaled(x), _rescaled(y)
    gxx, gyy, gxy = _gram(M.g_scaled, xs, ys)
    return np.ldexp(gxx * gyy - gxy * gxy, 2 * (ex + ey + M.e))


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
    antisymmetries. tests/test_oracle.py derives both chains exactly for
    the q-invariant family A = a(s), B = b(s), s = x1 + x2 + x3, on which
    R_1223 does not vanish.)
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


@dataclass(frozen=True)
class EqualSectionalCheck:
    mu_u_qu: np.ndarray
    mu_qu_q2u: np.ndarray
    mu_q2u_u: np.ndarray

    @property
    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        return (abs(self.mu_u_qu - self.mu_qu_q2u), abs(self.mu_u_qu - self.mu_q2u_u))


@dataclass(frozen=True)
class SectionalRelations:
    """The three relations for vectors U, each with shape U.shape[:-1] + R's batch shape."""

    difference: RelationCheck
    combination: RelationCheck
    equal: EqualSectionalCheck


def _unit(M: MetricAtPoint, x):
    """x / sqrt(g(x, x)), formed from x and g over powers of two and scaled back.

    g's exponent is M.e rounded up to even, so the square root scales exactly:
    where g(x, x) is a normal float the result keeps the bits of the plain
    quotient, and where it under- or overflows the result is still the unit vector.
    """
    xs = _rescaled(x)[0]
    e = M.e + M.e % 2
    gs = np.ldexp(M.g, -e[..., None, None])
    return np.ldexp(xs / np.sqrt(inners(gs, xs, (xs,))[0])[..., None], -(e // 2)[..., None])


def sectional_relations(R: CurvatureTensor, U, tol=1e-9) -> SectionalRelations:
    """The sectional-curvature relations for each vector of U at each point of R's batch.

    U is one vector (3,) or V vectors (V, 3); element [v, *i] of a result is
    vector v at point i. With x the normalized orthogonal-basis generator, y
    the special-angle vector (angle(y, qy) = 2 pi / 3) and phi = angle(u, qu):

      difference:  mu(u,qu) - mu(x,qx) = (2 cos phi / (1 - cos phi)) R(x, qx, x, q^2 x)
      combination: mu(u,qu) = ((1+2cos phi) mu(x,qx) - 3 cos phi mu(y,qy)) / (1 - cos phi)
      equal:       mu(u,qu), mu(qu,q^2u), mu(q^2u,u), equal where R is q-invariant

    The relations hold where the curvature is q-invariant (check_q_invariance
    at tol) and refuse elsewhere; tol=math.inf computes them anyway. Each
    quantity is computed once, over all vectors and points. The refusals
    come in the order one point and one vector meet them:
    q-invariance, the q-basis test of the vectors (the first failing one is
    named), the orthogonal-basis generator and its plane, the angle routes,
    the plane {u, qu}, the special-angle vector and its plane, the planes
    {qu, q^2u} and {q^2u, u}.
    """
    M = R.metric
    identity = check_q_invariance(R, tol=tol)
    if not identity.passed.all():
        i = first_point(~identity.passed)
        raise IdentityRNotSatisfied(
            "curvature q-invariance fails at this point "
            f"(diagonal spread {identity.diagonal_residual[i]:.3e}, "
            f"cross spread {identity.cross_residual[i]:.3e})"
        )
    U = np.asarray(U, dtype=float)
    ok = np.asarray(induces_q_basis(U))
    if not ok.all():
        raise NotAQBasis(f"vector {tuple(U[first_point(~ok)].tolist())} does not induce a q-basis")
    u = U.reshape(U.shape[:-1] + (1,) * M.D.ndim + (3,))  # vectors before points
    g, e = M.g_scaled, M.e
    # q permutes and negates entries, so the q-image of a _rescaled vector is the
    # _rescaled q-image. One contraction R(P, QP, P, Q4) gives mu(x, qx) and
    # mu(y, qy) (rows 0 and 1, over powers of two) and R(x, qx, x, q^2x) (row 2)
    x = _unit(M, construct_orthogonal_vector(M.A, M.B))
    P = np.empty((3,) + x.shape)
    P[0], P[2] = _rescaled(x)[0], x
    den_x = _plane_determinant(*_gram(g, P[0], apply_q(P[0])), lambda: (x, apply_q(x)))
    cphi = q_basis_cosines(M, u)[0]
    # the other contraction, of the planes {S[k], S[k+1]} of u's orbit over a power of two
    S = _q_orbit(_rescaled(u)[0])
    Sg = S[..., None, :] @ g
    gss = (Sg @ S[..., :, None])[..., 0, 0]  # g(S[k], S[k])
    gst = (Sg[:3] @ S[1:, ..., :, None])[..., 0, 0]  # g(S[k], S[k+1])
    den = np.empty(gst.shape)
    den[0] = _plane_determinant(gss[0], gss[1], gst[0], lambda: tuple(_q_orbit(u)[:2]))
    y = construct_special_angle_vector(M.A, M.B)
    P[1] = _rescaled(y)[0]
    QP = apply_q(P)
    den_y = _plane_determinant(*_gram(g, P[1], QP[1]), lambda: (y, apply_q(y)))
    den[1:] = _plane_determinant(gss[1:3], gss[2:], gst[1:], lambda: (_q_orbit(u)[1:3], _q_orbit(u)[2:]))
    mu = np.ldexp(riemann_apply(R, S[:3], S[1:], S[:3], S[1:]) / den, -2 * e)
    Q4 = QP.copy()
    Q4[2] = apply_q(QP[2])
    r = riemann_apply(R, P, QP, P, Q4)
    mu_x, mu_y = np.ldexp(r[0] / den_x, -2 * e), np.ldexp(r[1] / den_y, -2 * e)
    return SectionalRelations(
        difference=RelationCheck(mu[0] - mu_x, (2.0 * cphi / (1.0 - cphi)) * r[2]),
        combination=RelationCheck(mu[0], ((1.0 + 2.0 * cphi) * mu_x - 3.0 * cphi * mu_y) / (1.0 - cphi)),
        equal=EqualSectionalCheck(mu[0], mu[1], mu[2]),
    )


def _q_orbit(v) -> np.ndarray:
    """v, qv, q^2 v and v again, stacked (4, ...): plane k of the orbit is {orbit[k], orbit[k + 1]}."""
    orbit = np.empty((4,) + v.shape)
    orbit[0] = orbit[3] = v
    orbit[1] = apply_q(v)
    orbit[2] = apply_q(orbit[1])
    return orbit


# The single relations, as views of sectional_relations.


def check_sectional_difference_formula(R: CurvatureTensor, u, tol=1e-9) -> RelationCheck:
    """mu(u,qu) - mu(x,qx) = (2 cos phi / (1 - cos phi)) R(x, qx, x, q^2 x); see sectional_relations."""
    return sectional_relations(R, u, tol).difference


def check_sectional_combination_formula(R: CurvatureTensor, u, tol=1e-9) -> RelationCheck:
    """mu(u,qu) = ((1+2cos phi) mu(x,qx) - 3 cos phi mu(y,qy)) / (1 - cos phi); see sectional_relations."""
    return sectional_relations(R, u, tol).combination


def check_equal_sectional_curvatures(R: CurvatureTensor, u, tol=1e-9) -> EqualSectionalCheck:
    """Sectional curvatures of the planes {u,qu}, {qu,q^2u}, {q^2u,u}; see sectional_relations."""
    return sectional_relations(R, u, tol).equal
