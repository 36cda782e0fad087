"""The circulant structure q with q^3 = -id and its basis geometry.

q acts on tangent vectors by (x1, x2, x3) -> (-x2, -x3, -x1); it is an
isometry of every circulant metric. A vector x generates the basis
{x, qx, q^2 x} ("q-basis") iff 3 x1 x2 x3 != x1^3 + x2^3 + x3^3. The
angles in such a basis depend on the invariants

    a = x1^2 + x2^2 + x3^2,   b = x1 x2 + x1 x3 + x2 x3

through cos(angle(x, qx)) = -(B a + (A+B) b) / (A a + 2 B b), with
cos(angle(qx, q^2 x)) equal to it and cos(angle(x, q^2 x)) its negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailed, NotAQBasis, PositivityViolation
from .metric import MetricAtPoint, inner

Q_MATRIX = np.array([[0, -1, 0], [0, 0, -1], [-1, 0, 0]], dtype=int)

Q_BASIS_EPS = 1e-10
ANGLE_ROUTE_TOL = 1e-10


def apply_q(x) -> np.ndarray:
    """Apply q: (x1, x2, x3) -> (-x2, -x3, -x1)."""
    x = np.asarray(x, dtype=float)
    return Q_MATRIX @ x


def isometry_residual(M: MetricAtPoint, x, y) -> float:
    """|g(qx, qy) - g(x, y)|; zero up to rounding for every circulant g."""
    return abs(inner(M, apply_q(x), apply_q(y)) - inner(M, x, y))


def _too_large(x) -> NotAQBasis:
    return NotAQBasis(f"vector {tuple(x.tolist())} is too large for the q-basis test: its cubes overflow")


def q_basis_defect(x) -> float:
    """The cubic 3 x1 x2 x3 - (x1^3 + x2^3 + x3^3), whose vanishing kills the q-basis.

    Raises NotAQBasis when a cube overflows.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x.tolist()
    try:
        return 3.0 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3)
    except OverflowError:
        raise _too_large(x) from None


def q_basis_threshold(x) -> float:
    """Q_BASIS_EPS * max(1, |x|^3), the bound |q_basis_defect(x)| must exceed.

    Raises NotAQBasis when |x|^3 overflows.
    """
    x = np.asarray(x, dtype=float)
    try:
        return Q_BASIS_EPS * max(1.0, float(np.linalg.norm(x)) ** 3)
    except OverflowError:
        raise _too_large(x) from None


def induces_q_basis(x) -> bool:
    """True iff {x, qx, q^2 x} spans the tangent space (cubic criterion)."""
    return abs(q_basis_defect(x)) > q_basis_threshold(x)


def vector_invariants(x) -> tuple[float, float]:
    """The quadratic invariants (a, b) of a vector."""
    x1, x2, x3 = (float(c) for c in np.asarray(x, dtype=float))
    a = x1 * x1 + x2 * x2 + x3 * x3
    b = x1 * x2 + x1 * x3 + x2 * x3
    return a, b


def cos_angle_closed_form(A: float, B: float, x) -> float:
    """cos(angle(x, qx)) from the invariants a, b: -(Ba + (A+B)b)/(Aa + 2Bb)."""
    a, b = vector_invariants(x)
    return -(B * a + (A + B) * b) / (A * a + 2 * B * b)


def orthogonality_defect(M: MetricAtPoint, x) -> float:
    """B a + (A+B) b; vanishes iff {x, qx, q^2 x} is g-orthogonal."""
    a, b = vector_invariants(x)
    return M.B * a + (M.A + M.B) * b


@dataclass(frozen=True)
class AngleReport:
    """Angles inside the q-basis generated by one vector."""

    a: float
    b: float
    cos_phi_x_qx: float
    cos_phi_x_q2x: float
    cos_theta_qx_q2x: float
    angles: tuple[float, float, float]  # radians: (x,qx), (x,q^2x), (qx,q^2x)


def _clamped_acos(c: float) -> float:
    return math.acos(min(1.0, max(-1.0, c)))


def q_basis_angles(M: MetricAtPoint, x) -> AngleReport:
    """Cosines and angles between x, qx and q^2 x, computed two ways.

    The inner-product route is the definition; the closed form in (a, b)
    must agree with it to ANGLE_ROUTE_TOL or the call fails loudly.
    Raises NotAQBasis when x does not generate a basis.
    """
    x = np.asarray(x, dtype=float)
    if not induces_q_basis(x):
        raise NotAQBasis(f"vector {tuple(x.tolist())} does not induce a q-basis (cubic criterion)")
    qx = apply_q(x)
    q2x = apply_q(qx)
    gxx = inner(M, x, x)
    c_x_qx = inner(M, x, qx) / gxx
    c_x_q2x = inner(M, x, q2x) / gxx
    c_qx_q2x = inner(M, qx, q2x) / gxx
    a, b = vector_invariants(x)
    closed = cos_angle_closed_form(M.A, M.B, x)
    for route_cos, sign in ((c_x_qx, 1.0), (c_x_q2x, -1.0), (c_qx_q2x, 1.0)):
        if abs(route_cos - sign * closed) > ANGLE_ROUTE_TOL:
            raise AssertionError(
                f"angle routes disagree beyond {ANGLE_ROUTE_TOL}: inner-product "
                f"{route_cos!r} vs closed form {sign * closed!r}"
            )
    return AngleReport(
        a=a,
        b=b,
        cos_phi_x_qx=c_x_qx,
        cos_phi_x_q2x=c_x_q2x,
        cos_theta_qx_q2x=c_qx_q2x,
        angles=(_clamped_acos(c_x_qx), _clamped_acos(c_x_q2x), _clamped_acos(c_qx_q2x)),
    )


def construct_orthogonal_vector(A: float, B: float) -> np.ndarray:
    """A vector whose q-basis is g-orthogonal: (0, -(A+B)+sqrt((A-B)(A+3B)), 2B)."""
    if not (A > B > 0.0):
        raise PositivityViolation(A, B, (float("nan"),) * 3)
    return np.array([0.0, -(A + B) + math.sqrt((A - B) * (A + 3 * B)), 2.0 * B])


def construct_special_angle_vector(A: float, B: float) -> np.ndarray:
    """A vector y with angle(y, qy) = 2*pi/3, i.e. cos = -1/2.

    Seeks y = (1, 0, t); the cosine condition reduces to
    (A - 2B) t^2 - 2A t + (A - 2B) = 0 with discriminant 16 B (A - B) > 0.
    For A = 2B the equation degenerates and (1, 0, 0) already works.
    """
    if not (A > B > 0.0):
        raise PositivityViolation(A, B, (float("nan"),) * 3)
    if abs(A - 2 * B) < 1e-12:
        return np.array([1.0, 0.0, 0.0])
    root = 2.0 * math.sqrt(B * (A - B))
    for t in ((A + root) / (A - 2 * B), (A - root) / (A - 2 * B)):
        y = np.array([1.0, 0.0, t])
        if induces_q_basis(y):
            return y
    raise ConstructionFailed(f"no special-angle candidate passes the q-basis criterion for A={A}, B={B}")
