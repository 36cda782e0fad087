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
from .metric import MetricAtPoint, first_point, inner, inners, positive

Q_MATRIX = np.array([[0, -1, 0], [0, 0, -1], [-1, 0, 0]], dtype=int)

Q_BASIS_EPS = 1e-10
ANGLE_ROUTE_TOL = 1e-10


def apply_q(x) -> np.ndarray:
    """Apply q: (x1, x2, x3) -> (-x2, -x3, -x1), to one vector (3,) or a batch (..., 3)."""
    x = np.asarray(x, dtype=float)
    return (Q_MATRIX @ x[..., None])[..., 0]


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
    x1, x2, x3 = np.asarray(x, dtype=float).tolist()
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


def _clamped_acos(c):
    """math.acos of c clipped to [-1, 1], element by element over a batch."""
    if np.ndim(c) == 0:
        return math.acos(min(1.0, max(-1.0, c)))
    return np.array([_clamped_acos(v) for v in c.flat]).reshape(c.shape)


@dataclass(frozen=True)
class AngleReport:
    """Angles inside the q-basis generated by one vector, with the metric's batch shape."""

    a: float
    b: float
    cos_phi_x_qx: np.ndarray
    cos_phi_x_q2x: np.ndarray
    cos_theta_qx_q2x: np.ndarray

    @property
    def angles(self) -> tuple:
        """Radians: (x,qx), (x,q^2x), (qx,q^2x)."""
        return tuple(
            _clamped_acos(c) for c in (self.cos_phi_x_qx, self.cos_phi_x_q2x, self.cos_theta_qx_q2x)
        )


def q_basis_angles(M: MetricAtPoint, x) -> AngleReport:
    """Cosines between x, qx and q^2 x at each point of M's batch, computed two ways.

    The inner-product route is the definition; the closed form in (a, b)
    must agree with it to ANGLE_ROUTE_TOL or the call fails loudly (for
    the first point where they disagree). Raises NotAQBasis when x does
    not generate a basis.
    """
    x = np.asarray(x, dtype=float)
    if not induces_q_basis(x):
        raise NotAQBasis(f"vector {tuple(x.tolist())} does not induce a q-basis (cubic criterion)")
    qx = apply_q(x)
    q2x = apply_q(qx)
    gxx, g_x_qx, g_x_q2x = inners(M, x, (x, qx, q2x))
    c_x_qx = g_x_qx / gxx
    c_x_q2x = g_x_q2x / gxx
    c_qx_q2x = inner(M, qx, q2x) / gxx
    a, b = vector_invariants(x)
    closed = cos_angle_closed_form(M.A, M.B, x)
    for route_cos, sign in ((c_x_qx, 1.0), (c_x_q2x, -1.0), (c_qx_q2x, 1.0)):
        off = abs(route_cos - sign * closed) > ANGLE_ROUTE_TOL
        if off.any():
            i = first_point(off)
            raise AssertionError(
                f"angle routes disagree beyond {ANGLE_ROUTE_TOL}: inner-product "
                f"{float(np.asarray(route_cos)[i])!r} vs closed form {float(sign * np.asarray(closed)[i])!r}"
            )
    return AngleReport(a=a, b=b, cos_phi_x_qx=c_x_qx, cos_phi_x_q2x=c_x_q2x, cos_theta_qx_q2x=c_qx_q2x)


def _require_positive(A, B):
    """A and B as arrays; raises PositivityViolation for the first point where A > B > 0 fails.

    The constructions see only A and B, so the error's point is NaN.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    bad = ~positive(A, B)
    if bad.any():
        i = first_point(bad)
        raise PositivityViolation(A[i], B[i], (float("nan"),) * 3)
    return A, B


def construct_orthogonal_vector(A, B) -> np.ndarray:
    """A vector whose q-basis is g-orthogonal: (0, -(A+B)+sqrt((A-B)(A+3B)), 2B).

    A and B are numbers or arrays over a batch; the result is (..., 3).
    """
    A, B = _require_positive(A, B)
    return np.stack([np.zeros_like(A), -(A + B) + np.sqrt((A - B) * (A + 3 * B)), 2.0 * B], axis=-1)


def construct_special_angle_vector(A, B) -> np.ndarray:
    """A vector y with angle(y, qy) = 2*pi/3, i.e. cos = -1/2, at each point of a batch.

    Seeks y = (1, 0, t); the cosine condition reduces to
    (A - 2B) t^2 - 2A t + (A - 2B) = 0 with discriminant 16 B (A - B) > 0.
    For A = 2B the equation degenerates and (1, 0, 0) already works.
    Of the two roots, each point takes the first that passes the q-basis test.
    """
    A, B = _require_positive(A, B)
    with np.errstate(all="ignore"):  # points with A = 2B take neither root
        root = 2.0 * np.sqrt(B * (A - B))
        roots = ((A + root) / (A - 2 * B), (A - root) / (A - 2 * B))
    y = np.zeros(A.shape + (3,))
    y[..., 0] = 1.0
    for i in np.ndindex(A.shape):
        if abs(A[i] - 2 * B[i]) < 1e-12:
            continue
        for t in roots:
            if induces_q_basis((1.0, 0.0, t[i])):
                y[i + (2,)] = t[i]
                break
        else:
            raise ConstructionFailed(
                "no special-angle candidate passes the q-basis criterion "
                f"for A={float(A[i])}, B={float(B[i])}"
            )
    return y
