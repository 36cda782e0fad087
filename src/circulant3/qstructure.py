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

from .errors import AngleRoutesDisagree, ConstructionFailed, NotAQBasis, PositivityViolation
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


def _each_vector(test, x):
    """test(v) for each vector v (3,) of x (..., 3), one vector at a time.

    A float for one vector, else an array of x's batch shape. The tests
    keep float arithmetic, as jets._apply does: numpy's power differs from
    float pow in the last bit. Raises NotAQBasis for the first vector where
    a cube overflows.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for v in x.reshape(-1, 3):
        try:
            out.append(test(v))
        except OverflowError:
            raise NotAQBasis(
                f"vector {tuple(v.tolist())} is too large for the q-basis test: its cubes overflow"
            ) from None
    return out[0] if x.ndim == 1 else np.array(out).reshape(x.shape[:-1])


def _defect(v):
    x1, x2, x3 = v.tolist()
    return 3.0 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3)


def _threshold(v):
    return Q_BASIS_EPS * max(1.0, math.sqrt(v.dot(v)) ** 3)  # the bits of np.linalg.norm(v)


def q_basis_defect(x):
    """The cubic 3 x1 x2 x3 - (x1^3 + x2^3 + x3^3), whose vanishing kills the q-basis.

    x is one vector (3,) or a batch (..., 3). Raises NotAQBasis when a cube overflows.
    """
    return _each_vector(_defect, x)


def q_basis_threshold(x):
    """Q_BASIS_EPS * max(1, |x|^3), the bound |q_basis_defect(x)| must exceed.

    Raises NotAQBasis when |x|^3 overflows.
    """
    return _each_vector(_threshold, x)


def induces_q_basis(x):
    """Where {x, qx, q^2 x} spans the tangent space (cubic criterion); one vector or a batch."""
    return _each_vector(lambda v: abs(_defect(v)) > _threshold(v), x)


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
    must agree with it to ANGLE_ROUTE_TOL, or the call raises
    AngleRoutesDisagree for the first point where they disagree. Raises
    NotAQBasis when x does not generate a basis.
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
            raise AngleRoutesDisagree(
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
        t = (A + np.multiply.outer((1.0, -1.0), root)) / (A - 2 * B)  # both roots; A + -root is A - root
    y = np.zeros(t.shape + (3,))  # y[0] and y[1], the candidates of every point
    y[..., 0] = 1.0
    y[..., 2] = np.where(abs(A - 2 * B) < 1e-12, 0.0, t)  # (1, 0, 0) where A = 2B
    first, second = np.asarray(induces_q_basis(y))
    failed = ~(first | second)
    if failed.any():
        i = first_point(failed)
        raise ConstructionFailed(
            "no special-angle candidate passes the q-basis criterion "
            f"for A={float(A[i])}, B={float(B[i])}"
        )
    return np.where(first[..., None], y[0], y[1])
