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

from . import jets
from .errors import AngleRoutesDisagree, NotAQBasis, PositivityViolation
from .metric import MetricAtPoint, first_point, inner, inners, positive

Q_MATRIX = np.array([[0, -1, 0], [0, 0, -1], [-1, 0, 0]], dtype=int)

Q_BASIS_EPS = 1e-10
ANGLE_ROUTE_TOL = 1e-10


def apply_q(x) -> np.ndarray:
    """Apply q: (x1, x2, x3) -> (-x2, -x3, -x1), to one vector (3,) or a batch (..., 3)."""
    x = np.asarray(x, dtype=float)
    return (Q_MATRIX @ x[..., None])[..., 0]


@np.errstate(all="ignore")  # NaN where the inner products overflow, as inners computes them
def isometry_residual(M: MetricAtPoint, x, y) -> float:
    """|g(qx, qy) - g(x, y)|; zero up to rounding for every circulant g."""
    return abs(inner(M, apply_q(x), apply_q(y)) - inner(M, x, y))


def q_basis_test(x):
    """(cubic, bound): x induces a q-basis iff |cubic| > bound.

    cubic is 3 x1 x2 x3 - (x1^3 + x2^3 + x3^3), whose vanishing kills the
    q-basis, and bound is Q_BASIS_EPS * max(1, |x|^3). x is one vector (3,),
    giving two floats, or a batch (..., 3), giving two arrays of its batch
    shape. The test walks the vectors one at a time in float arithmetic, as
    jets.elementwise does: numpy's power differs from float pow in the last
    bit. Raises NotAQBasis for the first vector where a cube overflows.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for v in x.reshape(-1, 3):
        x1, x2, x3 = v.tolist()
        try:
            out.append((
                3.0 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3),
                Q_BASIS_EPS * max(1.0, math.sqrt(v.dot(v)) ** 3),  # the bits of np.linalg.norm(v)
            ))
        except OverflowError:
            raise NotAQBasis(
                f"vector {tuple(v.tolist())} is too large for the q-basis test: its cubes overflow"
            ) from None
    if x.ndim == 1:
        return out[0]
    return tuple(np.moveaxis(np.array(out).reshape(x.shape[:-1] + (2,)), -1, 0))


def induces_q_basis(x):
    """Where {x, qx, q^2 x} spans the tangent space (cubic criterion); one vector or a batch."""
    cubic, bound = q_basis_test(x)
    return abs(cubic) > bound


def vector_invariants(x):
    """The quadratic invariants (a, b) of one vector (3,) or of each vector of a batch (..., 3)."""
    x1, x2, x3 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    a = x1 * x1 + x2 * x2 + x3 * x3
    b = x1 * x2 + x1 * x3 + x2 * x3
    return a, b


def cos_angle_closed_form(A, B, x):
    """cos(angle(x, qx)) from the invariants a, b: -(Ba + (A+B)b)/(Aa + 2Bb)."""
    a, b = vector_invariants(x)
    return -(B * a + (A + B) * b) / (A * a + 2 * B * b)


def orthogonality_defect(M: MetricAtPoint, x) -> float:
    """B a + (A+B) b; vanishes iff {x, qx, q^2 x} is g-orthogonal."""
    a, b = vector_invariants(x)
    return M.B * a + (M.A + M.B) * b


def _clamped_acos(c):
    """math.acos of c clipped to [-1, 1], element by element over a batch."""
    return jets.elementwise(lambda v: math.acos(min(1.0, max(-1.0, v))), c)


@dataclass(frozen=True)
class AngleReport:
    """Angles inside the q-basis generated by x, with the broadcast shape of x's and the metric's batch."""

    a: np.ndarray
    b: np.ndarray
    cos_phi_x_qx: np.ndarray
    cos_phi_x_q2x: np.ndarray
    cos_theta_qx_q2x: np.ndarray

    @property
    def angles(self) -> tuple:
        """Radians: (x,qx), (x,q^2x), (qx,q^2x)."""
        return tuple(
            _clamped_acos(c) for c in (self.cos_phi_x_qx, self.cos_phi_x_q2x, self.cos_theta_qx_q2x)
        )


def q_basis_cosines(M: MetricAtPoint, x) -> tuple:
    """cos(x, qx), cos(x, q^2 x), cos(qx, q^2 x) at each point of M's batch, computed two ways.

    x is one vector (3,) or a batch (..., 3) broadcasting against M's batch;
    it must generate a q-basis. The inner-product route is the definition; the
    closed form in (a, b) must agree with it to ANGLE_ROUTE_TOL, or the call
    raises AngleRoutesDisagree for the first element where they disagree.
    Both routes run on g / 2^e (e = M.e): the cosines are of degree 0 in g,
    so this is exact, and no inner product of a large metric overflows.
    """
    x = np.asarray(x, dtype=float)
    qx = apply_q(x)
    q2x = apply_q(qx)
    g = M.g_scaled
    gxx, g_x_qx, g_x_q2x = inners(g, x, (x, qx, q2x))
    cosines = (g_x_qx / gxx, g_x_q2x / gxx, inners(g, qx, (q2x,))[0] / gxx)
    closed = cos_angle_closed_form(np.ldexp(M.A, -M.e), np.ldexp(M.B, -M.e), x)
    for route_cos, sign in zip(cosines, (1.0, -1.0, 1.0)):
        off = abs(route_cos - sign * closed) > ANGLE_ROUTE_TOL
        if off.any():
            i = first_point(off)
            raise AngleRoutesDisagree(
                f"angle routes disagree beyond {ANGLE_ROUTE_TOL}: inner-product "
                f"{float(np.asarray(route_cos)[i])!r} vs closed form {float(sign * np.asarray(closed)[i])!r}"
            )
    return cosines


def q_basis_angles(M: MetricAtPoint, x) -> AngleReport:
    """The invariants of x and its q_basis_cosines at each point of M's batch.

    x is one vector (3,) or one per point (..., 3). Raises NotAQBasis for the
    first vector that does not generate a basis.
    """
    x = np.asarray(x, dtype=float)
    ok = np.asarray(induces_q_basis(x))
    if not ok.all():
        v = tuple(x[first_point(~ok)].tolist())
        raise NotAQBasis(f"vector {v} does not induce a q-basis (cubic criterion)")
    return AngleReport(*vector_invariants(x), *q_basis_cosines(M, x))


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

    A and B are numbers or arrays over a batch; the result is (..., 3). The
    middle entry is formed from A and B over a power of two that brings A
    into [0.5, 1), then scaled back: exact, and no product overflows.
    """
    A, B = _require_positive(A, B)
    e = np.frexp(A)[1]
    As, Bs = np.ldexp(A, -e), np.ldexp(B, -e)
    x2 = np.ldexp(-(As + Bs) + np.sqrt((As - Bs) * (As + 3 * Bs)), e)
    return np.stack([np.zeros_like(A), x2, 2.0 * B], axis=-1)


def construct_special_angle_vector(A, B) -> np.ndarray:
    """A vector y with angle(y, qy) = 2*pi/3, i.e. cos = -1/2, at each point of a batch.

    Seeks y = (1, 0, t); the cosine condition reduces to
    (A - 2B) t^2 - 2A t + (A - 2B) = 0 with discriminant 16 B (A - B) > 0.
    For A = 2B the equation degenerates and (1, 0, 0) already works; else y
    takes the root t = (A + 2 sqrt(B (A - B))) / (A - 2B). That root always
    induces a q-basis, whose cubic criterion for y is |1 + t^3| > bound: for
    A > 2B, t > 0; for B < A < 2B,
    t + 1 = 2 sqrt(A - B) (sqrt(A - B) + sqrt(B)) / (A - 2B) < 0, and
    |t + 1| stays above 2e-8 even where A is the double next above B, so
    |1 + t^3| stays far above the bound.
    The root and the test of A = 2B are formed from A and B over the power of
    two of construct_orthogonal_vector: the root keeps its bits, no product
    underflows, and the test is relative to the magnitude of A.
    """
    A, B = _require_positive(A, B)
    e = np.frexp(A)[1]
    As, Bs = np.ldexp(A, -e), np.ldexp(B, -e)
    with np.errstate(all="ignore"):  # points with A = 2B take no root
        t = (As + 2.0 * np.sqrt(Bs * (As - Bs))) / (As - 2 * Bs)
    y = np.zeros(t.shape + (3,))
    y[..., 0] = 1.0
    y[..., 2] = np.where(abs(As - 2 * Bs) < 1e-12, 0.0, t)  # (1, 0, 0) where A = 2B
    return y
