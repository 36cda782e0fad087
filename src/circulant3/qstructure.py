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
from .metric import MetricAtPoint, first_point, positive

Q_MATRIX = np.array([[0, -1, 0], [0, 0, -1], [-1, 0, 0]], dtype=int)
# q x = 0.0 - x[_CYCLE], a signed gather: exact, 0.0 - v maps a zero of either sign to +0.0 as the product
# by Q_MATRIX does, and an infinite entry stays in its own slot, where the product spreads NaN
_CYCLE = np.array([1, 2, 0])

Q_BASIS_EPS = 1e-10
ANGLE_ROUTE_TOL = 1e-10
_ROUTE_SIGNS = np.array([1.0, -1.0, 1.0])  # cos(x, qx), cos(x, q^2 x), cos(qx, q^2 x) against the closed form
_COSINES = np.array([1, 2, 5])  # their numerators, G[0, 1], G[0, 2] and G[1, 2] of the q-orbit's Gram matrix flattened
# the factors of the terms of a and b: x_i x_i for each i, then x1 x2, x1 x3, x2 x3
_LEFT, _RIGHT = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])


def apply_q(x) -> np.ndarray:
    """Apply q: (x1, x2, x3) -> (-x2, -x3, -x1), to one vector (3,) or a batch (..., 3)."""
    return np.subtract(0.0, np.asarray(x, dtype=float).take(_CYCLE, axis=-1))


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
    flat = x.reshape(-1, 3)
    out = []  # cubic, bound, cubic, bound, ...
    for v, (x1, x2, x3) in zip(flat, flat.tolist()):
        try:
            out += (
                3.0 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3),
                Q_BASIS_EPS * max(1.0, math.sqrt(v.dot(v)) ** 3),  # the bits of np.linalg.norm(v)
            )
        except OverflowError:
            raise NotAQBasis(
                f"vector {(x1, x2, x3)} is too large for the q-basis test: its cubes overflow"
            ) from None
    if x.ndim == 1:
        return tuple(out)
    values = np.array(out).reshape(x.shape[:-1] + (2,))
    return values[..., 0], values[..., 1]


def induces_q_basis(x):
    """Where {x, qx, q^2 x} spans the tangent space (cubic criterion); one vector or a batch."""
    cubic, bound = q_basis_test(x)
    return abs(cubic) > bound


def require_q_basis(x) -> np.ndarray:
    """x as a float array, one vector (3,) or a batch (..., 3); raises NotAQBasis for the first
    vector that does not induce a q-basis."""
    x = np.asarray(x, dtype=float)
    ok = np.asarray(induces_q_basis(x))
    if not ok.all():
        raise NotAQBasis(f"vector {tuple(x[first_point(~ok)].tolist())} does not induce a q-basis")
    return x


def vector_invariants(x):
    """The quadratic invariants (a, b) of one vector (3,) or of each vector of a batch (..., 3)."""
    x = np.asarray(x, dtype=float)
    terms = x.take(_LEFT, axis=-1)
    terms *= x.take(_RIGHT, axis=-1)
    # each sum in one reduction over three terms, which numpy adds left to right
    sums = np.add.reduce(terms.reshape(x.shape[:-1] + (2, 3)), axis=-1)
    return sums[..., 0][()], sums[..., 1][()]  # floats for one vector


def cos_angle_closed_form(A, B, x):
    """cos(angle(x, qx)) from the invariants a, b: -(Ba + (A+B)b)/(Aa + 2Bb)."""
    a, b = vector_invariants(x)
    return -(B * a + (A + B) * b) / (A * a + 2 * B * b)


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


@np.errstate(all="ignore")  # inf or NaN where a product over a large unscaled g overflows, as metric.inners
def q_orbit_gram(g, x) -> tuple:
    """S = (x, qx, q^2 x) stacked (3, ...), plane k being {S[k], S[k+1 mod 3]}, and its Gram matrix over g,
    G[k, l] = g(S[k], S[l]) (3, 3, ...), in one product: each entry formed as (S[k] g) S[l], the bits of
    metric.inners.

    x's batch must broadcast against g's behind S's leading axis (a single vector
    meeting a batch of metrics is broadcast to it first).
    """
    S = np.empty((3,) + x.shape)
    S[0] = x
    for k in (0, 1):  # apply_q's gather, written in place
        np.subtract(0.0, S[k].take(_CYCLE, axis=-1), out=S[k + 1])
    Sg = S[..., None, :] @ g
    return S, (Sg[:, None] @ S[None, ..., :, None])[..., 0, 0]


def q_orbit_cosines(M: MetricAtPoint, x, G) -> np.ndarray:
    """cos(x, qx), cos(x, q^2 x), cos(qx, q^2 x), stacked (3, ...), from G, the caller's q_orbit_gram of x
    over g / 2^e, in one take and one division.

    The cosines, of degree 0 in g and in x, keep their bits over g / 2^e and
    over x divided by any power of two, and are checked against the closed form.
    """
    cosines = G.reshape((9,) + G.shape[2:]).take(_COSINES, axis=0) / G[0, 0]
    e = -M.e
    require_angle_routes_agree(cosines, np.ldexp(M.A, e), np.ldexp(M.B, e), x)
    return cosines


def require_angle_routes_agree(cosines, A, B, x) -> None:
    """Raise AngleRoutesDisagree for the first element where the inner-product cosines
    (x, qx), (x, q^2 x), (qx, q^2 x), stacked (3, ...), part from the closed form in A, B and x
    beyond ANGLE_ROUTE_TOL.
    """
    closed = cos_angle_closed_form(A, B, x)
    routes = np.asarray(cosines)
    signed = _ROUTE_SIGNS.reshape((3,) + (1,) * (routes.ndim - 1)) * closed  # closed, -closed, closed
    off = abs(routes - signed) > ANGLE_ROUTE_TOL
    if off.any():
        i = first_point(off)  # the first cosine that disagrees, at its first element
        raise AngleRoutesDisagree(
            f"angle routes disagree beyond {ANGLE_ROUTE_TOL}: inner-product "
            f"{float(routes[i])!r} vs closed form {float(signed[i])!r}"
        )


def q_basis_angles(M: MetricAtPoint, x) -> AngleReport:
    """The invariants of x and its q_orbit_cosines at each point of M's batch.

    x is one vector (3,) or one per point (..., 3). Raises NotAQBasis for the
    first vector that does not generate a basis.
    """
    x = require_q_basis(x)
    batch = np.broadcast_to(x, np.broadcast_shapes(x.shape, M.A.shape + (3,)))
    return AngleReport(*vector_invariants(x), *q_orbit_cosines(M, batch, q_orbit_gram(M.g_scaled, batch)[1]))


def _require_positive(A, B):
    """A and B over the power of two that brings A into [0.5, 1), and its exponent e.

    Raises PositivityViolation for the first point where A > B > 0 fails; the
    constructions see only A and B, so the error's point is NaN.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    ok = positive(A, B)
    if not ok.all():
        i = first_point(~ok)
        raise PositivityViolation(A[i], B[i], (float("nan"),) * 3)
    As, e = np.frexp(A)  # As = A / 2^e exactly
    return As, np.ldexp(B, -e), e


def construct_orthogonal_vector(A, B) -> np.ndarray:
    """A vector whose q-basis is g-orthogonal: construct_basis_vectors(A, B)[0]."""
    return construct_basis_vectors(A, B)[0]


def construct_basis_vectors(A, B) -> tuple[np.ndarray, np.ndarray]:
    """A vector x whose q-basis is g-orthogonal, and a vector y with angle(y, qy) = 2*pi/3, i.e.
    cos = -1/2, at each point of a batch: both from one _require_positive.

    A and B are numbers or arrays over a batch; each vector is (..., 3).
    x = (0, -(A+B)+sqrt((A-B)(A+3B)), 2B); its middle entry is formed from A
    and B over a power of two that brings A into [0.5, 1) (_require_positive),
    then scaled back: exact, and no product overflows.

    Seeks y = (1, 0, t); the cosine condition reduces to
    (A - 2B) t^2 - 2A t + (A - 2B) = 0 with discriminant 16 B (A - B) > 0.
    For A = 2B the equation degenerates and (1, 0, 0) already works; else y
    takes the root t = (A + 2 sqrt(B (A - B))) / (A - 2B). That root always
    induces a q-basis, whose cubic criterion for y is |1 + t^3| > bound: for
    A > 2B, t > 0; for B < A < 2B,
    t + 1 = 2 sqrt(A - B) (sqrt(A - B) + sqrt(B)) / (A - 2B) < 0, and
    |t + 1| stays above 2e-8 even where A is the double next above B, so
    |1 + t^3| stays far above the bound.
    The root and the test of A = 2B are formed from A and B over the same
    power of two as x: the root keeps its bits, no product underflows, and
    the test is relative to the magnitude of A. A - B and A - 2B are each
    formed once, and the root is divided only where A is not 2B, so no
    division by 0 is met.
    """
    As, Bs, e = _require_positive(A, B)
    nu, skew = As - Bs, As - 2 * Bs
    x = np.zeros(As.shape + (3,))
    np.ldexp(np.sqrt(nu * (As + 3 * Bs)) - (As + Bs), e, out=x[..., 1])
    np.multiply(2.0, B, out=x[..., 2])
    y = np.zeros(skew.shape + (3,))
    y[..., 0] = 1.0
    # the root t, where A is not 2B; (1, 0, 0) where it is
    np.divide(As + 2.0 * np.sqrt(Bs * nu), skew, out=y[..., 2], where=abs(skew) >= 1e-12)
    return x, y
