"""The circulant structure q with q^3 = -id and the geometry of its orbits.

q acts on tangent vectors by (x1, x2, x3) -> (-x2, -x3, -x1); it is an
isometry of every circulant metric g = circ(A, B, B), whose eigenvalues are
lam = A + 2B on (1, 1, 1) and nu = A - B on the plane orthogonal to it. A
vector x has the part sigma / 3 (1, 1, 1) along (1, 1, 1), of squared length
sigma^2 / 3, and a rest of squared length 2 delta / 3, with the invariants

    sigma = x1 + x2 + x3,   delta = ((x1 - x2)^2 + (x2 - x3)^2 + (x3 - x1)^2) / 2,

which q maps to -sigma and delta. So every g-quantity of a q-orbit or a plane
is a ratio of sums of non-negative terms in lam, nu, sigma and delta:

    g(x, x)  = (lam sigma^2 + 2 nu delta) / 3,
    g(x, qx) = (nu delta - lam sigma^2) / 3 = -g(x, q^2 x) = g(qx, q^2 x),
    x1^3 + x2^3 + x3^3 - 3 x1 x2 x3 = sigma delta,
    g(x, x) g(y, y) - g(x, y)^2 = nu (nu sigma_w^2 + 2 lam delta_w) / 3,  w = x × y.

x generates the basis {x, qx, q^2 x} ("q-basis") iff sigma delta != 0; a caller
forms sigma and delta once per vector, for the test and the g-quantities alike.
invariants forms each correctly rounded, so both are the same numbers for v, -v
and v with its components permuted: a vector and its q-images get one g(x, x),
and the three planes of a q-orbit, whose bivectors are signed permutations of
one another, one determinant, bit for bit. Every quantity is formed over
g / 2^e (MetricAtPoint.eigenvalues_scaled) and vectors over powers of two
(rescaled), so no term under- or overflows; a caller that reports an unscaled
value scales it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import batch_first
from .errors import NotAQBasis, PositivityViolation
from .metric import MetricAtPoint, first_point, positive

Q_MATRIX = np.array([[0, -1, 0], [0, 0, -1], [-1, 0, 0]], dtype=int)
# q x = 0.0 - x[_CYCLE], a signed gather: exact, 0.0 - v maps a zero of either sign to +0.0 as the product
# by Q_MATRIX does, and an infinite entry stays in its own slot, where the product spreads NaN
_CYCLE = np.array([1, 2, 0])

Q_BASIS_EPS = 1e-10
# the factors of the terms of a and b: x_i x_i for each i, then x1 x2, x1 x3, x2 x3
_LEFT, _RIGHT = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_SPECIAL = np.array([1.0, -1.0, 0.0])  # the special-angle vector less its part along (1, 1, 1)


def apply_q(x) -> np.ndarray:
    """Apply q: (x1, x2, x3) -> (-x2, -x3, -x1), to one vector (3,) or a batch (..., 3)."""
    return np.subtract(0.0, np.asarray(x, dtype=float).take(_CYCLE, axis=-1))


def rescaled(v):
    """v over a power of two, with max |v_i| in [0.5, 1) (a zero vector stays), and that exponent.

    The division is exact, so a quotient of forms of equal degree in v keeps its bits.
    """
    v = np.asarray(v, dtype=float)
    e = np.frexp(np.abs(v).max(axis=-1))[1]
    return np.ldexp(v, -e[..., None]), e


def _two_sum(a, b):
    """a + b rounded, and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _sum3(v):
    """v[0] + v[1] + v[2] correctly rounded, element by element, for finite terms; v is an array (3, n, ...).

    Boldo and Melquiond's sum of three: two TwoSums leave the exact sum as
    hi + mid + lo, mid + lo is rounded to odd, then added to hi. Being
    correctly rounded, the result does not depend on the order of the terms.
    """
    hi, lo = _two_sum(v[1], v[2])
    hi, mid = _two_sum(v[0], hi)
    r, e = _two_sum(mid, lo)
    # round to odd: where r is inexact and its last bit even, take its neighbour toward the exact sum
    odd = (e != 0.0) & ((r.view(np.int64) & 1) == 0)
    if odd.any():
        with np.errstate(under="ignore"):  # the neighbour of a tiny r can be subnormal
            np.nextafter(r, np.copysign(np.inf, e), out=r, where=odd)
    return hi + r


def invariants(v):
    """(sigma, delta) of vectors stacked component first, v (3, ...), finite.

    sigma = v0 + v1 + v2 and delta = (d0^2 + d1^2 + d2^2) / 2 with
    d_P = v_P - v_{P+1}, each sum correctly rounded (_sum3). Permuting v's
    components permutes the d_P and negating v negates them, so sigma and
    delta are the same numbers for every signed permutation of v, sigma
    changing its sign with v's.
    """
    terms = np.empty((3, 2) + v.shape[1:])
    terms[:, 0] = v
    d = terms[:, 1]
    np.subtract(v, v.take(_CYCLE, axis=0), out=d)
    d *= d
    sigma, twice_delta = _sum3(terms)
    return sigma, 0.5 * twice_delta


def orbit_gram(lam, nu, sigma, delta):
    """g(x, x) = (lam sigma^2 + 2 nu delta) / 3 and g(x, qx) = (nu delta - lam sigma^2) / 3 from the
    invariants of x; g(x, q^2 x) is -g(x, qx) and g(qx, q^2 x) is g(x, qx)."""
    ls, nd = lam * (sigma * sigma), nu * delta
    return (ls + 2.0 * nd) / 3.0, (nd - ls) / 3.0


def plane_determinant(lam, nu, sigma, delta):
    """g(x, x) g(y, y) - g(x, y)^2 = nu (nu sigma^2 + 2 lam delta) / 3 from the invariants of w = x × y."""
    return nu * (nu * (sigma * sigma) + 2.0 * lam * delta) / 3.0


def _scaled_invariants(x):
    """sigma and delta of x (3,) or (..., 3) over a power of two, 2^k (rescaled), and k."""
    xs, k = rescaled(x)
    return (*invariants(batch_first(xs, xs.ndim - 1)), k)


def q_basis_from_invariants(sigma, delta, k=0):
    """(cubic, bound, induces) from the invariants of x / 2^k: cubic = 3 x1 x2 x3 - sum x_i^3 = -sigma delta and
    bound = Q_BASIS_EPS |x|^3, |x|^2 = (sigma^2 + 2 delta) / 3, scaled back by 2^3k; induces = |cubic| > bound."""
    cubic = -(sigma * delta)
    norm_sq = (sigma * sigma + 2.0 * delta) / 3.0
    bound = Q_BASIS_EPS * (norm_sq * np.sqrt(norm_sq))
    return np.ldexp(cubic, 3 * k)[()], np.ldexp(bound, 3 * k)[()], (abs(cubic) > bound)[()]


@np.errstate(all="ignore")  # inf where a product over a large g overflows, 0 where a small one underflows
def q_orbit_products(M: MetricAtPoint, x):
    """g(x, x), g(x, qx) of x (3,) or (..., 3) at each point of M's batch, scaled back by 2^(2k + e), and
    q_basis_test(x), all from one invariants call of x / 2^k."""
    sigma, delta, k = _scaled_invariants(x)
    gxx, gxqx = orbit_gram(*M.eigenvalues_scaled, sigma, delta)
    return np.ldexp(gxx, 2 * k + M.e), np.ldexp(gxqx, 2 * k + M.e), q_basis_from_invariants(sigma, delta, k)


@np.errstate(all="ignore")  # cubic and bound are inf where they overflow at x itself, 0 where they underflow
def q_basis_test(x):
    """(cubic, bound, induces) of x (3,) or each x of a batch (..., 3): q_basis_from_invariants over x / 2^k."""
    return q_basis_from_invariants(*_scaled_invariants(x))


def induces_q_basis(x):
    """Where {x, qx, q^2 x} spans the tangent space (q_basis_test); one vector or a batch."""
    return q_basis_test(x)[2]


def require_q_basis(x, induces) -> None:
    """Raise NotAQBasis for the first vector of x, an array (3,) or (..., 3), where induces is False."""
    if not np.all(induces):
        raise NotAQBasis(f"vector {tuple(x[first_point(~induces)].tolist())} does not induce a q-basis")


@np.errstate(all="ignore")  # a and b are inf where they overflow
def vector_invariants(x):
    """The quadratic invariants (a, b) of one vector (3,) or of each vector of a batch (..., 3):
    a = |x|^2 and b = x1 x2 + x1 x3 + x2 x3, which angles reports."""
    x = np.asarray(x, dtype=float)
    terms = x.take(_LEFT, axis=-1)
    terms *= x.take(_RIGHT, axis=-1)
    # each sum in one reduction over three terms, which numpy adds left to right
    sums = np.add.reduce(terms.reshape(x.shape[:-1] + (2, 3)), axis=-1)
    return sums[..., 0][()], sums[..., 1][()]  # floats for one vector


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


def q_basis_angles(M: MetricAtPoint, x) -> AngleReport:
    """The invariants a, b of x and the cosines of its q-basis at each point of M's batch.

    x is one vector (3,) or one per point (..., 3). One invariants call of x over
    a power of two gives the q-basis test (NotAQBasis names the first vector that
    generates no basis) and cos(x, qx) = g(x, qx) / g(x, x) from orbit_gram over
    g / 2^e, of degree 0 in both; cos(x, q^2 x) is -cos(x, qx), cos(qx, q^2 x) the same.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):  # a vector that is not finite induces no q-basis
        sigma, delta, _ = _scaled_invariants(x)
        require_q_basis(x, q_basis_from_invariants(sigma, delta)[2])
    gxx, gxqx = orbit_gram(*M.eigenvalues_scaled, sigma, delta)
    c = gxqx / gxx
    return AngleReport(*vector_invariants(x), c, -c, c)


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
    y = (1, -1, 0) + t (1, 1, 1) with t = sqrt(4 nu / (3 lam)): its invariants
    are sigma = 3t and delta = 3, so lam sigma^2 = 12 nu, g(y, qy) / g(y, y) =
    -9 nu / 18 nu, and its cubic sigma delta is not 0. t is of degree 0 in g.
    """
    As, Bs, e = _require_positive(A, B)
    nu, lam = As - Bs, As + 2.0 * Bs
    x = np.zeros(As.shape + (3,))
    np.ldexp(np.sqrt(nu * (As + 3 * Bs)) - (As + Bs), e, out=x[..., 1])
    np.multiply(2.0, B, out=x[..., 2])
    return x, np.sqrt(4.0 * nu / (3.0 * lam))[..., None] + _SPECIAL
