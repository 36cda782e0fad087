"""The circulant metric g built from two scalar fields A and B.

At every point the metric matrix has A on the diagonal and B off the
diagonal. Admissibility requires A > B > 0, which is strictly stronger
than positive definiteness. The scalar D = (A - B)(A + 2B) shows up as
the denominator of the closed-form inverse (diagonal (A+B)/D,
off-diagonal -B/D) and of the closed-form curvature components.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import DomainViolation, EvalDomainError, PositivityViolation
from .expressions import ScalarFieldExpr, as_point, eval_jet, eval_value, parse
from .jets import Jet2

_EYE = np.eye(3, dtype=bool)


@dataclass(frozen=True)
class MetricFunctions:
    """The fields A, B plus chart constraints (each required > 0)."""

    A: ScalarFieldExpr
    B: ScalarFieldExpr
    domain_constraints: tuple[ScalarFieldExpr, ...] = ()

    @classmethod
    def from_sources(cls, A: str, B: str, domain_constraints=()) -> "MetricFunctions":
        return cls(parse(A), parse(B), tuple(parse(c) for c in domain_constraints))


def first_point(mask) -> tuple[int, ...]:
    """The batch index of the first point (in C order) where mask holds; () for one point."""
    return tuple(np.argwhere(mask)[0])


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric data over a batch of points: jets of A and B, g, its inverse, D, and e.

    The batch shape is that of the jets' values: ``()`` for one point,
    ``(N,)`` for N points; g and g_inv append ``(3, 3)``. e is the exponent
    with max(|A|, |B|) / 2^e = max |g_ij| / 2^e in [0.5, 1) over which g_inv
    is formed; the kernels that scale g or the jets by a power of two read it.
    """

    A_jet: Jet2
    B_jet: Jet2
    g: np.ndarray
    g_inv: np.ndarray
    D: np.ndarray
    e: np.ndarray

    @property
    def A(self) -> np.ndarray:
        """A at the points, an array of the batch shape (0-d for one point)."""
        return self.A_jet.value

    @property
    def B(self) -> np.ndarray:
        """B at the points, an array of the batch shape (0-d for one point)."""
        return self.B_jet.value

    @property
    def g_scaled(self) -> np.ndarray:
        """g / 2^e, exact; inner products of vectors of moderate size over it do not overflow."""
        return np.ldexp(self.g, -self.e[..., None, None])

    def __getitem__(self, index) -> "MetricAtPoint":
        """The metric at part of the batch, e.g. one point."""
        return MetricAtPoint(
            self.A_jet[index], self.B_jet[index], self.g[index], self.g_inv[index], self.D[index], self.e[index]
        )


class PositivityReport(NamedTuple):
    positive_definite: bool
    minors: tuple[float, float, float]


def _square(v: float) -> float:
    """v ** 2 by float pow, and +inf where that overflows."""
    try:
        return v**2
    except OverflowError:
        return math.inf


@np.errstate(all="ignore")  # float arithmetic on one point does not warn either
def check_positive_definite(A, B) -> PositivityReport:
    """Leading principal minors of the circulant matrix and their positivity.

    The minors are A, (A-B)(A+B) and (A-B)^2 (A+2B); g is positive
    definite iff all three are positive. Note A > B > 0 is stricter.
    Element by element over arrays, with float pow for the square; a square
    that overflows is +inf, so the last minor takes the sign of A + 2B. The
    signs are judged from A and B over a power of two that brings
    max(|A|, |B|) into [0.5, 1), where no minor under- or overflows; the
    minors reported are those of A and B themselves.
    """
    m1 = A
    m2 = (A - B) * (A + B)
    m3 = jets.elementwise(_square, A - B) * (A + 2 * B)
    e = np.frexp(np.maximum(abs(A), abs(B)))[1]
    a, b = np.ldexp(A, -e), np.ldexp(B, -e)
    positive_definite = (a > 0.0) & ((a - b) * (a + b) > 0.0) & ((a - b) * (a - b) * (a + 2 * b) > 0.0)
    return PositivityReport(positive_definite, (m1, m2, m3))


# -- the admissibility rule ---------------------------------------------------
# A point is admissible where A, B and the chart constraints evaluate, every
# constraint is > 0 and A > B > 0; NaN fails the tests. admissibility alone
# classifies points, one or a batch. metric_at raises (or warns) at the points
# it rejects through _point_rule, the sampler drops them, and validate reports
# them from admissibility's values, refusing through metric_at where they do not evaluate.


def inside_chart(value):
    """Where a chart constraint's value satisfies the rule (> 0)."""
    return value > 0.0


def positive(A, B):
    """Where the standing assumption A > B > 0 holds."""
    return (A > B) & (B > 0.0)


def admissibility(m: MetricFunctions, p):
    """Classify p, one point (3,) or a batch (N, 3), by the admissibility rule.

    Returns the admissible mask, the jets of A and B, and the constraints'
    values as eval_value gives them, with p's batch shape. A batch whose
    evaluation fails is split in halves until each failure sits at one point,
    which is inadmissible and has NaN jets and values (jets are otherwise
    finite); evaluation works element by element, so every other point keeps its bits.
    """
    pt = as_point(p)
    try:
        A_jet, B_jet = eval_jet(m.A, pt), eval_jet(m.B, pt)
        values = tuple(eval_value(c, pt) for c in m.domain_constraints)
        ok = positive(A_jet.value, B_jet.value)
        for value in values:
            ok = ok & inside_chart(value)
    except EvalDomainError:
        if pt.size == 3:  # one point, or a batch of one
            nan = Jet2(*(np.full(pt.shape[:-1] + tail, np.nan) for tail in ((), (3,), (3, 3))))
            return np.zeros(pt.shape[:-1], dtype=bool), nan, nan, (nan.value,) * len(m.domain_constraints)
        ok, A_jets, B_jets, values = zip(*(admissibility(m, half) for half in np.array_split(pt, 2)))
        return (np.concatenate(ok), jets.concatenate(A_jets), jets.concatenate(B_jets),
                tuple(map(np.concatenate, zip(*values))))
    return ok, A_jet, B_jet, values


def _point_rule(m: MetricFunctions, p: np.ndarray, allow_weak: bool) -> None:
    """The definition of a refusal: raise what the one point p (3,) violates first.

    Tests the chart constraints in order, evaluates A and B, then tests
    A > B > 0; with allow_weak, a point where only A > B > 0 fails but g is
    still positive definite warns instead. Returns at an admissible point.
    """
    for c in m.domain_constraints:
        val = eval_value(c, p)
        if not inside_chart(val):
            raise DomainViolation(c.source or str(c), val, p)
    A, B = (float(eval_jet(f, p).value) for f in (m.A, m.B))
    if not positive(A, B):
        if allow_weak and check_positive_definite(A, B).positive_definite:
            warnings.warn(
                f"A > B > 0 fails at {tuple(p.tolist())} (A={A!r}, B={B!r}) but g is "
                "still positive definite; continuing",
                stacklevel=3,  # metric_at's caller
            )
        else:
            raise PositivityViolation(A, B, p)


@np.errstate(all="ignore")
def metric_from_jets(A_jet: Jet2, B_jet: Jet2) -> MetricAtPoint:
    """Assemble g, its closed-form inverse and D from the jets of A and B.

    The inverse is that of g / 2^e, with max(|A|, |B|) / 2^e in [0.5, 1),
    scaled back by 2^-e. The scaling is exact, so where D is a normal float
    g_inv keeps the bits of the plain closed form, and a metric whose D
    underflows or overflows still gets its inverse. D is the unscaled product;
    the metric keeps e.
    """
    A, B = A_jet.value, B_jet.value
    D = (A - B) * (A + 2 * B)
    g = np.where(_EYE, A[..., None, None], B[..., None, None])
    e = np.frexp(np.maximum(abs(A), abs(B)))[1]
    a, b = np.ldexp(A, -e), np.ldexp(B, -e)
    d = (a - b) * (a + 2 * b)
    g_inv = np.where(_EYE, np.ldexp((a + b) / d, -e)[..., None, None], np.ldexp(-b / d, -e)[..., None, None])
    return MetricAtPoint(A_jet, B_jet, g, g_inv, D, e)


def metric_at(m: MetricFunctions, p, allow_weak: bool = False) -> MetricAtPoint:
    """Evaluate the metric at p, shape (3,) or (N, 3), enforcing A > B > 0 and the chart constraints.

    With ``allow_weak=True`` a point where A > B > 0 fails but g is still
    positive definite is admitted with a warning instead of an error. A
    batch raises for its first point that fails, with the exception a
    call at that point alone raises.
    """
    ok, A_jet, B_jet, _ = admissibility(m, p)
    if not ok.all():
        for q in as_point(p)[~ok]:  # a 0-d mask indexes one point as a batch of one
            _point_rule(m, q, allow_weak)
    return metric_from_jets(A_jet, B_jet)


def require_finite(M: MetricAtPoint, what: str, *arrays) -> None:
    """Raise EvalDomainError, naming A and B at the first point of M's batch where an array is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        finite = [np.isfinite(a).reshape(M.D.shape + (-1,)).all(axis=-1) for a in arrays]
        i = first_point(~np.all(finite, axis=0))
        raise EvalDomainError(f"{what} are not finite where A={float(M.A[i])!r}, B={float(M.B[i])!r}")


def inner(M: MetricAtPoint, x, y):
    """g(x, y) at each point of M's batch, with M's batch shape.

    x and y are one vector (3,) or one per point (..., 3). Each point's
    value is the matrix product x @ g @ y, bit for bit as at that point alone.
    """
    return inners(M.g, x, (y,))[0]


@np.errstate(all="ignore")
def inners(g: np.ndarray, x, ys) -> list:
    """[x @ g @ y for y in ys] over a batch of matrices g (..., 3, 3), computing x @ g once."""
    xg = np.asarray(x, dtype=float)[..., None, :] @ g
    return [(xg @ np.asarray(y, dtype=float)[..., :, None])[..., 0, 0] for y in ys]
