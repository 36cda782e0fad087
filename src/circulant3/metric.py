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
from .expressions import ScalarFieldExpr, as_point, coordinate_jets, eval_jet, eval_value, parse
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
    """The metric over a batch of points: the jets of A and B, and the exponent e.

    The batch shape is that of A (the jets' values): ``()`` for one point,
    ``(N,)`` for N points. e is the exponent with max(|A|, |B|) / 2^e =
    max |g_ij| / 2^e in [0.5, 1); the kernels that scale g or the jets by a
    power of two read it. g, its inverse g_inv (both appending ``(3, 3)`` to
    the batch shape) and D = (A - B)(A + 2B) are formed from A, B and e where
    they are read, each time, so a caller that reads only the jets (the
    Christoffel and curvature kernels) never forms them.
    """

    A_jet: Jet2
    B_jet: Jet2
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
    def g(self) -> np.ndarray:
        """The metric matrices (..., 3, 3): A on the diagonal, B off it."""
        return np.where(_EYE, self.A[..., None, None], self.B[..., None, None])

    @property
    @np.errstate(all="ignore")
    def g_inv(self) -> np.ndarray:
        """The closed-form inverse of g (..., 3, 3): (A + B)/D on its diagonal and -B/D off it.

        Its entries are formed over g / 2^e and scaled back by 2^-e. The scaling
        is exact, so where D is a normal float they keep the bits of the plain
        closed form, and a metric whose D underflows or overflows still gets its
        inverse. validate reads it; the kernels of curvature.py do not.
        """
        a, b = np.ldexp(self.A, -self.e), np.ldexp(self.B, -self.e)
        d = (a - b) * (a + 2 * b)
        diagonal, off = np.ldexp((a + b) / d, -self.e), np.ldexp(-b / d, -self.e)
        return np.where(_EYE, diagonal[..., None, None], off[..., None, None])

    @property
    @np.errstate(all="ignore")
    def D(self) -> np.ndarray:
        """D = (A - B)(A + 2B), the unscaled product, with the batch shape."""
        A, B = self.A, self.B
        return (A - B) * (A + 2 * B)

    @property
    def eigenvalues_scaled(self) -> tuple:
        """(lam, nu) = (A + 2B, A - B) of g / 2^e, with the batch shape: g's eigenvalues on (1, 1, 1) and on the
        plane orthogonal to it. The scaling is exact, and no product of them with moderate numbers overflows."""
        a, b = np.ldexp(self.A, -self.e), np.ldexp(self.B, -self.e)
        return a + 2.0 * b, a - b

    def __getitem__(self, index) -> "MetricAtPoint":
        """The metric at part of the batch, e.g. one point."""
        return MetricAtPoint(self.A_jet[index], self.B_jet[index], self.e[index])


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
# them from admissibility's values, refusing through metric_at where A, B or a
# constraint does not evaluate (a constraint that is NaN does not evaluate).


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
        xs = coordinate_jets(pt)
        A_jet, B_jet = eval_jet(m.A, xs), eval_jet(m.B, xs)
        values = tuple(eval_value(c, pt) for c in m.domain_constraints)
        ok = positive(A_jet.value, B_jet.value)
        for value in values:
            ok = ok & inside_chart(value)
    except EvalDomainError:
        if pt.size == 3:  # one point, or a batch of one
            nan = Jet2(np.full((13,) + pt.shape[:-1], np.nan))
            return np.zeros(pt.shape[:-1], dtype=bool), nan, nan, (nan.value,) * len(m.domain_constraints)
        ok, A_jets, B_jets, values = zip(*(admissibility(m, half) for half in np.array_split(pt, 2)))
        return (np.concatenate(ok), jets.concatenate(A_jets), jets.concatenate(B_jets),
                tuple(map(np.concatenate, zip(*values))))
    return ok, A_jet, B_jet, values


def _point_rule(m: MetricFunctions, p: np.ndarray, allow_weak: bool) -> None:
    """The definition of a refusal: raise what the one point p (3,) violates first.

    Tests the chart constraints in order (a NaN value does not evaluate, and
    is refused as an evaluation error), evaluates A and B, then tests
    A > B > 0; with allow_weak, a point where only A > B > 0 fails but g is
    still positive definite warns instead. Returns at an admissible point.
    """
    for c in m.domain_constraints:
        val = eval_value(c, p)
        if math.isnan(val):
            raise EvalDomainError(f"domain constraint evaluates to nan at point {tuple(p.tolist())}", c.source)
        if not inside_chart(val):
            raise DomainViolation(c.source, val, p)
    xs = coordinate_jets(p)
    A, B = (float(eval_jet(f, xs).value) for f in (m.A, m.B))
    if not positive(A, B):
        if allow_weak and check_positive_definite(A, B).positive_definite:
            warnings.warn(
                f"A > B > 0 fails at {tuple(p.tolist())} (A={A!r}, B={B!r}) but g is "
                "still positive definite; continuing",
                stacklevel=3,  # metric_at's caller
            )
        else:
            raise PositivityViolation(A, B, p)


def metric_from_jets(A_jet: Jet2, B_jet: Jet2) -> MetricAtPoint:
    """The metric of the jets of A and B: the jets and the exponent e of max(|A|, |B|).

    Nothing else is formed here: g, g_inv and D are properties of the
    MetricAtPoint, formed where they are read (see there).
    """
    return MetricAtPoint(A_jet, B_jet, np.frexp(np.maximum(abs(A_jet.value), abs(B_jet.value)))[1])


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
        finite = [np.isfinite(a).reshape(M.A.shape + (-1,)).all(axis=-1) for a in arrays]
        i = first_point(~np.all(finite, axis=0))
        raise EvalDomainError(f"{what} are not finite where A={float(M.A[i])!r}, B={float(M.B[i])!r}")


@np.errstate(all="ignore")  # inf or NaN where a product over a large g overflows
def inner(M: MetricAtPoint, x, y):
    """g(x, y) at each point of M's batch, with M's batch shape.

    x and y are one vector (3,) or one per point (..., 3). Each point's
    value is the matrix product (x @ g) @ y, bit for bit as at that point alone.
    """
    xg = np.asarray(x, dtype=float)[..., None, :] @ M.g
    return (xg @ np.asarray(y, dtype=float)[..., :, None])[..., 0, 0]
