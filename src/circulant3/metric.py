"""The circulant metric g built from two scalar fields A and B.

At every point the metric matrix has A on the diagonal and B off the
diagonal. Admissibility requires A > B > 0, which is strictly stronger
than positive definiteness. The scalar D = (A - B)(A + 2B) shows up as
the denominator of the closed-form inverse (diagonal (A+B)/D,
off-diagonal -B/D) and of the closed-form curvature components.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import CirculantError, DomainViolation, PositivityViolation
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


def _unbox(v: np.ndarray):
    return v.item() if v.ndim == 0 else v


def first_point(mask) -> tuple[int, ...]:
    """The batch index of the first point (in C order) where mask holds; () for one point."""
    return tuple(np.argwhere(mask)[0])


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric data over a batch of points: jets of A and B, g, its inverse, and D.

    The batch shape is that of the jets' values: ``()`` for one point,
    ``(N,)`` for N points; g and g_inv append ``(3, 3)``.
    """

    A_jet: Jet2
    B_jet: Jet2
    g: np.ndarray
    g_inv: np.ndarray
    D: np.ndarray

    @property
    def A(self):
        """A at the points: a float for one point, an array for a batch."""
        return _unbox(self.A_jet.value)

    @property
    def B(self):
        """B at the points: a float for one point, an array for a batch."""
        return _unbox(self.B_jet.value)

    def __getitem__(self, index) -> "MetricAtPoint":
        """The metric at part of the batch, e.g. one point."""
        return MetricAtPoint(
            self.A_jet[index], self.B_jet[index], self.g[index], self.g_inv[index], self.D[index]
        )


class PositivityReport(NamedTuple):
    positive_definite: bool
    minors: tuple[float, float, float]


@np.errstate(all="ignore")  # float arithmetic on one point does not warn either
def check_positive_definite(A, B) -> PositivityReport:
    """Leading principal minors of the circulant matrix and their positivity.

    The minors are A, (A-B)(A+B) and (A-B)^2 (A+2B); g is positive
    definite iff all three are positive. Note A > B > 0 is stricter.
    Element by element over arrays, with float pow for the square.
    """
    m1 = A
    m2 = (A - B) * (A + B)
    m3 = jets.power(A - B, 2) * (A + 2 * B)
    return PositivityReport((m1 > 0.0) & (m2 > 0.0) & (m3 > 0.0), (m1, m2, m3))


# -- the admissibility rule ---------------------------------------------------
# A point is admissible where every chart constraint is > 0 and A > B > 0.
# Both tests work element by element over a batch, and NaN fails them.
# metric_at raises where they fail, the sampler rejects there, and the
# validate command reports them.


def inside_chart(value):
    """Where a chart constraint's value satisfies the rule (> 0)."""
    return value > 0.0


def positive(A, B):
    """Where the standing assumption A > B > 0 holds."""
    return (A > B) & (B > 0.0)


def admissibility(m: MetricFunctions, pts):
    """Classify (N, 3) points by the admissibility rule, as metric_at would.

    Returns the admissible mask and the jets of A and B at every point.
    Raises CirculantError when the evaluation fails at some point.
    """
    pts = as_point(pts)
    ok = np.ones(len(pts), dtype=bool)
    for c in m.domain_constraints:
        ok &= inside_chart(eval_value(c, pts))
    A_jet = eval_jet(m.A, pts)
    B_jet = eval_jet(m.B, pts)
    return ok & positive(A_jet.value, B_jet.value), A_jet, B_jet


@np.errstate(all="ignore")
def metric_from_jets(A_jet: Jet2, B_jet: Jet2) -> MetricAtPoint:
    """Assemble g, its closed-form inverse and D from the jets of A and B."""
    A, B = A_jet.value, B_jet.value
    D = (A - B) * (A + 2 * B)
    g = np.where(_EYE, A[..., None, None], B[..., None, None])
    g_inv = np.where(_EYE, ((A + B) / D)[..., None, None], (-B / D)[..., None, None])
    return MetricAtPoint(A_jet, B_jet, g, g_inv, D)


def metric_at(m: MetricFunctions, p, allow_weak: bool = False) -> MetricAtPoint:
    """Evaluate the metric at p, shape (3,) or (N, 3), enforcing A > B > 0 and the chart constraints.

    With ``allow_weak=True`` a point where A > B > 0 fails but g is still
    positive definite is admitted with a warning instead of an error. A
    batch raises for its first point that fails, with the exception a
    call at that point alone raises.
    """
    pt = as_point(p)
    if pt.ndim == 2:
        try:
            ok, A_jet, B_jet = admissibility(m, pt)
        except CirculantError:
            for q in pt:
                metric_at(m, q, allow_weak)  # raises at the first point that fails
            raise
        for q in pt[~ok]:
            metric_at(m, q, allow_weak)  # raises, or warns at a weak point
        return metric_from_jets(A_jet, B_jet)
    for c in m.domain_constraints:
        val = eval_value(c, pt)
        if not inside_chart(val):
            raise DomainViolation(c.source or str(c), val, pt)
    A_jet = eval_jet(m.A, pt)
    B_jet = eval_jet(m.B, pt)
    A, B = float(A_jet.value), float(B_jet.value)
    if not positive(A, B):
        if allow_weak and check_positive_definite(A, B).positive_definite:
            warnings.warn(
                f"A > B > 0 fails at {tuple(pt.tolist())} (A={A!r}, B={B!r}) but g is "
                "still positive definite; continuing",
                stacklevel=2,
            )
        else:
            raise PositivityViolation(A, B, pt)
    return metric_from_jets(A_jet, B_jet)


def inner(M: MetricAtPoint, x, y):
    """g(x, y) at each point of M's batch, with M's batch shape.

    x and y are one vector (3,) or one per point (..., 3). Each point's
    value is the matrix product x @ g @ y, bit for bit as at that point alone.
    """
    return inners(M, x, (y,))[0]


def inners(M: MetricAtPoint, x, ys) -> list:
    """[inner(M, x, y) for y in ys], computing the product x @ g once."""
    xg = np.asarray(x, dtype=float)[..., None, :] @ M.g
    return [(xg @ np.asarray(y, dtype=float)[..., :, None])[..., 0, 0] for y in ys]
