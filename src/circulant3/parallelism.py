"""Covariant derivative of q and the gradient criterion for parallelism.

q is parallel under the Levi-Civita connection iff

    grad A = grad B . MIRROR   (row vectors),

where MIRROR flips the sign of the matching component:
componentwise A_1 = -B_1 + B_2 + B_3 and cyclic. Equivalently the nine
Christoffel equalities listed in CHRISTOFFEL_EQUALITY_PAIRS hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import ChristoffelTable, _metric_derivatives, christoffel_from_metric, index_first
from .metric import MetricAtPoint
from .qstructure import Q_MATRIX

MIRROR_MATRIX = np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=int)

# (i, j, h) index pairs, 1-based: Gamma_ij^h must match between the two
# entries of each pair when q is parallel. Reference listings write the
# first left-hand side as Gamma_11^3; deriving the system from
# nabla q = 0 gives Gamma_11^1 (the '3' duplicates the pair below).
CHRISTOFFEL_EQUALITY_PAIRS = (
    ((1, 1, 1), (3, 2, 1)),
    ((1, 1, 2), (3, 2, 2)),
    ((1, 1, 3), (3, 2, 3)),
    ((2, 1, 2), (3, 3, 2)),
    ((2, 1, 1), (3, 3, 1)),
    ((2, 1, 3), (3, 3, 3)),
    ((2, 2, 1), (1, 3, 1)),
    ((2, 2, 2), (1, 3, 2)),
    ((2, 2, 3), (1, 3, 3)),
)
# (i, j, h), each (2, 9) and 0-based: one index of Gamma gathers both sides of every pair
_EQUALITY_SIDES = tuple(np.array(CHRISTOFFEL_EQUALITY_PAIRS).T - 1)


@dataclass(frozen=True)
class NablaQTensor:
    """nq[...,i,j,h] = nabla_i q_j^h."""

    nq: np.ndarray

    @property
    def max_abs(self) -> np.ndarray:
        return np.abs(self.nq).max(axis=(-3, -2, -1))


def nabla_q_from_table(ct: ChristoffelTable) -> NablaQTensor:
    """nabla_i q_j^h from the table; q is constant so only Christoffel terms remain."""
    gamma = ct.gamma
    Q = Q_MATRIX.astype(float)
    # q components: (qx)^h = Q[h,t] x^t, so q_j^t = Q[t,j]
    nq = np.einsum("...ith,tj->...ijh", gamma, Q) - np.einsum("...ijt,ht->...ijh", gamma, Q)
    return NablaQTensor(nq)


def parallel_residual_from_metric(M: MetricAtPoint) -> np.ndarray:
    """grad A - grad B . MIRROR at M's points (zero iff q is parallel there)."""
    return M.A_jet.grad - M.B_jet.grad @ MIRROR_MATRIX


def christoffel_equalities_from_table(ct: ChristoffelTable) -> np.ndarray:
    """Max deviation over the nine Christoffel equalities implied by nabla q = 0."""
    lhs, rhs = index_first(ct.gamma, 3)[_EQUALITY_SIDES]
    # fmax from 0.0, like a running max(worst, .), keeps worst where a deviation is NaN
    return np.fmax.reduce(abs(lhs - rhs), axis=0, initial=0.0)


def metric_compatibility_residual(M: MetricAtPoint) -> np.ndarray:
    """Max component of nabla g at M's points (must vanish for the Levi-Civita connection)."""
    ct = christoffel_from_metric(M)
    dg, _ = _metric_derivatives(M)
    contraction = np.einsum("...kit,...tj->...kij", ct.gamma, M.g)
    nabla_g = dg - contraction - np.einsum("...kij->...kji", contraction)
    return np.abs(nabla_g).max(axis=(-3, -2, -1))
