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

from .curvature import ChristoffelTable
from .metric import MetricAtPoint
from .qstructure import Q_MATRIX

MIRROR_MATRIX = np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=int)
_Q = Q_MATRIX.astype(float)  # the operand nabla_q_from_table contracts, cast once

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
# (..., i, j, h), each of i, j, h (2, 9) and 0-based: one index of gamma gathers both sides of every pair
_EQUALITY_SIDES = (Ellipsis, *(np.array(CHRISTOFFEL_EQUALITY_PAIRS).T - 1))


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
    # q components: (qx)^h = Q[h,t] x^t, so q_j^t = Q[t,j]
    nq = np.einsum("...ith,tj->...ijh", gamma, _Q) - np.einsum("...ijt,ht->...ijh", gamma, _Q)
    return NablaQTensor(nq)


def parallel_residual_from_metric(M: MetricAtPoint) -> np.ndarray:
    """grad A - grad B . MIRROR at M's points (zero iff q is parallel there)."""
    # a C-contiguous operand: grad is a view of the jet's rows, and a matrix product's bits can follow strides
    return M.A_jet.grad - np.ascontiguousarray(M.B_jet.grad) @ MIRROR_MATRIX


def christoffel_equalities_from_table(ct: ChristoffelTable) -> np.ndarray:
    """Max deviation over the nine Christoffel equalities implied by nabla q = 0."""
    sides = ct.gamma[_EQUALITY_SIDES]  # (..., 2, 9)
    # fmax from 0.0, like a running max(worst, .), keeps worst where a deviation is NaN
    return np.fmax.reduce(abs(sides[..., 0, :] - sides[..., 1, :]), axis=-1, initial=0.0)

