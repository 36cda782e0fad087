"""Christoffel symbols, the Riemann tensor, sectional curvature and the
q-invariance property of the curvature.

All derivatives of the metric come from jets of A and B; nothing here is
finite-differenced. The Christoffel symbols, their derivatives and the
curvature are all formed in one frame, the eigenframe of g. The
columns (1,1,1), (1,-1,0) and (1,1,-2) of the integer matrix U are
eigenvectors of every circulant g: U^T g U = diag(3 lam, 2 nu, 6 nu), with
lam = A + 2B and nu = A - B. In the coordinates y = U^-1 x the metric is
diagonal, f = (3 lam, 2 nu, 6 nu), and its first-kind symbols
[ab,c] = 1/2 (d_a g_bc + d_b g_ac - d_c g_ab) are halves of f's first
derivatives. With them

    R_abcd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
             + sum_p ([bc,p][ad,p] - [bd,p][ac,p]) / f_p,

which needs no inverse of g and no derivative of a Christoffel symbol: the
only division is by an eigenvalue, so the kernel keeps its accuracy as g
nears degeneracy (nu << lam). In 3D R is its symmetric 3x3 operator S on
bivectors, S_PQ = R_abcd for e_a ^ e_b = e_P and e_c ^ e_d = e_Q. The six
entries of S in the eigenframe are, for (a, b, c) a permutation of (1, 2, 3),

    R_abab = -1/2 (f_a,bb + f_b,aa) + 1/4 (f_a,b^2 / f_a + f_b,a^2 / f_b
             + f_b,a f_a,a / f_a + f_b,b f_a,b / f_b - f_b,c f_a,c / f_c)
    R_abac = -1/2 f_a,bc + 1/4 (f_a,b f_a,c / f_a + f_b,c f_a,b / f_b + f_c,b f_a,c / f_c)

(f_a,b = d f_a / d y_b); they are sums of the Hessians of lam and nu and of
products of their gradients divided by lam or nu, with integer coefficients
(_HESS_LAM, _HESS_NU, _PRODUCTS). Rotating back is S -> U S U^T / det(U)^2
(_BACK), which is linear as well, so one integer matrix _KERNEL maps each
point's features (the two Hessians in the coordinate frame and sixteen
products) to 144 S. The features come from the jets of lam and nu, formed
from the jets of A and B before anything is rotated (nu = A - B is then
exact where B <= A <= 2B), after the jets of A and B are divided by the
power of two that brings their largest entry into [0.5, 1), so that no
entry of lam's jet exceeds 3 even where A + 2B exceeds the double range. R
is homogeneous of degree one in the metric, so the result is scaled back
exactly, and a Hessian or a metric near either end of the double range
does not overflow the sums on the way. The six entries of -S in the
coordinate frame are kept (CurvatureTensor.s), and R.t is gathered from them
with the signs of the Levi-Civita symbol, so every symmetry of the tensor
holds bit for bit. The (0,4) tensor is
low[i,j,k,h] = g(R(e_i, e_j) e_k, e_h), the negative of R_ijkh above; its
index order and sign are pinned by the built-in example manifold (its
R_1212 at (2,-1,-1) equals -1/8). The test suite checks the kernel against
exact components of the Levi-Civita curvature (tests/oracle.py, derived
symbolically in tests/test_oracle.py), in exact rational arithmetic of the
same jets (tests/exact.py).

The Christoffel symbols (christoffel, check-parallel, nabla-q, example-m5)
come from the same first-kind symbols, Gamma~^c_ab = [ab,c] / f_c with
d_d Gamma~^c_ab = d_d [ab,c] / f_c - Gamma~^c_ab d_d f_c / f_c, and U is constant,
so Gamma_ij^h = U_hc Gamma~^c_ab U^-1_ai U^-1_bj with one more U^-1_dk for d_k.
_GAMMA_KERNEL maps each point's quotients (lam's and nu's gradients over lam
or nu) to 36 Gamma, and _DGAMMA_KERNEL its Hessians over lam or nu and products
of two quotients to 216 dGamma, for i <= j only: gamma and dgamma gather them,
so Gamma_ij^h and Gamma_ji^h are one number. Gamma has degree 0 in g, so its jets
are taken over 2^M.e and nothing is scaled back.

Every function takes a metric (or tensor) batch and returns results with
its leading batch shape, () for one point or (N,) for N points; the
einsums and matrix products carry the batch as ``...``, and each point's
result is bit for bit the one a batch of that point alone gives (the
kernel's products are one small matrix product per point, never one
product over the batch, whose summation order could depend on N). Vectors
are one vector (3,) shared by all points or one per point (..., 3). A
check that refuses a batch names its first failing point.

Layout. Each array is stored once, C-contiguous. R's bivector form and R are
stored tensor indices first and batch axes last (CurvatureTensor.s[P,*batch]
and .t[k,i,j,h,*batch]), so that their readers (the bivector form, the
q-invariance gather, the CLI's symmetry verdicts) run their inner loop over
the batch rather than over an index of length 3; the API's batch-first low
is a view of t. Every R(x, y, z, u) (riemann_apply, sectional_curvature, the
relations) is the bivector form (x × y)^T s (z × u) of the six entries of s
(_bivector_form), formed by elementwise products and sums, so its bits
depend on no stride and no batch size. Gamma and dGamma are
stored batch first, as their kernels form them, one row per point
(ChristoffelTable.gamma[...,i,j,h] and .dgamma[...,k,i,j,h]), which is how
every reader reads them. Every operand of an einsum or a matrix product here
is C-contiguous (the kernels' features and gradients are one C-contiguous
row per point): the order in which numpy sums can follow the strides, so a
transposed operand could move the last bit. tests/test_kernel_layout.py
pins the stored layouts, the bits of each einsum that reads them against the
same einsums run over batch-first copies, and riemann_apply against the
einsum over all 81 entries of t, within 32 eps max|s| |x||y||z||u|.

Overflow. The kernels silence numpy's float warnings and raise
EvalDomainError where Gamma, its derivatives, a curvature component, a
closed-form component or a sectional curvature is not finite, naming A and B
at the first such point.

A CurvatureTensor carries its metric, so sectional curvature and the
sectional-curvature relations take R alone. The relations also take a
stack of V vectors (V, 3):
sectional_relations evaluates all three over every vector and point at
once, with results of shape (V, *batch), each element bit for bit that of
its vector and point alone. The single-relation checks are views of it.
sectional_curvature divides its vectors and the metric by powers of two
before it tests the plane and forms the quotient, which is exact, so the
result does not depend on the vectors' lengths or the metric's magnitude.
Its denominator, the plane's Gram determinant, and the g(x, x) and g(y, y)
of the degeneracy test are formed from the invariants sigma and delta of x,
y and w = x × y and the eigenvalues lam and nu of g (qstructure), as sums of
non-negative terms: they keep a few eps of relative accuracy as nu / lam
nears 0, and no term under- or overflows. sectional_plane gives the
curvature with the determinant.

sectional_relations gives each of its five sectional curvatures the bits
sectional_curvature gives, in one pass over V + 2 rows: the V vectors u, the
orthogonal-basis generator x and the special-angle vector y, each over a
power of two. Plane k of a row v is {S[k], S[k+1 mod 3]} of its q-orbit
S = (v, qv, q^2 v). One cross product w = v × qv per row gives the bivectors
of all three planes: q is orthogonal with det q = -1, so
(qa) × (qb) = -q(a × b), and {qv, q^2 v} is w rolled by one place, {q^2 v, v}
is 0.0 - w rolled by two places (the signed negation of apply_q: -w would
turn a zero into -0.0 where the cross product of q^2 v and v gives +0.0), and
v × q^2 v is w rolled by two places, each bit for bit the cross product of
its vectors. One call of qstructure.invariants gives sigma and delta of the
rows and of their w; those of a signed permutation of a vector are the same
numbers, so the three planes of an orbit share one determinant, and each
row's g(v, v), bit for bit what sectional_curvature forms for any one of
them, and cos phi = g(u, qu) / g(u, u), the cosine q_basis_angles reports.
The relations read 3V + 3 forms: R(a, b, a, b) of the three planes of each
u, then of plane 0 of x and of y, and R(x, qx, x, q^2 x), whose second
bivector is that of {x, q^2 x}; it is divided by g(x, x)^2, which makes x a
unit vector. Index rows that depend on V alone (_plane_rows, derived once
per process) take the forms' bivectors in one take, for the one
contraction, _bivector_form, and their denominators in another.

closed_form holds a set of six reference component formulas verbatim,
and closed_form_from_metric evaluates them over powers of two: one for the
values, one for the gradients and one for the Hessians. The two
routes agree on the built-in example's diagonal components yet differ
elsewhere (against the derived components,
the reference formulas' Hessian terms carry the opposite sign and their
first-order terms differ by a nonzero polynomial); the comparison is
reported, never patched.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, IdentityRNotSatisfied
from .jets import GRAD, HESS, VALUE, batch_first
from .metric import MetricAtPoint, first_point, require_finite
from .qstructure import (
    apply_q,
    construct_basis_vectors,
    invariants,
    orbit_gram,
    plane_determinant,
    require_q_basis,
    rescaled,
)

COMPONENT_INDEX = {
    "R1212": (0, 1, 0, 1),
    "R1313": (0, 2, 0, 2),
    "R2323": (1, 2, 1, 2),
    "R1213": (0, 1, 0, 2),
    "R1223": (0, 1, 1, 2),
    "R1323": (0, 2, 1, 2),
}


@dataclass(frozen=True)
class ChristoffelTable:
    """gamma[...,i,j,h] = Gamma_ij^h and dgamma[...,k,i,j,h] = d_k Gamma_ij^h, batch first and C-contiguous.

    quotients[..., 12] are the eigenframe quotients the kernel formed them from (_eigenframe_jets)."""

    gamma: np.ndarray
    dgamma: np.ndarray
    quotients: np.ndarray


@dataclass(frozen=True)
class CurvatureTensor:
    """g(R(e_i, e_j) e_k, e_h), the (0,4) tensor, as t[k,i,j,h,*batch], C-contiguous, and its bivector form s.

    s[:, *batch], C-contiguous, holds the six entries s_PQ = low[a, b, c, d] for e_a ^ e_b = e_P and
    e_c ^ e_d = e_Q (e_P: e2^e3, e3^e1, e1^e2), in the order 00, 11, 22, 01, 02, 12, so that
    R(x, y, z, u) = (x × y)^T s (z × u); t is gathered from it."""

    t: np.ndarray
    s: np.ndarray
    metric: MetricAtPoint  # the metric t was built from

    @property
    def low(self) -> np.ndarray:
        """low[...,i,j,k,h] = t[k,i,j,h,...], a writable view of t."""
        return self.t.transpose(*range(4, self.t.ndim), 1, 2, 0, 3)

    def component(self, i: int, j: int, k: int, h: int) -> np.ndarray:
        """Lowered component by 1-based indices, with the batch shape."""
        return self.t[k - 1, i - 1, j - 1, h - 1]


def components(R: "CurvatureTensor") -> dict[str, np.ndarray]:
    """The lowered components named in COMPONENT_INDEX, with R's batch shape."""
    return {name: R.t[k, i, j, h] for name, (i, j, k, h) in COMPONENT_INDEX.items()}


# -- the eigenframe kernel (see the module docstring) ------------------------------
# U's columns (1,1,1), (1,-1,0), (1,1,-2) are eigenvectors of every circulant g; det U = 6.
_U = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 0.0, -2.0]])
# _UU[3i + j, 3a + b] = U_ia U_jb: x @ _UU is U^T X U for a 3x3 matrix X flattened row by row
# into x, and s @ _UU.T is U S U^T
_UU = np.kron(_U, _U)
# S's entries in the eigenframe, times 4, as six columns in the order _SYM numbers them: the
# bivectors e2^e3, e3^e1, e1^e2 each with itself, then (e2^e3, e3^e1), (e2^e3, e1^e2) and
# (e3^e1, e1^e2). l and n stand for lam and nu, L and N for their values, and a subscript for
# a derivative along an eigenframe axis (1-based).
_SYM = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_HESS_LAM = np.array([
    [0, 0, -6, 0, 0, 0],  # l22
    [0, 0, 0, 0, 0, 6],  # l23
    [0, -6, 0, 0, 0, 0],  # l33
])
_HESS_NU = np.array([
    [0, -12, -4, 0, 0, 0],  # n11
    [0, 0, 0, 12, 0, 0],  # n12
    [0, 0, 0, 0, 4, 0],  # n13
    [-12, 0, 0, 0, 0, 0],  # n22
    [-4, 0, 0, 0, 0, 0],  # n33
])
_PRODUCTS = np.array([
    [0, 6, 2, 0, 0, 0],  # n1 n1 / N
    [12, 0, 0, 0, 0, 0],  # n2 n2 / N
    [4, 0, 0, 0, 0, 0],  # n3 n3 / N
    [0, 0, 0, -12, 0, 0],  # n1 n2 / N
    [0, 0, 0, 0, -4, 0],  # n1 n3 / N
    [0, -9, 3, 0, 0, 0],  # l2 n2 / N
    [0, 3, -1, 0, 0, 0],  # l3 n3 / N
    [0, 0, 0, 0, 0, -3],  # l2 n3 / N
    [0, 0, 0, 0, 0, -3],  # l3 n2 / N
    [-4, 0, 0, 0, 0, 0],  # n1 n1 / L
    [0, 6, 2, 0, 0, 0],  # n1 l1 / L
    [0, 0, 0, -6, 0, 0],  # n1 l2 / L
    [0, 0, 0, 0, -2, 0],  # n1 l3 / L
    [0, 0, 3, 0, 0, 0],  # l2 l2 / L
    [0, 3, 0, 0, 0, 0],  # l3 l3 / L
    [0, 0, 0, 0, 0, -3],  # l2 l3 / L
])
# Each product of _PRODUCTS as an eigenframe gradient entry, grad[w, c] at 3w + c, times a
# quotient grad[w, c] / value[v] at 6w + 3v + c (w, v = 0 for lam and 1 for nu; c 0-based).
_FACTOR = np.array([3, 4, 5, 3, 3, 1, 2, 1, 2, 3, 3, 3, 3, 1, 2, 1])
_QUOTIENT = np.array([9, 10, 11, 10, 11, 10, 11, 11, 10, 6, 0, 1, 2, 1, 2, 2])
# The six entries of S to those of U S U^T: S spread to its nine entries, rotated, and the
# entries that _SYM numbers picked out.
_BACK = ((np.arange(6)[:, None] == _SYM.ravel()) @ _UU.T)[:, [0, 4, 8, 1, 2, 5]]
# 144 S in the coordinate frame from each point's features: the Hessians of lam and nu, each in
# the coordinate frame and flattened row by row, then the sixteen products.
_KERNEL = np.concatenate((_UU[:, [4, 5, 8]] @ _HESS_LAM, _UU[:, [0, 1, 2, 4, 8]] @ _HESS_NU, _PRODUCTS)) @ _BACK
# The Levi-Civita symbol, e_i ^ e_j = _EPS[i, j, P] e_P, and from it the entry of S and the sign
# that each t[k, i, j, h] = low[i, j, k, h] takes.
_EPS = np.zeros((3, 3, 3))
_EPS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0
_PAIR, _ORIENT = np.abs(_EPS).argmax(axis=-1), _EPS.sum(axis=-1)
_GATHER = _SYM[_PAIR[None, :, :, None], _PAIR[:, None, None, :]].ravel()
_SIGN = (_ORIENT[None, :, :, None] * _ORIENT[:, None, None, :]).ravel()


def _eigenframe_jets(M: MetricAtPoint, e: np.ndarray):
    """The jets of lam = A + 2B and nu = A - B over 2^e, batch first (..., 2, 13), their eigenframe
    gradients grad[..., w, c] and the quotients grad[..., w, c] / value[..., v] at 6w + 3v + c."""
    a, b = np.ldexp(M.A_jet.data, -e), np.ldexp(M.B_jet.data, -e)  # packed channel first, (13, *batch)
    jets = np.empty((2,) + a.shape)
    np.add(a, 2.0 * b, out=jets[0])
    np.subtract(a, b, out=jets[1])
    # batch first, so that each point's features are one C-contiguous row for its matrix product
    jets = np.ascontiguousarray(batch_first(jets, 2))
    grad = jets[..., GRAD] @ _U
    quotients = grad[..., :, None, :] / jets[..., None, :, VALUE, None]
    return jets, grad, quotients.reshape(quotients.shape[:-3] + (12,))


@np.errstate(all="ignore")
def riemann_from_metric(M: MetricAtPoint) -> CurvatureTensor:
    """The curvature tensor at M's points; low[...,i,j,k,h] = g(R(e_i,e_j)e_k, e_h).

    Formed in g's eigenframe with no inverse of g and no derivative of a
    Christoffel symbol; see the module docstring. Each point's features
    go through _KERNEL in a matrix product of its own, a stack over the
    batch, so the point has the bits it has alone.
    """
    batch = M.e.shape
    # the exponent of the jets' largest entry: R has degree one in g and is scaled back by it
    e = np.frexp(np.maximum(np.abs(M.A_jet.data), np.abs(M.B_jet.data)).max(axis=0))[1]
    jets, grad, quotients = _eigenframe_jets(M, e)
    features = np.empty(batch + (1, 34))
    features[..., 0, :18] = jets[..., HESS].reshape(batch + (18,))
    np.multiply(grad.reshape(batch + (6,))[..., _FACTOR], quotients[..., _QUOTIENT], out=features[..., 0, 18:])
    s = np.ldexp((features @ _KERNEL)[..., 0, :] / -144.0, e[..., None])  # -S in the coordinate frame
    require_finite(M, "curvature components", s)
    s = np.ascontiguousarray(batch_first(s, len(batch)))  # tensor first
    t = s.take(_GATHER, axis=0)
    t *= _SIGN.reshape((81,) + (1,) * len(batch))
    return CurvatureTensor(t.reshape((3, 3, 3, 3) + batch), s, M)


# -- the Christoffel kernel (see the module docstring) ------------------------------
_V = np.diag([2.0, 3.0, 1.0]) @ _U.T  # 6 U^-1, as U^-1 = diag(1/3, 1/2, 1/6) U^T
_F, _OF = (3, 2, 6), (0, 1, 1)  # f_c is _F[c] times lam (_OF[c] = 0) or nu (_OF[c] = 1)
# 12 [ab,c] / f_c = 6 (delta_bc d_a f_c + delta_ac d_b f_c - delta_ab d_c f_a) / f_c is _BRACKET[c, a, b] times
# T[6w + 3v + x], d_x of lam or nu (w = 0, 1) over lam or nu (v = 0, 1): the quotients, or a row of the Hessians.
# _OWN[c, r] is the row d of 6 U^-1 where r = 9 _OF[c] + d is the quotient d_d f_c / f_c.
_BRACKET, _OWN = np.zeros((3, 3, 3, 12)), np.zeros((3, 12, 3))
for _c, _a in np.ndindex(3, 3):
    _BRACKET[_c, _a, _c, 9 * _OF[_c] + _a] += 6.0
    _BRACKET[_c, _c, _a, 9 * _OF[_c] + _a] += 6.0
    _BRACKET[_c, _a, _a, 6 * _OF[_a] + 3 * _OF[_c] + _c] -= _F[_a] * (6 // _F[_c])
    _OWN[_c, 9 * _OF[_c] + _a] = _V[_a]
# The kernels hold 36 Gamma_ij^h and 216 d_k Gamma_ij^h for i <= j, at 3 _UPPER[i, j] + h and 18k + that, over
# 2^6 and 2^8: exact, and no entry exceeds 1, so a sum does not overflow where the result is finite.
# _ROTATED[c, q, _UPPER[i, j], h] = U_hc 6 U^-1_ai 6 U^-1_bj _BRACKET[c, a, b, q] sums over c to 12 * 36 Gamma_ij^h.
_I, _J = np.triu_indices(3)
_UPPER = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_ROTATED = np.einsum("hc,ai,bj,cabq->cqijh", _U, _V, _V, _BRACKET)[:, :, _I, _J]
_GAMMA_KERNEL = _ROTATED.sum(axis=0).reshape(12, 18) / (12.0 * 64.0)
# dGamma = 6 U^-1_dk (d_d [ab,c] / f_c - Gamma~^c_ab d_d f_c / f_c), rotated. The first term reads the eigenframe
# Hessian U^T H U, and sum_d 6 U^-1_dk U_md = 6 delta_km, so its features are H_mn / value at 18w + 9v + 3m + n;
# the second reads the products of the quotients q of Gamma~^c_ab and r of d_d f_c / f_c, each pair once
_HESSIANS = np.einsum("km,nx,wvxph->wvmnkph", 6.0 * np.eye(3), _U, _ROTATED.sum(axis=0).reshape(2, 2, 3, 6, 3))
_QQ = -np.einsum("crk,cqph->qrkph", _OWN, _ROTATED).reshape(12, 12, 54)
_LEFT, _RIGHT = np.nonzero(np.triu(_QQ.any(axis=-1) | _QQ.any(axis=-1).T))  # the pairs q <= r that occur
_QQ = _QQ[_LEFT, _RIGHT] + (_LEFT != _RIGHT)[:, None] * _QQ[_RIGHT, _LEFT]
_DGAMMA_KERNEL = np.concatenate((_HESSIANS.reshape(36, 54), _QQ)) / (12.0 * 256.0)
_GATHER_GAMMA = (3 * _UPPER[:, :, None] + np.arange(3)).ravel()
_GATHER_DGAMMA = (18 * np.arange(3)[:, None] + _GATHER_GAMMA).ravel()


@np.errstate(all="ignore")
def christoffel_from_metric(M: MetricAtPoint) -> ChristoffelTable:
    """Christoffel symbols and their first derivatives at M's points, in g's eigenframe (module docstring).

    Each point's features go through the kernels in a matrix product of its own: it has the bits it has alone."""
    batch = M.e.shape
    jets, _, quotients = _eigenframe_jets(M, M.e)
    gamma = (quotients[..., None, :] @ _GAMMA_KERNEL)[..., 0, :] / (36.0 / 64.0)
    features = np.empty(batch + (1, len(_DGAMMA_KERNEL)))
    features[..., 0, :36] = (jets[..., :, None, HESS] / jets[..., None, :, VALUE, None]).reshape(batch + (36,))
    np.multiply(quotients[..., _LEFT], quotients[..., _RIGHT], out=features[..., 0, 36:])
    dgamma = (features @ _DGAMMA_KERNEL)[..., 0, :] / (216.0 / 256.0)
    require_finite(M, "Christoffel symbols or their derivatives", gamma, dgamma)
    # take keeps each point's row C-contiguous, where an index on the last axis (gamma[..., _GATHER_GAMMA]) would not
    gamma, dgamma = gamma.take(_GATHER_GAMMA, axis=-1), dgamma.take(_GATHER_DGAMMA, axis=-1)
    return ChristoffelTable(gamma.reshape(batch + (3, 3, 3)), dgamma.reshape(batch + (3, 3, 3, 3)), quotients)


@np.errstate(all="ignore")
def closed_form_from_metric(M: MetricAtPoint) -> dict[str, np.ndarray]:
    """The six reference closed-form (0,4) components, verbatim, by the names of COMPONENT_INDEX.

    The formulas run on A and B over the power of two 2^e of metric_from_jets
    (M.e), where max(|A|, |B|) / 2^e is in [0.5, 1), on their gradients over
    2^(e+c) and on their Hessians over 2^(e+2c). Each component is a sum of
    Hessian terms and of gradient products over A or B, so it scales by
    2^-(e+2c) and is scaled back by 2^(e+2c). 2^(e+c) is the power of two
    just above the larger of the largest gradient entry and the square root
    of 2^e times the largest Hessian entry, so that no gradient entry over
    2^(e+c) and no Hessian entry over 2^(e+2c) exceeds 2, and the larger of the
    two is at least 1/4. The scaling is exact: where no term under- or
    overflows, the components keep the bits of the formulas on the plain
    jets, and a metric whose D would under- or overflow, or whose derivatives
    are far from its values (a tiny metric with ordinary derivatives), still
    gets its components. See the module docstring for how these relate to
    the numeric tensor.
    """
    e = M.e
    jets = (M.A_jet, M.B_jet)
    # the largest gradient and Hessian entries, over the packed rows
    top = np.maximum.reduceat(np.maximum(abs(jets[0].data), abs(jets[1].data)), [GRAD.start, HESS.start])
    ec = np.frexp(np.maximum(top[0], np.ldexp(np.sqrt(top[1]), e // 2)))[1]  # e + c
    back = 2 * ec - e  # e + 2c
    A, B = np.ldexp(M.A, -e), np.ldexp(M.B, -e)
    dA, dB = (np.ldexp(j.grad_rows, -ec) for j in jets)
    HA, HB = (np.ldexp(j.hess_rows, -back) for j in jets)
    cf = {name: np.ldexp(v, back) for name, v in zip(COMPONENT_INDEX, closed_form(A, B, dA, dB, HA, HB))}
    require_finite(M, "closed-form components", *cf.values())
    return cf


def closed_form(A, B, dA, dB, HA, HB) -> tuple:
    """The six reference components R1212, R1313, R2323, R1213, R1223, R1323, verbatim.

    A, B are the field values, dA, dB their gradients (dA[i] = d_i A) and
    HA, HB their Hessians (HA[i][j] = d_i d_j A), indices 0-based. Only
    ``+ - * / **`` appear, so floats, arrays or sympy symbols evaluate them.
    D = (A - B)(A + 2B).
    """
    A1, A2, A3 = dA[0], dA[1], dA[2]
    B1, B2, B3 = dB[0], dB[1], dB[2]
    A11, A22, A33 = HA[0][0], HA[1][1], HA[2][2]
    A12, A13, A23 = HA[0][1], HA[0][2], HA[1][2]
    B11, B22, B33 = HB[0][0], HB[1][1], HB[2][2]
    B12, B13, B23 = HB[0][1], HB[0][2], HB[1][2]
    B21, B31 = B12, B13
    D = (A - B) * (A + 2 * B)
    cAB = (A + B) / (4.0 * D)
    cB = B / (4.0 * D)
    R1212 = (
        0.5 * (2 * B21 - A11 - A22)
        + cAB * (2 * A3 * B2 - A3**2 + (B1 - B2 - B3) * (B1 + B2 - B3))
        - cB * (2 * A1 * (B1 + B2 - B3) - 2 * B2 * (B1 + B2 - B3) - 2 * A1 * A3 + 2 * A3 * B2)
    )
    R1313 = (
        0.5 * (2 * B31 - A11 - A33)
        + cAB * (2 * A2 * B3 - A2**2 + (-B1 + B2 + B3) * (-B1 + B2 - B3))
        - cB * (2 * A1 * (B1 - B2 + B3) - 2 * B3 * (B1 - B2 + B3) - 2 * A1 * A2 + 2 * A2 * B3)
    )
    R2323 = (
        0.5 * (2 * B23 - A22 - A33)
        + cAB * (2 * B3 * A1 - A1**2 + (B1 - B2 + B3) * (B1 - B2 - B3))
        - cB * (2 * A2 * (B2 + B3 - B1) + 2 * B3 * (B1 - B2 - B3) - 2 * A1 * A2 + 2 * A1 * B3)
    )
    R1213 = (
        0.5 * (B21 + B31 - B11 - A23)
        + cAB * (A1 * (B2 - B3 + B1) + 2 * B3 * (-B1 - B2 + B3) + A2 * A3)
        - cB * (
            A1**2 + A2**2 + A3**2 + 2 * A1 * (A2 - B3) - 2 * A3 * (B1 - B3) - 2 * A2 * B3
            + (B1 - B2 - B3) * (B1 + B2 - B3)
        )
    )
    R1223 = (
        0.5 * (B22 - B12 - B23 + A13)
        + cAB * (A2 * (B2 + B3 - B1) - (2 * B3 - A1) * (2 * B2 - A3))
        - cB * (
            -(A1**2) + A2**2 + A3**2 + 2 * A1 * (B2 + B3) + 2 * A2 * (B2 - B3) - 4 * B2 * B3
            + 2 * A3 * (B3 - B1) + (B1 + B2 - B3) * (B1 - B2 - B3)
        )
    )
    # the last product reads "+(-B1+B2+B3)(B1-B2+B3)": the source text drops
    # the opening parenthesis
    R1323 = (
        0.5 * (B23 - B33 + B13 - A12)
        + cAB * ((2 * B2 - A1) * (2 * B3 - A2) - A3 * (-B1 + B2 + B3))
        - cB * (
            A1**2 - A2**2 - A3**2 - 2 * A1 * (B2 + B3) + 2 * A2 * (B1 - B2) + 4 * B2 * B3
            + 2 * A3 * (B2 - B3) + (-B1 + B2 + B3) * (B1 - B2 + B3)
        )
    )
    return R1212, R1313, R2323, R1213, R1223, R1323


# The bivector form. _FULL spreads s's six entries over the nine of the symmetric 3x3 matrix, row by row;
# _NEXT and _LAST roll a vector's components by one and by two places.
_FULL = _SYM.ravel()
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def _components_first(R: CurvatureTensor, v) -> np.ndarray:
    """A view of the vectors v (3,) or (..., 3) with the component axis first and at least R's batch rank behind it."""
    v = np.asarray(v, dtype=float)
    v = v.reshape((1,) * (R.s.ndim - v.ndim) + v.shape)
    return batch_first(v, v.ndim - 1)


def _cross(x, y):
    """x × y of vectors (3, ...) stacked component first, as 0.0 - (x[P+2] y[P+1] - x[P+1] y[P+2]).

    The subtraction from 0.0 makes every zero component +0.0, so the cross product of any two vectors of a
    q-orbit is a signed gather of one of them bit for bit (sectional_relations)."""
    d = x.take(_LAST, axis=0) * y.take(_NEXT, axis=0)
    d -= x.take(_NEXT, axis=0) * y.take(_LAST, axis=0)
    return np.subtract(0.0, d, out=d)


def _bivector_form(s, w, z):
    """w^T s z for bivectors w and z, (3, ...) stacked component first and broadcasting against s's batch.

    s is CurvatureTensor.s (6, *batch). The form is sum_P w_P (s_P0 z_0 + s_P1 z_1 + s_P2 z_2), in that order,
    from elementwise products and sums only, so each element has the bits it has alone. Callers silence
    numpy's float warnings: a product can overflow where s is near the double range.
    """
    full = s.take(_FULL, axis=0).reshape((3, 3) + (1,) * (z.ndim - s.ndim) + s.shape[1:])
    sz = full * z  # sz[P, Q] = s_PQ z_Q
    v = w * (sz[:, 0] + sz[:, 1] + sz[:, 2])
    return v[0] + v[1] + v[2]


def riemann_apply(R: CurvatureTensor, x, y, z, u):
    """Full contraction R(x, y, z, u) of the lowered tensor, as the bivector form (x × y)^T s (z × u).

    The vectors are each (3,) or (..., 3), broadcasting against R's batch; the
    result has their broadcast shape. No entry of t is read: each element is
    formed from the six entries of s at its point by elementwise products and
    sums (_bivector_form), so it has the bits it has alone.
    """
    x, y, z, u = (_components_first(R, v) for v in (x, y, z, u))
    with np.errstate(all="ignore"):
        return _bivector_form(R.s, _cross(x, y), _cross(z, u))


def _degenerate(den, gxx, gyy):
    """Where a plane with Gram determinant den and g(x, x), g(y, y) is degenerate: den not above 1e-12 gxx gyy."""
    return ~(den > 1e-12 * gxx * gyy)


def _refuse_degenerate(degenerate, planes) -> None:
    """Raise DegeneratePlane at the first degenerate element, naming the vectors (x, y) that planes() returns:
    those the caller was given, before any rescaling."""
    if degenerate.any():
        i = first_point(degenerate)
        x, y = (tuple(np.broadcast_to(np.asarray(v, float), degenerate.shape + (3,))[i].tolist()) for v in planes())
        raise DegeneratePlane(f"vectors {x} and {y} span no plane")


def sectional_curvature(R: CurvatureTensor, x, y):
    """R(x,y,x,y) / (g(x,x) g(y,y) - g(x,y)^2) for a non-degenerate plane, g = R.metric.g.

    x and y are one vector (3,) or a batch (..., 3) broadcasting against R's
    batch. Both, and g, are rescaled by powers of two first
    (qstructure.rescaled, R.metric.eigenvalues_scaled), so neither the
    degeneracy test nor the quotient depends on their magnitudes.
    """
    return sectional_plane(R, x, y)[0]


def sectional_plane(R: CurvatureTensor, x, y):
    """sectional_curvature(R, x, y) and the Gram determinant g(x,x) g(y,y) - g(x,y)^2, from the invariants of the
    rescaled vectors and of w = x × y (qstructure); the determinant is inf where it overflows and 0 where it
    underflows."""
    (xs, ex), (ys, ey) = rescaled(x), rescaled(y)
    M = R.metric
    lam, nu = M.eigenvalues_scaled
    xs, ys = _components_first(R, xs), _components_first(R, ys)
    w = _cross(xs, ys)  # formed once for R(x, y, x, y) and the determinant
    v = np.empty((3, 3) + w.shape[1:])  # x, y and w, component first
    v[:, 0], v[:, 1], v[:, 2] = xs, ys, w
    sigma, delta = invariants(v)
    gxx, gyy = orbit_gram(lam, nu, sigma[:2], delta[:2])[0]
    den = plane_determinant(lam, nu, sigma[2], delta[2])
    _refuse_degenerate(_degenerate(den, gxx, gyy), lambda: (x, y))
    with np.errstate(all="ignore"):  # a form or quotient that overflows is refused below
        mu = np.ldexp(_bivector_form(R.s, w, w) / den, -2 * M.e)  # formed over g / 2^e, scaled back
        det = np.ldexp(den, 2 * (ex + ey + M.e))
    require_finite(M, "sectional curvatures", batch_first(mu, mu.ndim - M.A.ndim))  # mu's last axes are M's batch axes
    return mu, det


def max_abs(R: CurvatureTensor) -> np.ndarray:
    """max |R_ijkh| over the tensor indices, with R's batch shape: over the six entries of s, as every
    entry of t is one of them or a zero."""
    return np.abs(R.s).max(axis=0)


def is_flat(R: CurvatureTensor, tol: float):
    """Where every lowered component is below tol in magnitude."""
    return max_abs(R) <= tol


@dataclass(frozen=True)
class QInvarianceCheck:
    """Component verdict of R(qx,qy,qz,qu) = R(x,y,z,u), with R's batch shape."""

    passed: np.ndarray
    diagonal_residual: np.ndarray  # spread of R1212, R1313, R2323
    cross_residual: np.ndarray  # spread of R1213, R1323, -R1223
    scale: np.ndarray  # max |R_ijkh|
    threshold: np.ndarray  # tol * (1 + scale), the bound both spreads must meet


# The entries of R.s that check_q_invariance compares, in one gather: the chains R1212, R1313, R2323, which are
# s_22, s_11, s_00, and R1213, R1323, -R1223, which are -s_12, -s_01, -s_02 (R.t holds the same negatives).
_Q_CHAINS = np.array([[2, 1, 0], [5, 3, 4]])


def check_q_invariance(R: CurvatureTensor, tol: float = 1e-9) -> QInvarianceCheck:
    """Check the curvature identity R(qx,qy,qz,qu) = R(x,y,z,u) by components.

    R_1212 = R_1313 = R_2323 and R_1213 = R_1323 = -R_1223. (Transporting
    each slot through q permutes coordinate indices by 1->3->2->1 with
    signs cancelling; the minus on R_1223 follows from the tensor
    antisymmetries. tests/test_oracle.py derives both chains exactly for
    the q-invariant family A = a(s), B = b(s), s = x1 + x2 + x3, on which
    R_1223 does not vanish.)
    """
    chains = R.s.take(_Q_CHAINS, axis=0)
    np.negative(chains[1], out=chains[1])
    scale = max_abs(R)
    threshold = tol * (1.0 + scale)
    diag_res, cross_res = chains.max(axis=1) - chains.min(axis=1)
    passed = np.maximum(diag_res, cross_res) <= threshold  # False where either is NaN
    return QInvarianceCheck(passed, diag_res, cross_res, scale, threshold)


def sampled_q_invariance_residual(R: CurvatureTensor, seed: int, samples: int):
    """max |R(qx,qy,qz,qu) - R(x,y,z,u)| over random unit vector 4-tuples.

    An oracle for check_q_invariance that shares none of its index algebra:
    it reads the bivector form of all six entries of s, not two chains of it.
    The tuples depend on the seed only: all of them are drawn at once (the
    stream of one (4, 3) draw per tuple), normalized and q-mapped at once,
    and the q-images and the originals are contracted against the whole
    batch in one riemann_apply over a stacked leading axis (2 samples,
    *batch), two cross products and one bivector form. Each element has the
    bits of its tuple and point alone, as the form is elementwise. The
    residuals are >= +0, so fmax from 0.0 keeps each point's first largest,
    NaN never the maximum, as a loop over the tuples would.
    """
    vecs = np.random.default_rng(seed).standard_normal((samples, 4, 3))
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    # stacked[s, t]: slot s of the q-image of tuple t for t < samples, of tuple t - samples after
    stacked = np.concatenate((apply_q(vecs), vecs)).swapaxes(0, 1)
    r = riemann_apply(R, *stacked.reshape((4, 2 * samples) + (1,) * (R.t.ndim - 4) + (3,)))
    return np.fmax.reduce(abs(r[:samples] - r[samples:]), axis=0, initial=0.0)[()]


@dataclass(frozen=True)
class RelationCheck:
    """Residual of one verified equality, with both sides kept for tolerances."""

    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class EqualSectionalCheck:
    mu_u_qu: np.ndarray
    mu_qu_q2u: np.ndarray
    mu_q2u_u: np.ndarray

    @property
    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        return (abs(self.mu_u_qu - self.mu_qu_q2u), abs(self.mu_u_qu - self.mu_q2u_u))


@dataclass(frozen=True)
class SectionalRelations:
    """The three relations for vectors U, each with shape U.shape[:-1] + R's batch shape."""

    difference: RelationCheck
    combination: RelationCheck
    equal: EqualSectionalCheck


@functools.lru_cache(maxsize=16)
def _plane_rows(V: int):
    """Index rows of the 3V + 3 forms sectional_relations takes, a pure function of V.

    The forms are R(a, b, a, b) of the planes {S[k], S[k+1 mod 3]} of the q-orbit S of each u (k major), then
    of plane 0 of x and of y, and R(x, qx, x, q^2 x). The first row, (2, 3, 3V + 3), indexes the bivectors
    w = v × qv of the V + 2 rows flattened component first, (3 (V + 2), ...): each form's first and second
    bivector, component by component. As (qa) × (qb) = -q(a × b), the plane {S[k], S[k+1]} has w rolled by k
    places, w[(P + k) mod 3], negated for k = 2 (the caller negates those), and {x, q^2 x} has w rolled by two.
    The second, (3V + 3,), indexes each form's denominator among the V + 2 rows' plane determinants, then
    g(x, x)^2: the three planes of an orbit share their row's determinant, as q is an isometry.
    """
    n = V + 2
    row = np.r_[np.tile(np.arange(V), 3), V, V + 1, V]
    first = np.r_[np.repeat(np.arange(3), V), 0, 0, 0]
    components = np.arange(3)[:, None]
    bivectors = np.stack([(components + k) % 3 * n + row for k in (first, np.r_[first[:-1], 2])])
    denominators = np.r_[row[:-1], n]
    for r in (bivectors, denominators):  # shared by every call with this V
        r.flags.writeable = False
    return bivectors, denominators


def sectional_relations(R: CurvatureTensor, U, tol=1e-9) -> SectionalRelations:
    """The sectional-curvature relations for each vector of U at each point of R's batch.

    U is one vector (3,) or V vectors (V, 3); element [v, *i] of a result is
    vector v at point i. With x the normalized orthogonal-basis generator, y
    the special-angle vector (angle(y, qy) = 2 pi / 3) and phi = angle(u, qu):

      difference:  mu(u,qu) - mu(x,qx) = (2 cos phi / (1 - cos phi)) R(x, qx, x, q^2 x)
      combination: mu(u,qu) = ((1+2cos phi) mu(x,qx) - 3 cos phi mu(y,qy)) / (1 - cos phi)
      equal:       mu(u,qu), mu(qu,q^2u), mu(q^2u,u), equal where R is q-invariant

    The relations hold where the curvature is q-invariant (check_q_invariance
    at tol) and refuse elsewhere; tol=math.inf computes them anyway.

    Each quantity is computed once, in one pass over V + 2 rows: the V vectors
    u, x and y, each over a power of two (as qstructure.rescaled). One cross
    product w = v × qv per row gives the bivectors of its orbit's planes (module
    docstring), and one call of qstructure.invariants gives sigma and delta of
    the rows and of their bivectors: from them g(v, v) and g(v, qv) of each row,
    so cos phi, and the determinant of each row's planes, one for all three as
    q is an isometry. The forms the relations read are taken from w by index
    (_plane_rows) for the one contraction, _bivector_form, and divided by their
    determinants, or by g(x, x)^2 for R(x, qx, x, q^2 x) of the unit x. The
    quotients are exact scalings of the plain ones (see sectional_curvature) and
    are scaled back together. The refusals come in the order one point and one
    vector meet them: q-invariance, the q-basis test of the vectors (the first
    failing one is named), the planes of a vector's orbit (named by {u, qu}),
    then a sectional curvature that is not finite (at the first point where one
    is not). The planes of x and y are never degenerate: their cosines are 0
    and -1/2.
    """
    M = R.metric
    identity = check_q_invariance(R, tol=tol)
    if not identity.passed.all():
        i = first_point(~identity.passed)
        raise IdentityRNotSatisfied(
            "curvature q-invariance fails at this point "
            f"(diagonal spread {identity.diagonal_residual[i]:.3e}, "
            f"cross spread {identity.cross_residual[i]:.3e})\n"
            "the requested check assumes the curvature q-invariance identity; "
            "it does not hold at this point, so the verification is refused"
        )
    U = require_q_basis(U)
    batch = M.A.shape
    u = U.reshape((-1,) + (1,) * len(batch) + (3,))  # vectors before points
    V = len(u)
    rows = np.empty((V + 2,) + batch + (3,))  # u, x and y over powers of two
    rows[:V] = u
    rows[V], rows[V + 1] = construct_basis_vectors(M.A, M.B)
    np.ldexp(rows, -np.frexp(abs(rows).max(axis=-1))[1][..., None], out=rows)  # as rescaled
    lam, nu = M.eigenvalues_scaled
    bivectors, denominators = _plane_rows(V)
    with np.errstate(all="ignore"):  # a form or quotient that overflows is refused below
        # w = v × qv of each row, (3, V + 2, *batch): q's cycle makes w_P = v_{P+2}^2 - v_P v_{P+1}, formed as
        # 0.0 - (v_P v_{P+1} - v_{P+2}^2), which has the bits of _cross(v, apply_q(v))
        v = batch_first(rows, rows.ndim - 1)
        w = v * v.take(_NEXT, axis=0)
        w -= np.square(v.take(_LAST, axis=0))
        np.subtract(0.0, w, out=w)
        sigma, delta = invariants(np.concatenate((v, w), axis=1))  # of the rows, then of their bivectors
        gvv, gvqv = orbit_gram(lam, nu, sigma[:V + 2], delta[:V + 2])
        den = plane_determinant(lam, nu, sigma[V + 2:], delta[V + 2:])
        _refuse_degenerate(_degenerate(den[:V], gvv[:V], gvv[:V]), lambda: (u, apply_q(u)))
        planes = w.reshape((-1,) + batch).take(bivectors, axis=0)  # (2, 3, 3V + 3, *batch)
        np.subtract(0.0, planes[:, :, 2 * V:3 * V], out=planes[:, :, 2 * V:3 * V])  # {q^2 u, u}: 0.0 - w, as apply_q
        den = np.concatenate((den, np.square(gvv[V:V + 1]))).take(denominators, axis=0)
        mu = np.ldexp(_bivector_form(R.s, *planes) / den, -2 * M.e)
    require_finite(M, "sectional curvatures", batch_first(mu, 1))
    mu_u, (mu_x, mu_y, r_x) = mu[:3 * V].reshape((3, V) + batch), mu[3 * V:]
    cphi = gvqv[:V] / gvv[:V]
    pick = 0 if U.ndim == 1 else slice(None, V)  # one vector gives results of the batch shape
    mu_u, cphi = mu_u[:, pick], cphi[pick]
    two_cphi, one_minus_cphi = 2.0 * cphi, 1.0 - cphi
    return SectionalRelations(
        difference=RelationCheck(mu_u[0] - mu_x, (two_cphi / one_minus_cphi) * r_x),
        combination=RelationCheck(mu_u[0], ((1.0 + two_cphi) * mu_x - 3.0 * cphi * mu_y) / one_minus_cphi),
        equal=EqualSectionalCheck(mu_u[0], mu_u[1], mu_u[2]),
    )


# The single relations, as views of sectional_relations.


def check_sectional_difference_formula(R: CurvatureTensor, u, tol=1e-9) -> RelationCheck:
    """mu(u,qu) - mu(x,qx) = (2 cos phi / (1 - cos phi)) R(x, qx, x, q^2 x); see sectional_relations."""
    return sectional_relations(R, u, tol).difference


def check_sectional_combination_formula(R: CurvatureTensor, u, tol=1e-9) -> RelationCheck:
    """mu(u,qu) = ((1+2cos phi) mu(x,qx) - 3 cos phi mu(y,qy)) / (1 - cos phi); see sectional_relations."""
    return sectional_relations(R, u, tol).combination


def check_equal_sectional_curvatures(R: CurvatureTensor, u, tol=1e-9) -> EqualSectionalCheck:
    """Sectional curvatures of the planes {u,qu}, {qu,q^2u}, {q^2u,u}; see sectional_relations."""
    return sectional_relations(R, u, tol).equal
