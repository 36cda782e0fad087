"""Shared test utilities: finite-difference and other oracles, and seeded generators."""

from __future__ import annotations

import numpy as np

from circulant3 import (
    MetricFunctions,
    apply_q,
    christoffel_from_metric,
    eval_jet,
    eval_value,
    induces_q_basis,
    inner,
    parse,
)
from circulant3.errors import CirculantError
from circulant3.parallelism import MIRROR_MATRIX
from circulant3.qstructure import vector_invariants

BOX = ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))


# -- finite differences (independent of the jet implementation) ---------------


def fd_gradient(f, p, h=1e-5):
    p = np.asarray(p, dtype=float)
    grad = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad[i] = (eval_value(f, p + e) - eval_value(f, p - e)) / (2 * h)
    return grad


def fd_hessian(f, p, h=1e-5):
    p = np.asarray(p, dtype=float)
    H = np.zeros((3, 3))
    f0 = eval_value(f, p)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        H[i, i] = (eval_value(f, p + ei) - 2 * f0 + eval_value(f, p - ei)) / (h * h)
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            val = (
                eval_value(f, p + ei + ej)
                - eval_value(f, p + ei - ej)
                - eval_value(f, p - ei + ej)
                + eval_value(f, p - ei - ej)
            ) / (4 * h * h)
            H[i, j] = H[j, i] = val
    return H


# -- identities the library's routes must satisfy -------------------------------


@np.errstate(all="ignore")  # NaN where the inner products overflow, as metric.inner computes them
def isometry_residual(M, x, y):
    """|g(qx, qy) - g(x, y)|; zero up to rounding for every circulant g."""
    return abs(inner(M, apply_q(x), apply_q(y)) - inner(M, x, y))


def cos_angle_closed_form(A, B, x):
    """cos(angle(x, qx)) from the paper's invariants a = |x|^2 and b = x1 x2 + x1 x3 + x2 x3:
    -(Ba + (A+B)b)/(Aa + 2Bb). A reference for qstructure.q_basis_angles, which forms the cosine from
    sigma and delta: a = (sigma^2 + 2 delta) / 3 and b = (sigma^2 - delta) / 3."""
    a, b = vector_invariants(x)
    return -(B * a + (A + B) * b) / (A * a + 2 * B * b)


def orthogonality_defect(M, x):
    """B a + (A+B) b; vanishes iff {x, qx, q^2 x} is g-orthogonal."""
    a, b = vector_invariants(x)
    return M.B * a + (M.A + M.B) * b


def metric_derivatives(M):
    """dg[..., k, i, j] = d_k g_ij and ddg[..., k, l, i, j] = d_k d_l g_ij, batch first, from the jets of A and B."""
    dA, dB = M.A_jet.grad, M.B_jet.grad
    HA, HB = M.A_jet.hess, M.B_jet.hess
    off = np.ones((3, 3)) - np.eye(3)
    dg = dA[..., None, None] * np.eye(3) + dB[..., None, None] * off
    ddg = HA[..., None, None] * np.eye(3) + HB[..., None, None] * off
    return dg, ddg


def metric_compatibility_residual(M):
    """Max component of nabla g at M's points (must vanish for the Levi-Civita connection)."""
    ct = christoffel_from_metric(M)
    dg = metric_derivatives(M)[0]
    contraction = np.einsum("...kit,...tj->...kij", ct.gamma, M.g)
    nabla_g = dg - contraction - np.einsum("...kij->...kji", contraction)
    return np.abs(nabla_g).max(axis=(-3, -2, -1))


BIVECTOR_PAIRS = ((1, 2), (2, 0), (0, 1))  # e_P = e_a ^ e_b for P = 0, 1, 2: e2^e3, e3^e1, e1^e2


def riemann_apply_reference(R, x, y, z, u):
    """R(x, y, z, u) as the five-operand einsum over all 81 entries of R.t: the reference of
    curvature.riemann_apply, which forms the bivector form (x × y)^T s (z × u) from the six entries of R.s.

    The vectors are (3,) or (..., 3), broadcasting against R's batch; each is read component first.
    """
    x, y, z, u = (np.moveaxis(np.asarray(v, dtype=float), -1, 0) for v in (x, y, z, u))
    return np.einsum("kijh...,i...,j...,k...,h...->...", R.t, x, y, z, u)


def symmetry_verdicts_reference(low, tol):
    """The symmetry verdicts of the riemann command over five whole views of the tensor: the reference of
    cli._symmetry_verdicts, which reads only the distinct entries.

    Every residual at all 81 entries of t[k, i, j, h, *batch] = low[..., i, j, k, h], each element from the
    operands of its definition in their order, and a copy of t for the bound, in one buffer.
    """
    n = low.ndim - 4
    t = low.transpose(n + 2, n, n + 1, n + 3, *range(n))
    batch = tuple(range(4, t.ndim))

    def view(*axes):  # view(0, 2, 1, 3)[k, i, j, h] = t[k, j, i, h]: low[..., j, i, k, h]
        return t.transpose(axes + batch)

    r = np.empty((5,) + t.shape)
    np.add(t, view(0, 2, 1, 3), out=r[0])  # R_ijkh + R_jikh
    np.add(t, view(3, 1, 2, 0), out=r[1])  # R_ijkh + R_ijhk
    np.subtract(t, view(1, 0, 3, 2), out=r[2])  # R_ijkh - R_khij
    np.add(t, view(1, 2, 0, 3), out=r[3])  # (R_ijkh + R_kijh) + R_jkih
    r[3] += view(2, 0, 1, 3)
    r[4] = t
    anti_ij, anti_kh, pair, bianchi, largest = np.abs(r, out=r).max(axis=(1, 2, 3, 4))
    scale = tol * (1.0 + largest)
    names = ("antisymmetry_first_pair", "antisymmetry_second_pair", "pair_symmetry", "first_bianchi")
    return {
        name: {"pass": residual <= scale, "residual": residual, "tol": scale}
        for name, residual in zip(names, (anti_ij, anti_kh, pair, bianchi))
    }


_EYE = np.eye(3, dtype=bool)


@np.errstate(all="ignore")
def eager_metric(A, B) -> tuple:
    """g, g_inv, D and e from the values of A and B, all formed at once in one place.

    The reference for MetricAtPoint, which forms each of them where it is read: g has A on its
    diagonal and B off it; g_inv is the closed form over g / 2^e, max(|A|, |B|) / 2^e in [0.5, 1),
    scaled back by 2^-e; D = (A - B)(A + 2B) unscaled.
    """
    D = (A - B) * (A + 2 * B)
    g = np.where(_EYE, A[..., None, None], B[..., None, None])
    e = np.frexp(np.maximum(abs(A), abs(B)))[1]
    a, b = np.ldexp(A, -e), np.ldexp(B, -e)
    d = (a - b) * (a + 2 * b)
    g_inv = np.where(_EYE, np.ldexp((a + b) / d, -e)[..., None, None], np.ldexp(-b / d, -e)[..., None, None])
    return g, g_inv, D, e


# -- random expressions --------------------------------------------------------

_COORDS = ("x1", "x2", "x3")


def _linear_combo(rng) -> str:
    terms = []
    for c in _COORDS:
        w = rng.uniform(-1.0, 1.0)
        terms.append(f"{w:.3f}*{c}")
    return " + ".join(terms)


def _unit_source(rng) -> str:
    kind = rng.integers(0, 7)
    if kind == 0:
        return f"sin({_linear_combo(rng)})"
    if kind == 1:
        return f"cos({_linear_combo(rng)})"
    if kind == 2:
        return rng.choice(_COORDS)
    if kind == 3:
        a, b = rng.choice(_COORDS, size=2, replace=False)
        return f"{a}*{b}"
    if kind == 4:
        return f"{rng.choice(_COORDS)}^2"
    if kind == 5:
        return f"exp({_linear_combo(rng)} / 4)"
    return f"sqrt(2.5 + {_linear_combo(rng)})"


def random_expression(rng, max_terms: int = 3) -> str:
    """Grammar-valid source whose value/derivatives stay moderate on BOX.

    Built from bounded units with small coefficients, then checked by
    evaluating jets at probe points; unsuitable candidates are regenerated.
    """
    for _ in range(100):
        n = int(rng.integers(1, max_terms + 1))
        terms = [f"{rng.uniform(-0.8, 0.8):.3f}*({_unit_source(rng)})" for _ in range(n)]
        src = f"{rng.uniform(-2.0, 2.0):.3f} + " + " + ".join(terms)
        expr = parse(src)
        ok = True
        for _ in range(20):
            p = rng.uniform(-1.1, 1.1, size=3)
            try:
                jet = eval_jet(expr, p)
            except CirculantError:
                ok = False
                break
            if abs(jet.value) > 10 or np.max(np.abs(jet.grad)) > 10 or np.max(np.abs(jet.hess)) > 10:
                ok = False
                break
        if ok:
            return src
    raise RuntimeError("random expression generator failed to produce a bounded field")


def _bounded_field(rng, n_terms: int) -> str:
    """Source with |value| <= ~0.35 on BOX by construction."""
    terms = []
    for _ in range(n_terms):
        c = rng.uniform(-0.15, 0.15)
        terms.append(f"{c:.4f}*({_unit_source_bounded(rng)})")
    return " + ".join(terms) if terms else "0"


def _unit_source_bounded(rng) -> str:
    kind = rng.integers(0, 6)
    if kind == 0:
        return f"sin({_linear_combo(rng)})"
    if kind == 1:
        return f"cos({_linear_combo(rng)})"
    if kind == 2:
        return rng.choice(_COORDS)
    if kind == 3:
        a, b = rng.choice(_COORDS, size=2, replace=False)
        return f"{a}*{b}"
    if kind == 4:
        return f"{rng.choice(_COORDS)}^2"
    return f"{rng.choice(_COORDS)}^3"


def random_manifold(rng) -> MetricFunctions:
    """Admissible metric fields on BOX: A > B > 0 holds structurally.

    B = c1 + (bounded field), A = B + gap + (bounded field) with
    c1 >= 1, gap >= 0.5 and each bounded field below 0.38 in magnitude.
    """
    c1 = rng.uniform(1.0, 2.5)
    gap = rng.uniform(0.5, 1.5)
    fB = _bounded_field(rng, int(rng.integers(1, 3)))
    fA = _bounded_field(rng, int(rng.integers(1, 3)))
    B_src = f"{c1:.4f} + {fB}"
    A_src = f"{B_src} + {gap:.4f} + {fA}"
    return MetricFunctions.from_sources(A_src, B_src)


def random_parallel_manifold(rng) -> MetricFunctions:
    """Metric fields satisfying the gradient parallelism criterion on BOX.

    Either linear fields with grad A = grad B . MIRROR (possibly curved)
    or a pair A = B + gap with B a function of x1 + x2 + x3 (flat family).
    """
    if rng.integers(0, 2) == 0:
        b = rng.uniform(0.3, 1.5, size=3)
        a = b @ MIRROR_MATRIX
        cB = 1.0 + 1.2 * float(np.sum(np.abs(b)))
        cA = cB + 0.5 + 1.2 * float(np.sum(np.abs(a - b)))
        B_src = f"{b[0]:.4f}*x1 + {b[1]:.4f}*x2 + {b[2]:.4f}*x3 + {cB:.4f}"
        A_src = f"{a[0]:.4f}*x1 + {a[1]:.4f}*x2 + {a[2]:.4f}*x3 + {cA:.4f}"
        return MetricFunctions.from_sources(A_src, B_src)
    c1 = rng.uniform(1.5, 3.0)
    gap = rng.uniform(0.5, 1.5)
    amp = rng.uniform(0.1, 0.4)
    B_src = f"{c1:.4f} + {amp:.4f}*sin((x1 + x2 + x3) / 3)"
    A_src = f"{B_src} + {gap:.4f}"
    return MetricFunctions.from_sources(A_src, B_src)


def random_q_invariant_manifold(rng) -> MetricFunctions:
    """A = a(s), B = b(s) with s = x1 + x2 + x3, admissible on BOX (the cyclic family).

    The cyclic shift (x1, x2, x3) -> (x2, x3, x1) preserves s, so it is an
    isometry with differential -q and the curvature is q-invariant; q is
    parallel only where a' = b'. The coefficients vary around the pair
    a = 3 + exp(s/3)/7 + s^2/10, b = 1 + sin(s)/4.
    """
    s = "(x1 + x2 + x3)"
    ca, k, w = rng.uniform(2.5, 3.5), rng.uniform(2.5, 4.0), rng.uniform(0.05, 0.15)
    cb, amp = rng.uniform(0.8, 1.2), rng.uniform(0.1, 0.3)
    A_src = f"{ca:.4f} + exp({s} / {k:.4f}) / 7 + {w:.4f}*{s}^2"
    B_src = f"{cb:.4f} + {amp:.4f}*sin({s})"
    return MetricFunctions.from_sources(A_src, B_src)


def random_warped_manifold(rng) -> MetricFunctions:
    """The warped family on BOX: g has eigenvalue lambda = L(s) on (1, 1, 1) and nu = phi(s) psi(u, v)
    on the plane orthogonal to it, s = x1 + x2 + x3, u = x1 - x2, v = x2 - x3.

    A = (lambda + 2 nu) / 3 and B = (lambda - nu) / 3, admissible where lambda > nu > 0. The
    curvature is q-invariant; psi constant gives the cyclic family and phi constant a parallel q.
    The coefficients vary around L = 12 + s^2/10, phi = 2 + sin(s/4), psi = 1 + u^2/5, so that on
    BOX nu stays in [1, 7.8] and lambda at or above 10.
    """
    s, u, v = "(x1 + x2 + x3)", "(x1 - x2)", "(x2 - x3)"
    cl, w = rng.uniform(10.0, 14.0), rng.uniform(0.05, 0.15)
    cp, amp, k = rng.uniform(1.8, 2.2), rng.uniform(0.3, 0.8), rng.uniform(3.0, 5.0)
    cu, cv = rng.uniform(0.1, 0.25), rng.uniform(0.0, 0.15)
    lam = f"({cl:.4f} + {w:.4f}*{s}^2)"
    nu = f"(({cp:.4f} + {amp:.4f}*sin({s} / {k:.4f}))*(1 + {cu:.4f}*{u}^2 + {cv:.4f}*{v}^2))"
    return MetricFunctions.from_sources(f"({lam} + 2*{nu}) / 3", f"({lam} - {nu}) / 3")


def random_point(rng, box=BOX) -> np.ndarray:
    return np.array([rng.uniform(lo, hi) for lo, hi in box])


def random_q_basis_vector(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        if induces_q_basis(v):
            return v


def random_admissible_AB(rng) -> tuple[float, float]:
    B = rng.uniform(0.2, 4.0)
    A = B + rng.uniform(0.1, 4.0)
    return A, B


@np.errstate(all="ignore")  # inf or NaN where a product over a large unscaled g overflows, as metric.inner
def q_orbit_gram(g, x) -> tuple:
    """S = (x, qx, q^2 x) stacked (3, ...), plane k being {S[k], S[k+1 mod 3]}, and its Gram matrix over g,
    G[k, l] = g(S[k], S[l]) (3, 3, ...), each entry formed as (S[k] g) S[l], the bits of metric.inner.

    The coordinate-frame reference of qstructure's orbit quantities, which are formed from the invariants
    sigma and delta. x's batch must broadcast against g's behind S's leading axis.
    """
    x = np.asarray(x, dtype=float)
    S = np.stack((x, apply_q(x), apply_q(apply_q(x))))
    Sg = S[..., None, :] @ g
    return S, (Sg[:, None] @ S[None, ..., :, None])[..., 0, 0]


def q_basis_cosines_reference(M, x) -> tuple:
    """cos(x, qx), cos(x, q^2 x), cos(qx, q^2 x) from the Gram matrix of x's q-orbit over g / 2^e
    (q_orbit_gram), and the orbit's Gram-reference scale max_kl sum_ij |S[k]_i g_ij S[l]_j| / g(x, x), the
    size of a cosine's rounding error there in units of eps; x broadcasts against M's batch."""
    x = np.broadcast_to(np.asarray(x, dtype=float), np.broadcast_shapes(np.shape(x), M.A.shape + (3,)))
    g = np.ldexp(M.g, -M.e[..., None, None])  # exact
    S, G = q_orbit_gram(g, x)
    scale = (abs(S[:, None, ..., :, None]) * abs(g) * abs(S[None, ..., None, :])).sum(axis=(-2, -1))
    return G[0, 1] / G[0, 0], G[0, 2] / G[0, 0], G[1, 2] / G[0, 0], scale.max(axis=(0, 1)) / G[0, 0]


# -- jet operations over either jet module --------------------------------------
# Each takes the module whose functions it calls (circulant3.jets, or the
# three-array reference tests/jets_reference.py), two jets a, b of that module's
# Jet2 with equal batch shapes, and a number c.

JET_OPS = {
    "jet + jet": lambda m, a, b, c: a + b,
    "jet - jet": lambda m, a, b, c: a - b,
    "jet * jet": lambda m, a, b, c: a * b,
    "jet / jet": lambda m, a, b, c: a / b,
    "jet + c": lambda m, a, b, c: a + c,
    "c + jet": lambda m, a, b, c: c + a,
    "jet - c": lambda m, a, b, c: a - c,
    "c - jet": lambda m, a, b, c: c - a,
    "jet * c": lambda m, a, b, c: a * c,
    "c * jet": lambda m, a, b, c: c * a,
    "jet / c": lambda m, a, b, c: a / c,
    "c / jet": lambda m, a, b, c: c / a,
    "neg": lambda m, a, b, c: -a,
    "jet ** -2": lambda m, a, b, c: a ** -2,
    "jet ** -1": lambda m, a, b, c: a ** -1,
    "jet ** 0": lambda m, a, b, c: a ** 0,
    "jet ** 1": lambda m, a, b, c: a ** 1,
    "jet ** 2": lambda m, a, b, c: a ** 2,
    "jet ** 3": lambda m, a, b, c: a ** 3,
    "jet ** 4": lambda m, a, b, c: a ** 4,
    "jet ** 5": lambda m, a, b, c: a ** 5,
    "jet ** -3": lambda m, a, b, c: a ** -3,
    "jet ** 2.5": lambda m, a, b, c: a ** 2.5,
    "sqrt": lambda m, a, b, c: m.sqrt(a),
    "exp": lambda m, a, b, c: m.exp(a),
    "log": lambda m, a, b, c: m.log(a),
    "sin": lambda m, a, b, c: m.sin(a),
    "cos": lambda m, a, b, c: m.cos(a),
    "power": lambda m, a, b, c: m.power(a, -0.5),
    "divide": lambda m, a, b, c: m.divide(a, b),
    "getitem": lambda m, a, b, c: a[-1:] if a.value.ndim else a[()],
    "concatenate": lambda m, a, b, c: m.concatenate([a, b]) if a.value.ndim else a,
    "constant": lambda m, a, b, c: m.constant(c, a.value.shape),
    "variable": lambda m, a, b, c: m.variable(2, a.grad),
    "chain": lambda m, a, b, c: m.sin(a * b) + m.exp(b / 4) * m.sqrt(2.5 + a) - c * m.cos(b) / (3.0 - a) ** 3,
}


def jet_outcome(op, m, a, b, c):
    """The bits of op's jet (value, gradient, Hessian), or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):  # as eval_jet evaluates
            j = op(m, a, b, c)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return tuple((np.asarray(x).shape, np.asarray(x).tobytes()) for x in (j.value, j.grad, j.hess))
