"""The curvature oracle (oracle.py) against a symbolic derivation from the metric.

sympy derives the Christoffel symbols and R_ijkh of g = circ(A, B, B) from
their definitions, once per module: for generic fields A(x), B(x) and for
the built-in example A = 2 x1, B = 2 x1 + x2 + x3. The tests assert that
the oracle's formulas are exactly the derived ones, that the numeric
Christoffel symbols and their derivatives are the derived ones on the
example and on seeded generic fields, and pin term by term how the reference closed forms that
closed_form_from_metric evaluates differ from them. sympy is needed here only; the oracle itself is plain
arithmetic, so the acceptance tests that use it run without sympy.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from circulant3.curvature import christoffel_from_metric, closed_form_from_metric
from circulant3.metric import metric_at
from circulant3.specfile import builtin_example

from helpers import random_manifold, random_parallel_manifold, random_point, random_q_invariant_manifold
from oracle import example_components, generic_components

sp = pytest.importorskip("sympy")
from sympy.printing.pycode import PythonCodePrinter  # noqa: E402

X = sp.symbols("x1:4")
NAMES = ("R1212", "R1313", "R2323", "R1213", "R1223", "R1323")

# the jet symbols: values, gradients and (symmetric) Hessians of A and B
A, B = sp.symbols("A B")
dA, dB = sp.symbols("A1:4"), sp.symbols("B1:4")
HA, HB = (
    [[sp.Symbol(f"{f}{min(i, j) + 1}{max(i, j) + 1}") for j in range(3)] for i in range(3)]
    for f in "AB"
)
FIRST = set(dA) | set(dB)
D = (A - B) * (A + 2 * B)


def _index(name):
    """'Rijkh' -> the 0-based slots (i, j, k, h)."""
    return tuple(int(c) - 1 for c in name[1:])


def _christoffel(g, inverse):
    """Gamma[i][j][h] = Gamma_ij^h = 1/2 g^{ht} (d_i g_tj + d_j g_ti - d_t g_ij) of g(x)."""
    assert (inverse * g - sp.eye(3)).applyfunc(sp.cancel) == sp.zeros(3, 3)
    d = sp.diff
    return [
        [
            [
                sum(inverse[h, t] * (d(g[t, j], X[i]) + d(g[t, i], X[j]) - d(g[i, j], X[t]))
                    for t in range(3)) / 2
                for h in range(3)
            ]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _derive(g, inverse):
    """Gamma[i][j][h] = Gamma_ij^h and the six named components g(R(e_i,e_j)e_k, e_h) of g(x).

    R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z with
    nabla_{e_i} e_j = Gamma_ij^h e_h.
    """
    d = sp.diff
    gamma = _christoffel(g, inverse)
    out = {}
    for name in NAMES:
        i, j, k, h = _index(name)
        # components of R(e_i, e_j) e_k in the coordinate basis
        v = [
            d(gamma[j][k][s], X[i]) - d(gamma[i][k][s], X[j])
            + sum(gamma[j][k][t] * gamma[i][t][s] - gamma[i][k][t] * gamma[j][t][s]
                  for t in range(3))
            for s in range(3)
        ]
        out[name] = sum(v[s] * g[s, h] for s in range(3))
    return gamma, out


def _circulant(a, b):
    """circ(a, b, b) and its inverse circ(a + b, -b, -b) / ((a - b)(a + 2b))."""
    g = sp.Matrix(3, 3, lambda i, j: a if i == j else b)
    det = (a - b) * (a + 2 * b)
    inverse = sp.Matrix(3, 3, lambda i, j: (a + b) / det if i == j else -b / det)
    return g, inverse


def _generic_fields():
    """The fields A(x), B(x) as sympy functions, and the map of their derivatives to the jet symbols."""
    fA, fB = sp.Function("A")(*X), sp.Function("B")(*X)
    jets = {fA: A, fB: B}
    for f, grad, hess in ((fA, dA, HA), (fB, dB, HB)):
        for i in range(3):
            jets[sp.diff(f, X[i])] = grad[i]
            for j in range(3):
                jets[sp.diff(f, X[i], X[j])] = hess[i][j]
    return fA, fB, jets


@pytest.fixture(scope="module")
def derived_generic():
    """4 D R_name as a polynomial in the jet symbols, for generic A(x), B(x)."""
    fA, fB, jets = _generic_fields()
    _, R = _derive(*_circulant(fA, fB))
    return {name: sp.expand(sp.cancel(4 * D * R[name].xreplace(jets))) for name in NAMES}


@pytest.fixture(scope="module")
def derived_example():
    return _derive(*_circulant(2 * X[0], 2 * X[0] + X[1] + X[2]))


def test_generic_oracle_is_the_derived_curvature(derived_generic):
    oracle = generic_components(A, B, dA, dB, HA, HB)
    for name in NAMES:
        assert sp.expand(sp.cancel(4 * D * oracle[name]) - derived_generic[name]) == 0, name


def test_example_oracle_is_the_derived_curvature(derived_example):
    _, derived = derived_example
    oracle = example_components(*X)
    for name in NAMES:
        assert sp.cancel(derived[name] - oracle[name]) == 0, name
    # the convention's pin: R1212 = -1/8 at (2, -1, -1)
    assert oracle["R1212"].subs(dict(zip(X, (2, -1, -1)))) == sp.Rational(-1, 8)


def test_the_cyclic_family_satisfies_the_q_invariance_chains_exactly():
    """R1212 = R1313 = R2323 and R1213 = R1323 = -R1223 for A = a(s), B = b(s), s = x1 + x2 + x3.

    The cyclic shift (x1, x2, x3) -> (x2, x3, x1) preserves s, so it is an
    isometry whose differential is -q, and the curvature is q-invariant.
    R1223 does not vanish there, which pins the sign check_q_invariance
    puts on it.
    """
    s = sum(X)
    a, b = sp.Function("a")(s), sp.Function("b")(s)
    R = generic_components(
        a, b,
        [sp.diff(a, x) for x in X], [sp.diff(b, x) for x in X],
        [[sp.diff(a, x, y) for y in X] for x in X], [[sp.diff(b, x, y) for y in X] for x in X],
    )
    for lhs, rhs in [("R1212", R["R1313"]), ("R1212", R["R2323"]),
                     ("R1213", R["R1323"]), ("R1213", -R["R1223"])]:
        assert sp.cancel(R[lhs] - rhs) == 0, lhs
    assert sp.cancel(R["R1223"]) != 0


def test_example_christoffel_symbols_are_the_derived_ones(derived_example):
    """christoffel_from_metric against the derived Gamma_ij^h and d_k Gamma_ij^h, to relative 1e-12.

    Relative to the table's largest entry, so that the symbols which vanish
    exactly are held to the same absolute bound.
    """
    gamma = [[[sp.cancel(e) for e in row] for row in plane] for plane in derived_example[0]]
    R3 = range(3)
    dgamma = [[[[sp.diff(gamma[i][j][h], X[k]) for h in R3] for j in R3] for i in R3] for k in R3]
    example = builtin_example().metric
    points = [(2, -1, -1), ("3/2", "-3/10", "-9/10"), ("11/5", "-1/2", "-11/10"), (1, "-1/5", "-3/5")]
    for p in points:
        at = dict(zip(X, (sp.Rational(c) for c in p)))
        table = christoffel_from_metric(metric_at(example, [float(v) for v in at.values()]))
        for numeric, symbolic in ((table.gamma, gamma), (table.dgamma, dgamma)):
            exact = np.vectorize(lambda e: float(e.subs(at)), otypes=[float])(np.array(symbolic, dtype=object))
            assert numeric.shape == exact.shape
            assert np.max(np.abs(numeric - exact)) <= 1e-12 * np.max(np.abs(exact)), p


def _reference(name):
    """4 D times the reference closed form, evaluated on the jet symbols."""
    def jet(grad, hess):
        return SimpleNamespace(grad=np.array(grad, dtype=object), hess=np.array(hess, dtype=object))

    M = SimpleNamespace(A=A, B=B, A_jet=jet(dA, HA), B_jet=jet(dB, HB), D=D)
    value = getattr(closed_form_from_metric(M), name)
    value = value.xreplace({f: sp.Rational(f) for f in value.atoms(sp.Float)})
    return sp.expand(sp.cancel(4 * D * value))


def test_reference_closed_forms_against_the_derivation(derived_generic):
    """Where the reference closed forms depart from the derived curvature.

    Split each 4 D R into its Hessian part (first derivatives set to 0) and
    its first-order part. The reference's Hessian part is exactly minus the
    derived one; its first-order part differs from the derived one by a
    nonzero polynomial in A, B and the first derivatives, the remainder.
    On the built-in example (Hessians 0) the remainder vanishes for the
    diagonal components, which is why the two routes agree there, and not
    for the cross components.
    """
    no_first = {s: 0 for s in FIRST}
    x1, x2, x3 = X
    on_example = dict(zip((A, B) + dA + dB, (2 * x1, 2 * x1 + x2 + x3, 2, 0, 0, 2, 1, 1)))
    for name in NAMES:
        derived, reference = derived_generic[name], _reference(name)
        hess_derived, hess_reference = derived.subs(no_first), reference.subs(no_first)
        assert hess_derived != 0, name
        assert sp.expand(hess_reference + hess_derived) == 0, name
        remainder = sp.expand((reference - hess_reference) - (derived - hess_derived))
        assert remainder != 0, name
        assert remainder.free_symbols <= {A, B} | FIRST, name
        at_example = sp.expand(remainder.subs(on_example))
        if name in ("R1212", "R1313", "R2323"):
            assert at_example == 0, name
        else:
            assert at_example != 0, name


def test_generic_christoffel_symbols_are_the_derived_ones():
    """christoffel_from_metric against Gamma_ij^h and d_k Gamma_ij^h derived for generic A(x), B(x).

    Gamma is derived as a function of the 1-jets J = (A, B, A_1..3, B_1..3)
    of the fields, and d_k Gamma follows by the chain rule,
    sum over J of (d Gamma / d J) d_k J, where d_k A = A_k and d_k A_i = A_ik
    (and so for B). Both are evaluated on the jets of seeded generic, cyclic
    and q-parallel manifolds at seeded points, to relative 1e-12 of the
    table's largest entry.
    """
    fA, fB, jets = _generic_fields()
    gamma = [e.xreplace(jets) for e in sp.flatten(_christoffel(*_circulant(fA, fB)))]
    J = [A, B, *dA, *dB]
    partials = [[sp.diff(e, s) for e in gamma] for s in J]
    # printed as built, not term-sorted: the sorting would dominate the time
    printer = PythonCodePrinter({"order": "none"})
    derived = sp.lambdify(J, [gamma, partials], modules="math", printer=printer, cse=True)
    for make in (random_manifold, random_q_invariant_manifold, random_parallel_manifold):
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            m = make(rng)
            for _ in range(2):
                M = metric_at(m, random_point(rng))
                values, dvalues = derived(float(M.A), float(M.B), *M.A_jet.grad, *M.B_jet.grad)
                # dJ[J, k] = d_k J
                dJ = np.vstack([M.A_jet.grad, M.B_jet.grad, M.A_jet.hess, M.B_jet.hess])
                table = christoffel_from_metric(M)
                for numeric, exact in ((table.gamma, values), (table.dgamma, dJ.T @ np.array(dvalues))):
                    exact = np.reshape(exact, numeric.shape)
                    assert np.max(np.abs(numeric - exact)) <= 1e-12 * np.max(np.abs(exact)), make.__name__
