"""Exact second-order jets of rational fields, and the exact curvature they give.

An oracle for the whole numeric route (jets, kernel) that shares no code with
``circulant3.jets`` or the kernels of ``circulant3.curvature``: a 2-jet of
``fractions.Fraction`` values is evaluated over a parsed expression's program, and
``oracle.generic_components`` turns the jets of A and B into the six
curvature components in exact arithmetic.

A number becomes ``Fraction(value)``, exact for the parsed double, and a
point is taken as the Fractions of its coordinates, so the result is the
exact curvature of the same double inputs the float route reads. The program
may use the coordinates, ``+ - * /``, unary minus and integer powers; the
transcendental functions have no rational jets and are refused.

``fraction_jet`` takes the Fractions of a float jet as it is: the exact
curvature of the float jets measures the kernel alone, apart from the
rounding of the jets themselves. ``exact_sectional`` is the sectional
curvature of rational vectors from those exact components, and
``exact_plane``, ``exact_orbit_cosine`` and ``exact_cubic`` the plane's Gram
determinant, cos(x, qx) and the q-basis cubic, in the coordinate frame. ``exact_christoffel``
is Gamma and its first derivatives of the same exact jets, with g^-1 in
Fractions.

``closed_form_error`` measures ``curvature.closed_form_from_metric``, whose
scaling is under test, against the formula text it evaluates,
``curvature.closed_form``, in 50-digit mpmath arithmetic: its float literals
would turn Fractions into floats, while an mpf stays an mpf.
"""

from __future__ import annotations

from fractions import Fraction

from circulant3.curvature import COMPONENT_INDEX, closed_form
from circulant3.expressions import ScalarFieldExpr

from oracle import generic_components


class ExactJet:
    """The value, gradient (3) and Hessian (3 x 3) of a field at one point, as Fractions."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = tuple(grad)
        self.hess = tuple(tuple(row) for row in hess)

    @classmethod
    def constant(cls, c):
        return cls(Fraction(c), (0, 0, 0), ((0, 0, 0),) * 3)

    def __add__(self, other):
        return ExactJet(
            self.value + other.value,
            (a + b for a, b in zip(self.grad, other.grad)),
            ((a + b for a, b in zip(r, s)) for r, s in zip(self.hess, other.hess)),
        )

    def __neg__(self):
        return ExactJet(-self.value, (-a for a in self.grad), ((-a for a in r) for r in self.hess))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        u, v = self, other
        return ExactJet(
            u.value * v.value,
            (u.value * b + a * v.value for a, b in zip(u.grad, v.grad)),
            (
                (u.hess[i][j] * v.value + u.grad[i] * v.grad[j] + u.grad[j] * v.grad[i] + u.value * v.hess[i][j]
                 for j in range(3))
                for i in range(3)
            ),
        )

    def _lift(self, f0, f1, f2):
        """f(self) by the chain rule, given f, f' and f'' at self's value."""
        g, h = self.grad, self.hess
        return ExactJet(
            f0,
            (f1 * a for a in g),
            ((f2 * g[i] * g[j] + f1 * h[i][j] for j in range(3)) for i in range(3)),
        )

    def reciprocal(self):
        v = self.value
        if v == 0:
            raise ZeroDivisionError("exact division by zero")
        return self._lift(1 / v, -1 / v**2, 2 / v**3)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def __pow__(self, n: int):
        if n < 0:
            return (self ** -n).reciprocal()
        v = self.value
        if n == 0:
            return ExactJet.constant(1)
        return self._lift(v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2) if n > 1 else 0)


def _point(p):
    return tuple(Fraction(float(x)) for x in p)


def _variable(i: int, x: Fraction) -> ExactJet:
    return ExactJet(x, (Fraction(int(i == k)) for k in range(3)), ((0, 0, 0),) * 3)


_BINARY = {"+": ExactJet.__add__, "-": ExactJet.__sub__, "*": ExactJet.__mul__, "/": ExactJet.__truediv__}


def exact_jet(f: ScalarFieldExpr, p) -> ExactJet:
    """The exact jet of f at the point p (three doubles)."""
    coords = [_variable(i, x) for i, x in enumerate(_point(p))]
    stack = []
    for op, arg in f.program:
        if op == "num":
            stack.append(ExactJet.constant(arg))
        elif op == "x":
            stack.append(coords[arg])
        elif op in _BINARY:
            right = stack.pop()
            stack[-1] = _BINARY[op](stack[-1], right)
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^" and arg == int(arg):
            stack[-1] = stack[-1] ** int(arg)
        else:
            raise ValueError(f"no exact jet for {(op, arg)!r}: only + - * /, negation and integer powers are rational")
    return stack[0]


def fraction_jet(jet) -> ExactJet:
    """The Fractions of a float jet of one point (circulant3.jets.Jet2), exactly."""
    return ExactJet(
        Fraction(float(jet.value)),
        (Fraction(float(a)) for a in jet.grad),
        ((Fraction(float(a)) for a in row) for row in jet.hess),
    )


def exact_components(A: ExactJet, B: ExactJet) -> dict:
    """The six curvature components of g = circ(A, B, B) from exact jets, as Fractions."""
    return generic_components(A.value, B.value, A.grad, B.grad, A.hess, B.hess)


def exact_curvature(m, p) -> dict:
    """The exact components of the metric functions m at the point p (three doubles)."""
    return exact_components(exact_jet(m.A, p), exact_jet(m.B, p))


def exact_christoffel(A: ExactJet, B: ExactJet) -> tuple[list, list]:
    """Gamma[i][j][h] = Gamma_ij^h and dGamma[k][i][j][h] = d_k Gamma_ij^h of g = circ(A, B, B), exactly.

    2 Gamma_ij^h = g^th C_ijt with C_ijt = d_i g_tj + d_j g_ti - d_t g_ij, and
    2 d_k Gamma_ij^h = d_k g^th C_ijt + g^th d_k C_ijt with d_k g^-1 = -g^-1 (d_k g) g^-1;
    g^-1 has (A + B) / D on its diagonal and -B / D off it, D = (A - B)(A + 2B).
    """
    r = range(3)
    D = (A.value - B.value) * (A.value + 2 * B.value)
    inv = [[(A.value + B.value) / D if a == b else -B.value / D for b in r] for a in r]

    def dg(k, i, j):
        return (A if i == j else B).grad[k]

    def ddg(k, l, i, j):
        return (A if i == j else B).hess[k][l]

    C = [[[dg(i, t, j) + dg(j, t, i) - dg(t, i, j) for t in r] for j in r] for i in r]
    dinv = [[[-sum(inv[a][b] * dg(k, b, c) * inv[c][d] for b in r for c in r) for d in r] for a in r] for k in r]
    gamma = [[[sum(C[i][j][t] * inv[t][h] for t in r) / 2 for h in r] for j in r] for i in r]
    dgamma = [
        [[[sum(dinv[k][t][h] * C[i][j][t] + inv[t][h] * (ddg(k, i, t, j) + ddg(k, j, t, i) - ddg(k, t, i, j))
               for t in r) / 2 for h in r] for j in r] for i in r]
        for k in r
    ]
    return gamma, dgamma


_PAIRS = ((0, 1), (0, 2), (1, 2))


def _gram(A, B):
    """g(u, v) = u^T circ(A, B, B) v for A and B as Fractions and vectors of Fractions."""
    return lambda u, v: sum((A if i == j else B) * u[i] * v[j] for i in range(3) for j in range(3))


def exact_plane(A, B, x, y) -> tuple[list, Fraction]:
    """The pairs w_ij = x_i y_j - x_j y_i (i < j) of the plane {x, y} and its Gram determinant
    g(x, x) g(y, y) - g(x, y)^2 for g = circ(A, B, B), exactly; A, B and the entries are doubles."""
    g = _gram(Fraction(float(A)), Fraction(float(B)))
    x, y = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    return [x[i] * y[j] - x[j] * y[i] for i, j in _PAIRS], g(x, x) * g(y, y) - g(x, y) ** 2


def exact_orbit_products(A, B, x) -> tuple[Fraction, Fraction]:
    """g(x, x) and g(x, qx) for g = circ(A, B, B) and qx = (-x2, -x3, -x1), exactly; A, B and the entries are
    doubles."""
    g = _gram(Fraction(float(A)), Fraction(float(B)))
    x = [Fraction(float(v)) for v in x]
    return g(x, x), g(x, [-x[1], -x[2], -x[0]])


def exact_orbit_cosine(A, B, x) -> Fraction:
    """cos(x, qx) = g(x, qx) / g(x, x), exactly (exact_orbit_products)."""
    gxx, gxqx = exact_orbit_products(A, B, x)
    return gxqx / gxx


def exact_cubic(x) -> Fraction:
    """3 x1 x2 x3 - (x1^3 + x2^3 + x3^3), the q-basis cubic, exactly; the entries are doubles."""
    x1, x2, x3 = (Fraction(float(v)) for v in x)
    return 3 * x1 * x2 * x3 - (x1**3 + x2**3 + x3**3)


def exact_sectional(components: dict, A, B, x, y) -> Fraction:
    """R(x, y, x, y) / (g(x, x) g(y, y) - g(x, y)^2) for g = circ(A, B, B), exactly.

    components are exact ones by the names of COMPONENT_INDEX. R(x, y, x, y) is
    the form S(w, w) of the plane's pairs w (exact_plane), with
    S[ij, kh] = low[i, j, k, h] fixed by the six components.
    """
    w, det = exact_plane(A, B, x, y)
    S = {(COMPONENT_INDEX[name][:2], COMPONENT_INDEX[name][2:]): value for name, value in components.items()}
    S.update({(Q, P): value for (P, Q), value in list(S.items())})
    return sum(S[P, Q] * w[a] * w[b] for a, P in enumerate(_PAIRS) for b, Q in enumerate(_PAIRS)) / det


def closed_form_error(cf: dict, A_jet, B_jet, digits: int = 50) -> float:
    """max |cf - reference| / max |reference| over the six components, in units of eps.

    cf holds the float components of one point by name, and the reference is
    curvature.closed_form on the float jets of that point (circulant3.jets.Jet2)
    in mpmath arithmetic of the given digits; each double is an mpf exactly.
    Where every reference component is 0, the error is max |cf|.
    """
    import mpmath  # installed with sympy; callers skip without it

    with mpmath.workdps(digits):
        def mp(values):
            return [mpmath.mpf(float(v)) for v in values]

        jets = [(mp([j.value])[0], mp(j.grad), [mp(row) for row in j.hess]) for j in (A_jet, B_jet)]
        (A, dA, HA), (B, dB, HB) = jets
        want = dict(zip(COMPONENT_INDEX, closed_form(A, B, dA, dB, HA, HB)))
        error = max(abs(mpmath.mpf(float(cf[name])) - value) for name, value in want.items())
        scale = max(abs(value) for value in want.values())
        return float(error / scale) / 2.0**-52 if scale else float(error)
