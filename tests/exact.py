"""Exact second-order jets of rational fields, and the exact curvature they give.

An oracle for the whole numeric route (jets, kernel) that shares no code with
``circulant3.jets`` or ``circulant3.curvature``: a 2-jet of
``fractions.Fraction`` values is evaluated over a parsed expression tree, and
``oracle.generic_components`` turns the jets of A and B into the six
curvature components in exact arithmetic.

A ``Const`` becomes ``Fraction(value)``, exact for the parsed double, and a
point is taken as the Fractions of its coordinates, so the result is the
exact curvature of the same double inputs the float route reads. The tree
may use the coordinates, ``+ - * /``, unary minus and integer powers; the
transcendental functions have no rational jets and are refused.

``fraction_jet`` takes the Fractions of a float jet as it is: the exact
curvature of the float jets measures the kernel alone, apart from the
rounding of the jets themselves.
"""

from __future__ import annotations

from fractions import Fraction

from circulant3.expressions import Binary, Const, Coord, Power, ScalarFieldExpr, Unary, _chain

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


def exact_jet(f: ScalarFieldExpr, p) -> ExactJet:
    """The exact jet of f at the point p (three doubles)."""
    coords = [_variable(i, x) for i, x in enumerate(_point(p))]

    def walk(node):
        if isinstance(node, Const):
            return ExactJet.constant(node.value)
        if isinstance(node, Coord):
            return coords[node.index - 1]
        if isinstance(node, Binary):
            chain = _chain(node)
            acc = walk(chain[0].left)
            for link in chain:
                right = walk(link.right)
                acc = {"+": ExactJet.__add__, "-": ExactJet.__sub__, "*": ExactJet.__mul__,
                       "/": ExactJet.__truediv__}[link.op](acc, right)
            return acc
        if isinstance(node, Unary) and node.op == "neg":
            return -walk(node.arg)
        if isinstance(node, Power) and node.exponent == int(node.exponent):
            return walk(node.base) ** int(node.exponent)
        raise ValueError(f"no exact jet for {node!r}: only + - * /, negation and integer powers are rational")

    return walk(f.root)


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
