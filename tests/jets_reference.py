"""The three-array Jet2 of circulant3.jets before it packed value, gradient and
Hessian into one array (now ``(13, ...)``, channel first), kept verbatim as a
reference, except that
an integer power's zero-coefficient derivative channels (of ``v ** 0``, and
the second of ``v ** 1``) are signed zeros formed without a pow that could
overflow at a tiny v.

tests/test_jets.py checks every operation and scalar function of the packed
jets against this module bit for bit, error messages included.
"""

from __future__ import annotations

import math

import numpy as np

Scalar = (int, float)


def elementwise(fn, x):
    """fn on a float, or on each element of an array as a Python float."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _div(a, b):
    """a / b, raising ZeroDivisionError where any divisor is zero."""
    if (b == 0.0).any() if isinstance(b, np.ndarray) else b == 0.0:
        raise ZeroDivisionError("float division by zero")
    return a / b


def _div_derivative(what: str, v, a, b):
    """a / b, a derivative of what at v, where b is a power of the nonzero v.

    Where b underflowed to zero, the derivative overflows: raise OverflowError."""
    bad = b == 0.0
    if bad.any():
        raise OverflowError(f"{what} overflows in a derivative at {_first(v, bad)!r}")
    return a / b


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The first element of values where bad holds."""
    return values[bad].flat[0].item()


def _g(v):
    """A batch of scalars shaped to scale gradients (..., 3)."""
    return v[..., None]


def _h(v):
    """A batch of scalars shaped to scale Hessians (..., 3, 3)."""
    return v[..., None, None]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _pow_value(v: float, r: float) -> float:
    # Integer exponents go through float pow (valid for negative bases);
    # real exponents require a positive base and use exp(r*log(v)).
    if float(r).is_integer():
        return v ** int(r)
    return math.exp(r * math.log(v))


def _int_pow_taylor(v: float, n: int) -> tuple[float, float, float]:
    """v**n and its first two derivatives in v, with float pow semantics."""
    val = v ** n  # ZeroDivisionError for v == 0, n < 0
    if v == 0.0:
        return val, (1.0 if n == 1 else 0.0), (2.0 if n == 2 else 0.0)
    return val, _pow_channel(v, n, n - 1), _pow_channel(v, n * (n - 1), n - 2)


def _pow_channel(v: float, c: int, k: int) -> float:
    """c * v ** k; a zero c gives the signed zero of that product without the pow, which may overflow."""
    if c == 0:
        return -0.0 if k % 2 and v < 0 else 0.0
    return c * v ** k


class Jet2:
    """Value, gradient and symmetric Hessian of a scalar field over a batch of points."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        v = np.asarray(value, dtype=float)
        g = np.asarray(grad, dtype=float)
        h = np.asarray(hess, dtype=float)
        if g.shape != v.shape + (3,) or h.shape != v.shape + (3, 3):
            raise ValueError(
                "Jet2 needs value (...), grad (..., 3) and hess (..., 3, 3); "
                f"got {v.shape}, {g.shape} and {h.shape}"
            )
        self.value = v
        self.grad = g
        self.hess = h

    def __getitem__(self, index):
        """The jets at part of the batch."""
        return Jet2(self.value[index], self.grad[index], self.hess[index])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        if isinstance(other, Scalar):
            return Jet2(self.value + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        if isinstance(other, Scalar):
            return Jet2(self.value - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Scalar):
            return Jet2(other - self.value, -self.grad, -self.hess)
        return NotImplemented

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            h = (
                _h(self.value) * other.hess
                + _h(other.value) * self.hess
                + _outer(self.grad, other.grad)
                + _outer(other.grad, self.grad)
            )
            # h[j, i] adds the two outer products in the other order from h[i, j], which rounds differently
            h = (h + h.swapaxes(-1, -2)) / 2.0
            return Jet2(self.value * other.value, _g(self.value) * other.grad + _g(other.value) * self.grad, h)
        if isinstance(other, Scalar):
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            v = other.value
            val = _div(self.value, v)
            v2 = v * v
            grad = (self.grad * _g(v) - _g(self.value) * other.grad) / _g(v2)
            hess = (
                self.hess / _h(v)
                - _h(self.value) * other.hess / _h(v2)
                - (_outer(self.grad, other.grad) + _outer(other.grad, self.grad)) / _h(v2)
                + _h(2.0 * self.value) * _outer(other.grad, other.grad) / _h(v2 * v)
            )
            return Jet2(val, grad, hess)
        if isinstance(other, Scalar):
            return Jet2(_div(self.value, other), self.grad / other, self.hess / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, Scalar):
            v = self.value
            val = _div(other, v)
            f1 = _div_derivative("division by a jet", v, -other, v * v)
            f2 = _div_derivative("division by a jet", v, 2.0 * other, v * v * v)
            return _lift(self, val, f1, f2)
        return NotImplemented

    def __pow__(self, r):
        if not isinstance(r, Scalar):
            return NotImplemented
        r = float(r)
        if r.is_integer():
            n = int(r)
            taylor = [_int_pow_taylor(v, n) for v in self.value.ravel().tolist()]
            f = np.array(taylor, dtype=float).reshape(self.value.shape + (3,))
            return _lift(self, f[..., 0], f[..., 1], f[..., 2])
        # real exponent: compose exp(r * log(.)) so the value channel matches
        # _pow_value exactly
        return exp(r * log(self))


def constant(c: float, shape: tuple[int, ...] = ()) -> Jet2:
    """Jet of a constant field over a batch of the given shape."""
    return Jet2(np.full(shape, float(c)), np.zeros(shape + (3,)), np.zeros(shape + (3, 3)))


def variable(i: int, p) -> Jet2:
    """Jet of the i-th coordinate function (i in 1..3) at p, shape (3,) or (N, 3)."""
    if i not in (1, 2, 3):
        raise ValueError(f"coordinate index {i} out of range 1..3")
    p = np.asarray(p, dtype=float)
    shape = p.shape[:-1]
    grad = np.zeros(shape + (3,))
    grad[..., i - 1] = 1.0
    return Jet2(p[..., i - 1], grad, np.zeros(shape + (3, 3)))


def concatenate(parts) -> Jet2:
    """One jet over the joined 1-d batches of parts."""
    return Jet2(*(np.concatenate([getattr(j, k) for j in parts]) for k in Jet2.__slots__))


def _lift(j: Jet2, f0, f1, f2) -> Jet2:
    """Compose a scalar function (value f0, derivatives f1, f2 at j.value) with j."""
    return Jet2(f0, _g(f1) * j.grad, _h(f1) * j.hess + _h(f2) * _outer(j.grad, j.grad))


# -- scalar functions usable on floats, arrays and jets alike ----------------


def divide(a, b):
    """a / b; a zero divisor raises ZeroDivisionError, as float division does."""
    if isinstance(a, Jet2) or isinstance(b, Jet2):
        return a / b
    return _div(a, b)


def sqrt(x):
    if isinstance(x, Jet2):
        v = x.value
        bad = v <= 0.0
        if bad.any():
            raise ValueError(f"sqrt of a jet requires a positive value, got {_first(v, bad)!r}")
        s = elementwise(math.sqrt, v)
        return _lift(x, s, _div(0.5, s), _div_derivative("sqrt of a jet", v, -0.25, s * v))
    return elementwise(math.sqrt, x)


def exp(x):
    if isinstance(x, Jet2):
        e = elementwise(math.exp, x.value)
        return _lift(x, e, e, e)
    return elementwise(math.exp, x)


def log(x):
    if isinstance(x, Jet2):
        v = x.value
        bad = v <= 0.0
        if bad.any():
            raise ValueError(f"log of a jet requires a positive value, got {_first(v, bad)!r}")
        return _lift(x, elementwise(math.log, v), _div(1.0, v), _div_derivative("log of a jet", v, -1.0, v * v))
    return elementwise(math.log, x)


def sin(x):
    if isinstance(x, Jet2):
        s, c = elementwise(math.sin, x.value), elementwise(math.cos, x.value)
        return _lift(x, s, c, -s)
    return elementwise(math.sin, x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = elementwise(math.sin, x.value), elementwise(math.cos, x.value)
        return _lift(x, c, -s, -c)
    return elementwise(math.cos, x)


def power(x, r: float):
    """x**r for a float, array or jet x; integer r admits non-positive bases."""
    if isinstance(x, Jet2):
        return x ** r
    return elementwise(lambda v: _pow_value(v, r), x)
