"""Second-order forward-mode jets in three variables, over a batch of points.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar field
at every point of a batch, i.e. its truncated second-order Taylor
expansion (Taylor-mode forward propagation; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13). The shapes are
``value (...)``, ``grad (..., 3)`` and ``hess (..., 3, 3)``, where ``...``
is the batch shape: ``()`` for one point, ``(N,)`` for N points. Every
operation works element by element, so the jets of a batch equal, bit for
bit, those of its points evaluated one at a time. No finite differencing
is involved anywhere.

Storage. A jet keeps its 13 numbers per point packed in one array ``data
(..., 13)``: the value, then the gradient, then the Hessian row by row.
``value``, ``grad`` and ``hess`` are views of it (``hess`` is formed where
it is read, as few operations read it). So a sum, a difference, a
negation, a product or quotient with a number, ``concatenate`` and
``__getitem__`` are each one array operation, and a finiteness check is
one call. The product of two jets scales all 13 channels in one pass and
``_lift`` (the chain rule of the scalar functions) the 12 derivative
channels. Every jet is built by ``Jet2.__init__``, from the packed array
or from the three parts, and every operation gives the bits the
three-array layout gave, signed zeros included (tests/jets_reference.py
keeps that layout).

The value channel performs the *same* floating-point primitives as a
plain-number evaluation: IEEE arithmetic, and for sqrt, exp, log, sin, cos
and ``**`` the Python ``math`` or float function applied to each element
(numpy's exp and log differ from ``math`` in the last bit on some inputs).
A domain error raises what that primitive raises at the first failing
element (ValueError, ZeroDivisionError or OverflowError, with the same
message), and a division by zero raises ZeroDivisionError as float
division does. So jet evaluation and plain evaluation of one expression
agree bit for bit. Where a derivative divides by a power of a nonzero value
that underflows to zero (``1/x`` at ``x = 1e-120``), the derivative overflows,
and an OverflowError says so.

An integer power ``v ** n`` forms its three channels one after another,
none with a Python call per element. The value is a float pow per element,
by ``_int_power``, which also serves plain numbers. A derivative channel
``c v^k`` (``c = n``, ``k = n - 1``, and ``c = n (n - 1)``, ``k = n - 2``)
is one array operation where k is 0 or 1, and exact: float pow gives
``v ** 0 = 1.0`` and ``v ** 1 = v``, so the channel is the constant c or
``c v``, with the ``v == 0`` limit of ``_int_pow_taylor``. A zero c (the
channels of ``v ** 0`` and the second of ``v ** 1``) is a signed zero,
with no pow that could overflow at a tiny v. Any other k takes a flat
list of ``c * v ** k``, a float pow and a product per element.
Where a channel raises, the elements run again one at a time through
``_int_pow_taylor``, so the first failing element raises, its value before
its derivatives.

Every operation's Hessian is symmetric by construction, bit for bit: each
entry is built from symmetric Hessians and outer products ``g h^T + h g^T``
whose entries add the same two products in either order. The product of two
jets is the exception: its entry ``(i, j)`` sums ``(s + p) + q`` and ``(j, i)``
sums ``(s + q) + p``, which round differently, so it symmetrises its own sum.
The constructor takes the Hessian as given.
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


def _int_power(x, n: int):
    """x ** n by float pow, on a float or on each element of an array, with no Python call per element.

    The value channel of an integer power, for jets and plain numbers alike. Raises what float pow
    raises at the first failing element: ZeroDivisionError for 0.0 to a negative power, OverflowError
    where the power overflows.
    """
    if not isinstance(x, np.ndarray):
        return x ** n
    return np.array([v ** n for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _int_pow_taylor(v: float, n: int) -> tuple[float, float, float]:
    """v**n and its first two derivatives in v, with float pow semantics: the definition of an integer power.

    Jet2.__pow__ forms the same numbers channel by channel; it calls this one element at a time
    only to raise what the first failing element raises.
    """
    val = v ** n  # ZeroDivisionError for v == 0, n < 0
    if v == 0.0:
        return val, (1.0 if n == 1 else 0.0), (2.0 if n == 2 else 0.0)
    return val, _pow_channel(v, n, n - 1), _pow_channel(v, n * (n - 1), n - 2)


def _pow_channel(v: float, c: int, k: int) -> float:
    """c * v ** k for a nonzero v; for c == 0 the zero that product has, without the pow, which may overflow."""
    if c == 0:
        return -0.0 if k % 2 and v < 0 else 0.0
    return c * v ** k


def _int_pow_derivative(v: np.ndarray, c: int, k: int) -> np.ndarray:
    """c * v ** k at each element of v, a derivative channel of v ** n, as _int_pow_taylor forms it.

    Where v == 0 (either sign) the channel is its limit: c if k == 0, else 0.0. For k of 0 or 1
    it is one exact array operation; c * v is nonzero where v is. A zero c (n of 0 or 1, so k < 0)
    gives the zero c * v ** k has, -0.0 for odd k and v < 0, without forming v ** k.
    """
    if c == 0:
        return np.where(v < 0, -0.0, 0.0) if k % 2 else np.zeros(v.shape)
    if k == 0:
        return np.full(v.shape, float(c))
    if k == 1:
        return c * v + 0.0  # -0.0 + 0.0 is 0.0: the limit at v == -0.0
    return np.array([c * x ** k if x else 0.0 for x in v.ravel().tolist()], dtype=float).reshape(v.shape)


class Jet2:
    """Value, gradient and symmetric Hessian of a scalar field over a batch of points.

    data (..., 13) holds them packed; value, grad and hess are views of it.
    """

    __slots__ = ("data", "value", "grad")

    def __init__(self, value, grad=None, hess=None):
        """Jet2(value, grad, hess) packs the three parts; Jet2(data) takes a packed (..., 13) array."""
        if grad is None and hess is None:
            d = np.asarray(value, dtype=float)
            if d.shape[-1:] != (13,):
                raise ValueError(f"Jet2 needs packed data (..., 13); got {d.shape}")
        else:
            v = np.asarray(value, dtype=float)
            g = np.asarray(grad, dtype=float)
            h = np.asarray(hess, dtype=float)
            if g.shape != v.shape + (3,) or h.shape != v.shape + (3, 3):
                raise ValueError(
                    "Jet2 needs value (...), grad (..., 3) and hess (..., 3, 3); "
                    f"got {v.shape}, {g.shape} and {h.shape}"
                )
            d = np.empty(v.shape + (13,))
            d[..., 0] = v
            d[..., 1:4] = g
            d[..., 4:] = h.reshape(v.shape + (9,))
        self.data = d
        self.value = d[..., 0]
        self.grad = d[..., 1:4]

    @property
    def hess(self):
        """The Hessian (..., 3, 3), a view of data formed where it is read: few operations read it."""
        return self.data[..., 4:].reshape(self.data.shape[:-1] + (3, 3))

    def __getitem__(self, index):
        """The jets at part of the batch."""
        return Jet2(self.data[index])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.data + other.data)
        if isinstance(other, Scalar):
            d = self.data.copy()
            d[..., 0] += other
            return Jet2(d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.data - other.data)
        if isinstance(other, Scalar):
            d = self.data.copy()
            d[..., 0] -= other
            return Jet2(d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Scalar):
            d = -self.data
            d[..., 0] += other  # -v + other is other - v, signed zeros included
            return Jet2(d)
        return NotImplemented

    def __neg__(self):
        return Jet2(-self.data)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self.data, other.data
            # the value, the gradient and the Hessian's first two terms over all 13 channels at once
            d = _g(a[..., 0]) * b
            d[..., 1:] += _g(b[..., 0]) * a[..., 1:]
            hess = d[..., 4:].reshape(d.shape[:-1] + (3, 3))
            h = hess + _outer(self.grad, other.grad) + _outer(other.grad, self.grad)
            # h[j, i] adds the two outer products in the other order from h[i, j], which rounds differently
            hess[...] = (h + h.swapaxes(-1, -2)) / 2.0
            return Jet2(d)
        if isinstance(other, Scalar):
            return Jet2(self.data * other)
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
            return Jet2(_div(self.data, other))
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
        if not r.is_integer():
            # real exponent: compose exp(r * log(.)) so the value channel matches power's
            return exp(r * log(self))
        n, v = int(r), self.value
        try:
            f0 = _int_power(v, n)
            f1 = _int_pow_derivative(v, n, n - 1)
            f2 = _int_pow_derivative(v, n * (n - 1), n - 2)
        except (ZeroDivisionError, OverflowError):
            # the channels run one after another; raise what the first failing element raises
            for x in v.ravel().tolist():
                _int_pow_taylor(x, n)
            raise
        return _lift(self, f0, f1, f2)


def constant(c: float, shape: tuple[int, ...] = ()) -> Jet2:
    """Jet of a constant field over a batch of the given shape."""
    d = np.zeros(shape + (13,))
    d[..., 0] = float(c)
    return Jet2(d)


def variable(i: int, p) -> Jet2:
    """Jet of the i-th coordinate function (i in 1..3) at p, shape (3,) or (N, 3)."""
    if i not in (1, 2, 3):
        raise ValueError(f"coordinate index {i} out of range 1..3")
    p = np.asarray(p, dtype=float)
    d = np.zeros(p.shape[:-1] + (13,))
    d[..., 0] = p[..., i - 1]
    d[..., i] = 1.0  # the gradient's entry i - 1
    return Jet2(d)


def concatenate(parts) -> Jet2:
    """One jet over the joined 1-d batches of parts."""
    return Jet2(np.concatenate([j.data for j in parts]))


def _lift(j: Jet2, f0, f1, f2) -> Jet2:
    """Compose a scalar function (value f0, derivatives f1, f2 at j.value) with j."""
    d = np.empty(j.data.shape)
    d[..., 0] = f0
    np.multiply(j.data[..., 1:], _g(f1), out=d[..., 1:])  # f1 times the gradient and the Hessian
    d[..., 4:] += (_h(f2) * _outer(j.grad, j.grad)).reshape(d.shape[:-1] + (9,))
    return Jet2(d)


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
    r = float(r)
    if r.is_integer():  # float pow, valid for negative bases
        return _int_power(x, int(r))
    return elementwise(lambda v: math.exp(r * math.log(v)), x)  # real r requires a positive base
