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

Storage. A jet keeps its 13 numbers per point in one array ``data (13,
...)``, channel first and the batch last: ``data[0, ...]`` is the value,
``data[1:4]`` the gradient rows and ``data[4:]`` the Hessian rows, row by
row (``VALUE``, ``GRAD`` and ``HESS`` name these parts). Every product,
quotient and chain-rule step therefore scales whole rows by a per-point
scalar of the batch shape, which broadcasts over the leading channel axis,
so numpy's inner loop runs over the batch, not over the 3 or 13 channels of
one point. A sum, a difference, a negation, a product or quotient with a
number, ``concatenate`` and ``__getitem__`` are each one array operation,
and a finiteness check is one call. The product of two jets scales all 13
rows in one pass and ``_lift`` (the chain rule of the scalar functions) the
12 derivative rows. ``value`` is a view of row 0, a 0-d array for one point
(never a NumPy scalar, whose pow would not raise as float pow does), and
``grad_rows (3, ...)`` and ``hess_rows (3, 3, ...)`` are views of the
rows. The batch-first ``grad (..., 3)`` and ``hess (..., 3, 3)`` are views
formed where they are read, and ``Jet2(value, grad, hess)`` takes the three
batch-first parts, so callers need not know the packing; this module is the
only one that does. Every operation gives the bits the three-array layout
gave, signed zeros included (tests/jets_reference.py keeps that layout).
The three coordinate jets (``coordinates``) are views of one array ``(3,
13, ...)``, so no operation writes into an operand's data.

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
is one exact array operation where k is 0 or 1 (float pow gives
``v ** 0 = 1.0`` and ``v ** 1 = v``), has its limit c or 0.0 at ``v == 0``,
and is a signed zero where c is 0 (the channels of ``v ** 0`` and the
second of ``v ** 1``), with no pow that could overflow at a tiny v. Any
other k takes ``c * v ** k``, a float pow and a product, element by element.
Where a channel raises, the three run again on each element as a batch of
one, so the first failing element raises, its value before its derivatives.

Every operation's Hessian is symmetric by construction, bit for bit: each
entry is built from symmetric Hessians and outer products ``g h^T + h g^T``
whose entries add the same two products in either order (the product and
quotient of two jets form ``g h^T`` once and read ``h g^T`` as its
transpose, which has the same bits). The product of two
jets is the exception: its entry ``(i, j)`` sums ``(s + p) + q`` and ``(j, i)``
sums ``(s + q) + p``, which round differently, so it symmetrises its own sum.
The constructor takes the Hessian as given.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat

import numpy as np

Scalar = (int, float)
# where the packed data (13, ...) keeps the value, the gradient rows and the Hessian rows (row by row)
VALUE, GRAD, HESS = 0, slice(1, 4), slice(4, 13)


def elementwise(fn, x):
    """fn on a float, or on each element of an array as a Python float, up to the first that raises."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


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


def _outer(a, b):
    """The outer products a_i b_j of two gradients stored as rows (3, ...), as (3, 3, ...)."""
    return a[:, None] * b[None, :]


def _hessian(d: np.ndarray) -> np.ndarray:
    """The Hessian rows of packed data (13, ...) as a (3, 3, ...) view."""
    return d[HESS].reshape((3, 3) + d.shape[1:])


@functools.cache
def _batch_first_axes(ndim: int, rank: int) -> tuple[int, ...]:
    return (*range(rank, ndim), *range(rank))


def batch_first(a: np.ndarray, rank: int) -> np.ndarray:
    """A view of a with its leading rank (channel or tensor index) axes moved behind its batch axes."""
    return a.transpose(_batch_first_axes(a.ndim, rank))


def _int_power(x, n: int):
    """x ** n by float pow, on a float or on each element of an array, with no Python call per element.

    The value channel of an integer power, for jets and plain numbers alike. Raises what float pow
    raises at the first failing element: ZeroDivisionError for 0.0 to a negative power, OverflowError
    where the power overflows.
    """
    if not isinstance(x, np.ndarray):
        return x ** n
    return np.fromiter(map(pow, x.ravel().tolist(), repeat(n)), float, x.size).reshape(x.shape)


def _int_pow_derivative(v: np.ndarray, c: int, k: int) -> np.ndarray:
    """c * v ** k at each element of v, a derivative channel of v ** n (c = n, k = n - 1 or c = n (n - 1), k = n - 2).

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
    return np.fromiter((c * x ** k if x else 0.0 for x in v.ravel().tolist()), float, v.size).reshape(v.shape)


class Jet2:
    """Value, gradient and symmetric Hessian of a scalar field over a batch of points.

    data (13, ...) holds them channel first; value, grad and hess are views of it.
    """

    __slots__ = ("data", "value")

    def __init__(self, value, grad=None, hess=None):
        """Jet2(value, grad, hess) packs the three batch-first parts; Jet2(data) takes a packed (13, ...) array."""
        if grad is None and hess is None:
            d = np.asarray(value, dtype=float)
            if d.shape[:1] != (13,):
                raise ValueError(f"Jet2 needs packed data (13, ...); got {d.shape}")
        else:
            v = np.asarray(value, dtype=float)
            g = np.asarray(grad, dtype=float)
            h = np.asarray(hess, dtype=float)
            if g.shape != v.shape + (3,) or h.shape != v.shape + (3, 3):
                raise ValueError(
                    "Jet2 needs value (...), grad (..., 3) and hess (..., 3, 3); "
                    f"got {v.shape}, {g.shape} and {h.shape}"
                )
            d = np.empty((13,) + v.shape)
            d[VALUE] = v
            d[GRAD] = np.moveaxis(g, -1, 0)
            d[HESS] = np.moveaxis(h.reshape(v.shape + (9,)), -1, 0)
        self.data = d
        self.value = d[VALUE, ...]  # a 0-d array for one point, never a NumPy scalar

    @property
    def grad_rows(self):
        """The gradient rows (3, ...), grad_rows[i] = d_i f, a view of data."""
        return self.data[GRAD]

    @property
    def hess_rows(self):
        """The Hessian rows (3, 3, ...), hess_rows[i, j] = d_i d_j f, a view of data."""
        return _hessian(self.data)

    @property
    def grad(self):
        """The gradient (..., 3), a batch-first view of the rows."""
        return batch_first(self.data[GRAD], 1)

    @property
    def hess(self):
        """The Hessian (..., 3, 3), a batch-first view of the rows."""
        return batch_first(_hessian(self.data), 2)

    def __getitem__(self, index):
        """The jets at part of the batch."""
        return Jet2(self.data[(slice(None), *index) if isinstance(index, tuple) else (slice(None), index)])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.data + other.data)
        if isinstance(other, Scalar):
            d = self.data.copy()
            d[VALUE] += other
            return Jet2(d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.data - other.data)
        if isinstance(other, Scalar):
            d = self.data.copy()
            d[VALUE] -= other
            return Jet2(d)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Scalar):
            d = -self.data
            d[VALUE] += other  # -v + other is other - v, signed zeros included
            return Jet2(d)
        return NotImplemented

    def __neg__(self):
        return Jet2(-self.data)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            a, b = self.data, other.data
            # the value, the gradient and the Hessian's first two terms over all 13 rows at once
            d = a[VALUE] * b
            d[1:] += b[VALUE] * a[1:]
            hess = _hessian(d)
            p = _outer(a[GRAD], b[GRAD])  # its transpose is the other outer product: gb_i ga_j is ga_j gb_i
            h = hess + p + p.swapaxes(0, 1)
            # h[j, i] adds the two outer products in the other order from h[i, j], which rounds differently
            np.divide(h + h.swapaxes(0, 1), 2.0, out=hess)
            return Jet2(d)
        if isinstance(other, Scalar):
            return Jet2(self.data * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            u, v = self.value, other.value
            ga, gb = self.data[GRAD], other.data[GRAD]
            d = np.empty(self.data.shape)
            d[VALUE] = _div(u, v)
            v2, p = v * v, _outer(ga, gb)
            d[GRAD] = (ga * v - u * gb) / v2
            _hessian(d)[...] = (
                _hessian(self.data) / v
                - u * _hessian(other.data) / v2
                - (p + p.swapaxes(0, 1)) / v2
                + (2.0 * u) * _outer(gb, gb) / (v2 * v)
            )
            return Jet2(d)
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
            # rerun the channels on each element as a batch of one; raise what the first failing element raises
            for x in v.reshape(-1, 1):
                _int_power(x, n)
                _int_pow_derivative(x, n, n - 1)
                _int_pow_derivative(x, n * (n - 1), n - 2)
            raise
        return _lift(self, f0, f1, f2)


def constant(c: float, shape: tuple[int, ...] = ()) -> Jet2:
    """Jet of a constant field over a batch of the given shape."""
    d = np.zeros((13,) + shape)
    d[VALUE] = float(c)
    return Jet2(d)


def coordinates(p) -> tuple[Jet2, Jet2, Jet2]:
    """The jets of the three coordinate functions at p, shape (3,) or (N, 3).

    They are views of one array (3, 13, ...), so no operation may write into
    an operand's data: a write through one of them would change the others.
    """
    p = np.asarray(p, dtype=float)
    d = np.zeros((3, 13) + p.shape[:-1])
    d[:, VALUE] = batch_first(p, p.ndim - 1)  # the coordinates first, the batch last
    d[0, 1] = d[1, 2] = d[2, 3] = 1.0  # jet i - 1 has the gradient's entry i - 1
    return Jet2(d[0]), Jet2(d[1]), Jet2(d[2])


def variable(i: int, p) -> Jet2:
    """Jet of the i-th coordinate function (i in 1..3) at p, shape (3,) or (N, 3)."""
    if i not in (1, 2, 3):
        raise ValueError(f"coordinate index {i} out of range 1..3")
    return coordinates(p)[i - 1]


def concatenate(parts) -> Jet2:
    """One jet over the joined 1-d batches of parts."""
    return Jet2(np.concatenate([j.data for j in parts], axis=1))


def _lift(j: Jet2, f0, f1, f2) -> Jet2:
    """Compose a scalar function (value f0, derivatives f1, f2 at j.value) with j."""
    d = np.empty(j.data.shape)
    d[VALUE] = f0
    np.multiply(j.data[1:], f1, out=d[1:])  # f1 times the gradient and the Hessian
    g, h = j.data[GRAD], _hessian(d)
    h += f2 * _outer(g, g)
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


def _sin_cos(v: np.ndarray):
    """math.sin and math.cos of each element of v, both mapped over one list of its elements."""
    values = v.ravel().tolist()
    s = np.fromiter(map(math.sin, values), float, v.size).reshape(v.shape)
    return s, np.fromiter(map(math.cos, values), float, v.size).reshape(v.shape)


def sin(x):
    if isinstance(x, Jet2):
        s, c = _sin_cos(x.value)
        return _lift(x, s, c, -s)
    return elementwise(math.sin, x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = _sin_cos(x.value)
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
