"""Second-order jet arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from circulant3 import Jet2, constant, variable
from circulant3 import jets
from circulant3.errors import EvalDomainError
from circulant3.expressions import coordinate_jets, eval_jet, parse

import jets_reference
from helpers import JET_OPS, jet_outcome


def test_variable_jet_definition():
    j = variable(1, (2.0, -1.0, -1.0))
    assert j.value == 2.0
    assert np.array_equal(j.grad, [1.0, 0.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((3, 3)))
    k = variable(3, (0.0, 0.0, 5.0))
    assert k.value == 5.0
    assert np.array_equal(k.grad, [0.0, 0.0, 1.0])


def test_variable_index_out_of_range():
    with pytest.raises(ValueError):
        variable(4, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        variable(0, (0.0, 0.0, 0.0))


def test_product_rule():
    p = (1.3, -2.0, 0.7)
    x = variable(1, p)
    y = variable(2, p)
    j = x * y
    assert j.value == 1.3 * -2.0
    assert np.array_equal(j.grad, [-2.0, 1.3, 0.0])
    assert j.hess[0, 1] == 1.0 and j.hess[1, 0] == 1.0
    assert j.hess[0, 0] == 0.0 and j.hess[2, 2] == 0.0


def test_sqrt_of_constant():
    j = jets.sqrt(constant(4.0))
    assert j.value == 2.0
    assert np.array_equal(j.grad, np.zeros(3))
    assert np.array_equal(j.hess, np.zeros((3, 3)))


def test_self_division_is_one():
    x = variable(1, (3.0, 0.0, 0.0))
    j = x / x
    assert j.value == 1.0
    assert np.allclose(j.grad, 0.0, atol=1e-16)
    assert np.allclose(j.hess, 0.0, atol=1e-16)


def test_addition_exactly_commutative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        b = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        l, r = a + b, b + a
        assert l.value == r.value
        assert np.array_equal(l.grad, r.grad)
        assert np.array_equal(l.hess, r.hess)


def test_multiplication_exactly_commutative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        b = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        l, r = a * b, b * a
        assert l.value == r.value
        assert np.array_equal(l.grad, r.grad)
        assert np.array_equal(l.hess, r.hess)


def test_multiplication_associative_to_rounding():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        b = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        c = Jet2(rng.normal(), rng.normal(size=3), _sym(rng))
        l, r = (a * b) * c, a * (b * c)
        scale = max(1.0, abs(l.value), float(np.max(np.abs(l.hess))))
        assert abs(l.value - r.value) <= 4 * np.finfo(float).eps * scale
        assert np.max(np.abs(l.hess - r.hess)) <= 32 * np.finfo(float).eps * scale


def _sym(rng):
    h = rng.normal(size=(3, 3))
    return h + h.T


def _ops_chain(p):
    x = variable(1, p)
    y = variable(2, p)
    z = variable(3, p)
    return jets.sin(x * y) + jets.exp(z / 4) * jets.sqrt(2.5 + x) - jets.cos(y) / jets.log(3.0 + z) + (x + y * z) ** 3


def test_hessian_exact_symmetry_through_op_chain():
    rng = np.random.default_rng(6)
    for _ in range(25):
        j = _ops_chain(rng.uniform(-1.0, 1.0, size=3))
        assert np.array_equal(j.hess, j.hess.T)


def test_unary_taylor_coefficients():
    # d/dv and d2/dv2 of each op at a known value, via a single-variable jet
    p = (0.7, 0.0, 0.0)
    x = variable(1, p)
    cases = [
        (jets.sqrt(x), math.sqrt(0.7), 0.5 / math.sqrt(0.7), -0.25 / 0.7**1.5),
        (jets.exp(x), math.exp(0.7), math.exp(0.7), math.exp(0.7)),
        (jets.log(x), math.log(0.7), 1 / 0.7, -1 / 0.49),
        (jets.sin(x), math.sin(0.7), math.cos(0.7), -math.sin(0.7)),
        (jets.cos(x), math.cos(0.7), -math.sin(0.7), -math.cos(0.7)),
    ]
    for jet, v, d1, d2 in cases:
        assert jet.value == v
        assert abs(jet.grad[0] - d1) < 1e-15
        assert abs(jet.hess[0, 0] - d2) < 1e-14


def test_integer_power_negative_base():
    x = variable(1, (-2.0, 0.0, 0.0))
    j = x ** 3
    assert j.value == -8.0
    assert j.grad[0] == 12.0
    assert j.hess[0, 0] == -12.0


def test_power_at_zero_base():
    x = variable(1, (0.0, 0.0, 0.0))
    assert (x ** 2).hess[0, 0] == 2.0
    assert (x ** 2).grad[0] == 0.0
    assert (x ** 0).value == 1.0
    with pytest.raises(ZeroDivisionError):
        x ** -1


def test_real_power_uses_exp_log_value_channel():
    x = variable(1, (4.0, 0.0, 0.0))
    j = x ** 2.5
    assert j.value == math.exp(2.5 * math.log(4.0))
    assert abs(j.grad[0] - 2.5 * 4.0**1.5) < 1e-13


def test_real_power_negative_base_rejected():
    x = variable(1, (-4.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        x ** 2.5


def test_domain_guards():
    x = variable(1, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        jets.sqrt(x)  # jets need a strictly positive value
    with pytest.raises(ValueError):
        jets.log(x)
    with pytest.raises(ZeroDivisionError):
        constant(1.0) / x


def test_scalar_mixing():
    x = variable(1, (2.0, 0.0, 0.0))
    assert (2.0 * x).value == 4.0
    assert (x + 1).value == 3.0
    assert (1 - x).value == -1.0
    assert (6 / x).value == 3.0
    assert (6 / x).grad[0] == -1.5


# -- the packed layout against the three-array reference ----------------------
# tests/jets_reference.py is the Jet2 that kept value, gradient and Hessian in
# three arrays. Every operation must give the same bits, signed zeros included,
# and raise the same error with the same message.

SHAPES = [(), (1,), (7,), (80,)]
_SYM = np.triu(np.ones((3, 3), dtype=bool))


def _parts(rng, shape, values):
    """Value, gradient and symmetric Hessian of a batch, with exact zeros of either sign among them."""
    g = rng.normal(size=shape + (3,)) / 3
    h = rng.normal(size=shape + (3, 3)) / 3
    h = h + h.swapaxes(-1, -2)
    g[rng.random(g.shape) < 0.2] = 0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    h[(rng.random(h.shape) < 0.2) & _SYM] = 0.0
    h[(rng.random(h.shape) < 0.2) & _SYM] = -0.0
    return values, g, np.where(_SYM, h, h.swapaxes(-1, -2))


def _value_cases(rng, shape):
    """Values of a batch: generic of either sign, positive, and ones that put operations outside their domains."""
    generic = np.asarray(rng.uniform(-10.0, 10.0, size=shape) / 3)
    positive = np.asarray(rng.uniform(0.1, 10.0, size=shape) / 3)
    cases = {"generic": generic, "positive": positive}
    for name, special in (("zero", 0.0), ("negative zero", -0.0), ("tiny", 1e-120), ("tinier", 1e-300),
                          ("huge", 800.0), ("huger", 1e160)):
        v = positive.copy()
        v[(0,) * len(shape)] = special  # the first point
        cases[name] = v
    return cases


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_every_jet_operation_is_the_three_array_reference_bit_for_bit(shape):
    rng = np.random.default_rng(19)
    for case, values in _value_cases(rng, shape).items():
        a = _parts(rng, shape, values)
        b = _parts(rng, shape, _value_cases(rng, shape)["positive"])
        for c in (2.5, -7, 0.0, -0.0, 1e-300):
            for name, op in JET_OPS.items():
                got = jet_outcome(op, jets, Jet2(*a), Jet2(*b), c)
                want = jet_outcome(op, jets_reference, jets_reference.Jet2(*a), jets_reference.Jet2(*b), c)
                assert got == want, (case, c, name)
                # the second operand outside the domains too
                got = jet_outcome(op, jets, Jet2(*b), Jet2(*a), c)
                want = jet_outcome(op, jets_reference, jets_reference.Jet2(*b), jets_reference.Jet2(*a), c)
                assert got == want, (case, c, name, "swapped")


def test_the_reference_comparison_covers_the_errors():
    # the cases above reach each error the jets raise, so their messages are compared
    rng = np.random.default_rng(19)
    seen = set()
    for values in _value_cases(rng, (7,)).values():
        a, b = _parts(rng, (7,), values), _parts(rng, (7,), values)
        for c in (2.5, 0.0):
            for op in JET_OPS.values():
                out = jet_outcome(op, jets, Jet2(*a), Jet2(*b), c)
                if isinstance(out[0], str):
                    seen.add((out[0], out[1].split(" at ")[0].split(",")[0]))
    assert seen >= {
        ("ZeroDivisionError", "float division by zero"),
        ("ZeroDivisionError", "0.0 cannot be raised to a negative power"),
        ("OverflowError", "division by a jet overflows in a derivative"),
        ("OverflowError", "sqrt of a jet overflows in a derivative"),
        ("OverflowError", "log of a jet overflows in a derivative"),
        ("OverflowError", "math range error"),
        ("ValueError", "sqrt of a jet requires a positive value"),
        ("ValueError", "log of a jet requires a positive value"),
        ("OverflowError", "(34"),  # float pow: (34, 'Numerical result out of range')
    }, seen


@pytest.mark.parametrize(
    "values, raised",
    [([0.5, 1e-70, 0.0], "OverflowError"), ([0.5, 0.0, 1e-70], "ZeroDivisionError"),
     ([1e-70, -0.0, 1e-300], "OverflowError"), ([2.0, 1e62, -0.0, 1e-70], "ZeroDivisionError")],
    ids=["overflow-then-zero", "zero-then-overflow", "overflow-then-negative-zero", "value-overflow-then-zero"],
)
def test_integer_power_of_a_mixed_batch_raises_what_the_reference_raises(values, raised):
    # x ** -3 at 1e-70 overflows only its second derivative (1e-70 ** -5), at 0.0 its value: the
    # channels are formed one after another, yet the first failing element decides, as element by
    # element; x ** 5 at 1e62 overflows its value
    rng = np.random.default_rng(21)
    a = _parts(rng, (len(values),), np.array(values))
    for name in ("jet ** -3", "jet ** -1", "jet ** 0", "jet ** 5"):
        got = jet_outcome(JET_OPS[name], jets, Jet2(*a), Jet2(*a), 0.0)
        want = jet_outcome(JET_OPS[name], jets_reference, jets_reference.Jet2(*a), jets_reference.Jet2(*a), 0.0)
        assert got == want, name
    assert jet_outcome(JET_OPS["jet ** -3"], jets, Jet2(*a), Jet2(*a), 0.0)[0] == raised


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_value_gradient_and_hessian_are_views_of_one_array(shape):
    rng = np.random.default_rng(20)
    parts = _parts(rng, shape, np.asarray(rng.normal(size=shape)))
    j = jets.sin(Jet2(*parts))
    # channel first, the batch last: the value, the gradient rows, then the Hessian rows row by row
    assert j.data.shape == (13,) + shape and j.data.flags.c_contiguous
    assert (j.value.shape, j.grad.shape, j.hess.shape) == (shape, shape + (3,), shape + (3, 3))
    assert (j.grad_rows.shape, j.hess_rows.shape) == ((3,) + shape, (3, 3) + shape)
    for part in (j.value, j.grad, j.hess, j.grad_rows, j.hess_rows):
        assert part.base is not None and np.shares_memory(part, j.data)
    assert np.array_equal(j.data[0], j.value)
    assert np.array_equal(j.data[1:4], np.moveaxis(j.grad, -1, 0))
    assert np.array_equal(j.data[4:], np.moveaxis(j.hess.reshape(shape + (9,)), -1, 0))
    assert np.array_equal(j.grad_rows, np.moveaxis(j.grad, -1, 0))
    assert np.array_equal(j.hess_rows, np.moveaxis(j.hess, (-2, -1), (0, 1)))
    # the three batch-first parts and the packed array build the same jet
    k = Jet2(*parts)
    assert Jet2(k.data.copy()).data.tobytes() == k.data.tobytes()
    assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip((k.value, k.grad, k.hess), parts))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_the_coordinate_jets_are_the_reference_variables_bit_for_bit(shape):
    p = np.random.default_rng(23).normal(size=shape + (3,))
    p[(0,) * len(shape)] = (0.0, -0.0, 1e-300)
    for i, x in enumerate(coordinate_jets(p), 1):
        want = jets_reference.variable(i, p)
        for j in (x, variable(i, p)):
            assert [np.asarray(a).tobytes() for a in (j.value, j.grad, j.hess)] == [
                np.asarray(a).tobytes() for a in (want.value, want.grad, want.hess)
            ], i


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_no_jet_operation_writes_into_an_operand(shape):
    # the coordinate jets are views of one array, so a write through one would change the other two
    rng = np.random.default_rng(24)
    values = _value_cases(rng, shape)
    a, b = Jet2(*_parts(rng, shape, values["generic"])), Jet2(*_parts(rng, shape, values["positive"]))
    shared = np.stack([a.data, b.data])
    coords = np.stack([values["generic"], values["positive"], values["tiny"]], axis=-1)
    xs = coordinate_jets(coords)
    coordinate_data = xs[0].data.base
    assert coordinate_data.shape == (3, 13) + shape and all(x.data.base is coordinate_data for x in xs)
    for operands, buffer in (((Jet2(shared[0]), Jet2(shared[1])), shared), (xs[:2], coordinate_data)):
        before = buffer.copy()
        for c in (2.5, 0.0):
            for name, op in JET_OPS.items():
                jet_outcome(op, jets, *operands, c)
                assert buffer.tobytes() == before.tobytes(), name


def test_the_jets_of_part_of_a_batch_are_those_of_its_points():
    rng = np.random.default_rng(22)
    j = Jet2(*_parts(rng, (7,), rng.normal(size=7)))
    for index in (3, (3,), np.array([4, 0, 4]), slice(2, 5)):
        part = j[index]
        for got, whole in ((part.value, j.value), (part.grad, j.grad), (part.hess, j.hess)):
            assert np.asarray(got).tobytes() == np.asarray(whole[index]).tobytes()
    both = jets.concatenate([j[:3], j[3:]])
    assert both.data.tobytes() == j.data.tobytes()


def test_the_value_of_one_point_is_a_zero_dimensional_array():
    # never a NumPy scalar: that would take the plain-number branch of elementwise and _int_power,
    # where NumPy's pow gives inf for 0.0 ** -1 instead of raising as float pow does
    x = variable(1, (0.5, 1.0, 2.0))
    one_of_a_batch = variable(1, np.ones((2, 3)))[0]
    for j in (x, constant(2.0), x + 1, x * x, x / x, 1 / x, x ** 3, jets.exp(x), jets.sqrt(x), one_of_a_batch,
              Jet2(1.0, np.zeros(3), np.zeros((3, 3))), Jet2(np.zeros(13))):
        assert type(j.value) is np.ndarray and j.value.shape == ()


def test_a_negative_power_of_zero_at_one_point_raises_what_float_pow_raises():
    with pytest.raises(ZeroDivisionError) as plain:
        0.0 ** -1
    for p in ((0.0, 1.0, 2.0), np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 2.0]])):
        with pytest.raises(EvalDomainError) as jet:
            eval_jet(parse("3 + x1^-1"), p)
        assert str(jet.value) == f"{plain.value} in subexpression 'x1^-1'"
