"""Parser and evaluator for scalar fields of the coordinates x1, x2, x3.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' ['-'] number)?
    atom   := number | 'x1' | 'x2' | 'x3' | func '(' expr ')' | '(' expr ')'
    func   := sqrt | exp | log | sin | cos

Exponents are numeric literals only. Unary minus binds tighter than '*'
but looser than '^', so ``-x1^2`` means ``-(x1^2)``. There is no implicit
multiplication: ``2x1`` is a syntax error.

A parsed expression is one postfix program, the evaluation trace of
Griewank & Walther: a tuple of ``(op, arg)`` entries run on one stack.
Evaluation over plain floats (:func:`eval_value`) and over jets
(:func:`eval_jet`) runs the same program with the same scalar primitives, so
the value channels agree exactly.

Both evaluators take one point of shape ``(3,)`` or a batch of shape
``(N, 3)`` and return results with the matching batch shape: a float or
an ``(N,)`` array of values, a jet of batch shape ``()`` or ``(N,)``. The
value channel applies the Python ``math`` or float primitive to each
element (see :mod:`circulant3.jets`), so a batch evaluates bit for bit as
its points one at a time. A domain error anywhere in a batch raises
EvalDomainError for the first failing element of the first subexpression
that fails.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import EvalDomainError, ExprSyntaxError
from .jets import Jet2

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")
COORDS = ("x1", "x2", "x3")


# -- program ------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFieldExpr:
    """A parsed, immutable scalar field over (x1, x2, x3).

    program is its postfix program: ("num", value) and ("x", index 0..2) push, ("neg", None) and
    (name, None) of a FUNCTIONS name apply to the top of the stack, ("+", None), ("-", None),
    ("*", None) and ("/", None) fold the top two, and ("^", exponent) raises the top to a number.
    spans[i] is the (lo, hi) of source that program[i]'s subexpression was parsed from. Fields are
    equal, and hash alike, where their programs are.
    """

    program: tuple[tuple[str, object], ...]
    spans: tuple[tuple[int, int], ...] = field(compare=False)
    source: str = field(compare=False)

    def __str__(self):
        return to_source(self)


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(source: str):
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


# The deepest expression parse accepts. A chain of one operator level (a + b - c, or a * b / c) is one
# level above its deepest operand, and parentheses, a function, a unary minus and a power each add a level.
# Only the parser recurses, four calls per pair of parentheses: within half of Python's default limit.
MAX_DEPTH = 100


def _too_deep(off: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)


def _unexpected(text: str, off: int, expected: tuple[str, ...]) -> ExprSyntaxError:
    return ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off, expected)


class _Parser:
    """Recursive descent over the tokens, read by index, appending each subexpression's program.
    Each rule returns the depth of what it parsed. An expression deeper than MAX_DEPTH is refused at
    the token that deepens it, a nested one before the parser descends. An entry's span runs from the
    first token of its subexpression to the end of the last token read, parentheses included."""

    _ATOM_EXPECTED = ("number", "x1", "x2", "x3", "function", "'('", "'-'")

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.open = 1  # the least depth of the expression around the current token
        self.program = []
        self.spans = []

    def emit(self, op: str, arg, lo: int):
        """Append (op, arg) for the subexpression from offset lo to the end of the last token read."""
        _, text, off = self.tokens[self.pos - 1]
        self.program.append((op, arg))
        self.spans.append((lo, off + len(text)))

    def parse(self):
        kind, _, off = self.tokens[0]
        if kind == "end":
            raise ExprSyntaxError("empty input", off, self._ATOM_EXPECTED)
        self.expr()
        kind, text, off = self.tokens[self.pos]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {text!r}", off, ("operator", "end of input"))
        return tuple(self.program), tuple(self.spans)

    def expr(self, ops: str = "+-") -> int:
        """Terms joined by '+' and '-', or with ops '*/' the factors of a term joined by '*' and '/':
        a chain folded from the left, one level above its deepest operand."""
        tokens = self.tokens
        lo = tokens[self.pos][2]
        depth = self.factor() if ops == "*/" else self.expr("*/")
        kind, op, off = tokens[self.pos]
        if kind != "op" or op not in ops:
            return depth
        while kind == "op" and op in ops:
            self.pos += 1
            rhs_depth = self.factor() if ops == "*/" else self.expr("*/")
            if rhs_depth > depth:
                depth = rhs_depth
            if depth >= MAX_DEPTH:  # the chain would be deeper than MAX_DEPTH
                raise _too_deep(off)
            self.emit(op, None, lo)
            kind, op, off = tokens[self.pos]
        return depth + 1

    def factor(self) -> int:
        """'-' factor, or an atom with an optional power."""
        kind, text, off = self.tokens[self.pos]
        if kind == "op" and text == "-":
            self.pos += 1
            self.open += 1
            if self.open > MAX_DEPTH:
                raise _too_deep(off)
            depth = self.factor()
            self.open -= 1
            if depth >= MAX_DEPTH:
                raise _too_deep(off)
            self.emit("neg", None, off)
            return depth + 1
        lo = off
        depth = self.atom()
        kind, text, caret = self.tokens[self.pos]
        if kind != "op" or text != "^":
            return depth
        sign = 1.0
        kind, text, off = self.tokens[self.pos + 1]
        if kind == "op" and text == "-":
            self.pos += 1
            sign = -1.0
            kind, text, off = self.tokens[self.pos + 1]
        if kind != "number":
            raise _unexpected(text, off, ("number",))
        self.pos += 2
        if depth >= MAX_DEPTH:
            raise _too_deep(caret)
        self.emit("^", sign * float(text), lo)
        return depth + 1

    def atom(self) -> int:
        """A number, a coordinate, or an expression in parentheses, a function's argument or not."""
        kind, text, off = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            self.emit("num", float(text), off)
            return 1
        if kind == "ident":
            if text in COORDS:
                self.emit("x", int(text[1]) - 1, off)
                return 1
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown identifier {text!r}", off, self._ATOM_EXPECTED)
            _, paren, paren_off = self.tokens[self.pos]
            if paren != "(":
                raise _unexpected(paren, paren_off, ("'('",))
            self.pos += 1
        elif kind != "op" or text != "(":
            raise _unexpected(text, off, self._ATOM_EXPECTED)
        self.open += 1
        if self.open > MAX_DEPTH:
            raise _too_deep(off)
        depth = self.expr()
        self.open -= 1
        if depth >= MAX_DEPTH:
            raise _too_deep(off)
        _, close, close_off = self.tokens[self.pos]
        if close != ")":
            raise _unexpected(close, close_off, ("')'",))
        self.pos += 1
        if kind == "ident":
            self.emit(text, None, off)
        else:  # the parentheses widen the span of the subexpression's last entry
            self.spans[-1] = (off, close_off + 1)
        return depth + 1


def parse(source: str) -> ScalarFieldExpr:
    """Parse source text into a :class:`ScalarFieldExpr`.

    Raises :class:`ExprSyntaxError` with the character offset and the
    expected-token set on malformed input, and with the offset where the
    expression grows deeper than MAX_DEPTH levels.
    """
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    return ScalarFieldExpr(*_Parser(source).parse(), source)


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG, _POW, _ATOM = 3, 4, 5


def to_source(f: ScalarFieldExpr) -> str:
    """Render f back to grammar-valid text that parses to the same program.

    Runs the program on a stack of (text, precedence) pairs, parenthesising an operand that binds
    looser than its operator, and the right operand of a chain that binds no tighter (the grammar
    folds from the left).
    """
    stack = []
    for op, arg in f.program:
        if op == "num":
            stack.append((repr(arg), _ATOM))
        elif op == "x":
            stack.append((f"x{arg + 1}", _ATOM))
        elif op == "neg":
            text, prec = stack[-1]
            stack[-1] = (f"-({text})" if prec < _NEG else f"-{text}", _NEG)
        elif op == "^":
            text, prec = stack[-1]
            stack[-1] = (f"({text})^{arg!r}" if prec < _ATOM else f"{text}^{arg!r}", _POW)
        elif op in _PREC:
            level = _PREC[op]
            right, right_prec = stack.pop()
            left, left_prec = stack[-1]
            if left_prec < level:
                left = f"({left})"
            if right_prec <= level:
                right = f"({right})"
            stack[-1] = (f"{left} {op} {right}", level)
        else:
            stack[-1] = (f"{op}({stack[-1][0]})", _ATOM)
    return stack[0][0]


# -- evaluation ---------------------------------------------------------------


def as_point(p) -> np.ndarray:
    """Validate and convert a point (3,) or a batch of points (N, 3) to a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise ValueError(f"point must have 3 coordinates, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"point has non-finite coordinates: {arr!r}")
    return arr


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": jets.divide}
_UNARY = {"neg": operator.neg, "sqrt": jets.sqrt, "exp": jets.exp, "log": jets.log, "sin": jets.sin, "cos": jets.cos}


def _subexpression(f: ScalarFieldExpr, i: int) -> str:
    lo, hi = f.spans[i]
    return f.source[lo:hi]


def _eval(f: ScalarFieldExpr, coords):
    """Run f's program on coords, floats or jets, one stack entry per operand."""
    stack = []
    push, pop = stack.append, stack.pop
    try:
        for i, (op, arg) in enumerate(f.program):
            if op == "num":
                push(arg)
            elif op == "x":
                push(coords[arg])
            elif op == "^":
                stack[-1] = jets.power(stack[-1], arg)
            elif op in _BINARY:
                right = pop()
                stack[-1] = _BINARY[op](stack[-1], right)
            else:
                stack[-1] = _UNARY[op](stack[-1])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # float pow raises OverflowError(errno, text): report the text, not the pair
        detail = exc.args[1] if isinstance(exc, OverflowError) and len(exc.args) == 2 else str(exc)
        raise EvalDomainError(detail, _subexpression(f, i)) from exc
    return stack[0]


def eval_value(f: ScalarFieldExpr, p):
    """Evaluate f at p with IEEE double semantics: a float, or an (N,) array for (N, 3) points."""
    pt = as_point(p)
    if pt.ndim == 1:
        return float(_eval(f, tuple(pt.tolist())))
    with np.errstate(all="ignore"):
        out = _eval(f, tuple(pt.T))
    return np.full(len(pt), out)


class CoordinateJets(NamedTuple):
    """The jets of x1, x2 and x3 at points as_point has checked; eval_jet takes them in place of the points."""

    x1: Jet2
    x2: Jet2
    x3: Jet2


def coordinate_jets(pt: np.ndarray) -> CoordinateJets:
    """The coordinate jets at pt, a point (3,) or a batch (N, 3) already checked by as_point.

    Fields evaluated at the same points share them, so the points are checked and the
    jets built once.
    """
    return CoordinateJets(*jets.coordinates(pt))


def eval_jet(f: ScalarFieldExpr, p) -> Jet2:
    """Evaluate f at p, shape (3,) or (N, 3), together with its exact gradient and Hessian.

    p may also be the coordinate_jets of checked points.
    """
    coords = p if isinstance(p, CoordinateJets) else coordinate_jets(as_point(p))
    with np.errstate(all="ignore"):
        out = _eval(f, coords)
    if not isinstance(out, Jet2):  # constant expression
        out = jets.constant(out, coords.x1.value.shape)
    if not np.isfinite(out.data).all():
        raise EvalDomainError("jet evaluation produced non-finite entries", _subexpression(f, -1))
    return out
