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

Parsed expressions are immutable trees; evaluation over plain floats
(:func:`eval_value`) and over jets (:func:`eval_jet`) walks the same tree
with the same scalar primitives, so the value channels agree exactly.

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

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import EvalDomainError, ExprSyntaxError
from .jets import Jet2

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")
COORDS = ("x1", "x2", "x3")


# -- syntax tree --------------------------------------------------------------


class Node:
    """Base class of expression tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    value: float
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Coord(Node):
    index: int  # 1..3
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Unary(Node):
    op: str  # 'neg' or a FUNCTIONS name
    arg: Node
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Binary(Node):
    op: str  # '+', '-', '*', '/'
    left: Node
    right: Node
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Power(Node):
    base: Node
    exponent: float
    span: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ScalarFieldExpr:
    """A parsed, immutable scalar field over (x1, x2, x3)."""

    root: Node
    source: str = field(default="", compare=False)

    def __str__(self):
        return to_source(self.root)


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


# The deepest tree parse accepts, a pair of parentheses counting as a level. The parser recurses five
# calls per pair, the evaluators and to_source one per level: within half of Python's default limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns its tree and the tree's depth. A tree deeper than
    MAX_DEPTH is refused at the token that deepens it, a nested one before the parser descends."""

    _ATOM_EXPECTED = ("number", "x1", "x2", "x3", "function", "'('", "'-'")

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.open = 1  # the least depth of the tree around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off, (f"'{op}'",))

    def deeper(self, depth: int, off: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        return depth

    def nested(self, rule, off: int):
        """rule()'s tree one level down (parentheses, a function, unary minus) and its depth."""
        self.open = self.deeper(self.open + 1, off)
        node, depth = rule()
        self.open -= 1
        return node, self.deeper(depth + 1, off)

    def parse(self) -> Node:
        kind, _, off = self.peek()
        if kind == "end":
            raise ExprSyntaxError("empty input", off, self._ATOM_EXPECTED)
        node = self.expr()[0]
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {text!r}", off, ("operator", "end of input"))
        return node

    def expr(self):
        node, depth = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs, rhs_depth = self.term()
                node = Binary(text, node, rhs, (node.span[0], rhs.span[1]))
                depth = self.deeper((depth if depth > rhs_depth else rhs_depth) + 1, off)
            else:
                return node, depth

    def term(self):
        node, depth = self.factor()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs, rhs_depth = self.factor()
                node = Binary(text, node, rhs, (node.span[0], rhs.span[1]))
                depth = self.deeper((depth if depth > rhs_depth else rhs_depth) + 1, off)
            else:
                return node, depth

    def factor(self):
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            inner, depth = self.nested(self.factor, off)
            return Unary("neg", inner, (off, inner.span[1])), depth
        node, depth = self.atom()
        kind, text, caret = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            sign = 1.0
            kind, text, off = self.peek()
            if kind == "op" and text == "-":
                self.advance()
                sign = -1.0
                kind, text, off = self.peek()
            if kind != "number":
                raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off, ("number",))
            self.advance()
            end = off + len(text)
            return Power(node, sign * float(text), (node.span[0], end)), self.deeper(depth + 1, caret)
        return node, depth

    def atom(self):
        kind, text, off = self.peek()
        if kind == "number":
            self.advance()
            return Const(float(text), (off, off + len(text))), 1
        if kind == "ident":
            self.advance()
            if text in COORDS:
                return Coord(int(text[1]), (off, off + len(text))), 1
            if text in FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.nested(self.expr, off)
                close = self.expect_op(")")
                return Unary(text, arg, (off, close[2] + 1)), depth
            raise ExprSyntaxError(f"unknown identifier {text!r}", off, self._ATOM_EXPECTED)
        if kind == "op" and text == "(":
            self.advance()
            node, depth = self.nested(self.expr, off)
            close = self.expect_op(")")
            return _respan(node, (off, close[2] + 1)), depth
        msg = f"unexpected {text!r}" if kind != "end" else "unexpected end of input"
        raise ExprSyntaxError(msg, off, self._ATOM_EXPECTED)


def _respan(node: Node, span: tuple[int, int]) -> Node:
    cls = type(node)
    kwargs = {f: getattr(node, f) for f in node.__dataclass_fields__}
    kwargs["span"] = span
    return cls(**kwargs)


def parse(source: str) -> ScalarFieldExpr:
    """Parse source text into a :class:`ScalarFieldExpr`.

    Raises :class:`ExprSyntaxError` with the character offset and the
    expected-token set on malformed input, and with the offset where the
    expression grows deeper than MAX_DEPTH levels.
    """
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    return ScalarFieldExpr(_Parser(source).parse(), source)


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    if isinstance(node, Power):
        return _PREC["pow"]
    return _PREC["atom"]


def _fmt_number(v: float) -> str:
    return repr(float(v))


def to_source(node) -> str:
    """Render a tree (or ScalarFieldExpr) back to grammar-valid text."""
    if isinstance(node, ScalarFieldExpr):
        node = node.root
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Coord):
        return f"x{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_source(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_source(node.arg)})"
    if isinstance(node, Power):
        base = to_source(node.base)
        if _prec(node.base) < _PREC["atom"]:
            base = f"({base})"
        return f"{base}^{_fmt_number(node.exponent)}"
    if isinstance(node, Binary):
        left = to_source(node.left)
        right = to_source(node.right)
        if _prec(node.left) < _PREC[node.op]:
            left = f"({left})"
        # left-associative grammar: parenthesize a right child of equal precedence
        if _prec(node.right) <= _PREC[node.op]:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation ---------------------------------------------------------------


def as_point(p) -> np.ndarray:
    """Validate and convert a point (3,) or a batch of points (N, 3) to a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise ValueError(f"point must have 3 coordinates, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"point has non-finite coordinates: {arr!r}")
    return arr


def _node_source(expr: ScalarFieldExpr, node: Node) -> str:
    lo, hi = node.span
    if expr.source and 0 <= lo < hi <= len(expr.source):
        return expr.source[lo:hi]
    return to_source(node)


def _eval(expr: ScalarFieldExpr, node: Node, coords):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index - 1]
    try:
        if isinstance(node, Unary):
            arg = _eval(expr, node.arg, coords)
            if node.op == "neg":
                return -arg
            if node.op == "sqrt":
                return jets.sqrt(arg)
            if node.op == "exp":
                return jets.exp(arg)
            if node.op == "log":
                return jets.log(arg)
            if node.op == "sin":
                return jets.sin(arg)
            return jets.cos(arg)
        if isinstance(node, Power):
            return jets.power(_eval(expr, node.base, coords), node.exponent)
        if isinstance(node, Binary):
            left = _eval(expr, node.left, coords)
            right = _eval(expr, node.right, coords)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return jets.divide(left, right)
        raise TypeError(f"not an expression node: {node!r}")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # float pow raises OverflowError(errno, text): report the text, not the pair
        detail = exc.args[1] if isinstance(exc, OverflowError) and len(exc.args) == 2 else str(exc)
        raise EvalDomainError(detail, _node_source(expr, node)) from exc


def eval_value(f: ScalarFieldExpr, p):
    """Evaluate f at p with IEEE double semantics: a float, or an (N,) array for (N, 3) points."""
    pt = as_point(p)
    if pt.ndim == 1:
        return float(_eval(f, f.root, tuple(pt.tolist())))
    with np.errstate(all="ignore"):
        out = _eval(f, f.root, tuple(pt.T))
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
    return CoordinateJets(*(jets.variable(i, pt) for i in (1, 2, 3)))


def eval_jet(f: ScalarFieldExpr, p) -> Jet2:
    """Evaluate f at p, shape (3,) or (N, 3), together with its exact gradient and Hessian.

    p may also be the coordinate_jets of checked points.
    """
    coords = p if isinstance(p, CoordinateJets) else coordinate_jets(as_point(p))
    with np.errstate(all="ignore"):
        out = _eval(f, f.root, coords)
    if not isinstance(out, Jet2):  # constant expression
        out = jets.constant(out, coords.x1.value.shape)
    if not np.isfinite(out.data).all():
        raise EvalDomainError("jet evaluation produced non-finite entries", _node_source(f, f.root))
    return out
