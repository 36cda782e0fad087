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

    def __eq__(self, other):
        """Field by field, as the dataclass compares, walking down a chain of left operands in a loop."""
        if type(other) is not Binary:
            return NotImplemented
        a, b = self, other
        while type(a) is Binary and type(b) is Binary:
            if a.op != b.op or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    def __hash__(self):
        """The hash of the fields __eq__ compares, walking down a chain of left operands in a loop."""
        node, links = self, []
        while type(node) is Binary:
            links.append((node.op, node.right))
            node = node.left
        return hash((tuple(links), node))

    def __repr__(self):
        """The dataclass's text, walking down a chain of left operands in a loop."""
        node, heads, tails = self, [], []
        while type(node) is Binary:
            heads.append(f"Binary(op={node.op!r}, left=")
            tails.append(f", right={node.right!r}, span={node.span!r})")
            node = node.left
        return "".join(heads) + repr(node) + "".join(reversed(tails))


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


# The deepest tree parse accepts. A chain of one operator level (a + b - c, or a * b / c) is one level
# above its deepest operand, and parentheses, a function, a unary minus and a power each add a level.
# The parser recurses four calls per pair of parentheses, the evaluators and to_source one per level,
# walking a chain in a loop: within half of Python's default limit.
MAX_DEPTH = 100


def _too_deep(off: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", off)


def _unexpected(text: str, off: int, expected: tuple[str, ...]) -> ExprSyntaxError:
    return ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off, expected)


class _Parser:
    """Recursive descent over the tokens, read by index; each rule returns its tree and the tree's depth.
    A tree deeper than MAX_DEPTH is refused at the token that deepens it, a nested one before the parser
    descends."""

    _ATOM_EXPECTED = ("number", "x1", "x2", "x3", "function", "'('", "'-'")

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.open = 1  # the least depth of the tree around the current token

    def parse(self) -> Node:
        kind, _, off = self.tokens[0]
        if kind == "end":
            raise ExprSyntaxError("empty input", off, self._ATOM_EXPECTED)
        node = self.expr()[0]
        kind, text, off = self.tokens[self.pos]
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {text!r}", off, ("operator", "end of input"))
        return node

    def expr(self):
        """Terms joined by '+' and '-': a left-leaning chain, one level above its deepest term."""
        node, depth = self.term()
        tokens = self.tokens
        kind, op, off = tokens[self.pos]
        if kind != "op" or op not in "+-":
            return node, depth
        while kind == "op" and op in "+-":
            self.pos += 1
            rhs, rhs_depth = self.term()
            if rhs_depth > depth:
                depth = rhs_depth
            if depth >= MAX_DEPTH:  # the chain would be deeper than MAX_DEPTH
                raise _too_deep(off)
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))
            kind, op, off = tokens[self.pos]
        return node, depth + 1

    def term(self):
        """Factors joined by '*' and '/': a left-leaning chain, one level above its deepest factor."""
        node, depth = self.factor()
        tokens = self.tokens
        kind, op, off = tokens[self.pos]
        if kind != "op" or op not in "*/":
            return node, depth
        while kind == "op" and op in "*/":
            self.pos += 1
            rhs, rhs_depth = self.factor()
            if rhs_depth > depth:
                depth = rhs_depth
            if depth >= MAX_DEPTH:  # the chain would be deeper than MAX_DEPTH
                raise _too_deep(off)
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))
            kind, op, off = tokens[self.pos]
        return node, depth + 1

    def factor(self):
        """'-' factor, or an atom with an optional power."""
        kind, text, off = self.tokens[self.pos]
        if kind == "op" and text == "-":
            self.pos += 1
            self.open += 1
            if self.open > MAX_DEPTH:
                raise _too_deep(off)
            inner, depth = self.factor()
            self.open -= 1
            if depth >= MAX_DEPTH:
                raise _too_deep(off)
            return Unary("neg", inner, (off, inner.span[1])), depth + 1
        node, depth = self.atom()
        kind, text, caret = self.tokens[self.pos]
        if kind != "op" or text != "^":
            return node, depth
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
        return Power(node, sign * float(text), (node.span[0], off + len(text))), depth + 1

    def atom(self):
        """A number, a coordinate, or an expression in parentheses, a function's argument or not."""
        kind, text, off = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            return Const(float(text), (off, off + len(text))), 1
        if kind == "ident":
            if text in COORDS:
                return Coord(int(text[1]), (off, off + len(text))), 1
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
        node, depth = self.expr()
        self.open -= 1
        if depth >= MAX_DEPTH:
            raise _too_deep(off)
        _, close, close_off = self.tokens[self.pos]
        if close != ")":
            raise _unexpected(close, close_off, ("')'",))
        self.pos += 1
        span = (off, close_off + 1)
        return (Unary(text, node, span) if kind == "ident" else _respan(node, span)), depth + 1


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


def _chain(node: Binary) -> list[Binary]:
    """The Binary nodes of node's operator level down its left operands, innermost first.

    a - b + c is Binary('+', Binary('-', a, b), c): its chain is [a - b, (a - b) + c].
    """
    prec = _PREC[node.op]
    chain = []
    while isinstance(node, Binary) and _PREC[node.op] == prec:
        chain.append(node)
        node = node.left
    chain.reverse()
    return chain


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
        prec = _PREC[node.op]
        chain = _chain(node)
        left = to_source(chain[0].left)
        if _prec(chain[0].left) < prec:
            left = f"({left})"
        parts = [left]
        for link in chain:
            right = to_source(link.right)
            # left-associative grammar: parenthesize a right child of equal precedence
            if _prec(link.right) <= prec:
                right = f"({right})"
            parts.append(f" {link.op} {right}")
        return "".join(parts)
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


def _domain_error(expr: ScalarFieldExpr, node: Node, exc: Exception) -> EvalDomainError:
    # float pow raises OverflowError(errno, text): report the text, not the pair
    detail = exc.args[1] if isinstance(exc, OverflowError) and len(exc.args) == 2 else str(exc)
    return EvalDomainError(detail, _node_source(expr, node))


def _eval(expr: ScalarFieldExpr, node: Node, coords):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return coords[node.index - 1]
    if isinstance(node, Binary):  # a chain of one operator level, folded from the left in a loop
        chain = _chain(node)
        acc = _eval(expr, chain[0].left, coords)
        for link in chain:
            right = _eval(expr, link.right, coords)
            op = link.op
            try:
                if op == "+":
                    acc = acc + right
                elif op == "-":
                    acc = acc - right
                elif op == "*":
                    acc = acc * right
                else:
                    acc = jets.divide(acc, right)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise _domain_error(expr, link, exc) from exc
        return acc
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
        raise TypeError(f"not an expression node: {node!r}")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _domain_error(expr, node, exc) from exc


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
