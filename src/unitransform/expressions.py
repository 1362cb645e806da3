"""Recursive-descent parser and evaluator for analytic expressions in x and t.

Grammar (whitespace insignificant, function application requires
parentheses)::

    expression := term (("+" | "-") term)*
    term       := factor (("*" | "/") factor)*
    factor     := "-" factor | power
    power      := atom ("^" factor)?
    atom       := NUMBER | "pi" | "e" | "x" | "t"
                | FUNC "(" expression ")" | "(" expression ")"
    FUNC       := exp | sin | cos | sqrt | abs | log

"^" binds tighter than unary minus ("-x^2" is -(x^2)) and associates to
the right.  Its exponent must be constant: any variable-free exponent
subtree is folded to a number at parse time, anything else is rejected.
Expressions are real-valued; complex numbers never enter through user
input.  One evaluator, :func:`evaluate_array`, walks the tree in numpy
double precision; :func:`evaluate` is its one-point case, and exponent
folding runs through it too, so a folded exponent fails with the same
:class:`EvaluationError` text as a run-time evaluation.  Its input x
and t must be finite reals, and an operation that raises an IEEE 754
exception raises :class:`EvaluationError` "<reason> in '<subexpression>'",
reason "divide by zero", "invalid value" or "overflow", instead of
returning NaN or infinity, so every value the evaluator returns is finite.

The lexical grammar is one token pattern, ``_TOKEN``.  Operator binding
is one table, ``_PRECEDENCE``: the parser's binary levels and
:func:`canonical` both read it, so printer and parser cannot drift apart.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ContractViolationError, EvaluationError, ParseError
from .numerics import _points

_CONSTANTS = {"pi": math.pi, "e": math.e}
_FUNCTIONS = ("exp", "sin", "cos", "sqrt", "abs", "log")
_VARIABLES = ("x", "t")
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
               "^": operator.pow}
# Binding strength of each operator, read by the parser's binary levels and by canonical.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
# Each match is one token after optional whitespace; the token's offset is its group's start.
_TOKEN = re.compile(r"""\s*(?:(?P<num>[\d.]+(?:[eE][+-]?\d+)?) | (?P<ident>[^\W\d]\w*)
    | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<end>\Z) | (?P<bad>.))""", re.VERBOSE)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or a function name
    arg: "ExpressionAST"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExpressionAST"
    right: "ExpressionAST"


ExpressionAST = Union[Num, Const, Var, Unary, BinOp]


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        tok = _Token(kind, match[kind], match.start(kind))
        if kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}", tok.pos)
        if kind == "num":
            try:
                value = float(tok.text)
            except ValueError:
                raise ParseError(f"malformed number {tok.text!r}", tok.pos) from None
            if math.isinf(value):
                raise ParseError(f"number {tok.text!r} overflows a float", tok.pos)
        tokens.append(tok)
        if kind == "end":
            return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expression(self, level: int = 1) -> ExpressionAST:
        """A left-associative chain at precedence ``level``, over operands one level tighter."""
        tighter = level + 1
        operand = self.factor if tighter == _PRECEDENCE["neg"] else lambda: self.expression(tighter)
        node = operand()
        while self.peek().kind == "op" and _PRECEDENCE[self.peek().text] == level:
            node = BinOp(self.advance().text, node, operand())
        return node

    def factor(self) -> ExpressionAST:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            arg = self.factor()
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Unary("neg", arg)
        return self.power()

    def power(self) -> ExpressionAST:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.factor()
            if variables(exponent):
                raise ParseError("exponent must be a constant", tok.pos)
            return BinOp("^", base, Num(_fold_constant(exponent, tok.pos)))
        return base

    def atom(self) -> ExpressionAST:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.peek().kind == "lparen":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", tok.pos)
                return Unary(name, self.group(f"empty argument to {name}"))
            if name in _VARIABLES:
                return Var(name)
            if name in _CONSTANTS:
                return Const(name)
            raise ParseError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "lparen":
            return self.group("empty parentheses")
        if tok.kind == "rparen":
            raise ParseError("unbalanced parentheses", tok.pos)
        raise ParseError("expected a value", tok.pos)

    def group(self, empty: str) -> ExpressionAST:
        """``"(" expression ")"`` at the opening parenthesis; ``empty`` names an empty pair."""
        self.advance()
        if self.peek().kind == "rparen":
            raise ParseError(empty, self.peek().pos)
        node = self.expression()
        closing = self.advance()
        if closing.kind != "rparen":
            raise ParseError("unbalanced parentheses", closing.pos)
        return node


def _fold_constant(node: ExpressionAST, pos: int) -> float:
    try:
        return evaluate(node, x=0.0)
    except EvaluationError as exc:
        raise ParseError(f"exponent does not evaluate: {exc}", pos) from None


def parse(text: str) -> ExpressionAST:
    """Parse expression text; errors carry a character offset."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node


def variables(ast: ExpressionAST) -> frozenset[str]:
    """Names of the variables that occur in the tree."""
    if isinstance(ast, Var):
        return frozenset((ast.name,))
    if isinstance(ast, Unary):
        return variables(ast.arg)
    if isinstance(ast, BinOp):
        return variables(ast.left) | variables(ast.right)
    return frozenset()


def evaluate(ast: ExpressionAST, x: float, t: float | None = None) -> float:
    """Evaluate the tree at x (and t when the expression uses it)."""
    return float(evaluate_array(ast, x, t))


def evaluate_array(ast: ExpressionAST, x, t=None):
    """Vectorized evaluation on numpy arrays.

    ``x`` and ``t``, finite reals (:func:`numerics._points`), must broadcast against each
    other; the result has the broadcast shape.  The walk runs under one ``np.errstate`` that
    raises on every IEEE fault but underflow, so an operation that divides by zero, makes an
    invalid value or overflows raises :class:`EvaluationError` "<reason> in '<subexpression>'"
    (reason "divide by zero", "invalid value" or "overflow"): every value returned is finite.
    """
    x, t = _points(x, "x"), None if t is None else _points(t, "t")
    shape = x.shape if t is None else np.broadcast_shapes(x.shape, t.shape)

    def walk(node: ExpressionAST):
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Const):
            return np.float64(_CONSTANTS[node.name])
        if isinstance(node, Var):
            if node.name == "t" and t is None:
                raise ContractViolationError("expression uses t but no t value was supplied")
            return x if node.name == "x" else t
        if isinstance(node, Unary):
            op = np.negative if node.op == "neg" else getattr(np, node.op)
            args = (walk(node.arg),)
        else:
            op, args = _ARITHMETIC[node.op], (walk(node.left), walk(node.right))
        try:
            return op(*args)
        except FloatingPointError as exc:  # numpy's "<reason> encountered in <ufunc>"
            reason = str(exc).partition(" encountered")[0]
            raise EvaluationError(f"{reason} in '{canonical(node)}'") from None

    with np.errstate(all="raise", under="ignore"):
        result = np.asarray(walk(ast), dtype=float)
    return result if result.shape == shape else np.broadcast_to(result, shape)


def _format_number(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def canonical(ast: ExpressionAST) -> str:
    """Normalized text form; parse(canonical(parse(s))) == parse(s)."""

    def render(node: ExpressionAST, parent_prec: int) -> str:
        if isinstance(node, Num):
            text = _format_number(node.value)
            needs = node.value < 0 and parent_prec > _PRECEDENCE["neg"]
            return f"({text})" if needs else text
        if isinstance(node, Const):
            return node.name
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Unary):
            if node.op == "neg":
                inner = render(node.arg, _PRECEDENCE["neg"])
                text = f"-{inner}"
                return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
            return f"{node.op}({render(node.arg, 0)})"
        prec = _PRECEDENCE[node.op]
        if node.op == "^":
            left = render(node.left, prec + 1)
            right = render(node.right, prec)
            text = f"{left}^{right}"
        else:
            left = render(node.left, prec)
            # left associativity: the right operand needs one level more
            right = render(node.right, prec + 1)
            text = f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text

    return render(ast, 0)
