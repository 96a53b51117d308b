"""Built-in approximation targets and a small expression grammar.

The named targets carry analytic second derivatives.  Expression targets
are parsed from a minimal arithmetic grammar (+ - * / ^, sin, cos, exp,
sqrt, the constants pi and e, variable x) and fall back to the numeric
second derivative.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TargetFunction

__all__ = [
    "gaussian",
    "chirp",
    "poly7",
    "polynomial",
    "expression",
    "DEFAULT_INTERVALS",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)

DEFAULT_INTERVALS = {
    "gaussian": (0.0, 4.0),
    "chirp": (0.0, 1.0),
    "poly7": (-4.0, 3.0),
}


def gaussian(domain: tuple[float, float] = (0.0, 4.0)) -> TargetFunction:
    """Standard normal density; f'' = (x^2 - 1) f(x)."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / SQRT_2PI

    def d2(x):
        x = np.asarray(x, dtype=float)
        return (x * x - 1.0) * np.exp(-0.5 * x * x) / SQRT_2PI

    return TargetFunction(f, d2, domain, "analytic")


def chirp(domain: tuple[float, float] = (0.0, 1.0)) -> TargetFunction:
    """sin(10 pi x^2): oscillation speeds up along the interval."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sin(10.0 * np.pi * x * x)

    def d2(x):
        x = np.asarray(x, dtype=float)
        phase = 10.0 * np.pi * x * x
        rate = 20.0 * np.pi
        return rate * np.cos(phase) - (rate * x) ** 2 * np.sin(phase)

    return TargetFunction(f, d2, domain, "analytic")


_POLY7_ROOTS = (-4.0, -3.0, -2.5, 0.0, 1.5, 2.0, 3.0)


def poly7(domain: tuple[float, float] = (-4.0, 3.0)) -> TargetFunction:
    """Degree-7 polynomial with roots at -4, -3, -2.5, 0, 1.5, 2, 3."""
    base = np.polynomial.Polynomial.fromroots(_POLY7_ROOTS)
    return polynomial(tuple(base.coef), domain)


def polynomial(coefficients, domain: tuple[float, float]) -> TargetFunction:
    """Polynomial target from ascending coefficients, with analytic f''."""
    coefficients = tuple(float(c) for c in coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    if not all(math.isfinite(c) for c in coefficients):
        raise ValueError("coefficients must be finite")
    base = np.polynomial.Polynomial(coefficients)
    second = base.deriv(2) if len(coefficients) > 2 else np.polynomial.Polynomial([0.0])

    def f(x):
        return base(np.asarray(x, dtype=float))

    def d2(x):
        return second(np.asarray(x, dtype=float))

    return TargetFunction(f, d2, domain, "analytic")


# -- expression grammar ------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := unary (('*' | '/') unary)*
# unary  := '-' unary | power
# power  := atom ('^' unary)?            right associative
# atom   := NUMBER | 'x' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}


class ExpressionError(ValueError):
    """The expression does not conform to the grammar."""


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    j = k
                    while j < len(text) and text[j].isdigit():
                        j += 1
            try:
                tokens.append(float(text[i:j]))
            except ValueError as exc:
                raise ExpressionError(f"bad number at position {i}: {text[i:j]!r}") from exc
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.take() != tok:
            raise ExpressionError(f"expected {tok!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input from token {self.pos}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            return ("^", node, self.unary())
        return node

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if isinstance(tok, float):
            return ("num", np.float64(tok))
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok == "x":
            return ("var",)
        if tok in _CONSTANTS:
            return ("num", _CONSTANTS[tok])
        if tok in _FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ("call", tok, arg)
        raise ExpressionError(f"unexpected token {tok!r}")


def _evaluate(node, x):
    op = node[0]
    if op == "num":
        return np.full_like(x, node[1]) if np.ndim(x) else node[1]
    if op == "var":
        return x
    if op == "neg":
        return -_evaluate(node[1], x)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], x))
    lhs = _evaluate(node[1], x)
    rhs = _evaluate(node[2], x)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return lhs / rhs
    if op == "^":
        return np.power(lhs, rhs)
    raise ExpressionError(f"unknown node {op!r}")


def expression(text: str, domain: tuple[float, float]) -> TargetFunction:
    """Target from an expression in x; f'' is the numeric fallback.

    Parsing and evaluation recurse on the nesting depth; an expression
    nested past the interpreter's recursion limit raises ExpressionError,
    at parse time or at its first evaluation.
    """
    try:
        node = _Parser(_tokenize(text)).parse()
    except RecursionError:
        raise ExpressionError("expression nests too deeply to parse") from None

    def f(x):
        x = np.asarray(x, dtype=float)
        # Constants are float64, so scalar and array inputs follow the same
        # IEEE rules (1/0 is inf, not ZeroDivisionError) without warnings;
        # callers reject the non-finite values they cannot use.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                out = _evaluate(node, x)
            except RecursionError:
                raise ExpressionError("expression nests too deeply to evaluate") from None
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy() if x.ndim else out

    return TargetFunction.create(f, domain)
