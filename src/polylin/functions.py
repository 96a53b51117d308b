"""Built-in approximation targets and a small expression grammar.

The named targets carry analytic first and second derivatives.
Expression targets are compiled from a minimal arithmetic grammar (+ - * /
^, sin, cos, exp, sqrt, the constants pi and e, variable x) to a postfix
tape; their f runs the tape on values and their f' and f'' on
second-order Taylor jets, so every target's f' and f'' are exact to
rounding.
"""

from __future__ import annotations

import math
import operator

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
    """Standard normal density; f' = -x f(x) and f'' = (x^2 - 1) f(x)."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / SQRT_2PI

    def d1(x):
        x = np.asarray(x, dtype=float)
        return -x * np.exp(-0.5 * x * x) / SQRT_2PI

    def d2(x):
        x = np.asarray(x, dtype=float)
        return (x * x - 1.0) * np.exp(-0.5 * x * x) / SQRT_2PI

    return TargetFunction(f, d2, domain, d1)


def chirp(domain: tuple[float, float] = (0.0, 1.0)) -> TargetFunction:
    """sin(10 pi x^2): oscillation speeds up along the interval."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sin(10.0 * np.pi * x * x)

    def d1(x):
        x = np.asarray(x, dtype=float)
        return 20.0 * np.pi * x * np.cos(10.0 * np.pi * x * x)

    def d2(x):
        x = np.asarray(x, dtype=float)
        phase = 10.0 * np.pi * x * x
        rate = 20.0 * np.pi
        return rate * np.cos(phase) - (rate * x) ** 2 * np.sin(phase)

    return TargetFunction(f, d2, domain, d1)


_POLY7_ROOTS = (-4.0, -3.0, -2.5, 0.0, 1.5, 2.0, 3.0)


def poly7(domain: tuple[float, float] = (-4.0, 3.0)) -> TargetFunction:
    """Degree-7 polynomial with roots at -4, -3, -2.5, 0, 1.5, 2, 3."""
    base = np.polynomial.Polynomial.fromroots(_POLY7_ROOTS)
    return polynomial(tuple(base.coef), domain)


def polynomial(coefficients, domain: tuple[float, float]) -> TargetFunction:
    """Polynomial target from ascending coefficients, with analytic f' and f''."""
    coefficients = tuple(float(c) for c in coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    if not all(math.isfinite(c) for c in coefficients):
        raise ValueError("coefficients must be finite")
    base = np.polynomial.Polynomial(coefficients)
    first = base.deriv(1)
    second = base.deriv(2) if len(coefficients) > 2 else np.polynomial.Polynomial([0.0])

    def f(x):
        return base(np.asarray(x, dtype=float))

    def d1(x):
        return first(np.asarray(x, dtype=float))

    def d2(x):
        return second(np.asarray(x, dtype=float))

    return TargetFunction(f, d2, domain, d1)


# -- expression grammar ------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := unary (('*' | '/') unary)*
# unary  := '-' unary | power
# power  := atom ('^' unary)?            right associative
# atom   := NUMBER | 'x' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'
#
# The text compiles to a postfix tape, a flat list of (kind, argument)
# instructions, and two loops run the tape over a value stack: one on
# values, one on second-order jets (v, v', v'').  Compiler and loops are
# iterative, so no nesting depth or length is too deep for them.

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}
_CONSTANTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
# "^c" is ^ with an exponent free of x, which the jets differentiate by
# the power rule; the values are np.power either way.
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
    "^c": np.power,
}
# Binding power on the operator stack: unary minus binds tighter than * and
# / but looser than ^, so -x^2 is -(x^2) and x^-2 is x^(-2).  ^ alone is
# right associative.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


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


def _compile(tokens) -> list[tuple]:
    """Postfix tape of the token list, by Dijkstra's shunting-yard.

    The scan alternates between expecting an operand (a number, x, a
    constant, a call, an opening parenthesis, or a unary minus before one)
    and expecting an operator or a closing parenthesis.  Operators wait on
    a stack until one that binds less tightly arrives, so operands keep
    their order in the text and every operation its place in the grammar.
    """
    tape = []
    varies = []  # per value the tape leaves on the stack: does it depend on x
    pending = []  # operators, "(" and function names

    def emit(op):
        if op == "neg":
            tape.append(("neg", None))
        elif op in _FUNCTIONS:
            tape.append(("call", op))
        else:
            rhs = varies.pop()
            tape.append(("^c" if op == "^" and not rhs else op, None))
            varies[-1] = varies[-1] or rhs

    def unwind(bind):
        """Emit the pending operators that bind at least as tightly as bind."""
        while pending and _PRECEDENCE.get(pending[-1], 0) >= bind:
            emit(pending.pop())

    operand = True
    i = 0
    while True:
        tok = tokens[i] if i < len(tokens) else None
        i += 1
        if operand:
            if tok == "x":
                tape.append(("x", None))
                varies.append(True)
                operand = False
            elif isinstance(tok, float) or tok in _CONSTANTS:
                tape.append(("num", np.float64(tok) if isinstance(tok, float) else _CONSTANTS[tok]))
                varies.append(False)
                operand = False
            elif tok == "-":
                pending.append("neg")
            elif tok == "(":
                pending.append("(")
            elif tok in _FUNCTIONS:
                if i >= len(tokens) or tokens[i] != "(":
                    raise ExpressionError("expected '('")
                pending.append(tok)
                i += 1
            elif tok is None:
                raise ExpressionError("unexpected end of expression")
            else:
                raise ExpressionError(f"unexpected token {tok!r}")
        elif tok in ("+", "-", "*", "/", "^"):
            # A pending operator that binds as tightly goes first (left
            # associativity), except before ^, which is right associative.
            unwind(_PRECEDENCE[tok] + (tok == "^"))
            pending.append(tok)
            operand = True
        elif tok == ")":
            unwind(1)
            if not pending:
                raise ExpressionError(f"unmatched ')' at token {i - 1}")
            opener = pending.pop()
            if opener != "(":
                emit(opener)
        elif tok is None:
            unwind(1)
            if pending:
                raise ExpressionError("expected ')'")
            return tape
        else:
            raise ExpressionError(f"trailing input from token {i - 1}")


def _run(tape, x):
    """The tape's value at x, each operation in its order in the text."""
    stack = []
    for kind, arg in tape:
        if kind == "num":
            stack.append(np.full_like(x, arg) if x.ndim else arg)
        elif kind == "x":
            stack.append(x)
        elif kind == "neg":
            stack[-1] = -stack[-1]
        elif kind == "call":
            stack[-1] = _FUNCTIONS[arg](stack[-1])
        else:
            rhs = stack.pop()
            stack[-1] = _BINARY[kind](stack[-1], rhs)
    return stack[0]


# Second-order forward mode (Griewank & Walther, Evaluating Derivatives,
# 2nd ed., SIAM 2008, ch. 13): every value on the stack is a jet
# (v, v', v'') of derivatives in x, and each operation maps the jets of its
# operands to the jet of its result.  A constant's jet is (c, 0, 0).


def _jet_neg(v, d, dd):
    return -v, -d, -dd


def _jet_add(u, w):
    return u[0] + w[0], u[1] + w[1], u[2] + w[2]


def _jet_sub(u, w):
    return u[0] - w[0], u[1] - w[1], u[2] - w[2]


def _jet_mul(u, w):
    (u0, u1, u2), (w0, w1, w2) = u, w
    return u0 * w0, u1 * w0 + u0 * w1, u2 * w0 + 2.0 * u1 * w1 + u0 * w2


def _jet_div(u, w):
    (u0, u1, u2), (w0, w1, w2) = u, w
    q = u0 / w0
    q1 = (u1 - q * w1) / w0
    return q, q1, (u2 - 2.0 * q1 * w1 - q * w2) / w0


def _jet_power_const(u, w):
    """u^c for an exponent c free of x: c u^(c-1) u' and
    c (c-1) u^(c-2) u'^2 + c u^(c-1) u''.  A term whose factor c or c - 1
    is zero is left out, so x^0 and x^1 have finite jets at 0."""
    (u0, u1, u2), c = u, float(w[0])
    if c == 0.0:
        return u0**c, 0.0, 0.0
    slope = c * u0 ** (c - 1.0)
    d, dd = slope * u1, slope * u2
    if c != 1.0:
        dd = c * (c - 1.0) * u0 ** (c - 2.0) * u1 * u1 + dd
    return u0**c, d, dd


def _jet_power(u, w):
    """u^w = exp(w log u) for an exponent that depends on x; NaN where
    u <= 0, where the logarithm is not real."""
    u0, u1, u2 = u
    u0 = np.where(u0 > 0.0, u0, np.nan)
    l1 = u1 / u0
    return _jet_exp(*_jet_mul(w, (np.log(u0), l1, u2 / u0 - l1 * l1)))


def _jet_sin(v, d, dd):
    s, c = np.sin(v), np.cos(v)
    return s, c * d, c * dd - s * (d * d)


def _jet_cos(v, d, dd):
    s, c = np.sin(v), np.cos(v)
    return c, -s * d, -s * dd - c * (d * d)


def _jet_exp(v, d, dd):
    e = np.exp(v)
    return e, e * d, e * (dd + d * d)


def _jet_sqrt(v, d, dd):
    r = np.sqrt(v)
    r1 = d / (2.0 * r)
    return r, r1, (dd - 2.0 * r1 * r1) / (2.0 * r)


_JET_BINARY = {
    "+": _jet_add,
    "-": _jet_sub,
    "*": _jet_mul,
    "/": _jet_div,
    "^": _jet_power,
    "^c": _jet_power_const,
}
_JET_CALLS = {"sin": _jet_sin, "cos": _jet_cos, "exp": _jet_exp, "sqrt": _jet_sqrt}


def _run_jets(tape, x):
    """The tape's jet (v, v', v'') at x."""
    stack = []
    for kind, arg in tape:
        if kind == "num":
            stack.append((arg, 0.0, 0.0))
        elif kind == "x":
            stack.append((x, 1.0, 0.0))
        elif kind == "neg":
            stack[-1] = _jet_neg(*stack[-1])
        elif kind == "call":
            stack[-1] = _JET_CALLS[arg](*stack[-1])
        else:
            rhs = stack.pop()
            stack[-1] = _JET_BINARY[kind](stack[-1], rhs)
    return stack[0]


def _shaped(out, x):
    """out as a float array of x's shape (a scalar for a scalar x)."""
    if not x.ndim:
        return out
    out = np.asarray(out, dtype=float)
    return out if out.shape == x.shape else np.full(x.shape, out)


def expression(text: str, domain: tuple[float, float]) -> TargetFunction:
    """Target from an expression in x, with its exact second derivative.

    The text compiles once to a postfix tape.  f runs the tape on values,
    in the text's order of operations; f' and f'' run it on second-order
    jets, so they are exact to rounding wherever the expression is twice
    differentiable.  f'' is not finite (inf or NaN) at a pole, at 0 for
    sqrt(x) or x^1.5, or wherever u <= 0 in a u^w whose exponent depends on
    x.  At a kink, such as 0 for sqrt(x^2), it is NaN; on either side it is
    exact, so the kink shows only as a jump in f'.  All three accept any
    nesting depth and any length.
    """
    tape = _compile(_tokenize(text))

    # Constants are float64, so scalar and array inputs follow the same
    # IEEE rules (1/0 is inf, not ZeroDivisionError) without warnings;
    # callers reject the non-finite values they cannot use.
    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _shaped(_run(tape, x), x)

    def d1(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, out, _ = _run_jets(tape, x)
        return _shaped(out, x)

    def d2(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, _, out = _run_jets(tape, x)
        return _shaped(out, x)

    return TargetFunction(f, d2, domain, d1)
