"""Targets: the built-ins' closed-form f', and expression targets (the
postfix tape, its values and its second-order jets)."""

import math

import numpy as np
import pytest

from polylin.functions import _POLY7_ROOTS, ExpressionError, chirp, expression, gaussian, poly7, polynomial

EPS = float(np.finfo(float).eps)
X = np.concatenate([np.linspace(0.1, 2.0, 97), np.random.default_rng(5).uniform(0.1, 2.0, 64)])


# Each rule of the jet arithmetic as the outermost operation: the text, its
# closed-form f'', and the sum of the magnitudes of that closed form's
# terms, which sets the rounding scale.
JET_RULES = {
    "neg": ("-(x*x*x)", lambda x: -6.0 * x, lambda x: 6.0 * x),
    "add": ("x*x*x+x*x", lambda x: 6.0 * x + 2.0, lambda x: 6.0 * x + 2.0),
    "sub": ("x*x*x-x*x", lambda x: 6.0 * x - 2.0, lambda x: 6.0 * x + 2.0),
    "mul": ("sin(x)*exp(x)", lambda x: 2.0 * np.cos(x) * np.exp(x), lambda x: 4.0 * np.exp(x)),
    "div": ("sin(x)/exp(x)", lambda x: -2.0 * np.cos(x) * np.exp(-x), lambda x: 4.0 * np.exp(-x)),
    "sin": (
        "sin(x*x)",
        lambda x: 2.0 * np.cos(x * x) - 4.0 * x * x * np.sin(x * x),
        lambda x: 2.0 + 4.0 * x * x,
    ),
    "cos": (
        "cos(x*x)",
        lambda x: -2.0 * np.sin(x * x) - 4.0 * x * x * np.cos(x * x),
        lambda x: 2.0 + 4.0 * x * x,
    ),
    "exp": (
        "exp(x*x)",
        lambda x: (2.0 + 4.0 * x * x) * np.exp(x * x),
        lambda x: (2.0 + 4.0 * x * x) * np.exp(x * x),
    ),
    "sqrt": ("sqrt(x*x*x)", lambda x: 0.75 / np.sqrt(x), lambda x: 6.0 / np.sqrt(x)),
    "power, constant exponent": ("x^3.5", lambda x: 8.75 * x**1.5, lambda x: 8.75 * x**1.5),
    "power, negative exponent": ("x^-2", lambda x: 6.0 / x**4, lambda x: 6.0 / x**4),
    "power, exponent of constants": ("x^(2*1.5)", lambda x: 6.0 * x, lambda x: 6.0 * x),
    "power, variable exponent": (
        "x^x",
        lambda x: x**x * ((np.log(x) + 1.0) ** 2 + 1.0 / x),
        lambda x: x**x * ((np.abs(np.log(x)) + 1.0) ** 2 + 1.0 / x),
    ),
    "power, constant base": ("2^x", lambda x: 2.0**x * math.log(2.0) ** 2, lambda x: 2.0**x),
}


@pytest.mark.parametrize("rule", list(JET_RULES))
def test_jet_rule_matches_closed_form(rule):
    text, exact, scale = JET_RULES[rule]
    got = expression(text, (0.0, 2.0)).d2(X)
    assert got.shape == X.shape
    assert np.all(np.abs(got - exact(X)) <= 4.0 * EPS * scale(X)), rule


def _powers(x, c):
    # The tape hands constants to np.power as arrays of the operand's
    # shape: with a scalar exponent of 2, numpy would square instead, which
    # can differ in the last bit.
    return np.power(x, np.full_like(x, c))


# Expressions and numpy twins of them, written in the same order of
# operations.  The first three are the benchmark's expression families.
TWINS = {
    "exp(-0.9*x)*sin(2.5*x)": lambda x: np.exp(-0.9 * x) * np.sin(2.5 * x),
    "1/(1+3.0*x^2)": lambda x: 1.0 / (1.0 + 3.0 * _powers(x, 2.0)),
    "sqrt(x+0.6)": lambda x: np.sqrt(x + 0.6),
    "exp(-x^2/2)/sqrt(2*pi)": lambda x: np.exp(-_powers(x, 2.0) / 2.0) / np.sqrt(2.0 * np.pi),
    "sin(10*pi*x^2)": lambda x: np.sin(10.0 * np.pi * _powers(x, 2.0)),
    "x-x^3/6+x^5/120": lambda x: x - _powers(x, 3.0) / 6.0 + _powers(x, 5.0) / 120.0,
    "cos(x/2)^-x*e": lambda x: np.power(np.cos(x / 2.0), -x) * np.e,
}


@pytest.mark.parametrize("text", list(TWINS))
def test_tape_values_are_bit_identical_to_numpy(text):
    f = expression(text, (0.0, 2.0))
    assert np.array_equal(f.eval(X), TWINS[text](X))
    assert np.array_equal(f.eval(X[:1]), TWINS[text](X[:1]))


@pytest.mark.parametrize(
    "text, x, value",
    [
        ("2^3^2", 0.0, 512.0),
        ("-2^2", 0.0, -4.0),
        ("x^-1", 4.0, 0.25),
        ("-x*3", 2.0, -6.0),
        ("2*-x", 2.0, -4.0),
        ("8/2/2", 0.0, 2.0),
        ("1-2-3", 0.0, -4.0),
        ("--x", 3.0, 3.0),
        ("2^-x^2", 1.0, 0.5),
        ("sqrt(sqrt(16))*(1+x)", 1.0, 4.0),
    ],
)
def test_operator_precedence(text, x, value):
    assert expression(text, (0.0, 4.0)).eval(x) == value


@pytest.mark.parametrize("text", ["", "x+", "(x", "x)", "sin x", "sin()", "x x", "neg x", "2^", "*x"])
def test_malformed_expressions_raise(text):
    with pytest.raises(ExpressionError):
        expression(text, (0.0, 1.0))


def test_second_derivative_at_the_edge_of_its_domain():
    # x^1 and x^0 leave out the power-rule terms whose factor is zero, so
    # their jets are finite at 0 ...
    for text in ("x^1", "x^0", "(x-0)^2", "x^2.5"):
        assert math.isfinite(expression(text, (0.0, 1.0)).d2(0.0)), text
    # ... while f'' itself is not finite there for these.
    for text in ("x^1.5", "sqrt(x)", "x^x", "1/x", "sqrt((x-0)^2)"):
        assert not math.isfinite(expression(text, (0.0, 1.0)).d2(0.0)), text


def test_expression_free_of_x_has_zero_curvature():
    f = expression("2*pi+e", (0.0, 1.0))
    assert np.array_equal(f.d2(X), np.zeros_like(X))
    assert f.d2(0.5) == 0.0
    assert np.all(f.eval(X) == 2.0 * np.pi + np.e)


def _polynomial_reference(coefficients):
    """numpy's f' of a polynomial, and the same with every coefficient and
    x made positive, which sums the magnitudes of its terms."""
    first = np.polynomial.Polynomial(coefficients).deriv(1)
    return first, lambda x: np.polynomial.Polynomial(np.abs(first.coef))(np.abs(x))


# Each target's f' against a reference, with the sum of the magnitudes of
# the reference's terms (for chirp, its phase's rounding).  Expressions
# are checked against closed forms on [0, 2]; the built-ins against the
# jets of the same function, or numpy's derivative of the polynomial.
FIRST_DERIVATIVES = {
    "sin(x)*exp(x)": (
        lambda x: (np.cos(x) + np.sin(x)) * np.exp(x),
        lambda x: 2.0 * np.exp(x),
    ),
    "1/(1+3.0*x^2)": (
        lambda x: -6.0 * x / (1.0 + 3.0 * x * x) ** 2,
        lambda x: 6.0 * x / (1.0 + 3.0 * x * x) ** 2,
    ),
    "x^x": (
        lambda x: x**x * (np.log(x) + 1.0),
        lambda x: x**x * (np.abs(np.log(x)) + 1.0),
    ),
    "sqrt((x-1)^2)": (lambda x: np.sign(x - 1.0), lambda x: np.ones_like(x)),
    "gaussian": (
        expression("exp(-x^2/2)/sqrt(2*pi)", (0.0, 4.0)).first_derivative,
        lambda x: x * np.exp(-0.5 * x * x),
    ),
    "chirp": (
        expression("sin(10*pi*x^2)", (0.0, 1.0)).first_derivative,
        lambda x: 20.0 * np.pi * x * (1.0 + 10.0 * np.pi * x * x),
    ),
    "poly7": _polynomial_reference(np.polynomial.Polynomial.fromroots(_POLY7_ROOTS).coef),
    "poly:1,-2,0.5,0.25": _polynomial_reference((1.0, -2.0, 0.5, 0.25)),
}
BUILTINS = {
    "gaussian": gaussian(),
    "chirp": chirp(),
    "poly7": poly7(),
    "poly:1,-2,0.5,0.25": polynomial((1.0, -2.0, 0.5, 0.25), (-1.0, 2.0)),
}


@pytest.mark.parametrize("text", list(FIRST_DERIVATIVES))
def test_first_derivative_matches_closed_form(text):
    exact, scale = FIRST_DERIVATIVES[text]
    f = BUILTINS[text] if text in BUILTINS else expression(text, (0.0, 2.0))
    got = f.first_derivative(X)
    assert got.shape == X.shape
    assert np.all(np.abs(got - exact(X)) <= 8.0 * EPS * scale(X)), text
    assert abs(f.first_derivative(1.5) - exact(1.5)) <= 8.0 * EPS * scale(1.5)
    assert expression("2*pi+e", (0.0, 1.0)).first_derivative(0.5) == 0.0
    assert np.array_equal(expression("x", (0.0, 1.0)).first_derivative(X), np.ones_like(X))
