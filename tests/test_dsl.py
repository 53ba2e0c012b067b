import math

import numpy as np
import pytest
from pytest import approx

from warpcheck.dsl import BinOp, Call, Const, ParseError, Var, eval_expr, parse, unparse
from warpcheck.jets import JetTensor

# 32 expressions covering every function and operator of the grammar
CORPUS = [
    "sqrt(2+sin(t))",
    "cosh(t)",
    "sinh(t)",
    "tanh(t/2)",
    "exp(t/5)",
    "exp(-t)",
    "log(2+t*t)",
    "sqrt(1+t^2)",
    "2+3*t^2",
    "1/(1+t)",
    "t^3-2*t+1",
    "-t^2",
    "t*sin(t)",
    "cos(t)*cos(t)+sin(t)*sin(t)",
    "tan(t/4)",
    "pi*t",
    "e*exp(t)",
    "t/(2+cos(t))",
    "(t+1)*(t-1)",
    "1+0.5*t",
    "2e-3*t+1",
    "sqrt(t+5)",
    "sin(cos(t))",
    "exp(sin(t))",
    "log(cosh(t))",
    "t^2^2",
    "3",
    "t",
    "(2+sin(t))^1.5",
    "1-t+t^2-t^3",
    "cosh(t)^2-sinh(t)^2",
    "sqrt(2)*cos(t/3)",
]

SAFE_POINTS = [-1.2, -0.7, -0.3, -0.1, 0.0, 0.2, 0.5, 0.9, 1.4, 2.1, 1.7, 2.5, 2.8, 3.2]


def test_parse_ejiri_warping():
    ast = parse("sqrt(2+sin(t))")
    assert ast == Call("sqrt", BinOp("+", Const(2.0), Call("sin", Var())))


def test_parse_cosh():
    assert parse("cosh(t)") == Call("cosh", Var())


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("1+")
    assert err.value.offset == 2
    assert err.value.expected


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse("spam(t)")


def test_whitespace_insensitive():
    assert parse(" 1 +  2*t ") == parse("1+2*t")


def test_exponent_must_be_constant():
    with pytest.raises(ParseError):
        parse("t^t")
    with pytest.raises(ParseError):
        parse("2^(1+sin(t))")
    parse("t^(1-2)")  # constant subtree is fine
    parse("2^0.5*t")  # and so is a constant power with a finite real value


@pytest.mark.parametrize(
    "src, quoted, offset",
    [("t+1e400", "1e400", 2), ("exp(1000)*t", "exp(1000)", 0), ("t^(2-1/(1-1))", "1/(1-1)", 5), ("t/(1+(-8)^(1/3))", "(-8)^(1/3)", 5)],
)
def test_constants_without_a_finite_real_value_are_parse_errors(src, quoted, offset):
    """The innermost subexpression without t that is not a finite real float is quoted, where it starts."""
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"{quoted!r} has no finite real value at offset {offset}"


def test_precedence():
    assert eval_expr(parse("2+3*t^2"), 2.0) == approx(14.0)


def test_power_right_associative():
    assert eval_expr(parse("t^2^3"), 2.0) == approx(2.0**8)


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip(src):
    ast = parse(src)
    assert parse(unparse(ast)) == ast


def test_eval_sqrt_warping_jet():
    ast = parse("sqrt(2+sin(t))")
    jet = eval_expr(ast, JetTensor.variable(0, 0.0, 1, 2))
    assert jet.value == approx(math.sqrt(2.0))
    assert jet.partial((1,)) == approx(1.0 / (2.0 * math.sqrt(2.0)))


@pytest.mark.parametrize("src, exponent", [("t^e", math.e), ("t^sqrt(4)", 2.0), ("t^-(pi/2)", -math.pi / 2)])
def test_constant_exponents(src, exponent):
    """An exponent is evaluated as a constant subtree, on a float and on a jet argument."""
    assert eval_expr(parse(src), 1.7) == 1.7**exponent
    t = JetTensor.variable(0, 1.7, 1, 3)
    assert np.array_equal(eval_expr(parse(src), t).data, (t**exponent).data)


def test_eval_cosh_jet_series():
    jet = eval_expr(parse("cosh(t)"), JetTensor.variable(0, 0.0, 1, 4))
    assert list(jet.data) == approx([1.0, 0.0, 0.5, 0.0, 1.0 / 24.0])


def test_eval_domain_error():
    from warpcheck.jets import JetDomainError

    with pytest.raises(JetDomainError):
        eval_expr(parse("sqrt(t-5)"), JetTensor.variable(0, 0.0, 1, 2))


def _fd_friendly(src, t0):
    """In the domain with tame derivatives, so central differences are trustworthy."""
    ast = parse(src)
    try:
        for d in (-0.05, 0.0, 0.05):
            value = eval_expr(ast, t0 + d)
            if isinstance(value, float) and not math.isfinite(value):
                return False
        jet = eval_expr(ast, JetTensor.variable(0, t0, 1, 4))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    if not isinstance(jet, JetTensor):
        return True
    return max(abs(jet.partial((k,))) for k in range(5)) < 50.0


@pytest.mark.parametrize("src", CORPUS)
def test_derivatives_match_finite_differences(src, fd):
    """Jet derivatives to order 3 vs central differences at 10 points."""
    ast = parse(src)
    steps = {1: 1e-5, 2: 1e-4, 3: 1e-3}
    points = [t for t in SAFE_POINTS if _fd_friendly(src, t)]
    assert len(points) >= 10
    for t0 in points[:10]:
        result = eval_expr(ast, JetTensor.variable(0, t0, 1, 3))
        if not isinstance(result, JetTensor):
            continue  # constant expression

        def fn(x):
            return eval_expr(ast, x)

        for order in (1, 2, 3):
            got = result.partial((order,))
            want = fd(fn, t0, order, steps[order])
            assert got == approx(want, abs=max(1e-5, 1e-5 * abs(want)))


def test_float_and_jet_paths_agree():
    for src in CORPUS:
        ast = parse(src)
        for t0 in (0.3, 1.1):
            if not _fd_friendly(src, t0):
                continue
            as_float = eval_expr(ast, t0)
            as_jet = eval_expr(ast, JetTensor.variable(0, t0, 1, 2))
            jet_value = as_jet.value if isinstance(as_jet, JetTensor) else as_jet
            assert jet_value == approx(as_float, rel=1e-14, abs=1e-14)


def test_derivative_values_helper():
    """Derivatives read off a jet evaluation; a constant evaluates to a plain number."""
    jet = eval_expr(parse("sin(t)"), JetTensor.variable(0, 0.0, 1, 3))
    assert [jet.partial((j,)) for j in range(4)] == approx([0.0, 1.0, 0.0, -1.0])
    assert eval_expr(parse("2"), JetTensor.variable(0, 0.5, 1, 2)) == approx(2.0)
