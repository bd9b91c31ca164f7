"""Expression model: evaluation, symbolic derivatives, parsing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclim.exceptions import DomainError, ExprParseError, UnsupportedProduct
from fraclim.funcmodel import (
    CosTerm,
    ExpTerm,
    FuncExpr,
    PowerTerm,
    SinTerm,
    derivative,
    evaluate,
    evaluate_many,
    format_expr,
    parse_expr,
    poly_product,
    polynomial_degree,
)


def test_evaluate_terms():
    f = FuncExpr([PowerTerm(2.0, 1.0, 3.0)])  # 2 (x-1)^3
    assert evaluate(f, 2.0) == pytest.approx(2.0)
    assert evaluate(f, 0.0) == pytest.approx(-2.0)
    g = FuncExpr([SinTerm(1.0, 2.0, 0.5)])
    assert evaluate(g, 0.3) == pytest.approx(math.sin(1.1))
    h = FuncExpr([ExpTerm(0.5, -1.0)])
    assert evaluate(h, 2.0) == pytest.approx(0.5 * math.exp(-2.0))
    k = FuncExpr([CosTerm(1.0, 1.0, 0.0)])
    assert evaluate(k, 0.0) == pytest.approx(1.0)


def test_evaluate_fractional_power_domain():
    f = FuncExpr([PowerTerm(1.0, 0.0, 0.5)])
    assert evaluate(f, 0.0) == 0.0
    with pytest.raises(DomainError):
        evaluate(f, -0.1)
    g = FuncExpr([PowerTerm(1.0, 0.0, -0.5)])
    with pytest.raises(DomainError):
        evaluate(g, 0.0)


def test_evaluate_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows at x=1.0"):
        evaluate(parse_expr("exp(c=1,lam=800)"), 1.0)  # math.exp raises
    with pytest.raises(DomainError, match="overflows at x=10.0"):
        evaluate(parse_expr("pow(c=1e308,x0=0,beta=3)"), 10.0)  # c * 1000 is inf
    assert evaluate(parse_expr("exp(c=1,lam=700)"), 1.0) == math.exp(700.0)


def test_evaluate_many_matches_scalar():
    f = parse_expr("pow(c=1,x0=0,beta=2) + sin(c=2,w=3) + exp(c=0.1,lam=1)")
    xs = np.linspace(0.0, 2.0, 17)
    vec = evaluate_many(f, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(evaluate(f, float(x)), rel=1e-14, abs=1e-14)


def test_derivative_power_rule():
    f = FuncExpr([PowerTerm(1.0, 0.0, 3.0)])
    d2 = derivative(f, 2)
    assert evaluate(d2, 2.0) == pytest.approx(12.0)
    d3 = derivative(f, 3)
    assert evaluate(d3, 5.0) == pytest.approx(6.0)
    assert derivative(f, 4).is_zero()


def test_derivative_trig_cycle():
    s = FuncExpr([SinTerm(1.0, 2.0, 0.0)])
    d4 = derivative(s, 4)  # 16 sin(2x)
    assert evaluate(d4, 0.7) == pytest.approx(16.0 * math.sin(1.4))


def test_derivative_exp():
    e = FuncExpr([ExpTerm(1.0, -0.5)])
    d3 = derivative(e, 3)
    assert evaluate(d3, 0.0) == pytest.approx(-0.125)


def test_derivative_fractional_power_limits():
    f = FuncExpr([PowerTerm(1.0, 0.0, 0.5)])
    d1 = derivative(f, 1)  # 0.5 x^{-0.5}, still representable
    assert evaluate(d1, 4.0) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        derivative(f, 2)  # exponent would drop to -1.5


_COEF = st.floats(-1e6, 1e6).filter(bool)
_TERMS = st.one_of(
    st.builds(PowerTerm, _COEF, st.sampled_from([0.0, 1.0]),
              st.one_of(st.integers(0, 8).map(float), st.floats(-0.99, 8.0))),
    st.builds(SinTerm, _COEF, st.floats(-1e3, 1e3), st.floats(-10.0, 10.0)),
    st.builds(CosTerm, _COEF, st.floats(-1e3, 1e3), st.floats(-10.0, 10.0)),
    st.builds(ExpTerm, _COEF, st.floats(-1e3, 1e3)),
)


def _derived(f, *ks):
    g = f
    try:
        for k in ks:
            g = derivative(g, k)
    except DomainError:
        return DomainError
    return g


@given(st.lists(_TERMS, max_size=5).map(FuncExpr), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=300)
@example(FuncExpr([PowerTerm(5e-324, 0.0, 0.3)]), 1, 1)  # c beta underflows to 0
def test_derivatives_compose(f, j, k):
    # one pass of j + k equals k after j, float for float, and leaves the
    # class (DomainError) exactly when they do; a term whose coefficient
    # underflows to 0 is gone before its exponent could leave the class
    assert _derived(f, j + k) == _derived(f, j, k)


def test_canonicalization_merges_terms():
    x = PowerTerm(1.0, 0.0, 1.0)
    f = FuncExpr([x, x])
    assert f == FuncExpr([PowerTerm(2.0, 0.0, 1.0)])
    assert len(f.terms) == 1
    g = FuncExpr([PowerTerm(1.0, 0.0, 1.0), PowerTerm(-1.0, 0.0, 1.0)])
    assert g.is_zero()


def test_expr_arithmetic():
    f = parse_expr("pow(c=1,x0=0,beta=1)")
    g = parse_expr("pow(c=1,x0=0,beta=0)")
    h = f + g
    assert evaluate(h, 3.0) == pytest.approx(4.0)
    assert evaluate(2.0 * f, 3.0) == pytest.approx(6.0)
    assert hash(f + g) == hash(g + f)


def test_parse_defaults_and_zero():
    f = parse_expr("sin(w=2)")
    assert f == FuncExpr([SinTerm(1.0, 2.0, 0.0)])
    assert parse_expr("0").is_zero()
    assert format_expr(parse_expr("0")) == "0"


def test_parse_split_protects_exponent_signs():
    f = parse_expr("pow(c=1e+0,x0=0,beta=2) + exp(c=1,lam=-1e-1)")
    assert len(f.terms) == 2


@pytest.mark.parametrize(
    "text",
    [
        "pow(c=1,beta=",          # unbalanced
        "frob(c=1)",              # unknown function
        "pow(c=1,x0=0)",          # beta missing
        "sin(w=2,w=3)",           # duplicate key
        "pow(c=abc,x0=0,beta=1)", # bad number
        "pow(q=1,x0=0,beta=1)",   # unknown key
        "",                       # empty
        "pow(c=1,x0=0,beta=1) + ",
        "pow(c=nan,x0=0,beta=1)", # non-finite parameters
        "sin(c=1,w=inf)",
        "exp(c=1,lam=-inf)",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ExprParseError):
        parse_expr(text)


def test_parse_error_carries_field():
    with pytest.raises(ExprParseError) as exc:
        parse_expr("frob(c=1)", field="--f")
    assert "--f" in str(exc.value)


def test_format_parse_round_trip():
    f = parse_expr(
        "pow(c=-2.25,x0=0.5,beta=3) + sin(c=1,w=2,phi=0.1) + exp(c=0.125,lam=-2)"
    )
    assert parse_expr(format_expr(f)) == f


@given(
    st.floats(min_value=-5, max_value=5).filter(lambda c: abs(c) > 1e-6),
    st.floats(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=200)
def test_round_trip_property(c, x0, k, w):
    f = FuncExpr([PowerTerm(c, x0, float(k)), SinTerm(c, w, 0.0)])
    assert parse_expr(format_expr(f)) == f


def test_polynomial_degree():
    assert polynomial_degree(parse_expr("pow(c=1,x0=0,beta=4)")) == 4
    assert polynomial_degree(parse_expr("pow(c=1,x0=0,beta=0)")) == 0
    assert polynomial_degree(parse_expr("sin(w=1)")) is None
    assert polynomial_degree(parse_expr("pow(c=1,x0=0,beta=1.5)")) is None
    assert polynomial_degree(parse_expr("0")) == 0


def test_poly_product_square():
    one_plus_x = parse_expr("pow(c=1,x0=0,beta=0) + pow(c=1,x0=0,beta=1)")
    sq = poly_product(one_plus_x, one_plus_x)
    assert sq == parse_expr(
        "pow(c=1,x0=0,beta=0) + pow(c=2,x0=0,beta=1) + pow(c=1,x0=0,beta=2)"
    )


def test_poly_product_mixed_centers_rejected():
    f = parse_expr("pow(c=1,x0=0,beta=1)")
    g = parse_expr("pow(c=1,x0=1,beta=1)")
    with pytest.raises(UnsupportedProduct):
        poly_product(f, g)
    with pytest.raises(UnsupportedProduct):
        poly_product(f, parse_expr("sin(w=1)"))


def test_poly_product_constant_is_center_agnostic():
    f = parse_expr("pow(c=2,x0=7,beta=0)")  # a constant, center irrelevant
    g = parse_expr("pow(c=1,x0=1,beta=2)")
    prod = poly_product(f, g)
    assert evaluate(prod, 3.0) == pytest.approx(8.0)


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.floats(min_value=-2, max_value=2),
)
@settings(max_examples=150)
def test_poly_product_matches_pointwise(cf, cg, x):
    f = FuncExpr([PowerTerm(c, 0.0, float(k)) for k, c in enumerate(cf)])
    g = FuncExpr([PowerTerm(c, 0.0, float(k)) for k, c in enumerate(cg)])
    prod = poly_product(f, g)
    expected = evaluate(f, x) * evaluate(g, x)
    assert evaluate(prod, x) == pytest.approx(expected, rel=1e-9, abs=1e-9)
