"""Expression model: evaluation, symbolic derivatives, parsing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclim.exceptions import DomainError, ExprParseError, UnsupportedProduct
from fraclim.funcmodel import (
    ExpTerm,
    FuncExpr,
    PowerTerm,
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
    g = FuncExpr([ExpTerm(1.0, w=2.0, phi=0.5, sine=True)])
    assert evaluate(g, 0.3) == pytest.approx(math.sin(1.1))
    h = FuncExpr([ExpTerm(0.5, -1.0)])
    assert evaluate(h, 2.0) == pytest.approx(0.5 * math.exp(-2.0))
    k = FuncExpr([ExpTerm(1.0, w=1.0)])
    assert evaluate(k, 0.0) == pytest.approx(1.0)
    # a sine stored as a shifted cosine would give cos(-pi/2) = 6.1e-17
    assert evaluate(parse_expr("sin(c=1,w=1)"), 0.0) == 0.0
    assert evaluate_many(parse_expr("sin(c=1,w=1)"), [0.0])[0] == 0.0
    damped = parse_expr("cos(c=2,w=3,phi=0.5,lam=-1) + sin(c=1,w=3,phi=0.5,lam=-1)")
    want = math.exp(-0.7) * (2.0 * math.cos(2.6) + math.sin(2.6))
    assert evaluate(damped, 0.7) == pytest.approx(want, rel=1e-15)
    assert evaluate_many(damped, [0.7])[0] == pytest.approx(want, rel=1e-15)


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
    s = FuncExpr([ExpTerm(1.0, w=2.0, sine=True)])
    d4 = derivative(s, 4)  # 16 sin(2x)
    assert evaluate(d4, 0.7) == pytest.approx(16.0 * math.sin(1.4))


def test_derivative_exp():
    e = FuncExpr([ExpTerm(1.0, -0.5)])
    d3 = derivative(e, 3)
    assert evaluate(d3, 0.0) == pytest.approx(-0.125)


_ARG = st.floats(-20.0, 20.0)


@given(st.floats(-1e3, 1e3), _ARG, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), _ARG)
@settings(max_examples=200)
def test_three_spellings_evaluate_bit_for_bit(c, w, phi, lam, x):
    xs = np.array([x, 0.0, -1.5, 2.25])
    for text, scalar, vector in (
        (f"sin(c={c!r},w={w!r},phi={phi!r})",
         c * math.sin(w * x + phi), c * np.sin(w * xs + phi)),
        (f"cos(c={c!r},w={w!r},phi={phi!r})",
         c * math.cos(w * x + phi), c * np.cos(w * xs + phi)),
        (f"exp(c={c!r},lam={lam!r})", c * math.exp(lam * x), c * np.exp(lam * xs)),
    ):
        f = parse_expr(text)
        assert evaluate(f, x) == scalar
        assert np.array_equal(evaluate_many(f, xs), vector)


@given(st.floats(-1e3, 1e3).filter(bool), st.floats(-1e3, 1e3), st.floats(-10.0, 10.0),
       st.floats(-1e3, 1e3))
@settings(max_examples=200)
def test_derivatives_cycle_bit_for_bit(c, w, phi, lam):
    # sin -> cos -> -sin -> -cos, cos a quarter turn on, each scaled by
    # c w ... w; exp scaled by c lam ... lam: the same products, in their order
    for k in range(9):
        cw, cl = c, c
        for _ in range(k):
            cw, cl = cw * w, cl * lam
        for quarter, text in ((k, f"sin(c={c!r},w={w!r},phi={phi!r})"),
                              (k + 1, f"cos(c={c!r},w={w!r},phi={phi!r})")):
            coef = -cw if quarter % 4 >= 2 else cw
            want = FuncExpr([ExpTerm(coef, w=w, phi=phi, sine=quarter % 2 == 0)])
            assert format_expr(derivative(parse_expr(text), k)) == format_expr(want)
        want = FuncExpr([ExpTerm(cl, lam)])
        assert format_expr(derivative(parse_expr(f"exp(c={c!r},lam={lam!r})"), k)) == \
            format_expr(want)


@pytest.mark.parametrize("text, k, printed, value", [
    ("exp(c=1e300,lam=1e10)", 2, "exp(c=inf,lam=10000000000.0)", math.inf),
    ("sin(c=1e300,w=1e10)", 3, "cos(c=-inf,w=10000000000.0,phi=0.0)",
     -math.inf * math.cos(1e10 * 0.3)),
    ("cos(c=1e300,w=1e10,phi=0.5)", 1, "sin(c=-inf,w=10000000000.0,phi=0.5)",
     -math.inf * math.sin(1e10 * 0.3 + 0.5)),
    # c z^2 = 2e320 i: the cosine part is 0, not inf - inf = nan
    ("cos(c=1e300,w=1e10,lam=1e10)", 2,
     "sin(c=-inf,w=10000000000.0,phi=0.0,lam=10000000000.0)",
     -math.inf * math.sin(1e10 * 0.3)),
    # |z| itself overflows
    ("cos(c=1,w=1e308,lam=1e308)", 2, "sin(c=-inf,w=1e+308,phi=0.0,lam=1e+308)",
     -math.inf * math.sin(1e308 * 0.3)),
])
def test_overflowing_coefficient_stays_infinite(text, k, printed, value):
    # inf * 0 = nan and inf - inf = nan must not enter: the coefficient is +-inf
    g = derivative(parse_expr(text), k)
    assert format_expr(g) == printed
    with pytest.raises(DomainError, match="overflows at x=0.3"):
        evaluate(g, 0.3)
    with np.errstate(over="ignore"):
        assert evaluate_many(g, [0.3])[0] == value


def test_terms_sort_sines_then_cosines_then_exponentials():
    f = parse_expr("exp(c=1,lam=2) + cos(c=1,w=3) + sin(c=1,w=5,lam=-1) + pow(c=1,x0=0,beta=2)"
                   " + cos(c=1,w=0,phi=1) + exp(c=1,lam=-1) + sin(c=1,w=-2)")
    assert format_expr(f) == (
        "pow(c=1.0,x0=0.0,beta=2.0) + sin(c=1.0,w=-2.0,phi=0.0)"
        " + sin(c=1.0,w=5.0,phi=0.0,lam=-1.0) + cos(c=1.0,w=0.0,phi=1.0)"
        " + cos(c=1.0,w=3.0,phi=0.0) + exp(c=1.0,lam=-1.0) + exp(c=1.0,lam=2.0)")


def test_derivative_damped():
    # d/dx of e^(-x) (2 cos + sin)(3x + 0.5) is e^(-x) (cos - 7 sin)(3x + 0.5)
    f = parse_expr("cos(c=2,w=3,phi=0.5,lam=-1) + sin(c=1,w=3,phi=0.5,lam=-1)")
    assert derivative(f, 1) == parse_expr(
        "cos(c=1,w=3,phi=0.5,lam=-1) + sin(c=-7,w=3,phi=0.5,lam=-1)")


def test_derivative_fractional_power_limits():
    f = FuncExpr([PowerTerm(1.0, 0.0, 0.5)])
    d1 = derivative(f, 1)  # 0.5 x^{-0.5}, still representable
    assert evaluate(d1, 4.0) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        derivative(f, 2)  # exponent would drop to -1.5


_COEF = st.floats(-1e6, 1e6).filter(bool)
_BETA = st.one_of(st.integers(0, 8).map(float), st.floats(-0.99, 8.0))
_PHI = st.floats(-10.0, 10.0)
# a damped term's lam and w, each of magnitude 1e-3 to 1e3
_DAMP = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
_TERMS = st.one_of(
    st.builds(PowerTerm, _COEF, st.sampled_from([0.0, 1.0]), _BETA),
    # sines and cosines (lam = 0) and exponentials (w = phi = 0), over all of
    # c, w and lam, subnormal and 0 included
    st.builds(ExpTerm, _COEF, st.just(0.0), st.floats(-1e3, 1e3), _PHI, st.booleans()),
    st.builds(ExpTerm, _COEF, st.floats(-1e3, 1e3)),
    # damped terms (lam and w both non-zero), with |c| >= 1e-6: their two
    # passes round apart, to a bound relative to |c| |z|^k that a product
    # turning subnormal would not keep
    st.builds(ExpTerm, _COEF.filter(lambda c: abs(c) >= 1e-6), _DAMP, _DAMP, _PHI,
              st.booleans()),
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
    # underflows to 0 is gone before its exponent could leave the class.
    # A damped term (lam and w both nonzero) takes complex products, which
    # the two passes round differently: its cosine and sine coefficients
    # agree to 4e-15 of |c| |z|^(j + k) (at most 1.6e-15 in 240,000 draws)
    exact = FuncExpr([t for t in f.terms if isinstance(t, PowerTerm) or not (t.lam and t.w)])
    assert _derived(exact, j + k) == _derived(exact, j, k)
    for t in f.terms:
        if isinstance(t, ExpTerm) and t.lam and t.w:
            one, two = _derived(FuncExpr([t]), j + k), _derived(FuncExpr([t]), j, k)
            scale = abs(t.c) * math.hypot(t.lam, t.w) ** (j + k)
            for sine in (False, True):
                assert abs(_coef(one, sine) - _coef(two, sine)) <= 4e-15 * scale


def _coef(g, sine):
    """The coefficient of g's cosine (or sine) term, g a one-term derivative."""
    return sum(t.c for t in g.terms if t.sine == sine)


def test_canonicalization_merges_terms():
    x = PowerTerm(1.0, 0.0, 1.0)
    f = FuncExpr([x, x])
    assert f == FuncExpr([PowerTerm(2.0, 0.0, 1.0)])
    assert len(f.terms) == 1
    g = FuncExpr([PowerTerm(1.0, 0.0, 1.0), PowerTerm(-1.0, 0.0, 1.0)])
    assert g.is_zero()
    # exp at rate 0 and cos at w = phi = 0 are one term, the constant
    h = parse_expr("exp(c=1,lam=0) + cos(c=2,w=0,phi=0)")
    assert h.terms == (ExpTerm(3.0),)
    assert format_expr(h) == "exp(c=3.0,lam=0.0)"


def test_expr_arithmetic():
    f = parse_expr("pow(c=1,x0=0,beta=1)")
    g = parse_expr("pow(c=1,x0=0,beta=0)")
    h = f + g
    assert evaluate(h, 3.0) == pytest.approx(4.0)
    assert evaluate(2.0 * f, 3.0) == pytest.approx(6.0)
    assert hash(f + g) == hash(g + f)


def test_parse_defaults_and_zero():
    f = parse_expr("sin(w=2)")
    assert f == FuncExpr([ExpTerm(1.0, w=2.0, sine=True)])
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
        " + cos(c=3,w=1,phi=0,lam=0.5)"
    )
    assert parse_expr(format_expr(f)) == f


@given(st.lists(st.one_of(_TERMS, st.builds(PowerTerm, _COEF, st.floats(-2.0, 2.0), _BETA)),
                max_size=5).map(FuncExpr))
@settings(max_examples=300)
def test_round_trip_property(f):
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
