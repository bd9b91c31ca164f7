"""Product-rule diagnostics: defect, integer collapse, symmetrized series.

The frozen defect value for f = g = x at half order is
Gamma(3)/Gamma(2.5) - 2 Gamma(2)/Gamma(1.5) evaluated at dps=40.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclim.fracderiv
import fraclim.funcmodel
import fraclim.leibniz
from fraclim.exceptions import DomainError, UnsupportedProduct
from fraclim.fracderiv import (
    QuadratureConfig,
    fractional_integral_fn,
    rl_closed,
    rl_derivative,
    rl_power_value,
    split_powers,
)
from fraclim.funcmodel import (
    FuncExpr,
    PowerTerm,
    derivative,
    evaluate,
    evaluate_many,
    parse_expr,
    poly_product,
)
from fraclim.leibniz import (
    RULE_INTEGER_SUM,
    RULE_SYMMETRIZED,
    RULE_UNVIOLATED,
    SeriesResult,
    integer_leibniz,
    integer_leibniz_report,
    leibniz_defect,
    rl_of_product,
    series_leibniz_report,
    symmetrized_series,
)
from fraclim.specfun import FracOrder, frac_binomial

DEFECT_XX_HALF_AT_1 = -0.75225277806367504926
SERIES_XX_HALF_AT_1 = 1.5045055561273500985  # 2/Gamma(2.5) = RL^1/2 of x^2 at 1
SERIES_X2_ONE_K0 = 1.0343475698375531927  # (Gamma(3)/Gamma(2.5) + 1/Gamma(0.5))/2
RL_HALF_EXP2X_AT_1 = 10.538428671807382812  # sqrt(2) e^2 erf(sqrt(2)) + 1/sqrt(pi)

X = parse_expr("pow(c=1,x0=0,beta=1)")
X2 = parse_expr("pow(c=1,x0=0,beta=2)")
ONE = parse_expr("pow(c=1,x0=0,beta=0)")
SIN = parse_expr("sin(c=1,w=1)")
EXP = parse_expr("exp(c=1,lam=1)")
POLY = parse_expr("pow(c=1,x0=0,beta=2) + pow(c=-0.5,x0=0,beta=1) + pow(c=2,x0=0,beta=0)")
# a power term the power rule takes plus a term the quadrature takes; beta
# high enough for the series' twelve derivatives
MIXED = parse_expr("pow(c=1,x0=0,beta=12.5) + sin(c=1,w=1)")


def test_defect_frozen_value():
    rep = leibniz_defect(X, X, FracOrder(0.5), 0.0, (1.0,))
    assert rep.defect[0] == pytest.approx(DEFECT_XX_HALF_AT_1, abs=1e-12)
    assert rep.rule_form == RULE_UNVIOLATED
    assert rep.max_abs_defect == pytest.approx(abs(DEFECT_XX_HALF_AT_1), abs=1e-12)


def test_defect_vanishes_at_first_order():
    pairs = [
        (X2, SIN),
        (X, parse_expr("exp(c=1,lam=-1)")),
        (parse_expr("cos(c=1,w=2)"), SIN),
        (X2, parse_expr("pow(c=1,x0=0,beta=3) + pow(c=2,x0=0,beta=0)")),
    ]
    for f, g in pairs:
        rep = leibniz_defect(f, g, FracOrder(1.0), 0.0, (0.7, 1.1))
        assert rep.max_abs_defect <= 1e-10


def test_defect_dichotomy_same_pair():
    # the same product that is exactly Leibniz at order 1 fails at order 1/2
    frac = leibniz_defect(X, X, FracOrder(0.5), 0.0, (1.0,))
    inte = leibniz_defect(X, X, FracOrder(1.0), 0.0, (1.0,))
    assert abs(frac.defect[0]) > 0.1
    assert abs(inte.defect[0]) <= 1e-12


def test_defect_second_order_integer():
    rep = leibniz_defect(X2, SIN, FracOrder(2.0), 0.0, (0.9,))
    # the naive two-term rule misses the cross term of the classical
    # second-order expansion, so the defect is exactly 2 f' g'
    expected = 2.0 * (2.0 * 0.9) * math.cos(0.9)
    assert rep.defect[0] == pytest.approx(expected, rel=1e-10)


def test_rl_operator_defect_for_constants():
    # constants survive RL, so even 1 * 1 violates the naive rule:
    # defect = -RL(1) = -x^{-1/2}/Gamma(1/2) at x = 1
    rep = leibniz_defect(ONE, ONE, FracOrder(0.5), 0.0, (1.0,), operator="rl")
    assert rep.defect[0] == pytest.approx(-0.56418958354775628695, rel=1e-12)


def test_caputo_operator_defect_for_constants_is_zero():
    rep = leibniz_defect(ONE, ONE, FracOrder(0.5), 0.0, (1.0,))
    assert rep.defect[0] == 0.0


def test_defect_validation():
    with pytest.raises(DomainError):
        leibniz_defect(X, X, FracOrder(0.5), 0.0, ())
    with pytest.raises(DomainError):
        leibniz_defect(X, X, FracOrder(0.5), 0.0, (0.0,))  # point not past base


@pytest.mark.parametrize("a,x", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)])
def test_non_finite_points_raise(a, x):
    with pytest.raises(DomainError):
        leibniz_defect(X, SIN, FracOrder(0.5), a, (0.5, x))
    with pytest.raises(DomainError):
        symmetrized_series(X, SIN, FracOrder(0.5), a, x)
    with pytest.raises(DomainError):
        rl_of_product(SIN, SIN, FracOrder(1.0), a, x)
    with pytest.raises(DomainError):
        integer_leibniz(SIN, SIN, 1, math.nan)


def test_defect_quadrature_product_route():
    # sin * exp has no polynomial expansion; the product path integrates the
    # Leibniz-expanded n-th derivative directly
    f, g = SIN, parse_expr("exp(c=1,lam=1)")
    rep = leibniz_defect(f, g, FracOrder(0.5), 0.0, (0.8,), QuadratureConfig(nodes=2048))
    # cross-check against an independent arbitrary-precision evaluation of
    # D(fg) - (Df)g - f(Dg), frozen at dps=40
    assert rep.defect[0] == pytest.approx(-0.75271306970113917305, abs=1e-6)


def test_integer_leibniz_matches_product_derivative():
    fg = poly_product(X2, X2)  # x^4
    for n, x in ((1, 0.7), (2, 1.2), (3, 0.4)):
        direct = integer_leibniz(X2, X2, n, x)
        assert direct == pytest.approx(evaluate(derivative(fg, n), x), rel=1e-12)


def test_integer_leibniz_validation():
    with pytest.raises(DomainError):
        integer_leibniz(X, X, 0, 1.0)
    with pytest.raises(DomainError):
        integer_leibniz(X, X, 1.5, 1.0)


def test_integer_leibniz_report():
    rep = integer_leibniz_report(X2, X2, FracOrder(3.0), (0.4, 1.2))
    assert rep.rule_form == RULE_INTEGER_SUM
    assert rep.points == (0.4, 1.2)
    assert rep.max_abs_defect <= 1e-12
    with pytest.raises(DomainError):
        integer_leibniz_report(X2, X2, FracOrder(1.5), (0.4,))
    with pytest.raises(UnsupportedProduct):
        integer_leibniz_report(X2, SIN, FracOrder(1.0), (0.4,))


# --- symmetrized series ---


def test_series_truncation_one_recovers_power_rule():
    sr = symmetrized_series(X, X, FracOrder(0.5), 0.0, 1.0, K=1)
    assert sr.value == pytest.approx(SERIES_XX_HALF_AT_1, abs=1e-9)
    assert not sr.nonconvergent


def test_series_k0_partial_sum():
    sr = symmetrized_series(X2, ONE, FracOrder(0.5), 0.0, 1.0, K=0)
    assert sr.value == pytest.approx(SERIES_X2_ONE_K0, abs=1e-12)


def test_series_result_unpacks():
    value, residual = symmetrized_series(X, X, FracOrder(0.5), 0.0, 1.0, K=1)
    assert value == pytest.approx(SERIES_XX_HALF_AT_1, abs=1e-9)
    assert residual >= 0.0


def test_series_exact_for_polynomial_pairs():
    rng = np.random.default_rng(20)
    for _ in range(20):
        df, dg = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        a = float(rng.uniform(-1.0, 1.0))
        f = FuncExpr(
            [PowerTerm(float(c), a, float(k))
             for k, c in enumerate(rng.uniform(0.5, 2.0, df + 1))]
        )
        g = FuncExpr(
            [PowerTerm(float(c), a, float(k))
             for k, c in enumerate(rng.uniform(0.5, 2.0, dg + 1))]
        )
        alpha = FracOrder(float(rng.uniform(0.1, 2.9)))
        x = a + float(rng.uniform(0.4, 1.2))
        sr = symmetrized_series(f, g, alpha, a, x)
        ref = rl_of_product(f, g, alpha, a, x)
        assert sr.value == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_series_collapses_to_product_rule_at_integer_order():
    sr = symmetrized_series(X2, SIN, FracOrder(1.0), 0.0, 0.8, K=8)
    exact = integer_leibniz(X2, SIN, 1, 0.8)
    assert sr.value == pytest.approx(exact, rel=1e-12)


def test_series_default_truncation_for_polynomials():
    # default K = deg f + deg g; for x * x that is 2 and the k=2 term is zero
    sr = symmetrized_series(X, X, FracOrder(0.5), 0.0, 1.0)
    assert sr.value == pytest.approx(SERIES_XX_HALF_AT_1, abs=1e-9)
    assert sr.residual == 0.0
    assert sr.K == 2
    assert symmetrized_series(X, SIN, FracOrder(0.5), 0.0, 1.0).K == 12
    assert symmetrized_series(X, SIN, FracOrder(0.5), 0.0, 1.0, K=3).K == 3


def test_series_flags_nonconvergence():
    wild = parse_expr("sin(c=1,w=50)")
    sr = symmetrized_series(wild, wild, FracOrder(0.5), 0.0, 0.9, K=12)
    assert sr.nonconvergent


def test_series_validation():
    with pytest.raises(DomainError):
        symmetrized_series(X, X, FracOrder(0.5), 0.0, 0.0)


def test_series_report_matches_pointwise_calls():
    pts = (0.3, 1.0, 1.7)
    rep = series_leibniz_report(SIN, EXP, FracOrder(1.5), 0.0, pts, K=9)
    series = [symmetrized_series(SIN, EXP, FracOrder(1.5), 0.0, x, K=9) for x in pts]
    assert rep.rule_form == RULE_SYMMETRIZED
    assert rep.points == pts
    assert rep.series_values == tuple(sr.value for sr in series)
    assert rep.defect == tuple(rl_of_product(SIN, EXP, FracOrder(1.5), 0.0, x) - sr.value
                               for x, sr in zip(pts, series))
    assert rep.max_abs_defect == max(abs(d) for d in rep.defect)
    assert rep.truncation_K == 9
    assert rep.series_residual == max(sr.residual for sr in series)
    assert "series_values" not in rep.to_json_dict()
    assert series_leibniz_report(X, X, 0.5, 0.0, (1.0,)).truncation_K == 2
    with pytest.raises(DomainError):
        series_leibniz_report(SIN, EXP, 0.5, 0.0, (0.3, -1.0))


def test_series_below_min_gap_raises():
    # the integer-order terms go through the same gap check as the rest
    with pytest.raises(DomainError):
        symmetrized_series(SIN, EXP, 2.0, 0.0, 1e-13)
    with pytest.raises(DomainError):
        symmetrized_series(SIN, EXP, 2.5, 0.0, 1e-13)


def test_rl_of_product_matches_closed_form():
    # (1 + x)^2 expanded against the term-by-term RL power rule
    one_plus_x = parse_expr("pow(c=1,x0=0,beta=0) + pow(c=1,x0=0,beta=1)")
    got = rl_of_product(one_plus_x, one_plus_x, FracOrder(0.5), 0.0, 1.0)
    want = rl_closed(poly_product(one_plus_x, one_plus_x), FracOrder(0.5), 0.0, 1.0)
    assert got == pytest.approx(want.value, rel=1e-12)


# --- the product route against mpmath on pairs poly_product cannot expand ---


def _mp_integral(h, mu, a, y):
    """Order-mu RL integral of h at y, (1/Gamma(mu)) int_a^y (y - t)^(mu-1) h(t) dt,
    with y - t = (y - a) v^(1/mu) taking the kernel's singularity out."""
    span = y - a
    return span**mu / mp.gamma(mu + 1) * mp.quad(lambda v: h(y - span * v ** (1 / mu)),
                                                  [0, 1])


def _mp_rl(h, alpha, a, x):
    """RL derivative by its definition: d^n/dx^n of the order n - alpha integral."""
    n = math.ceil(alpha)
    mu = n - mp.mpf(alpha)
    if mu == 0:
        return mp.diff(h, x, n)

    def integral(y):
        with mp.extradps(20):
            return _mp_integral(h, mu, a, y)

    return mp.diff(integral, x, n)


def _mp_caputo(hn, alpha, a, x):
    """Caputo derivative by its definition: the order n - alpha integral of
    hn = h^(n)."""
    mu = math.ceil(alpha) - mp.mpf(alpha)
    return hn(x) if mu == 0 else _mp_integral(hn, mu, a, x)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_rl_of_product_exp_exp_against_mpmath(alpha):
    # e^x e^x: caputo_from_nth on the Leibniz-expanded (fg)^(n), plus n boundary terms
    with mp.workdps(30):
        want = _mp_rl(lambda t: mp.exp(2 * t), alpha, 0, mp.mpf(1))
    got = rl_of_product(EXP, EXP, alpha, 0.0, 1.0, QuadratureConfig(nodes=4096))
    assert got == pytest.approx(float(want), rel=1e-7)
    if alpha == 0.5:
        assert float(want) == pytest.approx(RL_HALF_EXP2X_AT_1, rel=1e-15)
    if alpha == 2.0:
        # integer order: exactly (fg)''(x) = 4 e^2, the boundary terms all vanish
        assert got == pytest.approx(4.0 * math.exp(2.0), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0])
def test_caputo_defect_sin_exp_against_mpmath(alpha):
    n = math.ceil(alpha)
    xs = (0.6, 1.2)
    one_i = mp.mpc(1, 1)
    want = []
    with mp.workdps(30):
        for x in map(mp.mpf, xs):
            # (sin t e^t)^(n) = Im((1+i)^n e^((1+i)t)), independent of the Leibniz sum
            d_fg = _mp_caputo(lambda t: mp.im(one_i**n * mp.exp(one_i * t)), alpha, 0, x)
            d_f = _mp_caputo(lambda t: mp.sin(t + n * mp.pi / 2), alpha, 0, x)
            d_g = _mp_caputo(mp.exp, alpha, 0, x)
            want.append(float(d_fg - d_f * mp.exp(x) - mp.sin(x) * d_g))
    rep = leibniz_defect(SIN, EXP, alpha, 0.0, xs, QuadratureConfig(nodes=4096))
    assert rep.defect == pytest.approx(want, abs=5e-7)
    if alpha == 2.0:
        assert rep.defect == pytest.approx(want, rel=1e-13)


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.3, max_value=1.5),
)
@settings(max_examples=50, deadline=None)
def test_integer_leibniz_property(n, x):
    f = parse_expr("pow(c=1,x0=0,beta=2) + pow(c=1,x0=0,beta=0)")
    g = parse_expr("pow(c=2,x0=0,beta=3) + pow(c=-1,x0=0,beta=1)")
    fg = poly_product(f, g)
    assert integer_leibniz(f, g, n, x) == pytest.approx(
        evaluate(derivative(fg, n), x), rel=1e-10, abs=1e-10
    )


def test_report_serialization():
    rep = leibniz_defect(X, X, FracOrder(0.5), 0.0, (0.5, 1.0))
    doc = rep.to_json_dict()
    assert doc["alpha"] == 0.5
    assert doc["points"] == [0.5, 1.0]
    assert doc["rule_form"] == RULE_UNVIOLATED
    assert doc["truncation_K"] is None
    csv_text = rep.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,defect"
    assert len(lines) == 3


# --- the batched routes equal their one-point, one-order forms exactly ---


@pytest.mark.parametrize("operator", ["caputo", "rl"])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("f,g", [(SIN, EXP), (POLY, SIN), (MIXED, EXP)],
                         ids=["sin-exp", "poly-sin", "mixed-exp"])
def test_defect_at_three_points_equals_one_point_calls(f, g, alpha, operator):
    pts = (0.3, 0.9, 1.6)
    rep = leibniz_defect(f, g, alpha, 0.0, pts, operator=operator)
    assert rep.defect == tuple(leibniz_defect(f, g, alpha, 0.0, (x,), operator=operator).defect[0]
                               for x in pts)


def _series_reference(f, g, alpha, a, x, K, cfg):
    """The symmetrized series term by term from the public operators: one
    rl_derivative, fractional_integral_fn or power-rule call per order."""

    def rl(h, order):
        if order == 0.0:
            return evaluate(h, x)
        if order > 0.0:
            return rl_derivative(h, order, a, x, cfg).value
        parts, rest = split_powers(h, a)
        power = sum(c * rl_power_value(beta, order, a, x) for c, beta in parts)
        if rest.is_zero():
            return power
        integral = fractional_integral_fn(lambda zs: evaluate_many(rest, zs), -order, a, x, cfg)
        return integral + power if parts else integral

    terms = []
    for k in range(K + 1):
        b = frac_binomial(alpha, k, halved=True)
        order = alpha - k
        terms.append(0.0 if b == 0.0 else
                     b * (rl(f, order) * evaluate(derivative(g, k), x)
                          + rl(g, order) * evaluate(derivative(f, k), x)))
    total = 0.0
    for term in terms:
        total += term
    return total, abs(terms[-1])


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("f,g", [(SIN, EXP), (POLY, SIN), (X2, POLY), (MIXED, EXP)],
                         ids=["sin-exp", "poly-sin", "poly-poly", "mixed-exp"])
def test_series_equals_per_term_reference(f, g, alpha):
    cfg = QuadratureConfig(nodes=256)
    for x, K in ((0.7, 6), (1.3, 12)):
        sr = symmetrized_series(f, g, alpha, 0.0, x, K=K, cfg=cfg)
        assert (sr.value, sr.residual) == _series_reference(f, g, alpha, 0.0, x, K, cfg)


# --- work counts: a later edit must not bring back per-point or per-order work ---


@pytest.fixture
def work(monkeypatch):
    """Counts of core calls (singular_integral, as leibniz and fracderiv see
    it) and the functions that leibniz samples, one entry per sampler call."""
    counts = {"core": 0, "sampled": []}
    core = fraclim.fracderiv.singular_integral

    def counted_core(*args, **kwargs):
        counts["core"] += 1
        return core(*args, **kwargs)

    def counted_sample(f, zs):
        counts["sampled"].append(f)
        return evaluate_many(f, zs)

    monkeypatch.setattr(fraclim.fracderiv, "singular_integral", counted_core)
    monkeypatch.setattr(fraclim.leibniz, "singular_integral", counted_core)
    monkeypatch.setattr(fraclim.leibniz, "evaluate_many", counted_sample)
    return counts


@pytest.mark.parametrize("alpha", [0.5, 2.5])
def test_series_samples_each_factor_once_for_its_integrals(work, alpha):
    exp2 = parse_expr("exp(c=1,lam=2)")  # unlike e^x, not its own derivative
    symmetrized_series(SIN, exp2, alpha, 0.0, 1.0, K=12)
    # f and g themselves are sampled only for their 12 - n + 1 integrals,
    # once each; each of the n derivative terms samples f^(n-k) or g^(n-k)
    n = math.ceil(alpha)
    assert work["sampled"].count(SIN) == 1
    assert work["sampled"].count(exp2) == 1
    assert len(work["sampled"]) == 2 * (1 + n)
    assert work["core"] == 2 * (1 + n)


def test_defect_core_calls_do_not_grow_with_points(work):
    leibniz_defect(SIN, EXP, 0.5, 0.0, (0.3, 0.9, 1.6))
    # one core call each for D(fg), D f and D g, whatever the number of points
    assert work["core"] == 3
    three_points = len(work["sampled"])
    work["sampled"].clear()
    leibniz_defect(SIN, EXP, 0.5, 0.0, (0.9,))
    assert work["core"] == 6
    assert len(work["sampled"]) == three_points


def test_products_derive_each_factor_once(monkeypatch):
    steps = []
    d1 = fraclim.funcmodel._d1

    def counted_d1(f):
        steps.append(f)
        return d1(f)

    monkeypatch.setattr(fraclim.funcmodel, "_d1", counted_d1)
    rl_of_product(SIN, EXP, 2.5, 0.0, 1.0)
    # f^(k) and g^(k), k = 1..3, once each, for the sampler of (fg)^(3) and
    # the boundary values (fg)^(k)(a) alike
    assert len(steps) == 6
    steps.clear()
    integer_leibniz_report(X2, POLY, 2, (0.3, 0.9, 1.6))
    # (fg)'' plus f', f'' and g', g'', whatever the number of points
    assert len(steps) == 6
