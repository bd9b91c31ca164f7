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
import fraclim.leibniz
from fraclim.exceptions import DomainError, UnsupportedProduct
from fraclim.fracderiv import (
    KIND_RL,
    METHOD_CLOSED,
    QuadratureConfig,
    derivative_many,
    power_rule,
    rl_derivative,
    singular_integral,
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


@pytest.mark.parametrize("operator", ["caputo", "rl"])
def test_defect_second_order_integer(operator):
    rep = leibniz_defect(X2, SIN, FracOrder(2.0), 0.0, (0.9,), operator=operator)
    # the naive two-term rule misses the cross term of the classical
    # second-order expansion, so the defect is exactly 2 f' g'; the RL Taylor
    # terms vanish at an integer order
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


def test_series_result_value_and_residual():
    sr = symmetrized_series(X, X, FracOrder(0.5), 0.0, 1.0, K=1)
    assert sr.value == pytest.approx(SERIES_XX_HALF_AT_1, abs=1e-9)
    assert sr.residual >= 0.0


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
    assert series_leibniz_report(X, X, 0.5, 0.0, (1.0,)).truncation_K == 2
    with pytest.raises(DomainError):
        series_leibniz_report(SIN, EXP, 0.5, 0.0, (0.3, -1.0))


def test_rl_of_product_matches_closed_form():
    # (1 + x)^2 expanded against the term-by-term RL power rule
    one_plus_x = parse_expr("pow(c=1,x0=0,beta=0) + pow(c=1,x0=0,beta=1)")
    got = rl_of_product(one_plus_x, one_plus_x, FracOrder(0.5), 0.0, 1.0)
    want = rl_derivative(poly_product(one_plus_x, one_plus_x), FracOrder(0.5), 0.0, 1.0)
    assert want.method == METHOD_CLOSED
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
    # e^x e^x: the integral of the Leibniz-expanded (fg)^(n) with n boundary
    # values, or at alpha = 2 its exact row
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


def _quadrature_integral(rest, order, a, x, cfg):
    ((integral,),), _ = singular_integral([lambda zs: evaluate_many(rest, zs)], [-order], a,
                                          (x,), cfg)
    return float(integral)


def _series_integral(rest, order, a, x, cfg):
    return derivative_many(rest, order, a, (x,), cfg, KIND_RL)[0][0]


def _series_reference(f, g, alpha, a, x, K, cfg, integral=_quadrature_integral):
    """The symmetrized series term by term from the public operators: one
    rl_derivative, ``integral`` (singular_integral, or the one-order,
    one-point derivative_many of the series route) or power_rule call per
    order."""

    def rl(h, order):
        if order == 0.0:
            return evaluate(h, x)
        if order > 0.0:
            return rl_derivative(h, order, a, x, cfg).value
        parts, rest = split_powers(h, a)
        power = sum(c * power_rule(((1.0, beta),), order, a, (x,), KIND_RL)[0]
                    for c, beta in parts)
        if rest.is_zero():
            return power
        value = integral(rest, order, a, x, cfg)
        return value + power if parts else value

    terms = []
    for k in range(K + 1):
        b = 0.5 * frac_binomial(alpha, k)
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
    # every factor's rest has rate 1: at x - a > 2 it takes the integral
    cfg = QuadratureConfig(nodes=256)
    for x, K in ((2.3, 6), (3.1, 12)):
        sr = symmetrized_series(f, g, alpha, 0.0, x, K=K, cfg=cfg)
        assert (sr.value, sr.residual) == _series_reference(f, g, alpha, 0.0, x, K, cfg)


@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("f,g", [(SIN, EXP), (POLY, SIN), (X2, POLY), (MIXED, EXP)],
                         ids=["sin-exp", "poly-sin", "poly-poly", "mixed-exp"])
def test_series_route_equals_per_term_reference(f, g, alpha):
    # at x - a <= 2 the rests take the series
    cfg = QuadratureConfig(nodes=256)
    for x, K in ((0.7, 6), (1.3, 12)):
        sr = symmetrized_series(f, g, alpha, 0.0, x, K=K, cfg=cfg)
        assert (sr.value, sr.residual) == _series_reference(f, g, alpha, 0.0, x, K, cfg,
                                                             _series_integral)


# --- work counts: a later edit must not bring back per-point or per-order work ---


@pytest.fixture
def work(monkeypatch):
    """Counts of core calls (singular_integral, from fracderiv and leibniz)
    and the functions that fracderiv and leibniz sample, one entry per sampler
    call."""
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
    monkeypatch.setattr(fraclim.fracderiv, "evaluate_many", counted_sample)
    monkeypatch.setattr(fraclim.leibniz, "evaluate_many", counted_sample)
    return counts


@pytest.mark.parametrize("alpha", [0.5, 2.5])
def test_series_samples_each_factor_once_for_its_integrals(work, alpha):
    exp2 = parse_expr("exp(c=1,lam=2)")  # unlike e^x, not its own derivative
    # at x - a = 2.5 both factors are past the series' reach (rates 1 and 2)
    symmetrized_series(SIN, exp2, alpha, 0.0, 2.5, K=12)
    # f and g themselves are sampled only for their 12 - n + 1 integrals,
    # once each; each of the n derivative terms samples f^(n-k) or g^(n-k);
    # all the integrals of a factor are one core call
    n = math.ceil(alpha)
    assert work["sampled"].count(SIN) == 1
    assert work["sampled"].count(exp2) == 1
    assert len(work["sampled"]) == 2 * (1 + n)
    assert work["core"] == 2


@pytest.mark.parametrize("alpha", [0.5, 2.5])
def test_series_within_reach_samples_nothing(work, alpha):
    # at x - a = 1 both factors take the series: no integral, no sample
    symmetrized_series(SIN, parse_expr("exp(c=1,lam=2)"), alpha, 0.0, 1.0, K=12)
    assert work == {"core": 0, "sampled": []}


def test_defect_core_calls_do_not_grow_with_points(work):
    # past the series' reach of sin and exp, x - a > 2
    leibniz_defect(SIN, EXP, 0.5, 0.0, (2.3, 2.9, 3.6))
    # one core call each for D(fg), D f and D g, whatever the number of points
    assert work["core"] == 3
    three_points = len(work["sampled"])
    work["sampled"].clear()
    leibniz_defect(SIN, EXP, 0.5, 0.0, (3.6,))  # the point that takes the most rules
    assert work["core"] == 6
    assert len(work["sampled"]) == three_points


def test_defect_within_reach_integrates_only_the_product(work):
    # D f and D g take the series; D(fg) is the one core call
    leibniz_defect(SIN, EXP, 0.5, 0.0, (0.3, 0.9, 1.6))
    assert work["core"] == 1
    leibniz_defect(SIN, EXP, 0.5, 0.0, (0.9,))
    assert work["core"] == 2


def test_rl_product_samples_each_factor_derivative_once_at_a(monkeypatch):
    at_a = []

    def counted(f, zs):
        if len(zs) == 1:
            at_a.append(f)
        return evaluate_many(f, zs)

    monkeypatch.setattr(fraclim.fracderiv, "evaluate_many", counted)
    monkeypatch.setattr(fraclim.leibniz, "evaluate_many", counted)
    leibniz_defect(SIN, EXP, 2.5, 0.0, (0.4, 1.1), operator="rl")
    # the boundary values (fg)^(k)(a), k < 3, from one sample of each f^(j)
    # and g^(j), j < 3: 2n one-point samples, not n(n+1)
    assert len(at_a) == 6
    assert set(map(repr, at_a)) == {repr(derivative(SIN, j)) for j in range(3)} | {repr(EXP)}


def test_products_derive_each_factor_once(derivative_builds):
    rl_of_product(SIN, EXP, 2.5, 0.0, 1.0)
    # f^(k) and g^(k), k = 1..3, once each, for the sampler of (fg)^(3) and
    # the boundary values (fg)^(k)(a) alike
    assert derivative_builds == [1, 2, 3, 1, 2, 3]
    for op in ("caputo", "rl"):
        for f in (SIN, X2 + SIN):
            derivative_builds.clear()
            leibniz_defect(f, EXP, 2.5, 0.0, (0.4, 1.1), operator=op)
            # D^alpha f and D^alpha g take the series and derive nothing, so
            # f^(k) and g^(k) are derived once, for D^alpha(fg), also when f
            # mixes a power term with the rest
            assert len(derivative_builds) == 6
        derivative_builds.clear()
        leibniz_defect(SIN, EXP, 2.5, 0.0, (2.4, 3.1), operator=op)
        # past the series' reach D^alpha f and D^alpha g also derive f^(3) and
        # g^(3), and for RL f^(k) and g^(k), k < 3, for the boundary values
        assert len(derivative_builds) == {"caputo": 8, "rl": 12}[op]
    derivative_builds.clear()
    integer_leibniz_report(X2, POLY, 2, (0.3, 0.9, 1.6))
    # (fg)'' plus f', f'' and g', g'', whatever the number of points
    assert derivative_builds == [2, 1, 2, 1, 2]


@pytest.mark.parametrize("alpha", [0.5, 2.5])
def test_series_derives_each_factor_once(derivative_builds, alpha):
    symmetrized_series(SIN, parse_expr("exp(c=1,lam=2)"), alpha, 0.0, 1.0, K=12)
    # within the series' reach the integrals derive nothing; g^(k) and f^(k),
    # k = 1..12, are derived once each, for the f^(k)(x) of the terms
    assert derivative_builds == [k for k in range(1, 13) for _ in "gf"]


@pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf, 1.5, -1])
@pytest.mark.parametrize("call", [
    lambda k: derivative(SIN, k),
    lambda k: frac_binomial(0.5, k),
    lambda k: symmetrized_series(SIN, EXP, 0.5, 0.0, 1.0, K=k),
    lambda k: integer_leibniz(SIN, EXP, k, 1.0),
], ids=["derivative", "frac_binomial", "symmetrized_series", "integer_leibniz"])
def test_a_count_that_is_not_an_integer_is_a_domain_error(call, count):
    with pytest.raises(DomainError, match=f"integer, got {count!r}$"):
        call(count)


def test_results_hold_python_floats():
    exp2 = parse_expr("exp(c=1,lam=2)")
    for op in ("caputo", "rl"):
        assert {type(d) for d in leibniz_defect(SIN, exp2, 0.5, 0.0, (0.3, 0.9), operator=op)
                .defect} == {float}
    assert type(symmetrized_series(SIN, exp2, 1.5, 0.0, 1.0).value) is float
    assert type(series_leibniz_report(SIN, exp2, 1.5, 0.0, (0.7,)).defect[0]) is float
