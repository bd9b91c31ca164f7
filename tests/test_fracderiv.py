"""Caputo / Riemann-Liouville operator tests.

Reference values were frozen from 40-digit arbitrary-precision quadrature
(mpmath, dps=40) of the defining integrals; the exp case doubles as a
closed-form cross-check since its half-order Caputo derivative from 0 is
e^x * erf(sqrt(x)).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclim.exceptions import DomainError
from fraclim.fracderiv import (
    KIND_CAPUTO,
    KIND_RL,
    METHOD_BRIDGE,
    METHOD_CLOSED,
    METHOD_QUAD,
    DerivResult,
    QuadratureConfig,
    boundary_terms,
    caputo_derivative,
    caputo_from_nth,
    caputo_power_coefficient,
    derivative_many,
    power_rule,
    rl_derivative,
    singular_integral,
    split_powers,
)
from fraclim.funcmodel import FuncExpr, PowerTerm, derivative, evaluate_many, parse_expr
from fraclim.specfun import FracOrder

# frozen references (dps=40)
CAPUTO_HALF_SIN_AT_01 = 0.35587389434748903496
CAPUTO_HALF_SIN_AT_05 = 0.74553069778064071433
CAPUTO_HALF_EXP_AT_1 = 2.2906982523032382309  # = e * erf(1)
CAPUTO_3HALF_SIN_AT_07 = -0.41637776090459797648
RL_HALF_EXP_AT_1 = 2.8548878358509945179
CAPUTO_HALF_X2_AT_05 = 0.53192304053524357059  # Gamma(3)/Gamma(2.5) * 0.5^1.5
COEF_BETA03_ALPHA07 = 0.60265603519071505147  # Gamma(1.3)/Gamma(0.6)
COEF_BETA25_ALPHA05 = 1.6616754852239212756  # Gamma(3.5)/Gamma(3)
INTEGRAL_HALF_X_AT_1 = 0.75225277806367504926  # Gamma(2)/Gamma(2.5)

X = parse_expr("pow(c=1,x0=0,beta=1)")
X2 = parse_expr("pow(c=1,x0=0,beta=2)")
SIN = parse_expr("sin(c=1,w=1)")
EXP = parse_expr("exp(c=1,lam=1)")


def _quadrature(f, order, a, x, cfg=QuadratureConfig()):
    """Caputo derivative of f at x by quadrature of the sampled f^(n), for
    every term, where caputo_derivative would take the power terms centered at
    a by the power rule."""
    fn = derivative(f, order.n)
    (value,), _ = caputo_from_nth(lambda zs: evaluate_many(fn, zs), order, a, (x,), cfg)
    return float(value)


def _power(beta, a):
    return FuncExpr((PowerTerm(1.0, a, beta),))


# --- power rule ---


def test_caputo_power_coefficient_values():
    assert caputo_power_coefficient(0.3, FracOrder(0.7)) == pytest.approx(
        COEF_BETA03_ALPHA07, rel=1e-13
    )
    # integer beta below the ceiling is annihilated identically
    assert caputo_power_coefficient(0.0, FracOrder(0.5)) == 0.0
    assert caputo_power_coefficient(1.0, FracOrder(1.5)) == 0.0
    assert caputo_power_coefficient(2.0, FracOrder(2.7)) == 0.0


def test_caputo_power_closed_value():
    r = caputo_derivative(X2, FracOrder(0.5), 0.0, 0.5)
    assert r.method == METHOD_CLOSED and r.kind == KIND_CAPUTO
    assert r.value == pytest.approx(CAPUTO_HALF_X2_AT_05, rel=1e-13)


def test_rl_power_any_real_order():
    assert power_rule(((1.0, 2.5),), 0.5, 0.0, (1.0,), KIND_RL)[0] == pytest.approx(
        COEF_BETA25_ALPHA05, rel=1e-13
    )
    # order 0 is the identity
    assert power_rule(((1.0, 2.0),), 0.0, 0.0, (1.5,), KIND_RL)[0] == pytest.approx(
        2.25, rel=1e-13
    )
    # negative order = fractional integral
    assert power_rule(((1.0, 1.0),), -0.5, 0.0, (1.0,), KIND_RL)[0] == pytest.approx(
        INTEGRAL_HALF_X_AT_1, rel=1e-13
    )


def test_rl_constant_does_not_die():
    r = rl_derivative(_power(0.0, 0.0), FracOrder(0.5), 0.0, 1.0)
    assert r.method == METHOD_CLOSED
    assert r.value == pytest.approx(0.56418958354775628695, rel=1e-13)


def test_caputo_vs_rl_at_integer_order_coincide_for_vanishing_boundary():
    # f = x about 0 has f(0) = 0, so RL == Caputo at alpha = 0.5 as well
    c = caputo_derivative(X, FracOrder(0.5), 0.0, 1.0)
    r = rl_derivative(X, FracOrder(0.5), 0.0, 1.0)
    assert c.method == r.method == METHOD_CLOSED
    assert r.value == pytest.approx(c.value, rel=1e-14)


def test_power_validation():
    with pytest.raises(DomainError):
        caputo_derivative(_power(-1.0, 0.0), FracOrder(0.5), 0.0, 1.0)
    with pytest.raises(DomainError):
        caputo_derivative(_power(2.0, 0.0), FracOrder(0.5), 0.0, 0.0)  # x must exceed a


# --- annihilation ---


@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.5])
def test_taylor_terms_annihilate_closed(alpha):
    order = FracOrder(alpha)
    for k in range(order.n):
        f = FuncExpr([PowerTerm(3.7, 0.0, float(k))])
        r = caputo_derivative(f, order, 0.0, 0.9)
        assert r.method == METHOD_CLOSED and r.value == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.5])
def test_taylor_terms_annihilate_quadrature(alpha):
    order = FracOrder(alpha)
    for k in range(order.n):
        f = FuncExpr([PowerTerm(3.7, 0.25, float(k))])
        assert abs(_quadrature(f, order, 0.25, 0.9)) <= 1e-10


# --- quadrature vs frozen integrals ---


def test_quadrature_sin_half_order():
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 0.1, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_QUAD
    assert r.value == pytest.approx(CAPUTO_HALF_SIN_AT_01, abs=2e-9)
    assert r.est_error is not None


def test_quadrature_sin_half_order_interior_point():
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 0.5, QuadratureConfig(nodes=2048))
    assert r.value == pytest.approx(CAPUTO_HALF_SIN_AT_05, abs=1e-8)


def test_quadrature_exp_against_erf_closed_form():
    r = caputo_derivative(EXP, FracOrder(0.5), 0.0, 1.0, QuadratureConfig(nodes=4096))
    assert r.value == pytest.approx(CAPUTO_HALF_EXP_AT_1, abs=5e-8)


def test_quadrature_order_between_one_and_two():
    r = caputo_derivative(SIN, FracOrder(1.5), 0.0, 0.7, QuadratureConfig(nodes=1024))
    assert r.value == pytest.approx(CAPUTO_3HALF_SIN_AT_07, abs=1e-7)


def test_est_error_tracks_true_error():
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 0.1, QuadratureConfig(nodes=1024))
    true_err = abs(r.value - CAPUTO_HALF_SIN_AT_01)
    assert 0.2 * true_err <= r.est_error <= 5.0 * true_err


def test_integer_order_collapses_to_symbolic():
    r = caputo_derivative(SIN, FracOrder(2.0), 0.0, 0.6)
    assert r.method == METHOD_CLOSED
    assert r.value == pytest.approx(-math.sin(0.6), rel=1e-14)
    r1 = caputo_derivative(EXP, FracOrder(1.0), 0.0, 0.3)
    assert r1.value == pytest.approx(math.exp(0.3), rel=1e-14)


def test_quadrature_convergence_is_second_order():
    f = parse_expr(
        "pow(c=1.3,x0=0,beta=5) + pow(c=0.8,x0=0,beta=4) + pow(c=0.7,x0=0,beta=3)"
    )
    order = FracOrder(0.6)
    exact = caputo_derivative(f, order, 0.0, 0.9)
    assert exact.method == METHOD_CLOSED
    errs = [
        abs(_quadrature(f, order, 0.0, 0.9, QuadratureConfig(nodes=n)) - exact.value)
        for n in (512, 1024, 2048)
    ]
    for i in range(len(errs) - 1):
        assert 3.0 < errs[i] / errs[i + 1] < 5.0


@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=0.15, max_value=2.85).filter(
        lambda al: abs(al - round(al)) > 0.05
    ),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_quadrature_matches_closed_on_polynomials(degree, alpha, a):
    order = FracOrder(alpha)
    coeffs = [0.5 + 0.25 * k for k in range(degree + 1)]
    f = FuncExpr([PowerTerm(c, a, float(k)) for k, c in enumerate(coeffs)])
    x = a + 0.8
    exact = caputo_derivative(f, order, a, x)
    assert exact.method == METHOD_CLOSED
    quad = _quadrature(f, order, a, x, QuadratureConfig(nodes=2048))
    assert quad == pytest.approx(exact.value, rel=2e-6, abs=2e-8)


def test_linearity_on_quadrature_route():
    g = parse_expr("pow(c=1,x0=0,beta=2) + sin(c=1,w=1)")
    order = FracOrder(0.5)
    cfg = QuadratureConfig(nodes=512)
    combined = _quadrature(g, order, 0.0, 0.8, cfg)
    parts = (
        _quadrature(X2, order, 0.0, 0.8, cfg)
        + _quadrature(SIN, order, 0.0, 0.8, cfg)
    )
    assert combined == pytest.approx(parts, rel=1e-12)


def test_quadrature_fn_entry_point():
    # caputo_from_nth takes a sampler of f^(n): cos is sin' for the order-1/2 case
    (value,), (est,) = caputo_from_nth(np.cos, FracOrder(0.5), 0.0, [0.1],
                                       QuadratureConfig(nodes=1024))
    assert value == pytest.approx(CAPUTO_HALF_SIN_AT_01, abs=2e-9)
    assert 0.0 < est < 1e-8
    # at an integer order the value is the sample itself, exact, with estimate 0
    values, ests = caputo_from_nth(np.cos, FracOrder(1.0), 0.0, [0.1, 0.7])
    assert values.tolist() == np.cos([0.1, 0.7]).tolist()
    assert ests.tolist() == [0.0, 0.0]


def test_fractional_integral():
    (val,), est = singular_integral(lambda zs: zs, 0.5, 0.0, (1.0,), estimate=False)
    assert est is None
    assert val == pytest.approx(INTEGRAL_HALF_X_AT_1, rel=1e-12)
    # order-1 integral of a linear function is exact for this rule
    (val,), _ = singular_integral(lambda zs: zs, 1.0, 0.0, (2.0,), estimate=False)
    assert val == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(DomainError):
        singular_integral(lambda zs: zs, -0.5, 0.0, (1.0,), estimate=False)


# --- bridge ---

# 1 + x: the one boundary value f(0) = 1 at order 1/2
ONE_PLUS_X = parse_expr("pow(c=1,x0=0,beta=0) + pow(c=1,x0=0,beta=1)")


def test_bridge_matches_rl_closed():
    # Caputo by the power rule plus the boundary sum, against the RL power rule
    got = (caputo_derivative(ONE_PLUS_X, FracOrder(0.5), 0.0, 1.0).value
           + boundary_terms([1.0], FracOrder(0.5), 0.0, 1.0))
    want = rl_derivative(ONE_PLUS_X, FracOrder(0.5), 0.0, 1.0)
    assert want.method == METHOD_CLOSED and want.kind == KIND_RL
    assert got == pytest.approx(want.value, rel=1e-13)
    assert want.value == pytest.approx(1.6925687506432694, rel=1e-12)


def test_bridge_factorial_variant_breaks_the_power_rule():
    want = rl_derivative(ONE_PLUS_X, FracOrder(0.5), 0.0, 1.0).value
    cap = caputo_derivative(ONE_PLUS_X, FracOrder(0.5), 0.0, 1.0).value
    # Caputo plus the 1/k! boundary sum: n = 1, so the one term f(0)/0! x^(-1/2)
    bad = cap + 1.0 / math.factorial(0)
    assert abs(bad - want) > 0.1
    good = cap + boundary_terms([1.0], FracOrder(0.5), 0.0, 1.0)
    assert good == pytest.approx(want, rel=1e-13)


def test_bridge_quadrature_route():
    (got,), _ = caputo_from_nth(np.exp, FracOrder(0.5), 0.0, [1.0],
                                QuadratureConfig(nodes=4096), at_a=[1.0])
    assert got == pytest.approx(RL_HALF_EXP_AT_1, abs=5e-8)


def test_bridge_collapses_at_integer_order():
    (got,), _ = caputo_from_nth(np.exp, FracOrder(2.0), 0.0, [0.4], at_a=[1.0, 1.0])
    assert got == pytest.approx(math.exp(0.4), rel=1e-13)


def test_rl_minus_caputo_is_the_boundary_series():
    f = ONE_PLUS_X
    order = FracOrder(0.5)
    rl = rl_derivative(f, order, 0.0, 1.0).value
    cap = caputo_derivative(f, order, 0.0, 1.0).value
    # single boundary term: f(0) / Gamma(0.5) * x^{-0.5} = 1/Gamma(0.5)
    assert rl - cap == pytest.approx(0.56418958354775628695, rel=1e-12)


# --- dispatchers and result bookkeeping ---


def test_dispatchers_pick_routes():
    assert caputo_derivative(X2, 0.5, 0.0, 1.0).method == METHOD_CLOSED
    assert caputo_derivative(SIN, 0.5, 0.0, 1.0).method == METHOD_QUAD
    assert rl_derivative(X2, 0.5, 0.0, 1.0).method == METHOD_CLOSED
    assert rl_derivative(SIN, 0.5, 0.0, 1.0).method == METHOD_BRIDGE


# x^0.3 + 2x + sin: f' and f'' are singular at a = 0, so no quadrature can
# take the power term; it must take the power rule
MIXED = parse_expr("pow(c=1,x0=0,beta=0.3) + pow(c=2,x0=0,beta=1) + sin(c=1,w=1)")


def test_mixed_sum_takes_power_terms_exactly():
    r = caputo_derivative(MIXED, 1.5, 0.0, 0.7, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_QUAD
    exact = math.gamma(1.3) / math.gamma(-0.2) * 0.7**-1.2 + CAPUTO_3HALF_SIN_AT_07
    assert r.value == pytest.approx(exact, abs=1e-7)
    r = caputo_derivative(MIXED, 2, 0.0, 0.7)
    assert r.method == METHOD_CLOSED and r.est_error is None
    assert r.value == pytest.approx(0.3 * -0.7 * 0.7**-1.7 - math.sin(0.7), rel=1e-14)


@pytest.mark.parametrize("kind", [KIND_CAPUTO, KIND_RL])
@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
def test_derivative_many_equals_one_point_calls(kind, alpha):
    pts = (0.3, 0.9, 1.6)
    values, est_errors, method = derivative_many(MIXED, alpha, 0.0, pts, kind=kind)
    one = caputo_derivative if kind == KIND_CAPUTO else rl_derivative
    results = [one(MIXED, alpha, 0.0, x) for x in pts]
    assert values == [r.value for r in results]
    assert {r.method for r in results} == {method}
    if method == METHOD_QUAD:
        assert est_errors == [r.est_error for r in results]
    assert derivative_many(MIXED, alpha, 0.0, pts, kind=kind, estimate=False)[:2] == (
        values, None)


def test_split_powers():
    assert split_powers(X2, 0.0) == ([(1.0, 2.0)], FuncExpr())
    assert split_powers(X2, 0.5) == ([], X2)  # off-center: the rest
    assert split_powers(SIN, 0.0) == ([], SIN)
    # constants are center-agnostic
    assert split_powers(parse_expr("pow(c=4,x0=9,beta=0)"), 0.0) == ([(4.0, 0.0)], FuncExpr())
    off = parse_expr("pow(c=3,x0=1,beta=0.5)")
    assert split_powers(X2 + SIN + off, 0.0) == ([(1.0, 2.0)], SIN + off)


def test_deriv_result_invariant():
    with pytest.raises(ValueError):
        DerivResult(1.0, KIND_CAPUTO, METHOD_CLOSED, est_error=1e-9)
    with pytest.raises(ValueError):
        DerivResult(1.0, KIND_CAPUTO, METHOD_QUAD)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=1)
    with pytest.raises(DomainError):
        QuadratureConfig(min_gap=0.0)


def test_gap_guard():
    with pytest.raises(DomainError):
        _quadrature(SIN, FracOrder(0.5), 0.0, 1e-15)
    with pytest.raises(DomainError):
        _quadrature(SIN, FracOrder(0.5), 0.0, -1.0)


@pytest.mark.parametrize("a,x", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0),
                                 (math.nan, 1.0)])
def test_non_finite_points_raise(a, x):
    with pytest.raises(DomainError):
        caputo_derivative(SIN, 0.5, a, x)
    with pytest.raises(DomainError):
        caputo_derivative(X2, 0.5, a, x)  # closed route
    with pytest.raises(DomainError):
        caputo_derivative(_power(0.5, a), 0.5, a, x)
    with pytest.raises(DomainError):
        rl_derivative(_power(0.5, a), 0.5, a, x)
    with pytest.raises(DomainError):
        rl_derivative(SIN, 0.5, a, x)
    with pytest.raises(DomainError):
        caputo_from_nth(np.cos, FracOrder(0.5), a, [x])
    with pytest.raises(DomainError):
        singular_integral(np.cos, 0.5, a, (x,), estimate=False)


# --- the multi-point core ---


def test_scan_core_samples_row_blocks_on_linspace_grids():
    seen = []

    def sampler(zs):
        seen.append(zs.copy())
        return np.cos(zs)

    nodes = 4096
    xs = np.linspace(0.1, 2.0, 20)
    values, _ = singular_integral(sampler, 0.5, 0.0, xs, QuadratureConfig(nodes=nodes))
    # even nodes take the coarse grid from the fine one, so every call is a
    # block of fine grids, and no block holds more than 2^15 points
    assert len(seen) == 3
    assert max(len(z) for z in seen) <= 1 << 15
    assert np.array_equal(np.concatenate(seen),
                          np.linspace(0.0, xs, nodes + 1, axis=1).ravel())
    for x, v in zip(xs, values):
        (one,), _ = singular_integral(np.cos, 0.5, 0.0, (x,), QuadratureConfig(nodes=nodes),
                                      estimate=False)
        assert v == pytest.approx(one, rel=1e-13)


def test_singular_integral_of_high_order():
    # m^120 overflows on 1024 nodes; the weights are built from (m/N)^120
    (value,), (est,) = singular_integral(np.ones_like, 120.0, 0.25, [1.75])
    assert value == pytest.approx(float(mp.mpf(1.5) ** 120 / mp.gamma(121)), rel=1e-12)
    assert math.isfinite(est)


def test_scan_core_validation():
    with pytest.raises(DomainError):
        caputo_from_nth(np.sin, FracOrder(2.0), 0.0, [0.3, -0.1], QuadratureConfig())
    with pytest.raises(DomainError):
        singular_integral(np.cos, 0.0, 0.0, [0.3], QuadratureConfig())
    with pytest.raises(DomainError):
        singular_integral(np.cos, [0.5, 0.0], 0.0, [0.3], QuadratureConfig())
    with pytest.raises(DomainError):
        singular_integral(np.cos, [], 0.0, [0.3], QuadratureConfig())


@pytest.mark.parametrize("estimate", [True, False])
@pytest.mark.parametrize("nodes", [64, 65, 4096])
def test_singular_integral_orders_equal_one_order_calls(nodes, estimate):
    calls = []

    def sampler(zs):
        calls.append(len(zs))
        return np.cos(zs) + zs**2

    cfg = QuadratureConfig(nodes=nodes)
    # 0.5 and 2 among them: NumPy's scalar power takes sqrt and square there
    orders = np.array([0.3, 0.5, 1.0, 1.7, 2.0, 4.25])
    xs = np.linspace(0.4, 2.0, 9)  # two row blocks at 4096 nodes
    values, est = singular_integral(sampler, orders, 0.1, xs, cfg, estimate)
    # the grids are sampled once for all the orders
    batched_calls, calls[:] = list(calls), []
    assert values.shape == (6, 9)
    for i, order in enumerate(orders.tolist()):
        one_values, one_est = singular_integral(sampler, order, 0.1, xs, cfg, estimate)
        assert np.array_equal(values[i], one_values)
        if estimate:
            assert np.array_equal(est[i], one_est)
        else:
            assert est is None and one_est is None
    assert calls == batched_calls * len(orders)
    # a list of one order keeps the leading axis
    values, _ = singular_integral(sampler, [0.3], 0.1, xs, cfg, estimate)
    assert values.shape == (1, 9)
