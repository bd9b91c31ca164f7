"""Caputo / Riemann-Liouville operator tests.

Reference values were frozen from 40-digit arbitrary-precision quadrature
(mpmath, dps=40) of the defining integrals; the exp case doubles as a
closed-form cross-check since its half-order Caputo derivative from 0 is
e^x * erf(sqrt(x)).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclim
from fraclim.exceptions import DomainError
from fraclim.fracderiv import (
    KIND_CAPUTO,
    KIND_RL,
    METHOD_BRIDGE,
    METHOD_CLOSED,
    METHOD_QUAD,
    METHOD_SPECIAL,
    DerivResult,
    QuadratureConfig,
    caputo_derivative,
    caputo_power_coefficient,
    derivative_many,
    power_rule,
    rl_derivative,
    singular_integral,
    split_powers,
)
from fraclim.funcmodel import FuncExpr, PowerTerm, parse_expr
from fraclim.kernels import legendre_rule
from fraclim.leibniz import leibniz_defect
from fraclim.specfun import FracOrder
from references import boundary_sum, quadrature

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
# (x + 1/2)^0.3 at a = 0: 0.3 (x + 1/2)^-0.2 B_t(1/2, 0.3) / Gamma(1/2), t = x / (x + 1/2)
CAPUTO_HALF_OFF_CENTRE_AT_01 = 0.15958316100132708400

X = parse_expr("pow(c=1,x0=0,beta=1)")
X2 = parse_expr("pow(c=1,x0=0,beta=2)")
SIN = parse_expr("sin(c=1,w=1)")
EXP = parse_expr("exp(c=1,lam=1)")
# a power term centered off the base point a = 0 is part of the rest, which
# then takes the integral at every point
OFF_CENTRE = parse_expr("pow(c=1,x0=-0.5,beta=0.3)")


def _power(beta, a):
    return FuncExpr((PowerTerm(1.0, a, beta),))


def _taylor_caputo(terms, alpha, a, x, majorant=False, k0=None):
    """mpmath oracle for the Caputo derivative of a sum of ``terms``, each
    (c, lam, w, phi, sine) for c e^(lam x) cos(w x + phi), or sin(w x + phi)
    when ``sine`` is set: the real or imaginary part of c e^(i phi) e^(z x),
    z = lam + i w, with f^(k)(a) from c z^k e^(i phi) e^(z a).  The series
    sum_{k>=k0} f^(k)(a) (x-a)^(k-alpha) / Gamma(k+1-alpha),
    k0 = max(ceil(alpha), 0) unless given, is summed in 40 digits until its
    terms are below 1e-30 of its largest.  A negative alpha gives the
    fractional integral, and k0 = 0 the RL derivative.  With ``majorant``,
    (the sum, the sum of its terms' bounds
    sum_t |c_t| |z_t|^k e^(lam_t a) (x-a)^(k-alpha) / |Gamma(k+1-alpha)|)."""
    with mp.workdps(40):
        n = max(math.ceil(alpha), 0) if k0 is None else k0
        alpha, a, h = mp.mpf(alpha), mp.mpf(a), mp.mpf(x) - mp.mpf(a)
        total, largest, bounds, k = mp.mpf(0), mp.mpf(0), mp.mpf(0), n
        while True:
            fk, size = mp.mpf(0), mp.mpf(0)
            for c, lam, w, phi, sine in terms:
                z = mp.mpc(lam, w)
                jet = mp.mpf(c) * z**k * mp.exp(z * a + mp.mpc(0, phi))
                fk += jet.imag if sine else jet.real
                # a bound on the term, as f^(k)(a) may vanish for one k
                size += abs(mp.mpf(c)) * abs(z) ** k * mp.exp(mp.mpf(lam) * a)
            bound = size * h ** (k - alpha) / abs(mp.gamma(k + 1 - alpha))
            total += fk * h ** (k - alpha) / mp.gamma(k + 1 - alpha)
            largest, bounds = max(largest, bound), bounds + bound
            if k > n + 2 and bound < mp.mpf(10) ** -30 * largest:
                return (total, bounds) if majorant else total
            k += 1


def _expr(terms):
    return parse_expr(" + ".join(
        f"{'sin' if sine else 'cos'}(c={c!r},w={w!r},phi={phi!r},lam={lam!r})"
        for c, lam, w, phi, sine in terms))


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
        assert abs(quadrature(f, order, 0.25, 0.9)) <= 1e-10


# --- quadrature vs frozen integrals ---


def test_quadrature_sin_half_order():
    # past the series' reach, w (x - a) > 2, sin takes the integral
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 2.5, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_QUAD
    assert r.value == pytest.approx(_taylor_caputo([(1.0, 0.0, 1.0, 0.0, True)], 0.5, 0.0, 2.5),
                                    abs=2e-9)
    assert r.est_error is not None
    cfg = QuadratureConfig(nodes=1024)
    assert quadrature(SIN, FracOrder(0.5), 0.0, 0.1, cfg) == pytest.approx(
        CAPUTO_HALF_SIN_AT_01, abs=2e-9)


def test_series_sin_half_order():
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 0.1, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_SPECIAL
    assert abs(r.value - CAPUTO_HALF_SIN_AT_01) <= r.est_error


# the value tests below check the series route (caputo_derivative) and the
# quadrature (_quadrature) on the same frozen integral


def test_quadrature_sin_half_order_interior_point():
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 0.5, QuadratureConfig(nodes=2048))
    assert r.value == pytest.approx(CAPUTO_HALF_SIN_AT_05, abs=1e-8)
    quad = quadrature(SIN, FracOrder(0.5), 0.0, 0.5, QuadratureConfig(nodes=2048))
    assert quad == pytest.approx(CAPUTO_HALF_SIN_AT_05, abs=1e-8)


def test_quadrature_exp_against_erf_closed_form():
    r = caputo_derivative(EXP, FracOrder(0.5), 0.0, 1.0, QuadratureConfig(nodes=4096))
    assert r.value == pytest.approx(CAPUTO_HALF_EXP_AT_1, abs=5e-8)
    quad = quadrature(EXP, FracOrder(0.5), 0.0, 1.0, QuadratureConfig(nodes=4096))
    assert quad == pytest.approx(CAPUTO_HALF_EXP_AT_1, abs=5e-8)


def test_quadrature_order_between_one_and_two():
    r = caputo_derivative(SIN, FracOrder(1.5), 0.0, 0.7, QuadratureConfig(nodes=1024))
    assert r.value == pytest.approx(CAPUTO_3HALF_SIN_AT_07, abs=1e-7)
    quad = quadrature(SIN, FracOrder(1.5), 0.0, 0.7, QuadratureConfig(nodes=1024))
    assert quad == pytest.approx(CAPUTO_3HALF_SIN_AT_07, abs=1e-7)


def test_est_error_tracks_true_error():
    r = caputo_derivative(OFF_CENTRE, FracOrder(0.5), 0.0, 0.1, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_QUAD
    true_err = abs(r.value - CAPUTO_HALF_OFF_CENTRE_AT_01)
    assert 0.2 * true_err <= r.est_error <= 5.0 * true_err


def test_series_est_error_bounds_true_error():
    r = caputo_derivative(SIN, FracOrder(0.5), 0.0, 0.1)
    assert r.method == METHOD_SPECIAL
    true_err = abs(r.value - CAPUTO_HALF_SIN_AT_01)
    # the rounding term of about 30 eps times the majorant, here about |value|
    assert true_err <= r.est_error <= 1e-14 * abs(r.value)


def test_integer_order_collapses_to_symbolic():
    r = caputo_derivative(SIN, FracOrder(2.0), 0.0, 0.6)
    assert r.method == METHOD_CLOSED
    assert r.value == pytest.approx(-math.sin(0.6), rel=1e-14)
    r1 = caputo_derivative(EXP, FracOrder(1.0), 0.0, 0.3)
    assert r1.value == pytest.approx(math.exp(0.3), rel=1e-14)


@pytest.mark.parametrize("alpha", [0.6, 0.999, 1.4, 2.97])
def test_quadrature_converges_geometrically_as_the_node_cap_doubles(alpha):
    # caps below 32 give one rule of that many nodes; sin(12x) needs about 30
    terms = [(1.0, 0.0, 12.0, 0.3, True), (1.0, -4.0, 0.0, 0.0, False)]
    exact = _taylor_caputo(terms, alpha, 0.0, 0.9)
    errs = [abs(caputo_derivative(_expr(terms), alpha, 0.0, 0.9,
                                  QuadratureConfig(nodes=n)).value - exact) / abs(exact)
            for n in (8, 16, 32)]
    # each doubling gains at least four digits, down to rounding
    assert errs[0] > 1e-3
    assert errs[1] <= 1e-4 * errs[0] and errs[2] <= 1e-4 * errs[1]
    assert errs[2] <= 1e-13


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
    quad = quadrature(f, order, a, x, QuadratureConfig(nodes=2048))
    assert quad == pytest.approx(exact.value, rel=2e-6, abs=2e-8)


_C = st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 0.1)
_W = st.floats(-3.0, 3.0).filter(lambda w: abs(w) >= 0.1)
_PHI = st.floats(0.0, 6.28)
# (c, lam, w, phi, sine): sines and cosines, exponentials, and damped terms
_TERMS = st.lists(st.one_of(
    st.builds(lambda c, w, phi, sine: (c, 0.0, w, phi, sine), _C, _W, _PHI, st.booleans()),
    st.builds(lambda c, lam: (c, lam, 0.0, 0.0, False), _C, _W),
    st.tuples(_C, _W, _W, _PHI, st.booleans()),
), min_size=1, max_size=3)
# non-integer orders in (0, 3), a share of them within 1e-3 of an integer
_ORDERS = st.one_of(
    st.floats(0.001, 2.999),
    st.builds(lambda n, d: n + d, st.integers(0, 3), st.floats(-1e-3, 1e-3)),
).filter(lambda al: 0.0 < al < 3.0 and al != round(al))


def _rate(terms):
    return max(math.hypot(lam, w) for _, lam, w, _, _ in terms)


@given(_TERMS, _ORDERS, st.floats(-1.0, 1.0), st.floats(1.01, 3.0))
@settings(max_examples=150, deadline=None)
def test_estimate_bounds_the_error(terms, alpha, a, reach):
    # the benchmark's rule: |error| <= est_error + 1e-12 |value| (its ROUNDING);
    # past the series' reach, rate (x - a) > 2, the rest takes the integral
    x = a + reach * 2.0 / _rate(terms)
    r = caputo_derivative(_expr(terms), alpha, a, x)
    assert r.method == METHOD_QUAD
    exact = _taylor_caputo(terms, alpha, a, x)
    assert abs(r.value - exact) <= r.est_error + 1e-12 * abs(exact)


def test_quadrature_estimate_covers_the_rounding_of_its_samples():
    # at an order near 0 the value is about f(x) - f(a) = 0, about 6e-6, while
    # the samples of f' = sin(2 - z) are of size 1: their rounding, a few
    # 1e-16, is the whole error, and the estimate must cover it unforgiven
    terms = [(1.0, 0.0, -1.0, 2.0, False)]
    r = caputo_derivative(_expr(terms), 2.327631959785385e-06, 0.0, 4.0)
    assert r.method == METHOD_QUAD
    exact = _taylor_caputo(terms, 2.327631959785385e-06, 0.0, 4.0)
    assert abs(r.value) < 1e-5
    assert abs(r.value - exact) <= r.est_error <= 1e-14


def _check_series(terms, alpha, a, reach, kind=KIND_CAPUTO):
    """The series at rate (x - a) = reach against the mpmath series, from
    k = 0 for RL: the estimate bounds the error, and is at most 1e-13 of the
    majorant."""
    x = a + reach * 2.0 / _rate(terms)
    while _rate(terms) * (x - a) > 2.0:  # x rounded past the reach
        x = math.nextafter(x, a)
    if not x > a:
        return
    ((value,),), ((est,),), (method,) = derivative_many(_expr(terms), [alpha], a, [x], kind=kind)
    assert method == METHOD_SPECIAL
    exact, majorant = _taylor_caputo(terms, alpha, a, x, majorant=True,
                                     k0=0 if kind == KIND_RL else None)
    assert abs(value - exact) <= est
    assert est <= 1e-13 * majorant


_REACH = st.floats(1e-12, 1.0)


@given(_TERMS, _ORDERS, st.floats(-1.0, 1.0), _REACH)
@settings(max_examples=150, deadline=None)
def test_series_estimate_bounds_the_error(terms, alpha, a, reach):
    _check_series(terms, alpha, a, reach)


@pytest.mark.parametrize("alpha", [0.97, 0.999, 1.001, 1.97])
@given(terms=_TERMS, a=st.floats(-1.0, 1.0), reach=_REACH)
@settings(max_examples=40, deadline=None)
def test_series_estimate_bounds_the_error_near_integers(alpha, terms, a, reach):
    _check_series(terms, alpha, a, reach)


@given(_TERMS, st.floats(-3.0, -0.001).filter(lambda al: al != round(al)),
       st.floats(-1.0, 1.0), _REACH)
@settings(max_examples=60, deadline=None)
def test_series_fractional_integral_bounds_the_error(terms, alpha, a, reach):
    # a negative RL order: the fractional integral, all series, no Taylor term
    _check_series(terms, alpha, a, reach, KIND_RL)


@given(_TERMS, _ORDERS, st.floats(-1.0, 1.0), _REACH)
@settings(max_examples=150, deadline=None)
def test_series_rl_estimate_bounds_the_error(terms, alpha, a, reach):
    # a positive RL order: the series from k = 0, whose first terms, the
    # Taylor terms', alternate in sign at alpha > 1
    _check_series(terms, alpha, a, reach, KIND_RL)


@pytest.mark.parametrize("terms,alpha,x", [
    ([(1.0, 1.0, 0.0, 0.0, False)], 0.5, 1e-6),  # exp(c=1,lam=1)
    ([(1.0, 0.0, 1.0, 0.7, True)], 2.5, 1e-4),  # sin(c=1,w=1,phi=0.7)
])
def test_rl_series_estimate_bounds_the_error_near_a(terms, alpha, x):
    # near a the Taylor terms' power rule dominates, and its rounding must be
    # in the estimate too
    r = rl_derivative(_expr(terms), alpha, 0.0, x)
    assert r.method == METHOD_SPECIAL and r.est_error is not None
    assert abs(r.value - _taylor_caputo(terms, alpha, 0.0, x, k0=0)) <= r.est_error


def test_linearity_on_quadrature_route():
    g = parse_expr("pow(c=1,x0=0,beta=2) + sin(c=1,w=1)")
    order = FracOrder(0.5)
    cfg = QuadratureConfig(nodes=512)
    combined = quadrature(g, order, 0.0, 0.8, cfg)
    parts = (
        quadrature(X2, order, 0.0, 0.8, cfg)
        + quadrature(SIN, order, 0.0, 0.8, cfg)
    )
    assert combined == pytest.approx(parts, rel=1e-12)


def test_quadrature_fn_entry_point():
    # the Caputo derivative of order 1/2 of sin is the order-1/2 integral of cos
    ((value,),), ((est,),) = singular_integral([np.cos], [0.5], 0.0, [0.1],
                                               QuadratureConfig(nodes=1024))
    assert value == pytest.approx(CAPUTO_HALF_SIN_AT_01, abs=2e-9)
    assert 0.0 < est < 1e-8
    # at an integer order the value is the sample itself, exact, with estimate
    # 0, at points within the series' reach and past it alike
    values, ests, methods = derivative_many(SIN, [1.0, 0.5], 0.0, [0.1, 0.7, 3.0])
    assert values[0] == np.cos([0.1, 0.7, 3.0]).tolist()
    assert ests[0] == [0.0, 0.0, 0.0]
    assert methods == [METHOD_CLOSED, METHOD_QUAD]


def test_fractional_integral():
    ((val,),), ((est,),) = singular_integral([lambda zs: zs], [0.5], 0.0, (1.0,))
    assert est <= 1e-13 * val
    assert val == pytest.approx(INTEGRAL_HALF_X_AT_1, rel=1e-12)
    # order-1 integral of a linear function is exact for this rule
    ((val,),), _ = singular_integral([lambda zs: zs], [1.0], 0.0, (2.0,))
    assert val == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(DomainError):
        singular_integral([lambda zs: zs], [-0.5], 0.0, (1.0,))


# --- bridge ---

# 1 + x: the one boundary value f(0) = 1 at order 1/2
ONE_PLUS_X = parse_expr("pow(c=1,x0=0,beta=0) + pow(c=1,x0=0,beta=1)")


def test_bridge_matches_rl_closed():
    # Caputo by the power rule plus the boundary sum, against the RL power rule
    got = (caputo_derivative(ONE_PLUS_X, FracOrder(0.5), 0.0, 1.0).value
           + boundary_sum([1.0], FracOrder(0.5), 0.0, 1.0))
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
    good = cap + boundary_sum([1.0], FracOrder(0.5), 0.0, 1.0)
    assert good == pytest.approx(want, rel=1e-13)


def test_bridge_quadrature_route(monkeypatch):
    # with no series reach, x = 1 takes the integral plus the Taylor term f(0)
    calls = []
    core = fraclim.fracderiv.singular_integral
    monkeypatch.setattr(fraclim.fracderiv, "_SERIES_REACH", 0.0)
    monkeypatch.setattr(fraclim.fracderiv, "singular_integral",
                        lambda *args, **kwargs: calls.append(args) or core(*args, **kwargs))
    r = rl_derivative(EXP, 0.5, 0.0, 1.0, QuadratureConfig(nodes=4096))
    assert len(calls) == 1 and r.method == METHOD_BRIDGE
    assert r.value == pytest.approx(RL_HALF_EXP_AT_1, abs=5e-8)


def test_bridge_collapses_at_integer_order():
    for x in (0.4, 2.5):  # within the series' reach and past it
        assert rl_derivative(EXP, 2.0, 0.0, x).value == pytest.approx(math.exp(x), rel=1e-13)


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
    # sin takes the series up to w (x - a) = 2 and the integral past it; an
    # off-centre power takes the integral at every point
    assert caputo_derivative(SIN, 0.5, 0.0, 1.0).method == METHOD_SPECIAL
    assert caputo_derivative(SIN, 0.5, 0.0, 2.0).method == METHOD_SPECIAL
    assert caputo_derivative(SIN, 0.5, 0.0, 3.0).method == METHOD_QUAD
    assert caputo_derivative(OFF_CENTRE, 0.5, 0.0, 0.1).method == METHOD_QUAD
    assert caputo_derivative(SIN + OFF_CENTRE, 0.5, 0.0, 0.1).method == METHOD_QUAD
    assert rl_derivative(X2, 0.5, 0.0, 1.0).method == METHOD_CLOSED
    # RL names its route the same way, with Bridge for the integral plus the
    # Taylor terms past the reach
    assert rl_derivative(SIN, 0.5, 0.0, 1.0).method == METHOD_SPECIAL
    assert rl_derivative(SIN, 0.5, 0.0, 3.0).method == METHOD_BRIDGE
    assert rl_derivative(SIN, 2.0, 0.0, 3.0).method == METHOD_CLOSED


# x^0.3 + 2x + sin: f' and f'' are singular at a = 0, so no quadrature can
# take the power term; it must take the power rule
MIXED = parse_expr("pow(c=1,x0=0,beta=0.3) + pow(c=2,x0=0,beta=1) + sin(c=1,w=1)")


def test_mixed_sum_takes_power_terms_exactly():
    # past the series' reach the rest takes the integral
    r = caputo_derivative(MIXED, 1.5, 0.0, 2.5, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_QUAD
    exact = (math.gamma(1.3) / math.gamma(-0.2) * 2.5**-1.2
             + _taylor_caputo([(1.0, 0.0, 1.0, 0.0, True)], 1.5, 0.0, 2.5))
    assert r.value == pytest.approx(exact, abs=1e-7)
    r = caputo_derivative(MIXED, 1.5, 0.0, 0.7, QuadratureConfig(nodes=1024))
    assert r.method == METHOD_SPECIAL
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
    if method in (METHOD_QUAD, METHOD_SPECIAL):
        assert est_errors == [r.est_error for r in results]


# x^0.5 + sin + exp: a power term and a rest, so every order takes both routes
SQRT_SIN_EXP = parse_expr("pow(c=1,x0=0,beta=0.5) + sin(c=1,w=1) + exp(c=1,lam=1)")


@pytest.mark.parametrize("kind,orders", [
    (KIND_CAPUTO, [0.3, 1.0, 1.7, 2.5]),
    (KIND_RL, [-1.5, -0.5, 0.0, 0.5, 2.0]),
], ids=["caputo", "rl"])
def test_derivative_many_orders_equal_one_order_calls(kind, orders):
    pts = (0.3, 0.9, 1.6)
    values, est_errors, methods = derivative_many(SQRT_SIN_EXP, orders, 0.0, pts, kind=kind)
    one = [derivative_many(SQRT_SIN_EXP, order, 0.0, pts, kind=kind) for order in orders]
    assert values == [v for v, _, _ in one]
    assert est_errors == [e for _, e, _ in one]
    assert methods == [m for _, _, m in one]


# points on both sides of the series' reach, rate (x - a) = 2, for rates 1
# and 2.5; 2.0 and 0.8 lie on it
STRADDLE = {1.0: (0.3, 1.9, 2.0, 2.1, 3.6), 2.5: (0.1, 0.8, 0.81, 1.7)}


@pytest.mark.parametrize("kind,orders", [
    (KIND_CAPUTO, [0.3, 0.999, 1.0, 1.001, 1.7, 2.5]),
    (KIND_RL, [-1.5, -1.0, -0.5, 0.0, 0.5, 2.0, 2.5]),
], ids=["caputo", "rl"])
@pytest.mark.parametrize("f,rate", [
    (SQRT_SIN_EXP, 1.0), (parse_expr("cos(c=2,w=-2.5,phi=0.4) + exp(c=1,lam=1.5)"), 2.5),
], ids=["mixed", "smooth"])
def test_points_straddling_the_series_reach_equal_one_point_calls(f, rate, kind, orders):
    pts = STRADDLE[rate]
    values, est_errors, methods = derivative_many(f, orders, 0.0, pts, kind=kind)
    for i, order in enumerate(orders):
        for j, x in enumerate(pts):
            (value,), (est,), method = derivative_many(f, order, 0.0, (x,), kind=kind)
            assert (values[i][j], est_errors[i][j]) == (value, est)
        # one point past the reach makes the order's method Quadrature, or
        # Bridge for RL
        far = METHOD_BRIDGE if kind == KIND_RL else METHOD_QUAD
        one = {derivative_many(f, order, 0.0, (x,), kind=kind)[2] for x in pts}
        assert methods[i] == (far if one == {METHOD_SPECIAL, far} else one.pop())


@pytest.mark.parametrize("kind,orders", [
    (KIND_CAPUTO, [0.3, 1.0, 1.7, 2.5]),
    (KIND_RL, [-1.5, -0.5, 0.5, 2.0]),
], ids=["caputo", "rl"])
def test_derivative_many_makes_one_core_call(monkeypatch, kind, orders):
    # the orders take 0 to 3 derivatives, and all their integrals are one
    # call, at points past the series' reach
    calls = []
    core = fraclim.fracderiv.singular_integral
    monkeypatch.setattr(fraclim.fracderiv, "singular_integral",
                        lambda *args, **kwargs: calls.append(args[3]) or core(*args, **kwargs))
    derivative_many(SQRT_SIN_EXP, orders, 0.0, (2.3, 2.9, 3.6), kind=kind)
    assert len(calls) == 1
    # within the reach no point takes the integral; across it, only those past it
    calls.clear()
    derivative_many(SQRT_SIN_EXP, orders, 0.0, (0.3, 0.9, 1.6), kind=kind)
    assert calls == []
    derivative_many(SQRT_SIN_EXP, orders, 0.0, (0.3, 2.9, 1.6, 3.6), kind=kind)
    assert [list(xs) for xs in calls] == [[2.9, 3.6]]


@pytest.mark.parametrize("kind,orders", [
    (KIND_CAPUTO, []), (KIND_RL, []), (KIND_CAPUTO, [0.5, 0.0]), (KIND_CAPUTO, [-0.5]),
    (KIND_RL, [0.5, math.nan]), (KIND_RL, [math.inf]),
])
def test_derivative_many_rejects_bad_orders(kind, orders):
    with pytest.raises(DomainError):
        derivative_many(SQRT_SIN_EXP, orders, 0.0, (1.0,), kind=kind)


def test_split_powers():
    assert split_powers(X2, 0.0) == ([(1.0, 2.0)], FuncExpr())
    assert split_powers(X2, 0.5) == ([], X2)  # off-center: the rest
    assert split_powers(SIN, 0.0) == ([], SIN)
    # constants are center-agnostic
    assert split_powers(parse_expr("pow(c=4,x0=9,beta=0)"), 0.0) == ([(4.0, 0.0)], FuncExpr())
    off = parse_expr("pow(c=3,x0=1,beta=0.5)")
    assert split_powers(X2 + SIN + off, 0.0) == ([(1.0, 2.0)], SIN + off)


def test_deriv_results_hold_python_floats():
    # the CSV writers print repr(value), which reads np.float64(...) for a
    # NumPy scalar
    for r in (caputo_derivative(SIN, 0.5, 0.0, 1.0), caputo_derivative(SIN, 1.0, 0.0, 1.0),
              caputo_derivative(X2, 0.5, 0.0, 1.0), caputo_derivative(MIXED, 1.5, 0.0, 0.7),
              rl_derivative(SIN, 0.5, 0.0, 1.0), rl_derivative(X2, -0.5, 0.0, 1.0)):
        assert type(r.value) is float
        assert r.est_error is None or type(r.est_error) is float


def test_deriv_result_invariant():
    with pytest.raises(ValueError):
        DerivResult(1.0, KIND_CAPUTO, METHOD_CLOSED, est_error=1e-9)
    with pytest.raises(ValueError):
        DerivResult(1.0, KIND_CAPUTO, METHOD_QUAD)
    with pytest.raises(ValueError):
        DerivResult(1.0, KIND_CAPUTO, METHOD_SPECIAL)
    assert DerivResult(1.0, KIND_CAPUTO, METHOD_SPECIAL, 1e-16).est_error == 1e-16


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(nodes=1)
    for nodes in (2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            QuadratureConfig(nodes=nodes)


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
        derivative_many(SIN, [0.5, 1.0, 2.5], a, [x], kind=KIND_RL)
    with pytest.raises(DomainError):
        singular_integral([np.cos], [0.5], a, (x,))


@pytest.mark.parametrize("derive,alpha", [(caputo_derivative, 0.5), (rl_derivative, 1.5)],
                         ids=["caputo_derivative", "rl_derivative"])
def test_series_overflow_raises_domain_error(derive, alpha):
    # within the series' reach, the coefficients of sin(c=1e300, w=1e10)
    # overflow to +-inf (Caputo, prescaled by rate^n), or the value does
    # (RL 1.5): a DomainError naming the point, and no RuntimeWarning, which
    # this suite turns into an error
    with pytest.raises(DomainError, match=r"x=1e-10,"):
        derive(parse_expr("sin(c=1e300,w=1e10)"), alpha, 0.0, 1e-10)


@pytest.mark.parametrize("derive", [caputo_derivative, rl_derivative])
def test_series_sum_overflow_raises_domain_error(derive):
    # finite coefficients whose sum overflows
    with pytest.raises(DomainError, match=r"x=1.5,"):
        derive(parse_expr("exp(c=1e308,lam=1)"), 0.5, 0.0, 1.5)


@pytest.mark.parametrize("x", [1.0, 1e200])
def test_constant_exponential_term_at_any_distance(x):
    # exp(c=1, lam=0) has rate 0, so the series reaches every point: its u is
    # 0, and no power of x - a = 1e200 overflows
    f = parse_expr("exp(c=1,lam=0)")
    assert caputo_derivative(f, 0.5, 0.0, x).value == 0.0
    r = rl_derivative(f, 0.5, 0.0, x)
    assert r.method == METHOD_SPECIAL
    assert r.value == pytest.approx(x**-0.5 / math.gamma(0.5), rel=1e-15)


def test_series_value_near_overflow():
    # RL 0.5 of sin(c=1e300, w=1e10) at 1e-10 is finite, 8.46e304: the series
    # from k = 0 takes no rate^n
    r = rl_derivative(parse_expr("sin(c=1e300,w=1e10)"), 0.5, 0.0, 1e-10)
    exact = _taylor_caputo([(1e300, 0.0, 1e10, 0.0, True)], 0.5, 0.0, 1e-10, k0=0)
    assert r.method == METHOD_SPECIAL
    assert exact == pytest.approx(8.46056786724153e+304, rel=1e-14)
    assert abs(r.value - exact) <= r.est_error


def test_empty_point_lists_raise():
    for f in (SIN, X2):  # the quadrature route and the closed one
        with pytest.raises(DomainError):
            derivative_many(f, 0.5, 0.0, [])
        with pytest.raises(DomainError):
            derivative_many(f, [0.5, 1.5], 0.0, [], kind=KIND_RL)
    with pytest.raises(DomainError):
        derivative_many(SIN, [0.5, 1.0], 0.0, [])
    with pytest.raises(DomainError):
        singular_integral([np.cos], [0.5], 0.0, [])
    with pytest.raises(DomainError):
        leibniz_defect(SIN, EXP, 0.5, 0.0, [])


# --- the multi-point core ---


def test_scan_core_samples_once_per_rule_at_x_minus_h_u():
    seen = []

    def sampler(zs):
        seen.append(zs.copy())
        return np.cos(25.0 * zs)

    a = -0.3
    xs = np.linspace(-0.2, 2.0, 20)
    (values,), _ = singular_integral([sampler], [0.5], a, xs, QuadratureConfig(nodes=4096))
    # one call per rule, 32, 64, ... nodes, over all the points: the short
    # integrals are done at 32 nodes, the long ones are not
    assert 2 <= len(seen) <= 5
    for k, zs in enumerate(seen):
        u, _ = legendre_rule(32 << k)
        assert np.array_equal(zs, (xs[:, None] - (xs - a)[:, None] * u).ravel())
    # an integral done early keeps its value while the others refine
    for x, v in zip(xs, values):
        ((one,),), _ = singular_integral([lambda zs: np.cos(25.0 * zs)], [0.5], a, (x,),
                                         QuadratureConfig(nodes=4096))
        assert v == one


def test_singular_integral_imports_no_scipy():
    # the library is NumPy-only: the rule and its moments take no scipy shortcut
    code = ("import sys, numpy as np; from fraclim.fracderiv import singular_integral; "
            "g = lambda z: np.cos(40.0 * z); "
            "singular_integral([g, g], [0.5, 2.5], 0.0, [0.3, 2.0]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(fraclim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_singular_integral_of_high_order():
    # the moments of u^119 are a product of ratios, with no power that overflows
    ((value,),), ((est,),) = singular_integral([np.ones_like], [120.0], 0.25, [1.75])
    assert value == pytest.approx(float(mp.mpf(1.5) ** 120 / mp.gamma(121)), rel=1e-12)
    assert math.isfinite(est)


def test_scan_core_validation():
    with pytest.raises(DomainError):
        derivative_many(SIN, [2.0], 0.0, [0.3, -0.1], QuadratureConfig())
    # one positive order per sampler, and at least one row
    with pytest.raises(DomainError):
        singular_integral([np.cos, np.sin], [0.5], 0.0, [0.3])
    with pytest.raises(DomainError):
        singular_integral([np.cos], [0.5, 1.5], 0.0, [0.3])
    with pytest.raises(DomainError):
        singular_integral([], [], 0.0, [0.3])
    with pytest.raises(DomainError):
        singular_integral([np.cos], [0.0], 0.0, [0.3], QuadratureConfig())
    with pytest.raises(DomainError):
        singular_integral([np.cos, np.sin], [1.5, -0.5], 0.0, [0.3])


@pytest.mark.parametrize("as_list", [True, False])
@pytest.mark.parametrize("nodes", [64, 65, 4096])
def test_singular_integral_orders_equal_one_order_calls(nodes, as_list):
    calls = {}

    def named(name, g):
        return lambda zs: calls.setdefault(name, []).append(len(zs)) or g(zs)

    cfg = QuadratureConfig(nodes=nodes)
    xs = np.linspace(0.4, 2.0, 9)
    cos, poly = named("cos", lambda zs: np.cos(zs) + zs**2), named("poly", lambda zs: zs**3 - zs)
    wave = named("wave", lambda zs: np.sin(30.0 * zs) * np.exp(-zs))
    # ragged rows per sampler, 0.3 and 2.0 shared between samplers, 0.3 given
    # twice to one; 0.5 and 2 among them: NumPy's scalar power takes sqrt and
    # square there
    rows = [(cos, 0.3), (poly, 2.0), (wave, 0.5), (cos, 0.5), (cos, 1.0), (wave, 4.25),
            (cos, 1.7), (wave, 0.3), (cos, 2.0), (wave, 0.3), (cos, 4.25)]
    samplers, orders = [s for s, _ in rows], np.array([o for _, o in rows])
    # a Python list of orders and of points takes the same route as arrays
    values, est = singular_integral(samplers, orders.tolist() if as_list else orders, 0.1,
                                    xs.tolist() if as_list else xs, cfg)
    batched, calls = calls, {}
    assert values.shape == est.shape == (11, 9)
    for (sample, order), v, e in zip(rows, values, est):
        (one_values,), (one_est,) = singular_integral([sample], [order], 0.1, xs, cfg)
        assert np.array_equal(v, one_values)
        assert np.array_equal(e, one_est)
    # a sampler shared by several rows is called once per rule, for every
    # rule its slowest row takes alone
    calls.clear()
    for name, sample in (("cos", cos), ("poly", poly), ("wave", wave)):
        alone = []
        for order in (o for s, o in rows if s is sample):
            singular_integral([sample], [order], 0.1, xs, cfg)
            alone.append(calls.pop(name))
        assert batched[name] == max(alone, key=len)
        assert len(set(batched[name])) == len(batched[name])


def test_singular_integral_refines_only_the_orders_a_sampler_was_given():
    calls = {"flat": 0, "wave": 0}

    # |z - 1|^1.5 has a kink in its second derivative, so its Legendre
    # coefficients decay slowly
    def flat(zs):
        calls["flat"] += 1
        return np.abs(zs - 1.0) ** 1.5

    def wave(zs):
        calls["wave"] += 1
        return np.abs(zs - 1.0) ** 1.5

    cfg = QuadratureConfig(nodes=4096)
    # at order 2 the kernel u^1 has two non-zero moments, so "flat" is done at
    # 32 nodes; "wave" at order 0.5 takes every rule up to 512 nodes, and so
    # would "flat" at 0.5, which nobody reads
    singular_integral([flat], [2.0], 0.0, [2.0], cfg)
    singular_integral([wave], [0.5], 0.0, [2.0], cfg)
    assert calls == {"flat": 1, "wave": 5}
    calls.update(flat=0, wave=0)
    singular_integral([flat, wave], [2.0, 0.5], 0.0, [2.0], cfg)
    assert calls == {"flat": 1, "wave": 5}
