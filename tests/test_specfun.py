"""Gamma machinery tests.

math.gamma gives an independent oracle on most of the real axis, so the
Lanczos evaluation is cross-checked against it rather than against frozen
tables; reflection and recurrence are exercised as properties.
"""

import math
import sys

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclim.exceptions import DomainError, PoleError
from fraclim.specfun import FracOrder, as_order, frac_binomial, gamma, rgamma

# 20-digit reference values (arbitrary-precision evaluation, dps=40)
GAMMA_HALF = 1.7724538509055160273  # sqrt(pi)
GAMMA_1_5 = 0.88622692545275801365
GAMMA_2_5 = 1.3293403881791370205


def test_matches_stdlib_on_positive_axis():
    worst = 0.0
    for i in range(1, 3400):
        x = i * 0.05
        try:
            ref = math.gamma(x)
        except OverflowError:
            break
        worst = max(worst, abs(gamma(x) - ref) / abs(ref))
    assert worst < 1e-12


def test_matches_stdlib_on_negative_axis():
    for x in (-0.5, -1.5, -2.5, -3.3, -7.7, -15.2, -0.001, -99.5):
        ref = math.gamma(x)
        assert gamma(x) == pytest.approx(ref, rel=5e-13)


def test_integer_values_are_factorials():
    for n in range(1, 20):
        assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)


def test_half_integer_values():
    assert gamma(0.5) == pytest.approx(GAMMA_HALF, rel=1e-14)
    assert gamma(1.5) == pytest.approx(GAMMA_1_5, rel=1e-14)
    assert gamma(2.5) == pytest.approx(GAMMA_2_5, rel=1e-14)


def test_poles_raise():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            gamma(x)
    with pytest.raises(DomainError):
        gamma(math.nan)


def test_rgamma_is_exactly_zero_at_poles():
    for x in (0.0, -1.0, -5.0, -40.0):
        assert rgamma(x) == 0.0


def test_rgamma_reciprocal():
    for x in (0.3, 1.0, 2.5, 10.0, -0.5, -3.7):
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=5e-13)


def test_overflow_returns_inf():
    assert gamma(180.0) == math.inf
    assert rgamma(180.0) == 0.0


def test_rgamma_where_gamma_underflows():
    # Gamma(-190.5) underflows to -0.0; 1/Gamma there is about -1e354 (mpmath),
    # past the largest float, so the float answer is -inf
    want = mp.rgamma(-190.5)
    assert abs(want) > sys.float_info.max
    assert rgamma(-190.5) == (-math.inf if want < 0 else math.inf)
    assert rgamma(-170.5) == pytest.approx(float(mp.rgamma(-170.5)), rel=1e-12)


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=300)
def test_recurrence(x):
    # Gamma(x + 1) = x * Gamma(x)
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=300)
def test_reflection(x):
    assume(abs(x - round(x)) > 1e-3)
    lhs = gamma(x) * gamma(1.0 - x)
    rhs = math.pi / math.sin(math.pi * x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


# --- fractional binomial coefficients ---


def test_frac_binomial_matches_comb_for_integer_order():
    for n in (1, 2, 3, 5, 8):
        for k in range(0, n + 1):
            assert frac_binomial(float(n), k) == pytest.approx(
                math.comb(n, k), rel=1e-12
            )


def test_frac_binomial_vanishes_past_integer_order():
    assert frac_binomial(2.0, 5) == 0.0
    assert frac_binomial(3.0, 4) == 0.0


def test_frac_binomial_large_k():
    # the gamma quotient would be Gamma(1.5) * inf * 0 here
    assert frac_binomial(0.5, 200) == pytest.approx(float(mp.binomial(0.5, 200)), rel=1e-12)


def test_frac_binomial_halved():
    # the symmetrized product rule's halved coefficient, as symmetrized_series forms it
    assert 0.5 * frac_binomial(0.5, 0) == pytest.approx(0.5, rel=1e-14)
    # (1/2 choose 1) = 1/2, halved -> 1/4
    assert 0.5 * frac_binomial(0.5, 1) == pytest.approx(0.25, rel=1e-12)


def test_frac_binomial_validation():
    with pytest.raises(DomainError):
        frac_binomial(-1.0, 0)
    with pytest.raises(DomainError):
        frac_binomial(0.5, -1)
    with pytest.raises(DomainError):
        frac_binomial(0.5, 1.5)


# --- order bookkeeping ---


def test_frac_order_ceiling():
    assert FracOrder(0.5).n == 1
    assert FracOrder(1.0).n == 1
    assert FracOrder(1.0 + 1e-12).n == 2
    assert FracOrder(1.3).n == 2
    assert FracOrder(3.0).n == 3


def test_frac_order_integer_flag():
    assert FracOrder(2.0).is_integer
    assert not FracOrder(1.999999).is_integer


def test_frac_order_rejects_bad_orders():
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            FracOrder(bad)


def test_as_order_passthrough_and_coercion():
    o = FracOrder(1.5)
    assert as_order(o) is o
    assert as_order(1.5) == o


@given(st.floats(min_value=1e-3, max_value=20.0))
@settings(max_examples=200)
def test_order_ceiling_brackets_alpha(alpha):
    o = FracOrder(alpha)
    assert o.n - 1 < o.alpha <= o.n
