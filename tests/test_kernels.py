"""Quadrature kernels against exactly integrable cases.

The product Gauss-Legendre rule of ``legendre_rule`` and ``legendre_moments``
must reproduce the closed-form moments (checked in 40-digit arithmetic) and
integrate u^mu p(u) to rounding for every polynomial p of degree below its
node count.  The product trapezoid ``product_quad_uniform`` integrates a
piecewise-linear interpolant exactly against (x - z)**mu, so any linear
integrand must come out to machine precision; B(2, 1/2) = 4/3 and
B(3, 1/2) = 16/15 give rational references.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from fraclim.kernels import (
    BACKEND,
    legendre_moments,
    legendre_rule,
    product_quad_uniform,
    product_weights,
)

KERNELS = [(BACKEND, product_quad_uniform)]

MOMENT_MUS = [-0.999, -0.97, -0.5, 0.0, 0.3, 1.7, 119.0]


def _moment(mu, j):
    """integral_0^1 u^mu P_j(2u - 1) du = prod_{i<j} (mu - i) / prod_{i<=j} (mu + i + 1)
    in 40-digit arithmetic (mpmath's quad misses u^-0.97 by ten percent)."""
    with mp.workdps(40):
        mu = mp.mpf(mu)
        return mp.fprod(mu - i for i in range(j)) / mp.fprod(mu + i + 1 for i in range(j + 1))


@pytest.mark.parametrize("mu", MOMENT_MUS)
def test_legendre_moments_match_the_product_formula(mu):
    m = 160
    got = legendre_moments(m, mu)
    assert got.shape == (1, m)
    for j, value in enumerate(got[0].tolist()):
        want = _moment(mu, j)
        assert abs(value - want) <= 1e-14 * abs(want), (j, value, want)
    # one row per exponent, each equal to its one-exponent call
    rows = legendre_moments(m, MOMENT_MUS)
    assert np.array_equal(rows[MOMENT_MUS.index(mu)], got[0])


def test_legendre_moments_vanish_past_an_integer_exponent():
    assert legendre_moments(8, 2.0)[0, 3:].tolist() == [0.0] * 5
    with pytest.raises(ValueError):
        legendre_moments(8, -1.0)


@pytest.mark.parametrize("m", [1, 2, 7, 32, 128])
@pytest.mark.parametrize("mu", MOMENT_MUS)
def test_legendre_rule_is_exact_below_its_node_count(m, mu):
    # u^k, k < m: sum_j M_j c_j against 1 / (mu + k + 1), to rounding of the
    # size sum_j |M_j c_j| that the core measures its estimates against
    u, b = legendre_rule(m)
    moments = legendre_moments(m, mu)[0]
    for k in range(m):
        c = b @ u**k
        got = moments @ c
        size = np.abs(moments) @ np.abs(c)
        assert abs(got - 1.0 / (mu + k + 1.0)) <= 1e-15 * m * size, (k, got)


def test_legendre_rule_is_read_only_and_cached():
    u, b = legendre_rule(32)
    assert u.shape == (32,) and b.shape == (32, 32)
    assert 0.0 < u.min() and u.max() < 1.0
    assert not u.flags.writeable and not b.flags.writeable
    assert legendre_rule(32)[1] is b
    with pytest.raises(ValueError):
        legendre_rule(0)


@pytest.mark.parametrize("name,kernel", KERNELS)
def test_linear_times_sqrt_singularity(name, kernel):
    # integral of z * (1 - z)^(-1/2) over [0, 1] = B(2, 1/2) = 4/3
    v = np.array([0.0, 0.5, 1.0])
    assert kernel(v, 0.5, -0.5) == pytest.approx(4.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("name,kernel", KERNELS)
@pytest.mark.parametrize("mu", [-0.9, -0.5, -0.1, 0.0, 0.5, 1.5])
def test_constant_integrand_exact(name, kernel, mu):
    # integral of (x - z)^mu over [0, x] = x^(mu+1) / (mu+1)
    n = 7
    x = 0.8
    v = np.ones(n + 1)
    expected = x ** (mu + 1.0) / (mu + 1.0)
    assert kernel(v, x / n, mu) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("name,kernel", KERNELS)
@pytest.mark.parametrize("mu", [-0.9, -0.5, 0.0, 1.0])
def test_linear_integrand_exact_any_grid(name, kernel, mu):
    # v sampled from 2z + 3 on [0, 1]:
    # integral = 2 * B(2, mu+1) + 3 * B(1, mu+1)
    n = 11
    zs = np.linspace(0.0, 1.0, n + 1)
    v = 2.0 * zs + 3.0
    expected = 2.0 / ((mu + 1.0) * (mu + 2.0)) + 3.0 / (mu + 1.0)
    assert kernel(v, 1.0 / n, mu) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("name,kernel", KERNELS)
def test_quadratic_second_order_convergence(name, kernel):
    # integral of z^2 (1 - z)^(-1/2) dz over [0,1] = B(3, 1/2) = 16/15
    exact = 16.0 / 15.0
    errs = []
    for n in (64, 128, 256, 512):
        zs = np.linspace(0.0, 1.0, n + 1)
        errs.append(abs(kernel(zs**2, 1.0 / n, -0.5) - exact))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for r in ratios:
        assert 3.0 < r < 5.0


def test_near_integer_exponent_is_stable():
    # p = mu + 1 close to 0 stresses the m^p - (m-1)^p differences; the
    # expm1/log1p form has to stay accurate where naive powers cancel.
    n = 4096
    mu = -0.999
    v = np.ones(n + 1)
    x = 1.0
    expected = x ** (mu + 1.0) / (mu + 1.0)
    assert product_quad_uniform(v, x / n, mu) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("name,kernel", KERNELS)
def test_rejects_bad_inputs(name, kernel):
    good = np.ones(4)
    with pytest.raises(ValueError):
        kernel(np.ones(1), 0.1, -0.5)  # fewer than 2 samples
    with pytest.raises(ValueError):
        kernel(good, 0.0, -0.5)  # h must be positive
    with pytest.raises(ValueError):
        kernel(good, 0.1, -1.0)  # kernel not integrable


@pytest.mark.parametrize("n", [0, -3, 2.5, math.nan, math.inf, -math.inf])
def test_product_weights_reject_bad_subinterval_counts(n):
    with pytest.raises(ValueError, match="need at least one subinterval"):
        product_weights(n, -0.5)


def test_weights_are_read_only_and_cached_in_a_bounded_cache():
    w = product_weights(16, -0.5)
    assert w.shape == (17,)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert product_weights(16, -0.5) is w
    maxsize = product_weights.cache_info().maxsize
    assert maxsize is not None
    for n in range(2, maxsize + 12):
        product_weights(n, 0.25)
    assert product_weights.cache_info().currsize <= maxsize
