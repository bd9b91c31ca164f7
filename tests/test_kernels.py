"""Quadrature kernel against exactly integrable cases.

The scheme integrates a piecewise-linear interpolant exactly against
(x - z)**mu, so any linear integrand must come out to machine precision;
B(2, 1/2) = 4/3 and B(3, 1/2) = 16/15 give rational references.  Every case
runs through both entry points of the one implementation: the 1-d
``product_quad_uniform`` and a single row of ``product_quad_rows``.
"""

import numpy as np
import pytest

from fraclim.kernels import (
    BACKEND,
    product_quad_rows,
    product_quad_uniform,
    product_weights,
)


def product_quad_one_row(values, h, mu):
    return float(product_quad_rows(np.asarray(values)[None, :], [h], mu)[0])


KERNELS = [(BACKEND, product_quad_uniform), (BACKEND, product_quad_one_row)]


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
    for _, kernel in KERNELS:
        assert kernel(v, x / n, mu) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("name,kernel", KERNELS)
def test_rejects_bad_inputs(name, kernel):
    good = np.ones(4)
    with pytest.raises(ValueError):
        kernel(np.ones(1), 0.1, -0.5)  # fewer than 2 samples
    with pytest.raises(ValueError):
        kernel(good, 0.0, -0.5)  # h must be positive
    with pytest.raises(ValueError):
        kernel(good, 0.1, -1.0)  # kernel not integrable


def test_rows_match_one_grid_at_a_time():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((5, 65))
    h = rng.uniform(0.01, 1.0, 5)
    got = product_quad_rows(v, h, -0.3)
    for i in range(5):
        assert got[i] == pytest.approx(product_quad_uniform(v[i], h[i], -0.3),
                                       rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError):
        product_quad_rows(v, h[:4], -0.3)  # one spacing per row
    with pytest.raises(ValueError):
        product_quad_rows(v[0], h[:1], -0.3)  # not a block


def test_rows_of_many_exponents_equal_one_exponent_calls():
    # 0.5 and 2 are the exponents p = mu + 1 for which NumPy's scalar power
    # takes sqrt and square; each row must still equal its one-exponent call
    rng = np.random.default_rng(11)
    v = rng.standard_normal((31, 129))
    h = rng.uniform(0.001, 0.1, 31)
    mus = np.array([-0.5, 0.0, 1.0, -0.7, 2.5, 119.0])
    got = product_quad_rows(v, h, mus)
    assert got.shape == (6, 31)
    for row, mu in zip(got, mus.tolist()):
        assert np.array_equal(row, product_quad_rows(v, h, mu))
    assert product_quad_rows(v, h, [-0.5]).shape == (1, 31)
    with pytest.raises(ValueError):
        product_quad_rows(v, h, [[-0.5]])  # not a 1-d array of exponents


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
