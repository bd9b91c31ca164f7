"""Quadrature kernels for the singular integral  integral_0^1 u^mu g(u) du.

The package's rule is product Gauss-Legendre integration.  ``legendre_rule``
gives m nodes u_i on [0, 1] and the table that maps the samples g(u_i) to the
Legendre coefficients c_j of g, exact for a polynomial of degree below m;
``legendre_moments`` gives the kernel's moments M_j = integral_0^1 u^mu
P_j(2u - 1) du in closed form.  So sum_j M_j c_j takes the endpoint
singularity (-1 < mu < 0) exactly and converges geometrically for a smooth
g, and one sample of g serves every mu.

``product_quad_uniform`` is the older product-trapezoid rule of Diethelm,
Ford & Freed (Nonlinear Dynamics 29, 2002): (N h)^(mu+1) (w @ v) for N+1
samples v on a uniform grid, with weights w cached per (N, mu) by
``product_weights``.  The benchmark's layer tracer reads it; the package no
longer calls it.
"""

import functools

import numpy as np
from numpy.polynomial import legendre

__all__ = ["BACKEND", "legendre_moments", "legendre_rule", "product_quad_uniform",
           "product_weights"]

# The kernel has one implementation; the name stays for callers that report it.
BACKEND = "python"

# 64 weight vectors of the largest common grid (4097 nodes) take about 2 MB.
_WEIGHT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=8)
def legendre_rule(m: int):
    """Read-only (u, B) of the m-node Gauss-Legendre rule on [0, 1]: nodes
    u_i = (1 + t_i) / 2 with t_i from ``leggauss(m)``, and the m x m table
    B[j, i] = (2j+1) (W_i/2) P_j(t_i), so that c = B @ g (2 MB at m = 512).
    W_i = 2 (1 - t_i^2) / (m (P_{m-1}(t_i) - t_i P_m(t_i)))^2 comes from the
    recurrence at the nodes: the weights of ``leggauss`` are off by up to
    1e-11 at m = 128, which would set the floor of the estimate."""
    t, _ = legendre.leggauss(m)
    p = legendre.legvander(t, m)
    w = 2.0 * (1.0 - t) * (1.0 + t) / (m * (p[:, m - 1] - t * p[:, m])) ** 2
    b = p[:, :m].T * (w / 2.0)
    b *= (2.0 * np.arange(m) + 1.0)[:, None]
    u = (1.0 + t) / 2.0
    u.flags.writeable = b.flags.writeable = False
    return u, b


def legendre_moments(m: int, mus) -> np.ndarray:
    """M[k, j] = integral_0^1 u^mus[k] P_j(2u - 1) du for j < m, one row per
    exponent mus[k] > -1:  prod_{i<j} (mu - i) / prod_{i<=j} (mu + i + 1),
    one cumulative product of ratios.  Zero past j = mu for a non-negative
    integer mu."""
    mu = np.asarray(mus, dtype=np.float64).reshape(-1, 1)
    if not np.all(mu > -1.0):
        raise ValueError(f"kernel exponent must exceed -1, got {mus!r}")
    j = np.arange(1.0, m)
    ratios = np.empty((mu.shape[0], m))
    ratios[:, :1] = 1.0 / (mu + 1.0)
    ratios[:, 1:] = (mu - j + 1.0) / (mu + j + 1.0)
    return np.cumprod(ratios, axis=1)


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def product_weights(n: int, mu: float) -> np.ndarray:
    """Read-only weights w of length n+1 with  (n h)^(mu+1) (w @ v)  the
    product-trapezoid value on n subintervals of width h."""
    if not 1 <= n < np.inf or n != int(n):
        raise ValueError(f"need at least one subinterval, got n={n!r}")
    p = mu + 1.0
    q = mu + 2.0
    if not p > 0.0:
        raise ValueError(f"kernel exponent must exceed -1, got {mu!r}")
    m = np.arange(n, 0, -1, dtype=np.float64)
    mp = np.power(m / n, p)
    with np.errstate(divide="ignore"):
        # at m = 1, log1p(-1) = -inf and expm1(-inf) = -1 give A_1 = 1 exactly
        am = -mp * np.expm1(p * np.log1p(-1.0 / m))
    bm = (m - 1.0) * am + mp
    # the coefficient of v_{j+1} - v_j on subinterval j
    slope = m * am / p - bm / q
    w = np.zeros(n + 1)
    w[:-1] = am / p - slope
    w[1:] += slope
    w.flags.writeable = False
    return w


def product_quad_uniform(values, h, mu):
    """The product trapezoid on one grid: ``values`` is a 1-d array of N+1
    samples, h > 0."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("values must be a 1-d array with at least two samples")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    n = v.shape[0] - 1
    return float((n * h) ** (mu + 1.0) * (product_weights(n, mu) @ v))
