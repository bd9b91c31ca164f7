"""Product-integration kernel for the singular integral.

``product_quad_uniform(values, h, mu)`` integrates (z_N - z)**mu against the
piecewise-linear interpolant of ``values`` sampled on the uniform grid
z_j = z_0 + j*h, j = 0..N.  This is the product-trapezoid rule of Diethelm,
Ford & Freed (Nonlinear Dynamics 29, 2002).  The kernel moments over each
subinterval are integrated in closed form, so the endpoint singularity
(-1 < mu < 0) costs no accuracy; the only discretization error is the
linear-interpolation error of the smooth factor, which is O(h^2).

With d_j = z_N - z_j = m*h (m = N - j), the two closed-form moments over
subinterval j are

    M0 = h^p (m^p - (m-1)^p) / p                      p = mu + 1
    M1 = h^q [ m (m^p - (m-1)^p)/p - (m^q - (m-1)^q)/q ]   q = mu + 2

and the subinterval contributes  v_j M0 + (v_{j+1} - v_j) M1 / h.  The
p-power difference A_m = m^p - (m-1)^p is evaluated via expm1/log1p to avoid
the cancellation that plain subtraction suffers when mu approaches -1; the
q-power difference then follows exactly as B_m = (m-1) A_m + m^p (expand
(m-1)^q = (m-1)(m-1)^p), which is a sum of positives, so it costs one power
evaluation and no accuracy.

Collecting the coefficient of each v_j turns the rule into (N h)^p (w @ v)
with a weight vector w that depends only on N and mu, never on the samples,
so ``product_weights`` computes it once per (N, mu) and keeps it in a small
cache.  The weights are built from powers of m/N, not of m, whose powers
would overflow for orders p above about 100.
"""

import functools

import numpy as np

__all__ = ["BACKEND", "product_quad_rows", "product_quad_uniform", "product_weights"]

# The kernel has one implementation; the name stays for callers that report it.
BACKEND = "python"

# 64 weight vectors of the largest common grid (4097 nodes) take about 2 MB.
_WEIGHT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_WEIGHT_CACHE_SIZE)
def product_weights(n: int, mu: float) -> np.ndarray:
    """Read-only weights w of length n+1 with  (n h)^(mu+1) (w @ v)  the
    rule's value on n subintervals of width h."""
    if n != int(n) or n < 1:
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
    """The rule on one grid: ``values`` is a 1-d array of N+1 samples, h > 0."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("values must be a 1-d array with at least two samples")
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    n = v.shape[0] - 1
    return float((n * h) ** (mu + 1.0) * (product_weights(n, mu) @ v))


def product_quad_rows(values, h, mu) -> np.ndarray:
    """The rule on a block of grids with one node count: row i of the 2-d
    ``values`` holds the N+1 samples of grid i, whose spacing is h[i] > 0.
    ``mu`` may also be a 1-d array of exponents: the block is then integrated
    against each, with one row of results per exponent."""
    v = np.asarray(values, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] < 2:
        raise ValueError("values must be a 2-d array with at least two samples a row")
    if h.shape != (v.shape[0],) or not np.all(h > 0.0):
        raise ValueError("h must hold one positive spacing per row")
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim > 1:
        raise ValueError("mu must be a number or a 1-d array of exponents")
    n = v.shape[1] - 1
    ms = np.atleast_1d(mu).tolist()
    # one power call per exponent, as a Python float: NumPy takes sqrt or
    # square for a scalar exponent 0.5 or 2, which can differ in the last bit
    # from its pow over a broadcast array of exponents
    lengths = np.array([np.power(n * h, m + 1.0) for m in ms])
    w = np.array([product_weights(n, m) for m in ms])
    # einsum, not v @ w: BLAS rounds a row differently by its place in the
    # block, and a grid's value should not depend on the grids beside it.
    out = lengths * np.einsum("ij,kj->ki", v, w)
    return out[0] if mu.ndim == 0 else out
