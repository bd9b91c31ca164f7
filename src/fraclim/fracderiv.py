"""Left-sided Caputo and Riemann-Liouville fractional derivatives.

Every function is taken term by term (``derivative_many``): power terms
centered at the base point take the exact power rule, and the rest, which
the symbolic layer can differentiate n times, goes through product-integration
quadrature of the singular integral

    (1 / Gamma(n - alpha)) * integral_a^x (x - z)^(n - alpha - 1) f^(n)(z) dz.

The Riemann-Liouville operator is built on top of the Caputo one through the
boundary-term bridge

    RL^alpha f = Caputo^alpha f
                 + sum_{k=0}^{n-1} f^(k)(a) (x - a)^(k - alpha) / Gamma(k + 1 - alpha),

whose 1/Gamma(k+1-alpha) coefficients are forced by the power-rule oracle
(the per-term RL power rule); the superficially plausible 1/k! variant fails
it.  ``boundary_terms`` is the one place that sum is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, UnsupportedFunction
from .funcmodel import (
    FuncExpr,
    PowerTerm,
    derivative,
    derivative_chain,
    evaluate,
    evaluate_many,
)
from .kernels import product_quad_rows
from .specfun import FracOrder, as_order, gamma, rgamma

__all__ = [
    "DerivResult",
    "QuadratureConfig",
    "boundary_terms",
    "caputo_closed",
    "caputo_derivative",
    "caputo_from_nth",
    "caputo_power",
    "caputo_power_coefficient",
    "caputo_quadrature",
    "derivative_many",
    "fractional_integral_fn",
    "power_parts",
    "power_rule",
    "rl_caputo_bridge",
    "rl_closed",
    "rl_derivative",
    "rl_power",
    "rl_power_value",
    "singular_integral",
    "split_powers",
]

KIND_CAPUTO = "Caputo"
KIND_RL = "RiemannLiouville"
METHOD_CLOSED = "ClosedForm"
METHOD_QUAD = "Quadrature"
METHOD_BRIDGE = "Bridge"


@dataclass(frozen=True)
class QuadratureConfig:
    """Uniform-grid discretization of the singular integral.

    ``nodes`` is the number of subintervals of [a, x]; ``min_gap`` is the
    smallest admissible x - a before the grid degenerates.
    """

    nodes: int = 1024
    min_gap: float = 1e-12

    def __post_init__(self):
        if self.nodes != int(self.nodes) or self.nodes < 2:
            raise DomainError(f"nodes must be an integer >= 2, got {self.nodes!r}")
        if not self.min_gap > 0.0:
            raise DomainError(f"min_gap must be positive, got {self.min_gap!r}")


@dataclass(frozen=True)
class DerivResult:
    """A single derivative evaluation.

    ``est_error`` is present exactly when the method is Quadrature: the
    Richardson estimate of the quadrature that some term of f went through.
    """

    value: float
    kind: str
    method: str
    est_error: float | None = None

    def __post_init__(self):
        if (self.est_error is not None) != (self.method == METHOD_QUAD):
            raise ValueError("est_error must be present iff method is Quadrature")


def _check_interval(a, x):
    if not (math.isfinite(a) and math.isfinite(x)):
        raise DomainError(f"a and x must be finite, got x={x!r}, a={a!r}")
    if not x > a:
        raise DomainError(f"evaluation point must satisfy x > a, got x={x!r}, a={a!r}")


def _check_gap(a, x, cfg):
    _check_interval(a, x)
    if x - a < cfg.min_gap:
        raise DomainError(f"x - a = {x - a!r} is below min_gap = {cfg.min_gap!r}")


# ---------------------------------------------------------------------------
# closed forms for power terms


def caputo_power_coefficient(beta: float, alpha: FracOrder) -> float:
    """Prefactor of (x-a)^(beta-alpha) in the Caputo power rule.

    Exactly 0.0 for integer beta <= n-1 (those monomials sit inside the
    Taylor polynomial the Caputo form subtracts) and whenever
    rgamma(beta - alpha + 1) vanishes.
    """
    if beta == math.floor(beta) and beta <= alpha.n - 1:
        return 0.0
    return gamma(beta + 1.0) * rgamma(beta - alpha.alpha + 1.0)


def power_rule(parts, order: float, a: float, xs, kind: str = KIND_CAPUTO) -> list:
    """The power rule summed over ``parts``, [(c, beta)] for the terms
    c (x - a)^beta, at every x in ``xs``: Caputo of a positive ``order``, or
    RL of any real order (negative: a fractional integral).  The coefficients
    are taken once; each point sums Python scalars, a Caputo term as
    (c * coefficient) * power, an RL term as c * (coefficient * power)."""
    alpha = as_order(order) if kind == KIND_CAPUTO else None
    terms = []
    for c, beta in parts:
        if kind == KIND_CAPUTO:
            scale, coef = 1.0, c * caputo_power_coefficient(beta, alpha)
        else:
            scale, coef = c, gamma(beta + 1.0) * rgamma(beta + 1.0 - order)
        if coef != 0.0:
            terms.append((scale, coef, beta - order))
    values = []
    for x in xs:
        value = 0.0
        for scale, coef, p in terms:
            value += scale * (coef * (x - a) ** p)
        values.append(value)
    return values


def rl_power_value(beta: float, order: float, a: float, x: float) -> float:
    """Riemann-Liouville power rule Gamma(b+1)/Gamma(b+1-order) (x-a)^(b-order).

    ``order`` may be any real: positive (derivative), zero (identity) or
    negative (fractional integral); the formula is one and the same.
    """
    return power_rule(((1.0, beta),), order, a, (x,), KIND_RL)[0]


def caputo_power(beta: float, alpha, a: float, x: float) -> DerivResult:
    """Caputo derivative of (x - a)**beta, beta > -1, at x > a."""
    return caputo_derivative(FuncExpr((PowerTerm(1.0, a, beta),)), alpha, a, x)


def rl_power(beta: float, alpha, a: float, x: float) -> DerivResult:
    """Riemann-Liouville derivative of (x - a)**beta; constants do NOT die."""
    return rl_derivative(FuncExpr((PowerTerm(1.0, a, beta),)), alpha, a, x)


def split_powers(f: FuncExpr, a: float):
    """(parts, rest) of f about a: ``parts`` is [(c, beta)] for the power
    terms centered at a and the constants, whatever their recorded center;
    ``rest`` is the FuncExpr of every other term."""
    parts, rest = [], []
    for t in f.terms:
        if isinstance(t, PowerTerm) and (t.beta == 0.0 or t.x0 == a):
            parts.append((t.c, t.beta))
        else:
            rest.append(t)
    return parts, FuncExpr(rest)


def power_parts(f: FuncExpr, a: float):
    """The ``parts`` of split_powers(f, a); UnsupportedFunction when f has
    any other term."""
    parts, rest = split_powers(f, a)
    if not rest.is_zero():
        raise UnsupportedFunction(f"{rest!r} has no closed-form power rule about {a!r}")
    return parts


def caputo_closed(f: FuncExpr, alpha, a: float, x: float) -> DerivResult:
    """Term-by-term Caputo power rule for power functions centered at a."""
    power_parts(f, a)  # UnsupportedFunction for any other f
    return caputo_derivative(f, alpha, a, x)


def rl_closed(f: FuncExpr, alpha, a: float, x: float) -> DerivResult:
    """Term-by-term Riemann-Liouville power rule."""
    power_parts(f, a)  # UnsupportedFunction for any other f
    return rl_derivative(f, alpha, a, x)


# ---------------------------------------------------------------------------
# quadrature

# Grids are sampled in row blocks of at most this many points, which bounds
# the sampler's temporaries whatever the node count and the number of points.
_BLOCK_POINTS = 1 << 15


def _sample(sampler, a, xs, n):
    """The sampler on the n-subinterval grids of [a, x] for every x in xs,
    one grid a row.  The grids are those of np.linspace(a, xs, n + 1, axis=1),
    built by the same arithmetic without its generic set-up, which costs more
    than the sampling itself on a one-point call."""
    grid = np.arange(n + 1.0) * ((xs - a) / n)[:, None]
    grid += a
    grid[:, -1] = xs
    return np.asarray(sampler(grid.ravel()), dtype=np.float64).reshape(grid.shape)


def singular_integral(sampler, order, a: float, xs,
                      cfg: QuadratureConfig = QuadratureConfig(), estimate: bool = True):
    """Riemann-Liouville integral of positive ``order`` at every x in ``xs``,

        (1 / Gamma(order)) * integral_a^x (x - z)^(order - 1) g(z) dz,

    by the product-trapezoid rule on cfg.nodes subintervals.  ``sampler``
    maps a 1-d array of points z to g(z).  Returns two arrays: the values
    and the Richardson estimates |I(N) - I(N/2)| / 3, which follow from the
    rule's O(h^2) convergence; with ``estimate=False`` the half-resolution
    pass is skipped and the second array is None.  ``order`` may also be a
    1-d sequence of orders: g is then sampled once for all of them, and both
    arrays gain a leading axis, one row per order.  Every Caputo quadrature
    and fractional integral in the package goes through here.
    """
    order = np.asarray(order, dtype=np.float64)
    orders = np.atleast_1d(order)
    if orders.ndim != 1 or orders.size == 0:
        raise DomainError(f"need one integral order or a 1-d array of them, got {order!r}")
    for o in orders.tolist():
        if not o > 0.0:
            raise DomainError(f"integral order must be positive, got {o!r}")
    a = float(a)
    xs = np.array(xs, dtype=np.float64).reshape(-1)
    for x in xs.tolist():
        _check_gap(a, x, cfg)
    mu = orders - 1.0
    scale = np.array([rgamma(o) for o in orders.tolist()])[:, None]
    nodes = cfg.nodes
    half = nodes // 2
    values = np.empty((orders.size, xs.size))
    est_errors = np.empty(values.shape) if estimate else None
    rows = max(1, _BLOCK_POINTS // (nodes + 1))
    for i in range(0, xs.shape[0], rows):
        x = xs[i:i + rows]
        v = _sample(sampler, a, x, nodes)
        fine = scale * product_quad_rows(v, (x - a) / nodes, mu)
        values[:, i:i + rows] = fine
        if estimate:
            vc = v[:, ::2] if nodes % 2 == 0 else _sample(sampler, a, x, half)
            coarse = scale * product_quad_rows(vc, (x - a) / half, mu)
            est_errors[:, i:i + rows] = np.abs(fine - coarse) / 3.0
    if order.ndim == 0:
        return values[0], None if est_errors is None else est_errors[0]
    return values, est_errors


def caputo_from_nth(sampler, alpha, a: float, xs,
                    cfg: QuadratureConfig = QuadratureConfig(), estimate: bool = True,
                    at_a=None):
    """Caputo derivative at every x in ``xs`` of a function f, as arrays of
    values and error estimates; ``sampler`` maps a 1-d array of points z to
    f^(n)(z).  Given ``at_a``, the f^(k)(a) for k < n, the values gain the
    ``boundary_terms`` and are the Riemann-Liouville derivative.

    Integer alpha takes the exact sampler(xs) with estimate 0 (the singular
    integral degenerates there: Gamma(n - alpha) has a pole); fractional alpha
    is the integral of order n - alpha of f^(n), through ``singular_integral``,
    whose ``estimate=False`` skips the half-resolution pass and returns None
    for the estimates.
    """
    alpha = as_order(alpha)
    xs = np.array(xs, dtype=np.float64).reshape(-1)
    if alpha.is_integer:
        for x in xs.tolist():
            _check_gap(a, x, cfg)
        values, est_errors = np.asarray(sampler(xs), dtype=np.float64), np.zeros(xs.shape)
    else:
        values, est_errors = singular_integral(sampler, alpha.n - alpha.alpha, a, xs, cfg,
                                               estimate)
    if at_a is not None:
        values = values + [boundary_terms(at_a, alpha, a, x) for x in xs.tolist()]
    return values, est_errors


def caputo_quadrature(f: FuncExpr, alpha, a: float, x: float,
                      cfg: QuadratureConfig = QuadratureConfig()) -> DerivResult:
    """Caputo derivative by product integration of the exact n-th derivative.

    Integer alpha dispatches to the exact symbolic derivative.  For
    fractional alpha the estimate ``est_error = |value(N) - value(N/2)| / 3``
    follows from the O(h^2) convergence of the product-trapezoid rule.
    """
    alpha = as_order(alpha)
    fn = derivative(f, alpha.n)
    (value,), (est,) = caputo_from_nth(lambda zs: evaluate_many(fn, zs), alpha, a, (x,),
                                       cfg)
    if alpha.is_integer:
        return DerivResult(float(value), KIND_CAPUTO, METHOD_CLOSED)
    return DerivResult(float(value), KIND_CAPUTO, METHOD_QUAD, float(est))


def fractional_integral_fn(function_values, order: float, a: float, x: float,
                           cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Riemann-Liouville integral of positive order for a sampled function.

    The one-point case of ``singular_integral``, without the Richardson
    estimate (callers track convergence via their own series diagnostics).
    """
    (value,), _ = singular_integral(function_values, order, a, (x,), cfg, estimate=False)
    return float(value)


# ---------------------------------------------------------------------------
# Riemann-Liouville through the bridge


def boundary_terms(at_a, alpha, a: float, x: float) -> float:
    """RL minus Caputo at x: the sum over k of
    f^(k)(a) (x - a)^(k - alpha) / Gamma(k + 1 - alpha), where at_a[k] holds
    f^(k)(a) for k = 0..n-1.  At integer alpha every term vanishes through
    rgamma, so RL and Caputo collapse to the classical derivative together.
    """
    alpha = as_order(alpha).alpha
    total = 0.0
    for k, fk_a in enumerate(at_a):
        coef = rgamma(k + 1.0 - alpha)
        if fk_a != 0.0 and coef != 0.0:
            total += fk_a * coef * (x - a) ** (k - alpha)
    return total


def rl_caputo_bridge(f: FuncExpr, alpha, a: float, x: float,
                     cfg: QuadratureConfig = QuadratureConfig()) -> DerivResult:
    """RL derivative as Caputo plus ``boundary_terms``."""
    alpha = as_order(alpha)
    _check_interval(a, x)
    at_a = [evaluate(g, a) for g in derivative_chain([f], alpha.n - 1)]
    value = caputo_derivative(f, alpha, a, x, cfg).value + boundary_terms(at_a, alpha, a, x)
    return DerivResult(value, KIND_RL, METHOD_BRIDGE)


# ---------------------------------------------------------------------------
# term-by-term routing


def derivative_many(f: FuncExpr, alpha, a: float, xs,
                    cfg: QuadratureConfig = QuadratureConfig(), kind: str = KIND_CAPUTO,
                    estimate: bool = True):
    """Caputo (or, for ``kind=KIND_RL``, RL) derivative of f at every x in
    ``xs``, as (values, est_errors, method).

    The ``parts`` of split_powers(f, a) take ``power_rule`` point by point;
    the rest is one ``caputo_from_nth`` call on rest^(n) over all the points,
    plus its ``boundary_terms`` for RL.  The estimates are the rest's (0 when
    it is empty or the order an integer; None for ``estimate=False``).  The
    method is ClosedForm for an empty rest, or Caputo at an integer order;
    otherwise Quadrature for Caputo and Bridge for RL.
    """
    alpha = as_order(alpha)
    a = float(a)
    xs = [float(x) for x in xs]
    for x in xs:
        _check_interval(a, x)
    parts, rest = split_powers(f, a)
    values, est_errors, method = [0.0] * len(xs), [0.0] * len(xs), METHOD_CLOSED
    if not rest.is_zero():
        chain = derivative_chain([rest], alpha.n)
        at_a = [evaluate(g, a) for g in chain[:-1]] if kind == KIND_RL else None
        values, est_errors = caputo_from_nth(lambda zs: evaluate_many(chain[-1], zs),
                                             alpha, a, xs, cfg, estimate, at_a)
        if kind == KIND_RL or not alpha.is_integer:
            method = METHOD_BRIDGE if kind == KIND_RL else METHOD_QUAD
    if parts:  # the rest's value first; with no power term it stands as it is
        power = power_rule(parts, alpha.alpha, a, xs, kind)
        values = [v + p for v, p in zip(values, power)]
    est_errors = [float(e) for e in est_errors] if estimate else None
    return [float(v) for v in values], est_errors, method


def caputo_derivative(f: FuncExpr, alpha, a: float, x: float,
                      cfg: QuadratureConfig = QuadratureConfig()) -> DerivResult:
    """Caputo derivative at x: the one-point case of ``derivative_many``,
    with its estimate when the method is Quadrature."""
    (value,), (est,), method = derivative_many(f, alpha, a, (x,), cfg)
    return DerivResult(value, KIND_CAPUTO, method, est if method == METHOD_QUAD else None)


def rl_derivative(f: FuncExpr, alpha, a: float, x: float,
                  cfg: QuadratureConfig = QuadratureConfig()) -> DerivResult:
    """Riemann-Liouville derivative at x: the one-point case of
    ``derivative_many``, ClosedForm when every term of f takes the power rule
    and Bridge otherwise."""
    (value,), _, method = derivative_many(f, alpha, a, (x,), cfg, KIND_RL, estimate=False)
    return DerivResult(value, KIND_RL, method)
