"""Product-rule diagnostics for fractional derivatives.

The classical Leibniz rule D(fg) = (Df)g + f(Dg) holds for no fractional
order: among all orders alpha > 0 it survives only at alpha = 1.
``leibniz_defect`` measures the violation pointwise.  What replaces the rule
is either the finite binomial sum at integer orders, or the symmetrized
infinite series

    D^alpha(fg) = sum_k  [Gamma(a+1) / (2 Gamma(a-k+1) Gamma(k+1))]
                        * [ (D^(alpha-k) f) g^(k) + (D^(alpha-k) g) f^(k) ]

whose k > alpha terms involve fractional *integrals* (negative-order RL
operators).  The orders alpha - k of a factor are one ``derivative_many``
call, with at most one quadrature call over all of them; past the series'
reach an RL derivative is the Caputo integral plus the RL power rule on the
Taylor terms f^(j)(a)/j! (x - a)^j.  Every integer derivative f^(k) is one
exact ``derivative`` call.  The series terminates for polynomials and is
truncated at K otherwise, with |term_K| reported as the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, UnsupportedProduct
from .fracderiv import (
    KIND_CAPUTO,
    KIND_RL,
    QuadratureConfig,
    _add_taylor_terms,
    _check_finite,
    _check_interval,
    _derivative_rows,
    derivative_many,
    singular_integral,
)
from .funcmodel import (
    FuncExpr,
    derivative,
    evaluate,
    evaluate_many,
    poly_product,
    polynomial_degree,
)
from .specfun import FracOrder, _as_count, as_order, frac_binomial

__all__ = [
    "RULE_INTEGER_SUM",
    "RULE_SYMMETRIZED",
    "RULE_UNVIOLATED",
    "LeibnizReport",
    "SeriesResult",
    "integer_leibniz",
    "integer_leibniz_report",
    "leibniz_defect",
    "rl_of_product",
    "series_leibniz_report",
    "symmetrized_series",
]

RULE_UNVIOLATED = "Unviolated"
RULE_INTEGER_SUM = "IntegerSum"
RULE_SYMMETRIZED = "SymmetrizedSeries"

_DEFAULT_TRUNCATION = 12


@dataclass(frozen=True)
class LeibnizReport:
    """Pointwise defects of one product-rule form, plus series diagnostics.

    ``series_values`` holds the series partial sum at each point for the
    symmetrized-series form.
    """

    alpha: FracOrder
    points: tuple
    defect: tuple
    max_abs_defect: float
    rule_form: str
    truncation_K: int | None = None
    series_residual: float | None = None
    series_values: tuple | None = None


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of the symmetrized series through k = K.

    ``residual`` is |term_K|; ``K`` is the truncation used, the default
    resolved; ``nonconvergent`` flags |term_k| growing over the last three
    terms (the truncation is then meaningless).
    """

    value: float
    residual: float
    K: int
    nonconvergent: bool = False


# ---------------------------------------------------------------------------
# operator dispatch helpers


def _leibniz_sum(fvals, gvals, n):
    """(fg)^(n) = sum_j C(n, j) f^(j) g^(n-j) from the values fvals[j] of
    f^(j) and gvals[j] of g^(j), j <= n, arrays or floats, summed in order
    of j (exact binomials)."""
    total = 0.0
    for j in range(n + 1):
        total = total + math.comb(n, j) * fvals[j] * gvals[n - j]
    return total


def _derivatives(h, n):
    """[h, h', ..., h^(n)], each one exact ``derivative`` call."""
    return [derivative(h, k) for k in range(n + 1)]


def _product_nth_values(fs, gs):
    """Callable sampling (fg)^(n) via the integer Leibniz expansion of the
    exact factor derivatives fs = [f, ..., f^(n)] and gs = [g, ..., g^(n)]."""

    def values(zs):
        return _leibniz_sum([evaluate_many(f, zs) for f in fs],
                            [evaluate_many(g, zs) for g in gs], len(fs) - 1)

    return values


def _d_product(f, g, alpha, a, pts, cfg, kind):
    """D^alpha(fg) at every point of pts: a product of two polynomials is
    multiplied out for derivative_many.  Any other takes the Leibniz-expanded
    (fg)^(n), each f^(j) and g^(j), j <= n, derived once: at an integer order
    its exact row, otherwise one ``singular_integral`` row of order n - alpha,
    plus for RL the Taylor terms from the (fg)^(k)(a), k < n."""
    try:
        fg = poly_product(f, g)
    except UnsupportedProduct:
        n = alpha.n
        fs, gs = _derivatives(f, n), _derivatives(g, n)
        nth = _product_nth_values(fs, gs)
        if alpha.is_integer:
            values = np.array([nth(pts)])
        else:
            values, _ = singular_integral([nth], [n - alpha.alpha], a, pts, cfg)
            if kind == KIND_RL:  # (fg)^(k)(a), k < n, from one sample of each f^(j), g^(j)
                fa, ga = ([float(evaluate_many(d, [a])[0]) for d in ds[:-1]] for ds in (fs, gs))
                at_a = [_leibniz_sum(fa, ga, k) for k in range(n)]
                _add_taylor_terms(values, at_a, [alpha.alpha], [n], a, pts)
        _check_finite(values, a, pts)
        return values[0].tolist()
    return derivative_many(fg, alpha, a, pts, cfg, kind)[0]


def rl_of_product(f: FuncExpr, g: FuncExpr, alpha, a: float, x: float,
                  cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Riemann-Liouville derivative of the product fg (reference side of the
    symmetrized-series identity)."""
    alpha = as_order(alpha)
    a = float(a)
    x = float(x)
    _check_interval(a, (x,))
    return _d_product(f, g, alpha, a, (x,), cfg, KIND_RL)[0]


# ---------------------------------------------------------------------------
# the three rule forms


def leibniz_defect(f: FuncExpr, g: FuncExpr, alpha, a: float, points,
                   cfg: QuadratureConfig = QuadratureConfig(),
                   operator: str = "caputo") -> LeibnizReport:
    """Pointwise defect D^alpha(fg) - (D^alpha f) g - f (D^alpha g).

    ``operator`` selects Caputo (default) or RL ("rl").  The defect vanishes
    identically only at alpha = 1.
    """
    kind = {"caputo": KIND_CAPUTO, "rl": KIND_RL}.get(operator)
    if kind is None:
        raise ValueError(f"operator must be 'caputo' or 'rl', got {operator!r}")
    alpha = as_order(alpha)
    a = float(a)
    pts = tuple(float(p) for p in points)
    _check_interval(a, pts)
    df, dg = (_derivative_rows(h, [alpha.alpha], a, pts, cfg, kind)[0][0].tolist()
              for h in (f, g))
    dfg = _d_product(f, g, alpha, a, pts, cfg, kind)
    defects = [dfg[i] - df[i] * evaluate(g, x) - evaluate(f, x) * dg[i]
               for i, x in enumerate(pts)]
    return LeibnizReport(
        alpha=alpha,
        points=pts,
        defect=tuple(defects),
        max_abs_defect=max(abs(d) for d in defects),
        rule_form=RULE_UNVIOLATED,
    )


def integer_leibniz(f: FuncExpr, g: FuncExpr, n: int, x: float) -> float:
    """Finite product-rule sum at integer order n:
    sum_k C(n, k) f^(n-k)(x) g^(k)(x), with exact binomials and derivatives."""
    n = _as_count(n, "n", positive=True)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    nth = _product_nth_values(_derivatives(f, n), _derivatives(g, n))
    return float(nth([x])[0])


def integer_leibniz_report(f: FuncExpr, g: FuncExpr, alpha, points) -> LeibnizReport:
    """Pointwise defect (fg)^(n) - integer_leibniz(f, g, n, x) at an integer
    order n, with (fg)^(n) exact from the expanded product.

    Raises DomainError for a non-integer alpha and UnsupportedProduct unless
    both factors are polynomials.
    """
    alpha = as_order(alpha)
    if not alpha.is_integer:
        raise DomainError(f"the integer sum needs an integer alpha, got {alpha.alpha!r}")
    pts = tuple(float(p) for p in points)
    if not pts:
        raise DomainError("need at least one evaluation point")
    if not all(map(math.isfinite, pts)):
        raise DomainError(f"evaluation points must be finite, got {pts!r}")
    exact = derivative(poly_product(f, g), alpha.n)
    exact_values = [evaluate(exact, x) for x in pts]  # DomainError on overflow
    sums = _product_nth_values(_derivatives(f, alpha.n), _derivatives(g, alpha.n))(pts).tolist()
    defects = [e - s for e, s in zip(exact_values, sums)]
    return LeibnizReport(
        alpha=alpha,
        points=pts,
        defect=tuple(defects),
        max_abs_defect=max(abs(d) for d in defects),
        rule_form=RULE_INTEGER_SUM,
    )


def symmetrized_series(f: FuncExpr, g: FuncExpr, alpha, a: float, x: float,
                       K: int | None = None,
                       cfg: QuadratureConfig = QuadratureConfig()) -> SeriesResult:
    """Partial sum through k = K of the symmetrized product-rule series.

    K defaults to deg f + deg g for polynomial factors (the series terminates
    there) and to 12 otherwise.  Terms with k > alpha at integer alpha vanish
    through the binomial coefficient, recovering the finite integer rule.
    """
    alpha = as_order(alpha)
    a = float(a)
    x = float(x)
    _check_interval(a, (x,))
    if K is None:
        degf = polynomial_degree(f)
        degg = polynomial_degree(g)
        if degf is not None and degg is not None:
            K = degf + degg
        else:
            K = _DEFAULT_TRUNCATION
    K = _as_count(K, "K")
    binomials = [0.5 * frac_binomial(alpha.alpha, k) for k in range(K + 1)]
    # b is zero exactly for the k past an integer alpha, so the k whose
    # terms live are 0 .. live - 1
    live = next((k for k, b in enumerate(binomials) if b == 0.0), K + 1)
    orders = [alpha.alpha - k for k in range(live)]
    df, dg = (_derivative_rows(h, orders, a, (x,), cfg, KIND_RL)[0][:, 0].tolist()
              for h in (f, g))
    terms = [b * (df[k] * evaluate(derivative(g, k), x)
                  + dg[k] * evaluate(derivative(f, k), x))
             for k, b in enumerate(binomials[:live])]
    terms += [0.0] * (K + 1 - live)
    total = 0.0
    for term in terms:
        total += term
    growing = len(terms) >= 3 and abs(terms[-1]) > abs(terms[-2]) > abs(terms[-3])
    return SeriesResult(total, abs(terms[-1]), K, growing)


def series_leibniz_report(f: FuncExpr, g: FuncExpr, alpha, a: float, points,
                          K: int | None = None,
                          cfg: QuadratureConfig = QuadratureConfig()) -> LeibnizReport:
    """Pointwise defect RL^alpha(fg) - symmetrized_series at every point,
    with the partial sums, the resolved truncation K and the largest series
    residual.  The RL reference for all the points is one batched call."""
    alpha = as_order(alpha)
    a = float(a)
    pts = tuple(float(p) for p in points)
    _check_interval(a, pts)
    series = [symmetrized_series(f, g, alpha, a, x, K, cfg) for x in pts]
    refs = _d_product(f, g, alpha, a, pts, cfg, KIND_RL)
    defects = [ref - sr.value for ref, sr in zip(refs, series)]
    return LeibnizReport(
        alpha=alpha,
        points=pts,
        defect=tuple(defects),
        max_abs_defect=max(abs(d) for d in defects),
        rule_form=RULE_SYMMETRIZED,
        truncation_K=series[-1].K,
        series_residual=max(0.0, *(sr.residual for sr in series)),
        series_values=tuple(sr.value for sr in series),
    )
