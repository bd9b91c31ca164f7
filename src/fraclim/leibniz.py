"""Product-rule diagnostics for fractional derivatives.

The classical Leibniz rule D(fg) = (Df)g + f(Dg) holds for no fractional
order: among all orders alpha > 0 it survives only at alpha = 1.
``leibniz_defect`` measures the violation pointwise.  What replaces the rule
is either the finite binomial sum at integer orders, or the symmetrized
infinite series

    D^alpha(fg) = sum_k  [Gamma(a+1) / (2 Gamma(a-k+1) Gamma(k+1))]
                        * [ (D^(alpha-k) f) g^(k) + (D^(alpha-k) g) f^(k) ]

whose k > alpha terms involve fractional *integrals* (negative-order RL
operators).  The series terminates for polynomials and is truncated at K
otherwise, with |term_K| reported as the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DomainError, UnsupportedProduct
from .fracderiv import (
    QuadratureConfig,
    boundary_terms,
    caputo_derivative,
    caputo_from_nth,
    closed_form_applicable,
    fractional_integral_fn,
    power_parts,
    rl_derivative,
    rl_power_value,
)
from .funcmodel import (
    FuncExpr,
    derivative,
    evaluate,
    evaluate_many,
    poly_product,
    polynomial_degree,
)
from .specfun import FracOrder, as_order, frac_binomial

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
    "symmetrized_series",
]

RULE_UNVIOLATED = "Unviolated"
RULE_INTEGER_SUM = "IntegerSum"
RULE_SYMMETRIZED = "SymmetrizedSeries"

_DEFAULT_TRUNCATION = 12


@dataclass(frozen=True)
class LeibnizReport:
    """Pointwise defects of one product-rule form, plus series diagnostics."""

    alpha: FracOrder
    points: tuple
    defect: tuple
    max_abs_defect: float
    rule_form: str
    truncation_K: int | None = None
    series_residual: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha.alpha,
            "points": list(self.points),
            "defect": list(self.defect),
            "max_abs_defect": self.max_abs_defect,
            "rule_form": self.rule_form,
            "truncation_K": self.truncation_K,
            "series_residual": self.series_residual,
        }

    def to_csv(self) -> str:
        lines = ["x,defect"]
        for x, d in zip(self.points, self.defect):
            lines.append(f"{x!r},{d!r}")
        return "\n".join(lines) + "\n"


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

    def __iter__(self):
        return iter((self.value, self.residual))


# ---------------------------------------------------------------------------
# operator dispatch helpers


def _check_points(a, points):
    """DomainError unless a and every point are finite, with each point > a."""
    if not points:
        raise DomainError("need at least one evaluation point")
    if not all(math.isfinite(v) for v in (a, *points)):
        raise DomainError(f"a and the evaluation points must be finite, got a={a!r}, "
                          f"points={points!r}")
    if any(not x > a for x in points):
        raise DomainError(f"every evaluation point must lie right of a={a!r}, "
                          f"got {points!r}")


def _d_point(f, alpha, a, x, cfg, operator):
    if operator == "caputo":
        return caputo_derivative(f, alpha, a, x, cfg).value
    return rl_derivative(f, alpha, a, x, cfg).value


def _product_nth_values(f, g, n):
    """Callable sampling (fg)^(n) via the integer Leibniz expansion of the
    symbolic factor derivatives (exact binomials, exact derivatives)."""
    pairs = [
        (math.comb(n, j), derivative(f, j), derivative(g, n - j)) for j in range(n + 1)
    ]

    def values(zs):
        total = 0.0
        for cnj, fj, gnj in pairs:
            total = total + cnj * evaluate_many(fj, zs) * evaluate_many(gnj, zs)
        return total

    return values


def _d_product_point(f, g, alpha, a, x, cfg, operator):
    """D^alpha(fg)(x): expand symbolically when possible, else the Caputo
    route on the Leibniz-expanded n-th derivative of the product, plus the
    boundary terms for RL."""
    try:
        return _d_point(poly_product(f, g), alpha, a, x, cfg, operator)
    except UnsupportedProduct:
        pass
    (value,), _ = caputo_from_nth(_product_nth_values(f, g, alpha.n), alpha, a, (x,), cfg)
    if operator == "rl":
        at_a = [float(_product_nth_values(f, g, k)([a])[0]) for k in range(alpha.n)]
        value += boundary_terms(at_a, alpha, a, x)
    return float(value)


def rl_of_product(f: FuncExpr, g: FuncExpr, alpha, a: float, x: float,
                  cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Riemann-Liouville derivative of the product fg (reference side of the
    symmetrized-series identity)."""
    alpha = as_order(alpha)
    a = float(a)
    x = float(x)
    _check_points(a, (x,))
    return _d_product_point(f, g, alpha, a, x, cfg, "rl")


# ---------------------------------------------------------------------------
# the three rule forms


def leibniz_defect(f: FuncExpr, g: FuncExpr, alpha, a: float, points,
                   cfg: QuadratureConfig = QuadratureConfig(),
                   operator: str = "caputo") -> LeibnizReport:
    """Pointwise defect D^alpha(fg) - (D^alpha f) g - f (D^alpha g).

    ``operator`` selects Caputo (default) or RL ("rl").  The defect vanishes
    identically only at alpha = 1.
    """
    if operator not in ("caputo", "rl"):
        raise ValueError(f"operator must be 'caputo' or 'rl', got {operator!r}")
    alpha = as_order(alpha)
    a = float(a)
    pts = tuple(float(p) for p in points)
    _check_points(a, pts)
    defects = []
    for x in pts:
        dfg = _d_product_point(f, g, alpha, a, x, cfg, operator)
        df = _d_point(f, alpha, a, x, cfg, operator)
        dg = _d_point(g, alpha, a, x, cfg, operator)
        defects.append(dfg - df * evaluate(g, x) - evaluate(f, x) * dg)
    return LeibnizReport(
        alpha=alpha,
        points=pts,
        defect=tuple(defects),
        max_abs_defect=max(abs(d) for d in defects),
        rule_form=RULE_UNVIOLATED,
    )


def integer_leibniz(f: FuncExpr, g: FuncExpr, n: int, x: float) -> float:
    """Finite product-rule sum at integer order n with gamma coefficients:
    sum_k Gamma(n+1)/(Gamma(n-k+1) Gamma(k+1)) f^(n-k)(x) g^(k)(x)."""
    if n != int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    total = 0.0
    for k in range(n + 1):
        total += (
            frac_binomial(float(n), k)
            * evaluate(derivative(f, n - k), x)
            * evaluate(derivative(g, k), x)
        )
    return total


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
    exact = derivative(poly_product(f, g), alpha.n)
    defects = [evaluate(exact, x) - integer_leibniz(f, g, alpha.n, x) for x in pts]
    return LeibnizReport(
        alpha=alpha,
        points=pts,
        defect=tuple(defects),
        max_abs_defect=max(abs(d) for d in defects),
        rule_form=RULE_INTEGER_SUM,
    )


def _rl_any_order(f, order, a, x, cfg):
    """RL operator of arbitrary real order: derivative (order > 0), identity
    (order == 0) or fractional integral (order < 0)."""
    if order == 0.0:
        return evaluate(f, x)
    if order > 0.0:
        return rl_derivative(f, FracOrder(order), a, x, cfg).value
    if closed_form_applicable(f, a):
        return sum(c * rl_power_value(beta, order, a, x) for c, beta in power_parts(f, a))
    return fractional_integral_fn(lambda zs: evaluate_many(f, zs), -order, a, x, cfg)


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
    _check_points(a, (x,))
    if K is None:
        degf = polynomial_degree(f)
        degg = polynomial_degree(g)
        if degf is not None and degg is not None:
            K = degf + degg
        else:
            K = _DEFAULT_TRUNCATION
    if K != int(K) or K < 0:
        raise DomainError(f"K must be a non-negative integer, got {K!r}")
    K = int(K)
    terms = []
    total = 0.0
    fk, gk = f, g
    for k in range(K + 1):
        b = frac_binomial(alpha.alpha, k, halved=True)
        if b == 0.0:
            term = 0.0
        else:
            # b is zero exactly for the k past an integer alpha, so the k
            # that reach here are consecutive and f^(k) is one step on
            if k:
                fk, gk = derivative(fk, 1), derivative(gk, 1)
            order = alpha.alpha - k
            term = b * (_rl_any_order(f, order, a, x, cfg) * evaluate(gk, x)
                        + _rl_any_order(g, order, a, x, cfg) * evaluate(fk, x))
        terms.append(term)
        total += term
    growing = len(terms) >= 3 and abs(terms[-1]) > abs(terms[-2]) > abs(terms[-3])
    return SeriesResult(total, abs(terms[-1]), K, growing)
