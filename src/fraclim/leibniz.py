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
    KIND_CAPUTO,
    KIND_RL,
    QuadratureConfig,
    boundary_terms,
    caputo_from_nth,
    derivative_many,
    power_rule,
    singular_integral,
    split_powers,
)
from .funcmodel import (
    FuncExpr,
    derivative,
    derivative_chain,
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
    symmetrized-series form; ``to_json_dict`` leaves it out.
    """

    alpha: FracOrder
    points: tuple
    defect: tuple
    max_abs_defect: float
    rule_form: str
    truncation_K: int | None = None
    series_residual: float | None = None
    series_values: tuple | None = None

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


def _sampler(f):
    return lambda zs: evaluate_many(f, zs)


def _product_nth_values(fs, gs, n):
    """Callable sampling (fg)^(n) via the integer Leibniz expansion of the
    symbolic factor derivatives fs[j] = f^(j) and gs[j] = g^(j), j <= n
    (exact binomials, exact derivatives)."""
    pairs = [(math.comb(n, j), fs[j], gs[n - j]) for j in range(n + 1)]

    def values(zs):
        total = 0.0
        for cnj, fj, gnj in pairs:
            total = total + cnj * evaluate_many(fj, zs) * evaluate_many(gnj, zs)
        return total

    return values


def _d_product(f, g, alpha, a, pts, cfg, kind):
    """D^alpha(fg) at every point of pts: a product of two polynomials is
    multiplied out for derivative_many; any other is one caputo_from_nth call
    on the Leibniz-expanded (fg)^(n), each factor derived once, without the
    half-resolution pass."""
    try:
        fg = poly_product(f, g)
    except UnsupportedProduct:
        fs = derivative_chain([f], alpha.n)
        gs = derivative_chain([g], alpha.n)
        at_a = None if kind == KIND_CAPUTO else [
            float(_product_nth_values(fs, gs, k)([a])[0]) for k in range(alpha.n)]
        nth = _product_nth_values(fs, gs, alpha.n)
        return caputo_from_nth(nth, alpha, a, pts, cfg, False, at_a)[0].tolist()
    return derivative_many(fg, alpha, a, pts, cfg, kind, estimate=False)[0]


def rl_of_product(f: FuncExpr, g: FuncExpr, alpha, a: float, x: float,
                  cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Riemann-Liouville derivative of the product fg (reference side of the
    symmetrized-series identity)."""
    alpha = as_order(alpha)
    a = float(a)
    x = float(x)
    _check_points(a, (x,))
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
    _check_points(a, pts)
    dfg = _d_product(f, g, alpha, a, pts, cfg, kind)
    df = derivative_many(f, alpha, a, pts, cfg, kind, estimate=False)[0]
    dg = derivative_many(g, alpha, a, pts, cfg, kind, estimate=False)[0]
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
    """Finite product-rule sum at integer order n with gamma coefficients:
    sum_k Gamma(n+1)/(Gamma(n-k+1) Gamma(k+1)) f^(n-k)(x) g^(k)(x)."""
    if n != int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    return _integer_sum(derivative_chain([f], n), derivative_chain([g], n), n, float(x))


def _integer_sum(fs, gs, n, x):
    """integer_leibniz at x from fs[j] = f^(j) and gs[j] = g^(j), j <= n."""
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    total = 0.0
    for k in range(n + 1):
        total += frac_binomial(float(n), k) * evaluate(fs[n - k], x) * evaluate(gs[k], x)
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
    fs = derivative_chain([f], alpha.n)
    gs = derivative_chain([g], alpha.n)
    defects = [evaluate(exact, x) - _integer_sum(fs, gs, alpha.n, x) for x in pts]
    return LeibnizReport(
        alpha=alpha,
        points=pts,
        defect=tuple(defects),
        max_abs_defect=max(abs(d) for d in defects),
        rule_form=RULE_INTEGER_SUM,
    )


def _rl_orders(chain, alpha, live, a, x, cfg):
    """The RL operators of the orders alpha - k, k < live, on f = chain[0] at
    x, where chain[j] is f^(j): derivatives for k < alpha, f itself at
    k == alpha and fractional integrals past it.

    The power terms of f centered at a take the power rule.  Of the rest of
    f, every integral comes from one sample on the grid of [a, x], and the
    derivative of order alpha - k is caputo_from_nth on rest^(n-k), with the
    rest^(j)(a) of its boundary terms taken once."""
    f = chain[0]
    orders = [alpha.alpha - k for k in range(live)]
    parts, rest = split_powers(f, a)
    terms = [power_rule(parts, order, a, (x,), KIND_RL)[0] for order in orders]
    if not rest.is_zero():
        rests = derivative_chain([rest] if parts else chain, alpha.n)
        at_a = [evaluate(rj, a) for rj in rests[:alpha.n]]
        quad = []
        for order in orders:
            if order > 0.0:
                d = FracOrder(order)
                quad += caputo_from_nth(_sampler(rests[d.n]), d, a, (x,), cfg, False,
                                        at_a[:d.n])[0].tolist()
            elif order == 0.0:
                quad.append(0.0)  # f(x) itself, below
        integrals = [-order for order in orders if order < 0.0]
        if integrals:
            values, _ = singular_integral(_sampler(rests[0]), integrals, a, (x,), cfg,
                                          estimate=False)
            quad += [float(v) for v in values[:, 0]]
        terms = [q + p for q, p in zip(quad, terms)] if parts else quad
    return [evaluate(f, x) if order == 0.0 else t for order, t in zip(orders, terms)]


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
    binomials = [frac_binomial(alpha.alpha, k, halved=True) for k in range(K + 1)]
    # b is zero exactly for the k past an integer alpha, so the k whose
    # terms live are 0 .. live - 1
    live = next((k for k, b in enumerate(binomials) if b == 0.0), K + 1)
    fs = derivative_chain([f], live - 1)
    gs = derivative_chain([g], live - 1)
    df = _rl_orders(fs, alpha, live, a, x, cfg)
    dg = _rl_orders(gs, alpha, live, a, x, cfg)
    terms = [b * (df[k] * evaluate(gs[k], x) + dg[k] * evaluate(fs[k], x))
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
    _check_points(a, pts)
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
