"""Local limit of the Caputo derivative at the base point.

A scan samples the derivative on a geometric sequence x_k = a + h0 * r^k,
fits log|value| against log(x_k - a), and classifies the x -> a limit as
Zero, Finite or Divergent from the sign of the fitted exponent.  For an
n-times differentiable function the theory says the values scale like

    f^(n)(a) / Gamma(n + 1 - alpha) * (x - a)^(n - alpha),

so the limit is 0 for every non-integer alpha and f^(n)(a) at alpha = n;
the report carries both the fitted and the theoretical scaling so the two
can be compared.  ``lfd_report_many`` scans one function at many orders at
once: one ``derivative_many`` call over the scan points for all the orders,
and one derivative chain f, f', ..., f^(max n) for their f^(n)(a);
``lfd_report`` is its one-order case.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InsufficientData, UnsupportedFunction
from .fracderiv import (
    QuadratureConfig,
    caputo_power_coefficient,
    derivative_many,
    split_powers,
)
from .funcmodel import FuncExpr, derivative_chain, evaluate
from .specfun import as_order, rgamma

__all__ = [
    "CLASS_DIVERGENT",
    "CLASS_FINITE",
    "CLASS_ZERO",
    "Classification",
    "LfdReport",
    "LfdSample",
    "ScanConfig",
    "lfd_classify",
    "lfd_exact",
    "lfd_report",
    "lfd_report_many",
    "lfd_scan",
]

CLASS_ZERO = "Zero"
CLASS_FINITE = "Finite"
CLASS_DIVERGENT = "Divergent"


@dataclass(frozen=True, slots=True)
class ScanConfig:
    """Geometric scan x_k = a + h0 * ratio**k for k = 0..count-1.

    The quadrature's nodes scale with x - a, so the offsets may go as small
    as doubles allow (x - a = 1e-200 at a = 0); a point that rounds onto a
    raises DomainError when the scan runs."""

    h0: float = 0.5
    ratio: float = 0.5
    count: int = 20
    quad: QuadratureConfig = QuadratureConfig()

    def __post_init__(self):
        if not self.h0 > 0.0:
            raise DomainError(f"h0 must be positive, got {self.h0!r}")
        if not 0.0 < self.ratio < 1.0:
            raise DomainError(f"ratio must lie in (0, 1), got {self.ratio!r}")
        if self.count != int(self.count) or self.count < 1:
            raise DomainError(f"count must be a positive integer, got {self.count!r}")


@dataclass(frozen=True, slots=True)
class LfdSample:
    """One scan point.  ``usable`` is False when the quadrature error
    estimate exceeds the value itself (pure noise)."""

    x: float
    value: float
    est_error: float
    offset: float
    usable: bool


@dataclass(frozen=True, slots=True)
class Classification:
    kind: str  # Zero | Finite | Divergent
    limit: float | None = None


@dataclass(frozen=True, slots=True)
class LfdReport:
    samples: tuple
    fitted_exponent: float | None
    fitted_prefactor: float | None
    classification: Classification
    theory_exponent: float
    theory_prefactor: float | None

    def to_json_dict(self) -> dict:
        return {
            "samples": [
                {"x": s.x, "value": s.value, "est_error": s.est_error}
                for s in self.samples
            ],
            "fitted_exponent": self.fitted_exponent,
            "fitted_prefactor": self.fitted_prefactor,
            "classification": {
                "kind": self.classification.kind,
                "limit": self.classification.limit,
            },
            "theory_exponent": self.theory_exponent,
            "theory_prefactor": self.theory_prefactor,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["x", "value", "est_error"])
        for s in self.samples:
            w.writerow([repr(s.x), repr(s.value), repr(s.est_error)])
        return buf.getvalue()


def _base_point(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"base point must be finite, got {a!r}")
    return a


def _scan(f: FuncExpr, alphas: list, a: float, cfg: ScanConfig) -> list:
    """The samples of f at every order in ``alphas``, one list per order,
    from one ``derivative_many`` call over the scan points."""
    a = _base_point(a)
    xs = [a + cfg.h0 * cfg.ratio**k for k in range(cfg.count)]
    values, est_errors, _ = derivative_many(f, alphas, a, xs, cfg.quad)
    return [[LfdSample(x, v, e, x - a, not e > abs(v)) for x, v, e in zip(xs, row, ests)]
            for row, ests in zip(values, est_errors)]


def lfd_scan(f: FuncExpr, alpha, a: float, cfg: ScanConfig = ScanConfig()) -> list:
    """Sample the Caputo derivative along the geometric sequence: one
    ``derivative_many`` call over the whole scan, with the power terms of f
    centered at a in closed form and every other term by quadrature with
    cfg.quad (exact at an integer order).  A sample's est_error is that
    quadrature's estimate, from the upper half of its Legendre coefficients,
    0 when f has no such term."""
    return _scan(f, [alpha], a, cfg)[0]


def lfd_classify(samples, alpha, exponent_tol: float = 0.05,
                 theory_prefactor: float | None = None) -> LfdReport:
    """Fit the scaling law and classify the limit.

    Only samples whose |value| clears the noise floor (10x the quadrature
    error estimate) enter the log-log fit; if none do, the scan is flat zero
    and the report says Zero with an undefined fitted exponent.  Fewer than
    4 usable samples raise InsufficientData, and an ``exponent_tol`` that is
    not finite and non-negative raises DomainError.
    """
    alpha = as_order(alpha)
    if not 0.0 <= exponent_tol < math.inf:
        raise DomainError(
            f"exponent_tol must be finite and non-negative, got {exponent_tol!r}"
        )
    samples = list(samples)
    usable = [s for s in samples if s.usable]
    if len(usable) < 4:
        raise InsufficientData(
            f"need at least 4 usable samples to classify, have {len(usable)}"
        )
    theory_exponent = alpha.n - alpha.alpha
    fit = [s for s in usable if abs(s.value) > 10.0 * s.est_error]
    if len(fit) < 2:
        return LfdReport(tuple(samples), None, None, Classification(CLASS_ZERO),
                         theory_exponent, theory_prefactor)
    logx = np.log([s.offset for s in fit])
    logv = np.log([abs(s.value) for s in fit])
    slope, intercept = np.polyfit(logx, logv, 1)
    prefactor = math.copysign(math.exp(intercept), fit[-1].value)
    if slope > exponent_tol:
        cls = Classification(CLASS_ZERO)
    elif slope < -exponent_tol:
        cls = Classification(CLASS_DIVERGENT)
    else:
        # v = L + c (x - a) near a: extrapolate the last two usable samples to
        # x = a, unless rounding put them at the same x
        (h1, v1), (h2, v2) = ((s.offset, s.value) for s in usable[-2:])
        cls = Classification(CLASS_FINITE, (h1 * v2 - h2 * v1) / (h1 - h2) if h1 != h2 else v2)
    return LfdReport(tuple(samples), float(slope), float(prefactor), cls,
                     theory_exponent, theory_prefactor)


def lfd_exact(f: FuncExpr, alpha, a: float) -> Classification:
    """Closed-form limit verdict for power sums centered at a.

    Term by term: a vanishing Caputo coefficient contributes nothing, a
    positive exponent beta - alpha decays to zero, a zero exponent leaves the
    constant coefficient, and a negative exponent blows up (Divergent wins
    over everything else).  UnsupportedFunction for any other term.
    """
    alpha = as_order(alpha)
    a = _base_point(a)
    parts, rest = split_powers(f, a)
    if not rest.is_zero():
        raise UnsupportedFunction(f"{rest!r} has no closed-form power rule about {a!r}")
    finite_total = 0.0
    any_finite = False
    for c, beta in parts:
        coef = c * caputo_power_coefficient(beta, alpha)
        if coef == 0.0:
            continue
        expo = beta - alpha.alpha
        if expo > 0.0:
            continue
        if expo == 0.0:
            any_finite = True
            finite_total += coef
        else:
            return Classification(CLASS_DIVERGENT)
    if any_finite:
        return Classification(CLASS_FINITE, finite_total)
    return Classification(CLASS_ZERO)


def lfd_report_many(f: FuncExpr, alphas, a: float, cfg: ScanConfig = ScanConfig(),
                    exponent_tol: float = 0.05) -> list:
    """One ``lfd_report`` per order in ``alphas``, in their order, from one
    scan of f at all of them: one ``derivative_many`` call over the scan
    points, then ``lfd_classify`` per order.  Each report's theory_prefactor
    is f^(n)(a) / Gamma(n + 1 - alpha), from one derivative chain f, f', ...,
    f^(max n) evaluated at a only for the n the orders take; it is None for
    every n at which the chain leaves the function class, and for an n at
    which f^(n) is singular at a or overflows.  A report equals the one-order
    report of its order, bit for bit.  DomainError for an empty ``alphas`` or
    an order that is not positive and finite."""
    orders = [as_order(o) for o in alphas]
    scans = _scan(f, [o.alpha for o in orders], a, cfg)
    at_a = {}  # n -> f^(n)(a), None where it leaves the class or is not finite
    chain = [f]
    for n in sorted({o.n for o in orders}):
        try:
            chain = derivative_chain(chain, n)
            at_a[n] = evaluate(chain[n], a)
        except DomainError:
            at_a[n] = None
    reports = []
    for o, samples in zip(orders, scans):
        fn_a = at_a[o.n]
        prefactor = None if fn_a is None else fn_a * rgamma(o.n + 1.0 - o.alpha)
        reports.append(lfd_classify(samples, o, exponent_tol, prefactor))
    return reports


def lfd_report(f: FuncExpr, alpha, a: float, cfg: ScanConfig = ScanConfig(),
               exponent_tol: float = 0.05) -> LfdReport:
    """Scan plus classification, with the theory-side fields filled in: the
    one-order case of ``lfd_report_many``."""
    return lfd_report_many(f, [alpha], a, cfg, exponent_tol)[0]
