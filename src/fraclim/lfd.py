"""Local limit of the Caputo derivative at the base point.

A scan samples the derivative on a geometric sequence x_k = a + h0 * r^k,
fits log|value| against log(x_k - a), and classifies the x -> a limit as
Zero, Finite or Divergent from the sign of the fitted exponent.  For an
n-times differentiable function the theory says the values scale like

    f^(n)(a) / Gamma(n + 1 - alpha) * (x - a)^(n - alpha),

so the limit is 0 for every non-integer alpha and f^(n)(a) at alpha = n;
the report carries both the fitted and the theoretical scaling so the two
can be compared.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InsufficientData
from .fracderiv import (
    QuadratureConfig,
    caputo_power_coefficient,
    derivative_many,
    power_parts,
)
from .funcmodel import FuncExpr, derivative, evaluate
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
    "lfd_scan",
]

CLASS_ZERO = "Zero"
CLASS_FINITE = "Finite"
CLASS_DIVERGENT = "Divergent"


@dataclass(frozen=True)
class ScanConfig:
    """Geometric scan x_k = a + h0 * ratio**k for k = 0..count-1."""

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
        if self.h0 * self.ratio ** (self.count - 1) < self.quad.min_gap:
            raise DomainError(
                "scan would step below the quadrature min_gap; raise h0 or ratio "
                "or lower count"
            )


@dataclass(frozen=True)
class LfdSample:
    """One scan point.  ``usable`` is False when the quadrature error
    estimate exceeds the value itself (pure noise)."""

    x: float
    value: float
    est_error: float
    offset: float
    usable: bool


@dataclass(frozen=True)
class Classification:
    kind: str  # Zero | Finite | Divergent
    limit: float | None = None


@dataclass(frozen=True)
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


def lfd_scan(f: FuncExpr, alpha, a: float, cfg: ScanConfig = ScanConfig()) -> list:
    """Sample the Caputo derivative along the geometric sequence: one
    ``derivative_many`` call over the whole scan, with the power terms of f
    centered at a in closed form and every other term by quadrature with
    cfg.quad (exact at an integer order).  A sample's est_error is that
    quadrature's estimate, 0 when f has no such term."""
    a = _base_point(a)
    xs = [a + cfg.h0 * cfg.ratio**k for k in range(cfg.count)]
    values, est_errors, _ = derivative_many(f, alpha, a, xs, cfg.quad)
    return [LfdSample(x, v, e, x - a, not e > abs(v))
            for x, v, e in zip(xs, values, est_errors)]


def lfd_classify(samples, alpha, exponent_tol: float = 0.05,
                 theory_prefactor: float | None = None) -> LfdReport:
    """Fit the scaling law and classify the limit.

    Only samples whose |value| clears the noise floor (10x the quadrature
    error estimate) enter the log-log fit; if none do, the scan is flat zero
    and the report says Zero with an undefined fitted exponent.  Fewer than
    4 usable samples raise InsufficientData.
    """
    alpha = as_order(alpha)
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
        tail = usable[-3:]
        cls = Classification(CLASS_FINITE, sum(s.value for s in tail) / len(tail))
    return LfdReport(tuple(samples), float(slope), float(prefactor), cls,
                     theory_exponent, theory_prefactor)


def lfd_exact(f: FuncExpr, alpha, a: float) -> Classification:
    """Closed-form limit verdict for power sums centered at a.

    Term by term: a vanishing Caputo coefficient contributes nothing, a
    positive exponent beta - alpha decays to zero, a zero exponent leaves the
    constant coefficient, and a negative exponent blows up (Divergent wins
    over everything else).
    """
    alpha = as_order(alpha)
    finite_total = 0.0
    any_finite = False
    for c, beta in power_parts(f, _base_point(a)):
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


def lfd_report(f: FuncExpr, alpha, a: float, cfg: ScanConfig = ScanConfig(),
               exponent_tol: float = 0.05) -> LfdReport:
    """Scan plus classification, with the theory-side fields filled in."""
    alpha = as_order(alpha)
    a = _base_point(a)
    samples = lfd_scan(f, alpha, a, cfg)
    try:
        theory_prefactor = (evaluate(derivative(f, alpha.n), a)
                            * rgamma(alpha.n + 1.0 - alpha.alpha))
    except DomainError:  # f^(n) leaves the function class or is singular at a
        theory_prefactor = None
    return lfd_classify(samples, alpha, exponent_tol=exponent_tol,
                        theory_prefactor=theory_prefactor)
