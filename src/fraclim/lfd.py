"""Local limit of the Caputo derivative at the base point.

A scan samples the derivative on a geometric sequence x_k = a + h0 * r^k,
fits log|value| against log(x_k - a), and classifies the x -> a limit as
Zero, Finite or Divergent from the sign of the fitted exponent.  For an
n-times differentiable function the theory says the values scale like

    f^(n)(a) / Gamma(n + 1 - alpha) * (x - a)^(n - alpha),

so the limit is 0 for every non-integer alpha and f^(n)(a) at alpha = n;
the report carries both the fitted and the theoretical scaling so the two
can be compared.  ``lfd_report_many`` scans one function at many orders at
once: one ``derivative_many`` call over the scan points, one least-squares
pass (``lfd_classify``) over its rows, one order per row, and one exact
derivative f^(n) for the f^(n)(a) of each distinct n; ``lfd_report`` is its
one-order case.  Reports keep the scan as rows of floats, in frozen
dataclasses that carry no serializer: the CLI formats them.  ``lfd_verify``
checks the dichotomy on one such scan: it decides, order by order, whether
the limit is the one the theory gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InsufficientData, UnsupportedFunction
from .fracderiv import (QuadratureConfig, _check_interval, _derivative_rows,
                        caputo_power_coefficient, split_powers)
from .funcmodel import FuncExpr, derivative, evaluate, format_expr
from .specfun import _as_count, as_order, rgamma

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
    "lfd_verify",
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
        _as_count(self.count, "count", positive=True)


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
    """A scan and its verdict.  The scan is kept as rows with one entry per
    point: ``xs``, ``offsets`` x - a, ``values``, ``est_errors`` and
    ``usable``; ``samples`` builds them into ``LfdSample``s when read."""

    xs: tuple
    offsets: tuple
    values: tuple
    est_errors: tuple
    usable: tuple
    fitted_exponent: float | None
    fitted_prefactor: float | None
    classification: Classification
    theory_exponent: float
    theory_prefactor: float | None

    @property
    def samples(self) -> tuple:
        return tuple(map(LfdSample, self.xs, self.values, self.est_errors, self.offsets,
                         self.usable))


def _base_point(a) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"base point must be finite, got {a!r}")
    return a


def _check_tol(name, value):
    if not 0.0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and non-negative, got {value!r}")


def lfd_classify(xs, a: float, values, est_errors, alphas, exponent_tol: float = 0.05,
                 theory_prefactors=None) -> list:
    """One ``LfdReport`` per order in ``alphas``, with the scaling law fitted
    and the limit classified.  ``values`` and ``est_errors`` hold one row per
    order and one entry per point of ``xs``; ``theory_prefactors`` (default
    None) one entry per order.  A sample is usable unless its error estimate
    exceeds |value|, and is fitted if |value| also clears 10x the estimate:
    one closed-form least-squares pass fits log|value| on log(x - a) for all
    the orders.  Fewer than 2 fitted samples make a flat Zero scan with no
    fitted exponent.  Fewer than 4 usable samples at an order raise
    InsufficientData; an ``exponent_tol`` that is not finite and
    non-negative, and points that are not all finite and past a finite a,
    raise DomainError."""
    orders = [as_order(o) for o in alphas]
    _check_tol("exponent_tol", exponent_tol)
    x = np.asarray(xs, dtype=np.float64)
    xs, h = tuple(x.tolist()), x - a
    _check_interval(a, xs)
    v = np.asarray(values, dtype=np.float64).reshape(len(orders), h.size)
    e = np.asarray(est_errors, dtype=np.float64).reshape(v.shape)
    usable = ~(e > np.abs(v))
    fit = usable & (np.abs(v) > 10.0 * e)
    # per row, over its fit points: slope = S_xy / S_xx about the means
    n_fit = np.maximum(fit.sum(axis=1, keepdims=True), 1)
    logx = np.where(fit, np.log(h), 0.0)
    logv = np.log(np.abs(v), out=np.zeros_like(v), where=fit)
    x_mean, y_mean = logx.sum(axis=1, keepdims=True) / n_fit, logv.sum(axis=1) / n_fit[:, 0]
    dx = np.where(fit, logx - x_mean, 0.0)
    s_xx = (dx * dx).sum(axis=1)
    slopes = np.divide((dx * (logv - y_mean[:, None])).sum(axis=1), s_xx,
                       out=np.zeros_like(s_xx), where=s_xx > 0.0)
    intercepts = y_mean - slopes * x_mean[:, 0]
    offsets = tuple(h.tolist())
    # per row: its usable samples, and the last of its fitted ones
    n_usable = usable.sum(axis=1).tolist()
    last_fit = (h.size - 1 - np.argmax(fit[:, ::-1], axis=1)).tolist()
    reports = []
    for o, row, ests, use, n_use, n_fitted, last, slope, intercept, theory in zip(
            orders, v.tolist(), e.tolist(), usable.tolist(), n_usable, n_fit[:, 0].tolist(),
            last_fit, slopes.tolist(), intercepts.tolist(),
            theory_prefactors or [None] * len(orders)):
        if n_use < 4:
            raise InsufficientData(f"need at least 4 usable samples to classify, have {n_use}")
        if n_fitted < 2:  # n_fit counts an empty row as 1
            slope = prefactor = None
        else:
            prefactor = math.copysign(math.exp(intercept), row[last])
        if slope is None or slope > exponent_tol:
            cls = Classification(CLASS_ZERO)
        elif slope < -exponent_tol:
            cls = Classification(CLASS_DIVERGENT)
        else:
            # v = L + c (x - a) near a: extrapolate the last two usable samples
            # to x = a, unless rounding put them at the same x
            (h1, v1), (h2, v2) = [(hk, vk) for hk, vk, u in zip(offsets, row, use) if u][-2:]
            cls = Classification(CLASS_FINITE, (h1 * v2 - h2 * v1) / (h1 - h2) if h1 != h2 else v2)
        reports.append(LfdReport(xs, offsets, tuple(row), tuple(ests), tuple(use), slope,
                                 prefactor, cls, o.n - o.alpha, theory))
    return reports


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
    finite = None  # the sum of the constant terms' coefficients, once there is one
    for c, beta in parts:
        coef, expo = c * caputo_power_coefficient(beta, alpha), beta - alpha.alpha
        if coef != 0.0 and expo < 0.0:
            return Classification(CLASS_DIVERGENT)
        if coef != 0.0 and expo == 0.0:
            finite = coef if finite is None else finite + coef
    return Classification(CLASS_ZERO) if finite is None else Classification(CLASS_FINITE, finite)


def lfd_report_many(f: FuncExpr, alphas, a: float, cfg: ScanConfig = ScanConfig(),
                    exponent_tol: float = 0.05) -> list:
    """One ``lfd_report`` per order in ``alphas``, in their order, from one
    scan of f at all of them: one ``derivative_many`` call over the scan
    points and one ``lfd_classify`` call over its rows.  Each report's
    theory_prefactor is f^(n)(a) / Gamma(n + 1 - alpha), from one exact
    f^(n) per distinct n; it is None for an n whose f^(n) leaves the function
    class, and for one whose f^(n)(a) is singular or overflows.  A report
    equals the one-order report of its order, bit for bit.  DomainError,
    before any scanning, for an ``exponent_tol`` that is not finite and
    non-negative; also for an empty ``alphas`` or a bad order."""
    return _scan(f, alphas, a, cfg, exponent_tol)[1]


def _scan(f, alphas, a, cfg, exponent_tol):
    """``lfd_report_many`` with its orders and the f^(n)(a) it took:
    (FracOrders, reports, {n: f^(n)(a), or None})."""
    _check_tol("exponent_tol", exponent_tol)
    orders = [as_order(o) for o in alphas]
    a = _base_point(a)
    xs = [a + cfg.h0 * cfg.ratio**k for k in range(cfg.count)]
    values, est_errors, _ = _derivative_rows(f, [o.alpha for o in orders], a, xs, cfg.quad)
    at_a = {}  # n -> f^(n)(a), None where it leaves the class or is not finite
    for n in sorted({o.n for o in orders}):
        try:
            at_a[n] = evaluate(derivative(f, n), a)
        except DomainError:
            at_a[n] = None
    prefactors = [None if at_a[o.n] is None else at_a[o.n] * rgamma(o.n + 1.0 - o.alpha)
                  for o in orders]
    return orders, lfd_classify(xs, a, values, est_errors, orders, exponent_tol,
                                prefactors), at_a


def lfd_verify(f: FuncExpr, alphas, a: float, cfg: ScanConfig = ScanConfig(),
               tol: float = 1e-6, exponent_tol: float = 0.05) -> list:
    """The limit dichotomy at every order in ``alphas``: one (report, passed)
    pair per order, in their order, from one ``lfd_report_many`` scan.  A
    non-integer order passes when its limit classifies Zero; an integer
    order n when its Zero (0.0) or Finite limit lies within ``tol`` of
    f^(n)(a).  DomainError, before any scanning, for a ``tol`` that is not
    finite and non-negative; after the scan, for an integer n whose f^(n)
    leaves the function class or is not finite at a."""
    _check_tol("tol", tol)
    orders, reports, at_a = _scan(f, alphas, a, cfg, exponent_tol)
    verdicts = []
    for o, report in zip(orders, reports):
        cls = report.classification
        if o.is_integer:
            target = at_a[o.n]
            if target is None:
                raise DomainError(f"f^({o.n}) of {format_expr(f)} leaves the function "
                                  f"class or is not finite at a={float(a)!r}")
            limit = {CLASS_FINITE: cls.limit, CLASS_ZERO: 0.0}.get(cls.kind, math.nan)
            passed = abs(limit - target) <= tol
        else:
            passed = cls.kind == CLASS_ZERO
        verdicts.append((report, passed))
    return verdicts


def lfd_report(f: FuncExpr, alpha, a: float, cfg: ScanConfig = ScanConfig(),
               exponent_tol: float = 0.05) -> LfdReport:
    """Scan plus classification, with the theory-side fields filled in: the
    one-order case of ``lfd_report_many``."""
    return lfd_report_many(f, [alpha], a, cfg, exponent_tol)[0]
