"""Left-sided Caputo and Riemann-Liouville fractional derivatives.

One route computes both, for many orders and points: ``derivative_many``.
It splits f (``split_powers``) into the power terms centered at the base
point, which take the exact power rule (``power_rule``), and a rest.  A rest
of exponential terms is the real part of a sum of complex exponentials
C e^(z x), z = lam + i w, whose Caputo derivative has the closed form

    C z^n e^(z a) h^(n - alpha) E_{1, n+1-alpha}(z h)
        = sum_{k>=n} f^(k)(a) h^(k - alpha) / Gamma(k + 1 - alpha),

h = x - a, with E the Mittag-Leffler function; the Riemann-Liouville one is
the same series from k = 0, C e^(z a) h^(-alpha) E_{1, 1-alpha}(z h).  At
an integer order alpha = n both are the rest's f^(n)(x) itself, exact, at
every point.  At a fractional order, wherever rate * h <= 2, rate the
largest |z| of the rest, ``derivative_many`` sums the series over 26 terms,
from the exact jets f^(k)(a) (``_series_rows``), with an estimate that
bounds its rounding and its tail; the method is then SpecialFunction.  At
every other point, and for a rest that holds a power term, it takes the
singular integral

    (1 / Gamma(n - alpha)) * integral_a^x (x - z)^(n - alpha - 1) f^(n)(z) dz.

``singular_integral`` is the one quadrature core, product Gauss-Legendre
integration with one integral per row: each row pairs an integrand with an
order, over points all the rows share, with an error estimate from the same
samples; it is also the package's fractional integral.  One operator
application is at most one call of it, one row per fractional order, on the
f^(n) of that order's derivative count n.  The rows stay float64 arrays up
to ``derivative_many`` and the reports.
Past the series' reach the Riemann-Liouville operator is the Caputo one
plus the RL power rule on the Taylor terms, k < n (``_add_taylor_terms``),
and the method is Bridge:

    RL^alpha f = Caputo^alpha f
                 + sum_{k=0}^{n-1} f^(k)(a) (x - a)^(k - alpha) / Gamma(k + 1 - alpha).

The 1/Gamma(k+1-alpha) come from the power rule itself; the superficially
plausible 1/k! variant fails it.  At a negative order n = 0: a fractional
integral.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import DomainError
from .funcmodel import FuncExpr, PowerTerm, derivative, evaluate, evaluate_many
from .kernels import legendre_moments, legendre_rule
from .specfun import FracOrder, as_order, gamma, rgamma

__all__ = [
    "DerivResult",
    "QuadratureConfig",
    "caputo_derivative",
    "caputo_power_coefficient",
    "derivative_many",
    "power_rule",
    "rl_derivative",
    "singular_integral",
    "split_powers",
]

KIND_CAPUTO = "Caputo"
KIND_RL = "RiemannLiouville"
METHOD_CLOSED = "ClosedForm"
METHOD_QUAD = "Quadrature"
METHOD_BRIDGE = "Bridge"
METHOD_SPECIAL = "SpecialFunction"
_ESTIMATED = (METHOD_QUAD, METHOD_SPECIAL)


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution of the singular integral: ``nodes`` caps the Gauss-Legendre
    rules of ``singular_integral``, which double from 32 nodes up to
    min(nodes, 512).  The series route takes no nodes."""

    nodes: int = 512

    def __post_init__(self):
        if not 2 <= self.nodes < math.inf or self.nodes != int(self.nodes):
            raise DomainError(f"nodes must be an integer >= 2, got {self.nodes!r}")


@dataclass(frozen=True)
class DerivResult:
    """A single derivative evaluation.

    ``est_error`` is present exactly when the method is Quadrature or
    SpecialFunction: the estimate of ``singular_integral`` or of the series
    for the terms of f that went through it, for Caputo and RL alike; none
    for Bridge, whose Taylor terms' rounding is not estimated.
    """

    value: float
    kind: str
    method: str
    est_error: float | None = None

    def __post_init__(self):
        if (self.est_error is not None) != (self.method in _ESTIMATED):
            raise ValueError("est_error must be present iff method is Quadrature "
                             "or SpecialFunction")


def _check_interval(a, xs):
    """DomainError unless ``xs``, a list or tuple, holds at least one point,
    and a and every x in it are finite, with x > a."""
    if xs and math.isfinite(a + sum(xs)) and min(xs) > a:
        return
    if not xs:
        raise DomainError("need at least one evaluation point")
    for x in xs:
        if not (math.isfinite(a) and math.isfinite(x)):
            raise DomainError(f"a and x must be finite, got x={x!r}, a={a!r}")
        if not x > a:
            raise DomainError(f"evaluation point must satisfy x > a, got x={x!r}, a={a!r}")


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
    are taken once, and a term with c or its coefficient 0 is left out; each
    point sums Python scalars, a Caputo term as (c * coefficient) * power, an
    RL term as c * (coefficient * power).  DomainError when a power overflows."""
    alpha = as_order(order) if kind == KIND_CAPUTO else None
    terms = []
    for c, beta in parts:
        if kind == KIND_CAPUTO:
            scale, coef = 1.0, c * caputo_power_coefficient(beta, alpha)
        else:
            scale, coef = c, gamma(beta + 1.0) * rgamma(beta + 1.0 - order)
        if c != 0.0 and coef != 0.0:
            terms.append((scale, coef, beta - order))
    values = []
    for x in xs:
        value = 0.0
        try:
            for scale, coef, p in terms:
                value += scale * (coef * (x - a) ** p)
        except OverflowError:
            raise DomainError(f"the power rule overflows at x={x!r}, a={a!r}") from None
        values.append(value)
    return values


def split_powers(f: FuncExpr, a: float):
    """(parts, rest) of f about a: ``parts`` is [(c, beta)] for the power
    terms centered at a and the constants, whatever their recorded center;
    ``rest`` is the FuncExpr of every other term, f itself when there is no
    power part."""
    parts, rest = [], []
    for t in f.terms:
        if isinstance(t, PowerTerm) and (t.beta == 0.0 or t.x0 == a):
            parts.append((t.c, t.beta))
        else:
            rest.append(t)
    return parts, FuncExpr(rest) if parts else f


# ---------------------------------------------------------------------------
# quadrature

# Rules double from _FIRST_NODES nodes up to min(cfg.nodes, _MAX_NODES); an
# integral is done once its estimate is at most _REL_TOL of its size.
_FIRST_NODES = 32
_MAX_NODES = 512
_REL_TOL = 1e-13
_EPS = float(np.finfo(np.float64).eps)


def singular_integral(samplers, orders, a: float, xs, cfg: QuadratureConfig = QuadratureConfig()):
    """Riemann-Liouville integrals of positive order at every x in ``xs``,
    one per row: row r integrates g = samplers[r] at order o = orders[r],

        (1 / Gamma(o)) * integral_a^x (x - z)^(o - 1) g(z) dz
            = h^o / Gamma(o) * integral_0^1 u^(o - 1) g(x - h u) du,

    h = x - a, by product Gauss-Legendre integration (``kernels``): the
    Legendre coefficients c_j of g from its samples at z = x - h u_i, against
    the exact moments M_j of the kernel.  A sampler maps a 1-d array of
    points z to g(z).  Returns two (rows x points) arrays: the values and
    their estimates, the part of sum_j M_j c_j from the upper half of the
    coefficients, plus eps M_0 sum_j |c_j| of the first rule for the
    rounding of the samples: M_0 = 1/o is the kernel's integral and
    sum_j |c_j| bounds |g| on the interval.  Every Caputo quadrature and
    fractional integral in the package goes through here.

    The rows share the points, the rules, one moment call per rule and the
    kernel scale of each distinct order.  Rules double from 32 nodes up to
    min(cfg.nodes, 512).  Each rule calls each distinct sampler object once
    for all the points, in their order, while one of its rows refines, and a
    row takes only its own sampler's coefficients, so it equals its one-row
    call bit for bit.  Each (row, point) integral keeps the rule with its
    smallest estimate, and is done once that estimate is at most 1e-13 of
    sum_j |M_j c_j| or stops shrinking (the rounding floor).
    """
    mu = np.asarray(orders, dtype=np.float64)
    orders = mu.tolist()
    if mu.ndim != 1 or not orders or len(orders) != len(samplers):
        raise DomainError(f"need one order per sampler and at least one, got {orders!r}")
    for o in orders:
        if not o > 0.0:
            raise DomainError(f"integral order must be positive, got {o!r}")
    a = float(a)
    xs = np.array(xs, dtype=np.float64).reshape(-1)
    _check_interval(a, xs.tolist())
    h = xs - a
    # one power call per distinct order, as a Python float: NumPy takes sqrt
    # or square for a scalar exponent 0.5 or 2, which can differ in the last
    # bit from its pow over a broadcast array of exponents
    powers = {}
    for o in orders:
        if o not in powers:
            powers[o] = rgamma(o) * np.power(h, o)
    scale = np.array([powers[o] for o in orders])
    mu = mu - 1.0
    index = {}  # each distinct sampler's place, in the order of its first row
    which = [index.setdefault(id(s), len(index)) for s in samplers]
    funcs = list({id(s): s for s in samplers}.values())
    # each row takes its sampler's coefficients: a view unless rows share one
    pick = slice(None) if len(funcs) == len(samplers) else np.array(which)
    # per (row, point): the kept sum_j M_j c_j, its estimate, the last rule's
    # estimate, and whether the integral is still refining
    live = np.ones((len(orders), xs.size), dtype=bool)
    sums, best, last = np.full(live.shape, np.nan), np.inf, np.inf
    m = first = min(_FIRST_NODES, cfg.nodes)
    while m <= min(cfg.nodes, _MAX_NODES) and live.any():
        u, b = legendre_rule(m)
        zs = (xs[:, None] - h[:, None] * u).ravel()
        busy = {s for s, refining in zip(which, live.any(axis=1).tolist()) if refining}
        # the Legendre coefficients of each sampler at each point, taken only
        # for the samplers that are called (0 for the others); einsum, not @:
        # BLAS rounds a row differently by its place in the block, and a
        # point's value should not depend on the points beside it
        c = np.zeros((len(funcs), xs.size, m))
        for s, sample in enumerate(funcs):
            if s in busy:
                np.einsum("ji,pi->pj", b, np.reshape(sample(zs), (xs.size, m)), out=c[s])
        c = c[pick]
        moments = legendre_moments(m, mu)
        abs_m, abs_c = np.abs(moments), np.abs(c)
        est = np.einsum("rj,rpj->rp", abs_m[:, m // 2:], abs_c[:, :, m // 2:])
        if m == first:  # eps M_0 sum_j |c_j|, at least eps M_0 max |g|
            floor = abs_c.sum(axis=2) * (_EPS * abs_m[:, :1])
        take = live & (est < best)
        sums = np.where(take, np.einsum("rj,rpj->rp", moments, c), sums)
        best = np.where(take, est, best)
        live &= (est > _REL_TOL * np.einsum("rj,rpj->rp", abs_m, abs_c)) & (est < last)
        last = est
        m *= 2
    return scale * sums, scale * (best + floor)


def _add_taylor_terms(values, at_a, orders, ns, a, xs):
    """RL minus Caputo: add to the row of each order, of n = ns[i]
    derivatives, the RL power rule on the Taylor terms at_a[k]/k! (x - a)^k,
    k < n, at every x in ``xs``."""
    taylor = [(fk / math.factorial(k), k) for k, fk in enumerate(at_a)]
    for i, (n, o) in enumerate(zip(ns, orders)):
        if n > 0:
            values[i] += power_rule(taylor[:n], o, a, xs, KIND_RL)


def _check_finite(values, a, xs):
    """DomainError naming the first x where a row of ``values`` is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        _, col = np.argwhere(~finite)[0]
        raise DomainError(f"the derivative is not finite at x={xs[col]!r}, a={a!r}")


# ---------------------------------------------------------------------------
# the Taylor series of a smooth rest

# A rest of exponential terms takes its Taylor series about a at every point
# with rate * (x - a) <= _SERIES_REACH, rate the largest |lam + i w| of its
# terms, over _SERIES_TERMS terms: the smallest K with 2^K / K! < 2^-60.
_SERIES_REACH = 2.0
_SERIES_TERMS = 26


def _rate(rest):
    """The largest |lam + i w| of a rest of exponential terms; None when it
    holds a power term."""
    if any(isinstance(t, PowerTerm) for t in rest.terms):
        return None
    return max(math.hypot(t.lam, t.w) for t in rest.terms)


def _jets(rest, a, rate, top):
    """The scaled jets of a rest of exponential terms at a, from their closed
    forms: with p + i q = c (z / rate)^k, z = lam + i w, as k complex
    products, rest^(k)(a) / rate^k sums e^(lam a) (p cos - q sin)(w a + phi)
    over its cosines and e^(lam a) (q cos + p sin)(w a + phi) over its sines.
    Returns (scaled, bound, spread): ``scaled[k]`` is rest^(k)(a) / rate^k
    and ``bound[k]`` its majorant sum_t |c_t| e^(lam_t a) |z_t / rate|^k,
    k <= ``top``, non-increasing in k; ``spread`` is the largest |lam a| or
    |w a + phi|, the scale of the rounding of the terms' arguments.  A jet
    whose c e^(lam a) overflows is +-inf or nan.  OverflowError when an
    e^(lam a) overflows."""
    scaled, bound, spread = [0.0] * (top + 1), [0.0] * (top + 1), 0.0
    norm = rate or 1.0
    for t in rest.terms:
        lam, w = t.lam, t.w
        e, arg = math.exp(lam * a), w * a + t.phi
        s, c = math.sin(arg) * e, math.cos(arg) * e
        cp, cq = (s, c) if t.sine else (c, -s)  # the jet is p * cp + q * cq
        spread = max(spread, abs(lam * a), abs(arg))
        zr, zi, ratio = lam / norm, w / norm, math.hypot(lam, w) / norm
        p, q, size = t.c, 0.0, abs(t.c) * e
        for k in range(top + 1):
            scaled[k] += p * cp + q * cq
            bound[k] += size
            p, q, size = p * zr - q * zi, p * zi + q * zr, size * ratio
    return scaled, bound, spread


# the exponents 0 .. K of the powers of u in a series
_POWERS = np.arange(_SERIES_TERMS + 1.0)


def _series_rows(rest, rate, orders, a, xs, kind=KIND_CAPUTO):
    """Derivatives of a rest of exponential terms at the non-integer
    ``orders``, at every x in ``xs`` with rate * (x - a) <= _SERIES_REACH, as
    two (orders x points) arrays, the values and their estimates: the series

        sum_{k>=k0} rest^(k)(a) (x - a)^(k - alpha) / Gamma(k + 1 - alpha)

    over _SERIES_TERMS terms, k0 = max(ceil(alpha), 0) for Caputo and 0 for
    RL.  It is summed in u = rate (x - a): a row of coefficients per order,
    against the powers of u at each point, by elementwise products and a sum
    over each entry's own terms, so an entry equals its one-point, one-order
    value bit for bit.  The estimate is (K + 4 + spread) eps times the sum of
    the majorant's terms, which take |1/Gamma(k + 1 - alpha)|, plus twice its
    first omitted term, which bounds the tail: past term K each majorant
    term is at most u / (K + 1 + k0 - alpha) of the one before, below 1/13
    for Caputo and at most 1/2 for RL up to order K - 3.  DomainError, with
    no NumPy warning, when a jet or rate^k0 overflows or a value is not
    finite."""
    K = _SERIES_TERMS
    k0s = [max(math.ceil(o), 0) for o in orders] if kind == KIND_CAPUTO else [0] * len(orders)
    exps = [k0 - o for k0, o in zip(k0s, orders)]
    norm = rate or 1.0
    try:
        scaled, bound, spread = _jets(rest, a, rate, max(k0s) + K)
        scales = [norm**k0 for k0 in k0s]
    except OverflowError:
        raise DomainError(f"the derivative is not finite at x={xs[0]!r}, a={a!r}") from None
    # per order, the coefficients rest^(k0+j)(a) / (rate^j Gamma(b + j)), j < K,
    # b = k0 - alpha + 1, by the recurrence Gamma(b + j + 1) = (b + j) Gamma(b + j),
    # then those of the majorant, times the rounding factor, and twice its
    # term K, which bounds the tail
    values, bounds = [], []
    rounding = (K + 4 + spread) * _EPS
    for k0, e, s in zip(k0s, exps, scales):
        g, b = rgamma(e + 1.0) * s, e + 1.0
        row, major = [], []
        for j in range(K):
            row.append(scaled[k0 + j] * g)
            major.append(bound[k0 + j] * abs(g) * rounding)
            g /= b + j
        major.append(2.0 * bound[k0 + K] * abs(g))
        values.append(row + [0.0])
        bounds.append(major)
    # every product and partial sum below is at most 2^74 h^e times its row's
    # majorant sum (2^26 from u^j, 2^48 from 1 / rounding, rounding >= 30 eps):
    # past 2^900 NumPy's warnings are off, and ``_check_finite`` raises on a
    # value that is not finite
    try:
        top = max(sum(major) * (2.0 / rate if e > 0.0 else min(xs) - a) ** e
                  for major, e in zip(bounds, exps))
    except (OverflowError, ZeroDivisionError):
        top = math.inf
    h = np.array(xs) - a
    with contextlib.nullcontext() if top < 2.0**900 else np.errstate(all="ignore"):
        powers_u = np.power.outer(rate * h, _POWERS)
        # one power call per distinct exponent k0 - alpha, as a Python float
        powers = {}
        for e in exps:
            if e not in powers:
                powers[e] = np.power(h, e)
        sums = (np.array(values + bounds)[:, None, :] * powers_u).sum(axis=2)
        return sums.reshape(2, len(orders), h.size) * [powers[e] for e in exps]


# ---------------------------------------------------------------------------
# term-by-term routing


def derivative_many(f: FuncExpr, alpha, a: float, xs,
                    cfg: QuadratureConfig = QuadratureConfig(), kind: str = KIND_CAPUTO):
    """Caputo (or, for ``kind=KIND_RL``, RL) derivative of f at every x in
    ``xs``, as (values, est_errors, method).  ``alpha`` is one order, or a
    list of them: each of the three then holds one entry per order.  An RL
    order may be any real number, a negative one a fractional integral.

    The ``parts`` of split_powers(f, a) take ``power_rule``.  An integer
    order is the exact row rest^(n)(x) at every point.  At the fractional
    orders a rest of exponential terms takes its Taylor series
    (``_series_rows``) at every x with rate * (x - a) <= 2, rate its largest
    |lam + i w|; the rest's other points, and a rest with a power term, take
    one ``singular_integral`` call over all those orders, on the rest^(n) of
    each derivative count n, plus for RL the Taylor terms from the
    rest^(k)(a).  The estimates are the rest's (0 when it is empty or the
    order an integer).  The method is ClosedForm for an empty rest or an
    integer order; otherwise SpecialFunction when every point took the
    series, and when one took the integral Quadrature for Caputo and Bridge
    for RL.  DomainError when a value is not finite.
    """
    values, est_errors, methods = _derivative_rows(f, alpha, a, xs, cfg, kind)
    rows = values.tolist(), est_errors.tolist(), methods
    return rows if isinstance(alpha, (list, tuple)) else tuple(r[0] for r in rows)


def _derivative_rows(f, alpha, a, xs, cfg, kind=KIND_CAPUTO):
    """``derivative_many`` with one row per order, one order or many, as
    (orders x points) arrays of values and estimates, and the methods."""
    many = isinstance(alpha, (list, tuple))
    orders = [float(o) for o in (alpha if many else (alpha,))]
    if (not orders or not math.isfinite(sum(orders))
            or kind == KIND_CAPUTO and min(orders) <= 0.0):
        raise DomainError(f"need finite orders, positive for Caputo, got {alpha!r}")
    a = float(a)
    xs = [float(x) for x in xs]
    _check_interval(a, xs)
    parts, rest = split_powers(f, a)
    if rest.is_zero():
        values, est_errors = np.zeros((len(orders), len(xs))), np.zeros((len(orders), len(xs)))
        methods = [METHOD_CLOSED] * len(orders)
    else:
        values, est_errors, methods = _rest_rows(rest, orders, a, xs, cfg, kind)
    if parts:  # the rest's value first; with no power term it stands as it is
        values = values + [power_rule(parts, o, a, xs, kind) for o in orders]
        _check_finite(values, a, xs)
    return values, est_errors, methods


def _rest_rows(rest, orders, a, xs, cfg, kind):
    """The rows of ``_derivative_rows`` for a non-empty rest, with the
    methods.  An integer order n is the exact row rest^(n)(x) at every point.
    The other orders take the series at the points it reaches, and at the
    others one ``singular_integral`` call, on one sampler of rest^(n) per
    derivative count n, plus for RL the Taylor terms from the rest^(k)(a)."""
    ns = [math.ceil(o) if o > 0.0 else 0 for o in orders]
    exact, frac = [], []
    for i, (o, n) in enumerate(zip(orders, ns)):
        (exact if o == n else frac).append(i)
    rate = _rate(rest)
    near = [rate is not None and rate * (x - a) <= _SERIES_REACH for x in xs]
    far = [x for x, is_near in zip(xs, near) if not is_near] if frac and not all(near) else []
    if far:  # every n, and for RL the rest^(k)(a), k < max n, of the Taylor terms
        taken = range(max(ns) + 1) if kind == KIND_RL else set(ns)
    else:
        taken = {ns[i] for i in exact}
    derived = {n: derivative(rest, n) for n in sorted(taken)}
    exact_rows = [evaluate_many(derived[ns[i]], xs) for i in exact]
    frac_orders, frac_ns = orders, ns
    if exact:
        frac_orders, frac_ns = [orders[i] for i in frac], [ns[i] for i in frac]
    routes = []  # per route, its columns (None for all of them) and its rows there
    if frac and len(far) < len(xs):
        points = [x for x, is_near in zip(xs, near) if is_near] if far else xs
        routes.append((near if far else None,
                       _series_rows(rest, rate, frac_orders, a, points, kind)))
    if far:
        samplers = {n: partial(evaluate_many, derived[n]) for n in frac_ns}
        rows = singular_integral([samplers[n] for n in frac_ns],
                                 [n - o for n, o in zip(frac_ns, frac_orders)], a, far, cfg)
        if kind == KIND_RL:
            at_a = [evaluate(derived[k], a) for k in range(max(frac_ns))]
            _add_taylor_terms(rows[0], at_a, frac_orders, frac_ns, a, far)
        routes.append(([not is_near for is_near in near] if len(far) < len(xs) else None, rows))
    if not exact and len(routes) == 1:  # one route over every row and column
        values, est_errors = routes[0][1]
    else:
        values, est_errors = np.empty((len(orders), len(xs))), np.zeros((len(orders), len(xs)))
        for i, row in zip(exact, exact_rows):
            values[i] = row
        for cols, (route_values, route_est) in routes:
            at = frac if cols is None else np.ix_(frac, cols)
            values[at], est_errors[at] = route_values, route_est
    _check_finite(values, a, xs)
    methods = [METHOD_CLOSED if o == n else METHOD_SPECIAL if not far
               else METHOD_BRIDGE if kind == KIND_RL else METHOD_QUAD for o, n in zip(orders, ns)]
    return values, est_errors, methods


def caputo_derivative(f: FuncExpr, alpha, a: float, x: float,
                      cfg: QuadratureConfig = QuadratureConfig()) -> DerivResult:
    """Caputo derivative at x: the one-point case of ``derivative_many``,
    with its estimate when the method is Quadrature or SpecialFunction."""
    (value,), (est,), method = derivative_many(f, alpha, a, (x,), cfg)
    return DerivResult(value, KIND_CAPUTO, method, est if method in _ESTIMATED else None)


def rl_derivative(f: FuncExpr, alpha, a: float, x: float,
                  cfg: QuadratureConfig = QuadratureConfig()) -> DerivResult:
    """Riemann-Liouville derivative at x: the one-point case of
    ``derivative_many``, with its estimate when the method is
    SpecialFunction."""
    (value,), (est,), method = derivative_many(f, alpha, a, (x,), cfg, KIND_RL)
    return DerivResult(value, KIND_RL, method, est if method in _ESTIMATED else None)
