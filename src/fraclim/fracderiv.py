"""Left-sided Caputo and Riemann-Liouville fractional derivatives.

One route computes both, for many orders and points: ``derivative_many``.
It splits f (``split_powers``) into the power terms centered at the base
point, which take the exact power rule (``power_rule``), and a rest, whose
derivatives ``caputo_from_chain`` takes through the singular integral

    (1 / Gamma(n - alpha)) * integral_a^x (x - z)^(n - alpha - 1) f^(n)(z) dz.

``singular_integral`` is the one quadrature core under it, product
Gauss-Legendre integration with one integral per row: each row pairs an
integrand with an order, over points all the rows share, with an error
estimate from the same samples; it is also the package's fractional
integral.  One operator application is one call of it, one row per order
that takes an integral, on the f^(n) of that order's derivative count n.  The
rows stay float64 arrays up to ``derivative_many`` and the reports.  The
Riemann-Liouville operator is the Caputo one plus the RL power rule on the
Taylor terms f^(k)(a)/k! (x - a)^k, k < n:

    RL^alpha f = Caputo^alpha f
                 + sum_{k=0}^{n-1} f^(k)(a) (x - a)^(k - alpha) / Gamma(k + 1 - alpha).

The 1/Gamma(k+1-alpha) come from the power rule itself; the superficially
plausible 1/k! variant fails it.  At a negative order n = 0: a fractional
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import DomainError
from .funcmodel import FuncExpr, PowerTerm, derivative_chain, evaluate, evaluate_many
from .kernels import legendre_moments, legendre_rule
from .specfun import FracOrder, as_order, gamma, rgamma

__all__ = [
    "DerivResult",
    "QuadratureConfig",
    "caputo_derivative",
    "caputo_from_chain",
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


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution of the singular integral: ``nodes`` caps the Gauss-Legendre
    rules of ``singular_integral``, which double from 32 nodes up to
    min(nodes, 512)."""

    nodes: int = 512

    def __post_init__(self):
        if self.nodes != int(self.nodes) or self.nodes < 2:
            raise DomainError(f"nodes must be an integer >= 2, got {self.nodes!r}")


@dataclass(frozen=True)
class DerivResult:
    """A single derivative evaluation.

    ``est_error`` is present exactly when the method is Quadrature: the
    estimate of ``singular_integral`` for the terms of f that went through
    it, from the upper half of their Legendre coefficients.
    """

    value: float
    kind: str
    method: str
    est_error: float | None = None

    def __post_init__(self):
        if (self.est_error is not None) != (self.method == METHOD_QUAD):
            raise ValueError("est_error must be present iff method is Quadrature")


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
    ``rest`` is the FuncExpr of every other term."""
    parts, rest = [], []
    for t in f.terms:
        if isinstance(t, PowerTerm) and (t.beta == 0.0 or t.x0 == a):
            parts.append((t.c, t.beta))
        else:
            rest.append(t)
    return parts, FuncExpr(rest)


# ---------------------------------------------------------------------------
# quadrature

# Rules double from _FIRST_NODES nodes up to min(cfg.nodes, _MAX_NODES); an
# integral is done once its estimate is at most _REL_TOL of its size.
_FIRST_NODES = 32
_MAX_NODES = 512
_REL_TOL = 1e-13


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
    coefficients.  Every Caputo quadrature and fractional integral in the
    package goes through here.

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
    m = min(_FIRST_NODES, cfg.nodes)
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
        take = live & (est < best)
        sums = np.where(take, np.einsum("rj,rpj->rp", moments, c), sums)
        best = np.where(take, est, best)
        live &= (est > _REL_TOL * np.einsum("rj,rpj->rp", abs_m, abs_c)) & (est < last)
        last = est
        m *= 2
    return scale * sums, scale * best


def caputo_from_chain(chain, orders, a: float, xs,
                      cfg: QuadratureConfig = QuadratureConfig(), at_a=None):
    """Caputo derivatives of g at every order in ``orders`` and x in ``xs``,
    as two (orders x points) arrays, the values and their estimates;
    ``chain[k]`` maps a 1-d array of points z to g^(k)(z).  An order o takes
    n = max(ceil(o), 0) derivatives, and the integral of order n - o on
    chain[n]: one ``singular_integral`` call integrates every non-integer
    order, one row each, with the rows of each n together in the order the n
    first appear.  o == n is the row chain[n](xs), exact, with estimate 0.
    Given ``at_a``, the g^(k)(a), a row gains the RL power rule on the Taylor
    terms g^(k)(a)/k! (x - a)^k, k < n, and is the RL derivative; a negative
    order is a fractional integral.  DomainError when a value is not finite."""
    a = float(a)
    xs = np.array(xs, dtype=np.float64).reshape(-1)
    points = xs.tolist()
    _check_interval(a, points)
    ns = [math.ceil(o) if o > 0.0 else 0 for o in orders]
    groups = {}  # n -> the indices of the orders that take n derivatives
    for i, n in enumerate(ns):
        groups.setdefault(n, []).append(i)
    quad = [i for rows in groups.values() for i in rows if orders[i] != ns[i]]
    # the rows of the integrals: a slice, which copies faster, when they are all the rows
    into = slice(None) if quad == list(range(len(orders))) else quad
    values, est_errors = np.empty((len(orders), xs.size)), np.zeros((len(orders), xs.size))
    # chain[n] is sampled in the order of the groups, with the integrals of
    # every group at the first group that has one
    for n, rows in groups.items():
        if quad and n == ns[quad[0]]:
            values[into], est_errors[into] = singular_integral(
                [chain[ns[i]] for i in quad], [ns[i] - orders[i] for i in quad], a, xs, cfg)
        exact = [i for i in rows if orders[i] == n]
        if exact:
            values[exact] = chain[n](xs)
    if at_a is not None:
        taylor = [(fk / math.factorial(k), k) for k, fk in enumerate(at_a)]
        for i in (i for rows in groups.values() for i in rows if ns[i] > 0):
            values[i] += power_rule(taylor[:ns[i]], orders[i], a, points, KIND_RL)
    _check_finite(values, a, points)
    return values, est_errors


def _check_finite(values, a, xs):
    """DomainError naming the first x where a row of ``values`` is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        _, col = np.argwhere(~finite)[0]
        raise DomainError(f"the derivative is not finite at x={xs[col]!r}, a={a!r}")


# ---------------------------------------------------------------------------
# term-by-term routing


def derivative_many(f: FuncExpr, alpha, a: float, xs,
                    cfg: QuadratureConfig = QuadratureConfig(), kind: str = KIND_CAPUTO):
    """Caputo (or, for ``kind=KIND_RL``, RL) derivative of f at every x in
    ``xs``, as (values, est_errors, method).  ``alpha`` is one order, or a
    list of them: each of the three then holds one entry per order.  An RL
    order may be any real number, a negative one a fractional integral.

    The ``parts`` of split_powers(f, a) take ``power_rule``; the rest is one
    ``caputo_from_chain`` call over all the orders and points, on the chain
    rest, rest', ..., given the rest^(k)(a) for RL.  The estimates are the
    rest's (0 when it is empty or the order an integer).  The method is
    ClosedForm for an empty rest, or Caputo at an integer order; otherwise
    Quadrature for Caputo and Bridge for RL.  DomainError when a value is
    not finite.
    """
    values, est_errors, methods, _ = _derivative_rows(f, alpha, a, xs, cfg, kind)
    rows = values.tolist(), est_errors.tolist(), methods
    return rows if isinstance(alpha, (list, tuple)) else tuple(r[0] for r in rows)


def _derivative_rows(f, alpha, a, xs, cfg, kind=KIND_CAPUTO):
    """``derivative_many`` with one row per order, one order or many, as
    (orders x points) arrays of values and estimates, the methods, and the
    chain f, f', ... it derived: the rest's if f is all rest, else [f]."""
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
        chain = [f]
    else:
        chain = derivative_chain([rest], max(math.ceil(max(orders)), 0))
        at_a = [evaluate(g, a) for g in chain[:-1]] if kind == KIND_RL else None
        values, est_errors = caputo_from_chain([partial(evaluate_many, g) for g in chain],
                                               orders, a, xs, cfg, at_a)
        methods = ([METHOD_BRIDGE] * len(orders) if kind == KIND_RL else
                   [METHOD_CLOSED if o.is_integer() else METHOD_QUAD for o in orders])
    if parts:  # the rest's value first; with no power term it stands as it is
        values = values + [power_rule(parts, o, a, xs, kind) for o in orders]
        _check_finite(values, a, xs)
    return values, est_errors, methods, [f] if parts else chain


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
    (value,), _, method = derivative_many(f, alpha, a, (x,), cfg, KIND_RL)
    return DerivResult(value, KIND_RL, method)
