"""Gamma-function machinery for fractional-order coefficients.

Everything here is scalar, pure and stateless.  ``gamma`` is ``math.gamma``
with a PoleError at the poles and a signed infinity on overflow; ``rgamma``
extends the reciprocal continuously through the poles (where it is exactly
zero), which is what makes the power-rule prefactors vanish in the right
places without special-casing every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exceptions import DomainError, PoleError

__all__ = ["FracOrder", "as_order", "frac_binomial", "gamma", "rgamma"]


@dataclass(frozen=True)
class FracOrder:
    """A positive derivative order alpha together with its integer ceiling.

    ``n`` is the unique integer with n - 1 < alpha <= n, so ``n`` is the
    number of classical derivatives consumed by the Caputo form and
    ``is_integer`` flags the boundary case alpha == n.
    """

    alpha: float
    n: int = field(init=False)
    is_integer: bool = field(init=False)

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0.0:
            raise DomainError(f"order must be a positive finite real, got {self.alpha!r}")
        n = math.ceil(a)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "is_integer", a == n)


def as_order(alpha) -> FracOrder:
    """Coerce a float (or FracOrder) to a FracOrder."""
    return alpha if isinstance(alpha, FracOrder) else FracOrder(float(alpha))


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles.

    Raises
    ------
    PoleError
        If x is a non-positive integer (exact test on the stored value,
        not an epsilon band).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        # past x ~ 171.6, or within a subnormal of the pole at 0
        return math.copysign(math.inf, x)


def rgamma(x: float) -> float:
    """1/Gamma(x), defined for all real x; exactly 0.0 at the poles and where
    Gamma overflows, a signed infinity where it underflows to zero (x below
    about -178)."""
    x = float(x)
    if _is_nonpositive_integer(x):
        return 0.0
    g = gamma(x)
    if math.isinf(g):
        return 0.0
    if g == 0.0:
        return math.copysign(math.inf, g)
    return 1.0 / g


def frac_binomial(alpha: float, k: int, halved: bool = False) -> float:
    """Generalized binomial coefficient Gamma(a+1) / (Gamma(a-k+1) Gamma(k+1)).

    Computed as the product prod_{j<k} (alpha - j) / (j + 1), which stays
    finite where the gamma quotient would be inf * 0.  For integer alpha this
    reproduces the ordinary binomial coefficient exactly and vanishes for
    k > alpha.  With ``halved=True`` the value carries the extra factor 1/2
    used by the symmetrized product rule.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    if k != int(k) or k < 0:
        raise DomainError(f"k must be a non-negative integer, got {k!r}")
    value = 1.0
    for j in range(int(k)):
        value = value * (alpha - j) / (j + 1)
    return 0.5 * value if halved else value
