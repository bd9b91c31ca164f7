"""Reference routes shared by the operator tests: the Caputo derivative by
quadrature of every term, and the Taylor terms that RL adds to Caputo."""

import math

from fraclim.fracderiv import KIND_RL, QuadratureConfig, power_rule, singular_integral
from fraclim.funcmodel import derivative, evaluate_many


def quadrature(f, order, a, x, cfg=QuadratureConfig()):
    """Caputo derivative of f at x by quadrature of the sampled f^(n), for
    every term, where caputo_derivative would take the power terms centered at
    a by the power rule: the singular integral of order n - alpha of f^(n)."""
    fn = derivative(f, order.n)
    ((value,),), _ = singular_integral([lambda zs: evaluate_many(fn, zs)],
                                       [order.n - order.alpha], a, (x,), cfg)
    return float(value)


def boundary_sum(at_a, order, a, x):
    """RL minus Caputo at x for a function with f^(k)(a) = at_a[k], k < n:
    the RL power rule on its Taylor terms f^(k)(a)/k! (x - a)^k."""
    taylor = [(fk / math.factorial(k), k) for k, fk in enumerate(at_a)]
    return power_rule(taylor, order.alpha, a, (x,), KIND_RL)[0]
