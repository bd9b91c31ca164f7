"""mpmath reference for the benchmark, independent of fraclim's code paths.

A function is a sum of sin / cos / exp / integer-power terms (all entire)
plus fractional powers centered at the base point a.  The entire part h is
kept as a sum of c (x-a)^m e^(s (x-a)) with complex s, so that products
stay in the same form and h^(k)(a) is exact.  Then

    D^alpha h(x) = sum_{k >= k0} h^(k)(a) (x - a)^(k - alpha) / Gamma(k + 1 - alpha)

with k0 = n = ceil(alpha) for Caputo and k0 = 0 for Riemann-Liouville.  A
fractional power c (x - a)^beta takes the power rule
c Gamma(beta + 1) / Gamma(beta + 1 - alpha) (x - a)^(beta - alpha).  The
x -> a verdict is the sign of the smallest exponent with a nonzero
coefficient.
"""

from __future__ import annotations

import math
import re

import mpmath as mp

mp.mp.dps = 25

ZERO, FINITE, DIVERGENT = "Zero", "Finite", "Divergent"
_TERM = re.compile(r"\s*(\w+)\s*\(([^()]*)\)\s*")
_FIELDS = {"pow": ("c", "x0", "beta"), "sin": ("c", "w", "phi"),
           "cos": ("c", "w", "phi"), "exp": ("c", "lam")}
_DEFAULTS = {"c": 1.0, "x0": 0.0, "phi": 0.0}
# Series terms are summed until they fall below this share of the largest.
_SERIES_EPS = mp.mpf(10) ** -22
# A Taylor coefficient this small against the sum of its terms' sizes is 0.
_ZERO_COEF = 1e-15


def parse(text: str) -> list:
    """'sin(c=1,w=2) + pow(beta=2)' -> [('sin', {'c': 1.0, ...}), ...]."""
    if text.strip() == "0":
        return []
    terms = []
    for piece in text.split("+"):
        m = _TERM.fullmatch(piece)
        if m is None or m.group(1) not in _FIELDS:
            raise ValueError(f"oracle cannot parse term {piece!r}")
        kw = dict(_DEFAULTS)
        for item in m.group(2).split(","):
            key, val = item.split("=")
            kw[key.strip()] = float(val)
        terms.append((m.group(1), {k: kw[k] for k in _FIELDS[m.group(1)]}))
    return terms


def _fractional(term) -> bool:
    name, p = term
    return name == "pow" and p["beta"] != math.floor(p["beta"])


def _atoms(term, a) -> list:
    """An entire term as [(c, m, s)] meaning sum c u^m e^(s u), u = x - a."""
    name, p = term
    c = mp.mpf(p["c"])
    if name == "exp":
        lam = mp.mpf(p["lam"])
        return [(c * mp.exp(lam * a), 0, lam)]
    if name == "pow":
        # (x - x0)^m = sum_j C(m, j) u^j (a - x0)^(m - j)
        m, d = int(p["beta"]), mp.mpf(a) - mp.mpf(p["x0"])
        return [(c * math.comb(m, j) * d ** (m - j), j, mp.mpf(0)) for j in range(m + 1)]
    # sin and cos as two complex exponentials e^(+-i(w x + phi))
    w = mp.mpf(p["w"])
    e = mp.expj(w * a + mp.mpf(p["phi"]))
    if name == "sin":
        return [(c * e / 2j, 0, 1j * w), (-c / e / 2j, 0, -1j * w)]
    return [(c * e / 2, 0, 1j * w), (c / e / 2, 0, -1j * w)]


class Func:
    """Exact Taylor data about a base point a: an entire part, kept as a sum
    of c u^m e^(s u) atoms (u = x - a), plus fractional powers c u^beta."""

    def __init__(self, text: str, a: float, atoms=()):
        self.a = mp.mpf(a)
        self.powers = []  # (c, beta) of fractional powers centered at a
        self.entire = []  # the parsed sin / cos / exp / integer-power terms
        self.atoms = list(atoms)
        for t in parse(text):
            if _fractional(t):
                if t[1]["x0"] != a:
                    raise ValueError("fractional power must be centered at a")
                self.powers.append((mp.mpf(t[1]["c"]), mp.mpf(t[1]["beta"])))
            else:
                self.entire.append(t)
                self.atoms += _atoms(t, self.a)
        self._coef = []
        self._pow = [mp.mpc(1)] * len(self.atoms)  # s^(j - m) of each atom

    def times(self, other: "Func") -> "Func":
        """The product of two functions without fractional powers."""
        if self.powers or other.powers:
            raise ValueError("products take entire factors only")
        atoms = [(c1 * c2, m1 + m2, s1 + s2)
                 for c1, m1, s1 in self.atoms for c2, m2, s2 in other.atoms]
        return Func("0", self.a, atoms)

    def deriv_at_a(self, k: int):
        """h^(k)(a) of the entire part, exact to the working precision."""
        while len(self._coef) <= k:
            j = len(self._coef)
            total = mp.mpc(0)
            for i, (c, m, s) in enumerate(self.atoms):
                if j >= m:
                    total += c * math.perm(j, m) * self._pow[i]
                    self._pow[i] *= s
            self._coef.append(total.real)
        return self._coef[k]

    def is_zero_at_a(self, k: int) -> bool:
        """True when h^(k)(a) is zero up to rounding of its own atoms."""
        bound = mp.fsum(abs(c * math.perm(k, m) * s ** (k - m))
                        for c, m, s in self.atoms if k >= m)
        return abs(self.deriv_at_a(k)) <= _ZERO_COEF * bound

    def value(self, x):
        """h(x), fractional powers included."""
        u = mp.mpf(x) - self.a
        total = mp.fsum(c * u**m * mp.exp(s * u) for c, m, s in self.atoms).real
        for c, beta in self.powers:
            total += c * u**beta
        return total

    def deriv(self, alpha: float, xs, caputo: bool) -> list:
        """Caputo or RL derivative of order alpha > 0 at each x > a."""
        return series_values(self.deriv_at_a, self.powers, alpha, self.a, xs, caputo)


def series_values(coef, powers, alpha, a, xs, caputo: bool) -> list:
    """sum_{k>=k0} coef(k) u^(k-alpha)/Gamma(k+1-alpha) + power terms at each
    u = x - a, the series summed until its terms stay negligible."""
    alpha = mp.mpf(alpha)
    k0 = int(math.ceil(alpha)) if caputo else 0
    b = []  # coef(k) / Gamma(k + 1 - alpha), shared by every point
    rg = mp.rgamma(k0 + 1 - alpha)  # 1 / Gamma(k + 1 - alpha) for the next k
    out = []
    for x in xs:
        u = mp.mpf(x) - a
        power = u ** (k0 - alpha)
        total = biggest = mp.mpf(0)
        quiet, k = 0, k0
        # Stop after three negligible terms; an all-zero series after 60.
        while quiet < 3 and (biggest or k < k0 + 60):
            if len(b) <= k - k0:
                b.append(coef(k) * rg)
                rg /= k + 1 - alpha
            term = b[k - k0] * power
            total += term
            if abs(term) > biggest:
                biggest = abs(term)
            quiet = quiet + 1 if biggest and abs(term) <= _SERIES_EPS * biggest else 0
            power *= u
            k += 1
            if k > 400:
                raise ArithmeticError("oracle series did not converge")
        for c, beta in powers:
            total += c * mp.gamma(beta + 1) * mp.rgamma(beta + 1 - alpha) * u ** (beta - alpha)
        out.append(total)
    return out


def verdict(func: Func, alpha: float):
    """(kind, limit, exponent) of lim_{x->a} Caputo D^alpha f: limit is None
    unless Finite, exponent is the leading power of x - a (None if f's
    derivative vanishes identically)."""
    alpha = mp.mpf(alpha)
    n = int(math.ceil(alpha))
    exponents = {}
    for k in range(n, n + 60):
        if not func.is_zero_at_a(k):
            exponents[k - alpha] = func.deriv_at_a(k) * mp.rgamma(k + 1 - alpha)
            break
    for c, beta in func.powers:
        coef = c * mp.gamma(beta + 1) * mp.rgamma(beta + 1 - alpha)
        if coef != 0:
            exponents[beta - alpha] = exponents.get(beta - alpha, 0) + coef
    if not exponents:
        return ZERO, None, None
    low = min(exponents)
    if low > 0:
        return ZERO, None, float(low)
    if low == 0:
        return FINITE, float(exponents[low]), 0.0
    return DIVERGENT, None, float(low)


def self_check() -> list:
    """Known closed forms the oracle must reproduce; returns failed names."""
    failed = []

    def close(name, got, want, tol=1e-20):
        if not abs(got - want) <= tol * max(1, abs(want)):
            failed.append(name)

    # Power rule: Caputo D^0.7 (x - 0.5)^3 = Gamma(4)/Gamma(3.3) (x - 0.5)^2.3.
    cube = Func("pow(c=1,x0=0.5,beta=3)", 0.5)
    close("power rule", cube.deriv(0.7, [1.25], True)[0],
          mp.gamma(4) / mp.gamma(3.3) * mp.mpf(0.75) ** 2.3, tol=1e-14)
    # Fractional power: RL D^0.5 x^1.5 = Gamma(2.5)/Gamma(2) x.
    close("fractional power", Func("pow(c=1,x0=0,beta=1.5)", 0.0).deriv(0.5, [2.0], False)[0],
          mp.gamma(2.5) * 2)
    # Caputo D^0.5 e^x at a = 0 is e^x erf(sqrt x).
    ex = Func("exp(c=1,lam=1)", 0.0)
    close("caputo exp", ex.deriv(0.5, [0.8], True)[0], mp.exp(0.8) * mp.erf(mp.sqrt(0.8)))
    # RL D^0.5 (e^x e^x) at x = 1, a = 0 is 1/sqrt(pi) + sqrt(2) e^2 erf(sqrt 2),
    # quoted to 8 decimals as 10.53842870 (last digit rounded up).
    exp2 = ex.times(ex).deriv(0.5, [1.0], False)[0]
    close("rl exp*exp", exp2, 1 / mp.sqrt(mp.pi) + mp.sqrt(2) * mp.e**2 * mp.erf(mp.sqrt(2)))
    close("rl exp*exp quoted", exp2, mp.mpf("10.53842870"), tol=5e-9)
    # Dichotomy: sin at a = 0 is Finite(1) at order 1, Zero at order 0.99.
    sine = Func("sin(c=1,w=1,phi=0)", 0.0)
    if verdict(sine, 1.0)[:2] != (FINITE, 1.0) or verdict(sine, 0.99)[0] != ZERO:
        failed.append("dichotomy")
    return failed
