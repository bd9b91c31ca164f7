"""Exact function model: finite sums of power, sine, cosine and exponential
terms.

The class is closed under integer-order differentiation, which is exactly
what the fractional operators need: the singular-kernel integral consumes
the analytic n-th derivative, never a finite difference.  Expressions keep a
stable canonical form (like terms collected, zero terms pruned, deterministic
term order) so equality tests are meaningful.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ExprParseError, UnsupportedProduct

__all__ = [
    "CosTerm",
    "ExpTerm",
    "FuncExpr",
    "PowerTerm",
    "SinTerm",
    "TaylorPoly",
    "derivative",
    "derivative_chain",
    "evaluate",
    "evaluate_many",
    "format_expr",
    "parse_expr",
    "poly_product",
    "polynomial_degree",
    "taylor_poly",
]


def _is_int(v) -> bool:
    return v == math.floor(v)


@dataclass(frozen=True)
class PowerTerm:
    """c * (x - x0)**beta with beta > -1 (kernel-integrable exponents only)."""

    c: float
    x0: float
    beta: float

    def __post_init__(self):
        if not self.beta > -1.0:
            raise DomainError(f"power exponent must exceed -1, got {self.beta!r}")


@dataclass(frozen=True)
class SinTerm:
    """c * sin(omega * x + phi)"""

    c: float
    omega: float
    phi: float = 0.0


@dataclass(frozen=True)
class CosTerm:
    """c * cos(omega * x + phi)"""

    c: float
    omega: float
    phi: float = 0.0


@dataclass(frozen=True)
class ExpTerm:
    """c * exp(rate * x)"""

    c: float
    rate: float


def _term_key(t):
    if isinstance(t, PowerTerm):
        return (0, t.x0, t.beta)
    if isinstance(t, SinTerm):
        return (1, t.omega, t.phi)
    if isinstance(t, CosTerm):
        return (2, t.omega, t.phi)
    if isinstance(t, ExpTerm):
        return (3, t.rate, 0.0)
    raise TypeError(f"not a term: {t!r}")


def _rebuild(key, c):
    kind = key[0]
    if kind == 0:
        return PowerTerm(c, key[1], key[2])
    if kind == 1:
        return SinTerm(c, key[1], key[2])
    if kind == 2:
        return CosTerm(c, key[1], key[2])
    return ExpTerm(c, key[1])


class FuncExpr:
    """Immutable sum of terms, stored in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for t in terms:
            k = _term_key(t)
            acc[k] = acc.get(k, 0.0) + float(t.c)
        self.terms = tuple(_rebuild(k, c) for k, c in sorted(acc.items()) if c != 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FuncExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        if isinstance(other, FuncExpr):
            return FuncExpr(self.terms + other.terms)
        return NotImplemented

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return FuncExpr(tuple(_rebuild(_term_key(t), t.c * s) for t in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"FuncExpr({format_expr(self)!r})"


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: FuncExpr, x: float) -> float:
    """Value of f at a scalar point; DomainError outside a term's domain."""
    x = float(x)
    total = 0.0
    for t in f.terms:
        total += _term_value(t, x)
    return total


def _term_value(t, x):
    if isinstance(t, PowerTerm):
        u = x - t.x0
        if _is_int(t.beta):
            return t.c * u ** int(t.beta)
        if u < 0.0:
            raise DomainError(
                f"(x - x0)**{t.beta} needs x >= x0, got x={x!r} with x0={t.x0!r}"
            )
        if u == 0.0 and t.beta < 0.0:
            raise DomainError(f"(x - x0)**{t.beta} is singular at x = x0 = {t.x0!r}")
        return t.c * u ** t.beta
    if isinstance(t, SinTerm):
        return t.c * math.sin(t.omega * x + t.phi)
    if isinstance(t, CosTerm):
        return t.c * math.cos(t.omega * x + t.phi)
    return t.c * math.exp(t.rate * x)


def evaluate_many(f: FuncExpr, xs) -> np.ndarray:
    """Vectorized ``evaluate`` over a 1-d array of points."""
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros_like(xs)
    for t in f.terms:
        if isinstance(t, PowerTerm):
            u = xs - t.x0
            if _is_int(t.beta):
                out += t.c * u ** int(t.beta)
            else:
                if np.any(u < 0.0):
                    raise DomainError(
                        f"(x - x0)**{t.beta} needs x >= x0 everywhere, x0={t.x0!r}"
                    )
                if t.beta < 0.0 and np.any(u == 0.0):
                    raise DomainError(
                        f"(x - x0)**{t.beta} is singular at x = x0 = {t.x0!r}"
                    )
                out += t.c * np.power(u, t.beta)
        elif isinstance(t, SinTerm):
            out += t.c * np.sin(t.omega * xs + t.phi)
        elif isinstance(t, CosTerm):
            out += t.c * np.cos(t.omega * xs + t.phi)
        else:
            out += t.c * np.exp(t.rate * xs)
    return out


# ---------------------------------------------------------------------------
# differentiation


def derivative(f: FuncExpr, k: int) -> FuncExpr:
    """Exact k-th derivative, staying inside the representable class.

    Raises DomainError if a fractional power would leave the class, i.e. a
    resulting exponent would drop to -1 or below.
    """
    if k != int(k) or k < 0:
        raise DomainError(f"derivative order must be a non-negative integer, got {k!r}")
    g = f
    for _ in range(int(k)):
        g = _d1(g)
    return g


def derivative_chain(chain, top: int) -> list:
    """The list [f, f', ..., f^(top)] from its first entries ``chain``, one
    derivative step apart."""
    chain = list(chain)
    while len(chain) <= top:
        chain.append(derivative(chain[-1], 1))
    return chain


def _d1(f: FuncExpr) -> FuncExpr:
    out = []
    for t in f.terms:
        if isinstance(t, PowerTerm):
            if _is_int(t.beta):
                if t.beta == 0:
                    continue
                out.append(PowerTerm(t.c * t.beta, t.x0, t.beta - 1.0))
            else:
                if t.beta - 1.0 <= -1.0:
                    raise DomainError(
                        f"derivative leaves the representable class: exponent "
                        f"{t.beta - 1.0} <= -1"
                    )
                out.append(PowerTerm(t.c * t.beta, t.x0, t.beta - 1.0))
        elif isinstance(t, SinTerm):
            out.append(CosTerm(t.c * t.omega, t.omega, t.phi))
        elif isinstance(t, CosTerm):
            out.append(SinTerm(-t.c * t.omega, t.omega, t.phi))
        else:
            out.append(ExpTerm(t.c * t.rate, t.rate))
    return FuncExpr(out)


# ---------------------------------------------------------------------------
# Taylor polynomials and polynomial products


@dataclass(frozen=True)
class TaylorPoly:
    """Truncated Taylor polynomial: coeffs[k] = f^(k)(center) / k!."""

    center: float
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: float) -> float:
        u = float(x) - self.center
        total = 0.0
        for c in reversed(self.coeffs):
            total = total * u + c
        return total

    def to_func_expr(self) -> FuncExpr:
        return FuncExpr(
            tuple(PowerTerm(c, self.center, float(k)) for k, c in enumerate(self.coeffs))
        )


def taylor_poly(f: FuncExpr, a: float, n: int) -> TaylorPoly:
    """Degree n-1 Taylor polynomial of f about a (exactly n coefficients)."""
    if n != int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    coeffs = []
    g = f
    for k in range(n):
        coeffs.append(evaluate(g, a) / math.factorial(k))
        if k + 1 < n:
            g = _d1(g)
    return TaylorPoly(float(a), tuple(coeffs))


def polynomial_degree(f: FuncExpr):
    """Highest exponent if f is an integer-power polynomial, else None."""
    deg = 0
    for t in f.terms:
        if not isinstance(t, PowerTerm) or not _is_int(t.beta):
            return None
        deg = max(deg, int(t.beta))
    return deg


def poly_product(f: FuncExpr, g: FuncExpr) -> FuncExpr:
    """Expanded product of two integer-power polynomials sharing one center.

    Constant terms are center-agnostic; every non-constant term of both
    factors must carry the same x0, otherwise UnsupportedProduct is raised.
    """
    if f.is_zero() or g.is_zero():
        return FuncExpr()
    fa = _poly_parts(f, "left factor")
    ga = _poly_parts(g, "right factor")
    centers = {x0 for x0, b, _ in fa + ga if b != 0}
    if len(centers) > 1:
        raise UnsupportedProduct(f"factors use different centers: {sorted(centers)}")
    x0 = centers.pop() if centers else 0.0
    prod = {}
    for _, bf, cf in fa:
        for _, bg, cg in ga:
            k = bf + bg
            prod[k] = prod.get(k, 0.0) + cf * cg
    return FuncExpr(tuple(PowerTerm(c, x0, float(k)) for k, c in prod.items()))


def _poly_parts(f, which):
    parts = []
    for t in f.terms:
        if not isinstance(t, PowerTerm) or not _is_int(t.beta):
            raise UnsupportedProduct(
                f"{which} is not an integer-power polynomial: {format_expr(f)}"
            )
        parts.append((t.x0, int(t.beta), t.c))
    return parts


# ---------------------------------------------------------------------------
# text grammar:  pow(c=1,x0=0,beta=2.5) + sin(c=1,w=2,phi=0)

_TERM_FIELDS = {
    "pow": (("c", 1.0), ("x0", 0.0), ("beta", None)),
    "sin": (("c", 1.0), ("w", None), ("phi", 0.0)),
    "cos": (("c", 1.0), ("w", None), ("phi", 0.0)),
    "exp": (("c", 1.0), ("lam", None)),
}

_TERM_RE = re.compile(r"\s*([A-Za-z]+)\s*\((.*)\)\s*", flags=re.S)


def parse_expr(text: str, field: str | None = None) -> FuncExpr:
    """Parse the term grammar into a FuncExpr.

    ``field`` names the input in error messages (a CLI flag, a corpus line).
    The literal "0" denotes the zero function.
    """

    def fail(msg):
        raise ExprParseError(msg, field=field)

    s = text.strip()
    if not s:
        fail("empty expression")
    if s == "0":
        return FuncExpr()
    terms = []
    for piece in _split_terms(s, fail):
        m = _TERM_RE.fullmatch(piece)
        if m is None:
            fail(f"term {piece.strip()!r} is not of the form name(key=value,...)")
        name, body = m.group(1).lower(), m.group(2)
        spec = _TERM_FIELDS.get(name)
        if spec is None:
            fail(f"unknown term {name!r}; expected one of pow, sin, cos, exp")
        kw = dict(spec)
        seen = set()
        if body.strip():
            for item in body.split(","):
                if "=" not in item:
                    fail(f"term {name!r}: expected key=value, got {item.strip()!r}")
                key, val = item.split("=", 1)
                key = key.strip()
                if key not in kw:
                    fail(f"term {name!r}: unknown parameter {key!r}")
                if key in seen:
                    fail(f"term {name!r}: duplicate parameter {key!r}")
                seen.add(key)
                try:
                    kw[key] = float(val.strip())
                except ValueError:
                    fail(f"term {name!r}: bad number for {key!r}: {val.strip()!r}")
                if not math.isfinite(kw[key]):
                    fail(f"term {name!r}: {key!r} must be finite, got {val.strip()!r}")
        for key, val in kw.items():
            if val is None:
                fail(f"term {name!r}: missing parameter {key!r}")
        try:
            terms.append(_make_term(name, kw))
        except DomainError as exc:
            fail(str(exc))
    return FuncExpr(terms)


def _make_term(name, kw):
    if name == "pow":
        return PowerTerm(kw["c"], kw["x0"], kw["beta"])
    if name == "sin":
        return SinTerm(kw["c"], kw["w"], kw["phi"])
    if name == "cos":
        return CosTerm(kw["c"], kw["w"], kw["phi"])
    return ExpTerm(kw["c"], kw["lam"])


def _split_terms(s, fail):
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                fail("unbalanced parentheses")
        elif ch == "+" and depth == 0:
            pieces.append(s[start:i])
            start = i + 1
    if depth != 0:
        fail("unbalanced parentheses")
    pieces.append(s[start:])
    for p in pieces:
        if not p.strip():
            fail("empty term between '+' separators")
    return pieces


def format_expr(f: FuncExpr) -> str:
    """Canonical text form; ``parse_expr(format_expr(f)) == f``."""
    if not f.terms:
        return "0"
    chunks = []
    for t in f.terms:
        if isinstance(t, PowerTerm):
            chunks.append(f"pow(c={t.c!r},x0={t.x0!r},beta={t.beta!r})")
        elif isinstance(t, SinTerm):
            chunks.append(f"sin(c={t.c!r},w={t.omega!r},phi={t.phi!r})")
        elif isinstance(t, CosTerm):
            chunks.append(f"cos(c={t.c!r},w={t.omega!r},phi={t.phi!r})")
        else:
            chunks.append(f"exp(c={t.c!r},lam={t.rate!r})")
    return " + ".join(chunks)
