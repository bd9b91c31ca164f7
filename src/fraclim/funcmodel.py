"""Exact function model: finite sums of power terms c (x - x0)^beta and
exponential terms c e^(lam x) cos(w x + phi) or c e^(lam x) sin(w x + phi).

An exponential term is the real or imaginary part of c e^(i phi) e^(z x),
z = lam + i w, whose k-th derivative is c z^k e^(i phi) e^(z x): the class is
closed under integer-order differentiation, which is exactly what the
fractional operators need, as the singular-kernel integral consumes the
analytic n-th derivative, never a finite difference.  Expressions keep a
stable canonical form (like terms collected, zero terms pruned, deterministic
term order) so equality tests are meaningful.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ExprParseError, UnsupportedProduct
from .specfun import _as_count

__all__ = [
    "ExpTerm",
    "FuncExpr",
    "PowerTerm",
    "derivative",
    "evaluate",
    "evaluate_many",
    "format_expr",
    "parse_expr",
    "poly_product",
    "polynomial_degree",
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


@dataclass(frozen=True, slots=True)
class ExpTerm:
    """c * exp(lam * x) * cos(w * x + phi), or sin(w * x + phi) when ``sine``
    is set: the real or the imaginary part of c e^(i phi) e^((lam + i w) x).
    The grammar's sin and cos are its terms with lam = 0 by default, and exp
    its cosine with w = phi = 0."""

    c: float
    lam: float = 0.0
    w: float = 0.0
    phi: float = 0.0
    sine: bool = False


def _is_plain_exp(t):
    """Whether an ExpTerm is a plain exponential c e^(lam x): w = phi = 0, no sine."""
    return not (t.sine or t.w or t.phi)


def _term_key(t):
    if isinstance(t, PowerTerm):
        return (0, t.x0, t.beta)
    # the sines, then the cosines, then the plain exponentials
    if _is_plain_exp(t):
        return (3, t.lam)
    return (1 if t.sine else 2, t.w, t.phi, t.lam)


def _rebuild(t, c):
    """The term t with coefficient c."""
    if isinstance(t, PowerTerm):
        return PowerTerm(c, t.x0, t.beta)
    return ExpTerm(c, t.lam, t.w, t.phi, t.sine)


class FuncExpr:
    """Immutable sum of terms, stored in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}  # key -> its term, rebuilt where like terms merge or c is no float
        for t in terms:
            k = _term_key(t)
            if k in acc:
                acc[k] = _rebuild(acc[k], acc[k].c + float(t.c))
            else:
                acc[k] = t if type(t.c) is float else _rebuild(t, float(t.c))
        self.terms = tuple(t for _, t in sorted(acc.items()) if t.c != 0.0)

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
            return FuncExpr(tuple(_rebuild(t, t.c * s) for t in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"FuncExpr({format_expr(self)!r})"


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: FuncExpr, x: float) -> float:
    """Value of f at a scalar point; DomainError outside a term's domain and
    when the value overflows."""
    x = float(x)
    total = 0.0
    try:
        for t in f.terms:
            total += _term_value(t, x)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"{format_expr(f)} overflows at x={x!r}")
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
    if _is_plain_exp(t):
        return t.c * math.exp(t.lam * x)
    v = t.c * (math.sin if t.sine else math.cos)(t.w * x + t.phi)
    return v * math.exp(t.lam * x) if t.lam else v


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
        elif _is_plain_exp(t):
            out += t.c * np.exp(t.lam * xs)
        elif t.lam:
            out += t.c * (np.sin if t.sine else np.cos)(t.w * xs + t.phi) * np.exp(t.lam * xs)
        else:
            out += t.c * (np.sin if t.sine else np.cos)(t.w * xs + t.phi)
    return out


# ---------------------------------------------------------------------------
# differentiation


def derivative(f: FuncExpr, k: int) -> FuncExpr:
    """Exact k-th derivative, staying inside the representable class, in one
    pass over the terms: an exponential term's coefficient becomes c z^k,
    z = lam + i w, split into a cosine and a sine, and a power takes the
    falling factorial beta (beta - 1) ... (beta - k + 1).  Each coefficient is
    built as the k products that k first derivatives take, in their order, so
    the result equals them bit for bit wherever lam or w is 0.

    Raises DomainError if a fractional power would leave the class, i.e. a
    resulting exponent would drop to -1 or below.
    """
    k = _as_count(k, "derivative order")
    if k == 0:
        return f
    return FuncExpr([d for t in f.terms for d in _term_derivative(t, k)])


def _term_derivative(t, k):
    """The k-th derivative of one term, k >= 1, as a list of its non-zero terms."""
    c = t.c
    if isinstance(t, PowerTerm):
        beta = t.beta
        for _ in range(k):
            if c == 0.0 or beta == 0.0:
                return []
            if not _is_int(beta) and beta - 1.0 <= -1.0:
                raise DomainError(
                    f"derivative leaves the representable class: exponent "
                    f"{beta - 1.0} <= -1"
                )
            c, beta = c * beta, beta - 1.0
        return [PowerTerm(c, t.x0, beta)]
    # p + i q = c z^k, built so that a coefficient that overflows is +-inf,
    # never nan: a pure term takes c w ... w or c lam ... lam (no inf * 0),
    # and a damped one c times the powers of z / |z|, then k products by |z|
    # (no inf - inf), with |z| / 2 = h, which never overflows
    lam, w, p, q = t.lam, t.w, c, 0.0
    if lam and w:
        h = math.hypot(lam * 0.5, w * 0.5)
        ur, ui, p = lam * 0.5 / h, w * 0.5 / h, 1.0
        for _ in range(k):
            p, q = p * ur - q * ui, p * ui + q * ur
        p, q = c * p, c * q
        for _ in range(k):
            p, q = p * h * 2.0, q * h * 2.0
    elif w:
        for _ in range(k):
            p, q = -q * w, p * w
    else:
        for _ in range(k):
            p *= lam
    # of (p + i q) e^(i (w x + phi)): a cosine keeps the real part,
    # p cos - q sin, and a sine the imaginary part, q cos + p sin
    if t.sine:
        p, q = q, -p
    terms = []
    if p:
        terms.append(ExpTerm(p, lam, w, t.phi))
    if q:
        terms.append(ExpTerm(-q, lam, w, t.phi, True))
    return terms


# ---------------------------------------------------------------------------
# Polynomials and polynomial products


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
# text grammar:  pow(c=1,x0=0,beta=2.5) + sin(c=1,w=2,phi=0,lam=-1) + exp(c=1,lam=2)

_TERM_FIELDS = {
    "pow": (("c", 1.0), ("x0", 0.0), ("beta", None)),
    "sin": (("c", 1.0), ("w", None), ("phi", 0.0), ("lam", 0.0)),
    "cos": (("c", 1.0), ("w", None), ("phi", 0.0), ("lam", 0.0)),
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
    return ExpTerm(kw["c"], kw["lam"], kw.get("w", 0.0), kw.get("phi", 0.0), name == "sin")


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
        elif _is_plain_exp(t):
            chunks.append(f"exp(c={t.c!r},lam={t.lam!r})")
        else:
            lam = f",lam={t.lam!r}" if t.lam else ""
            chunks.append(f"{'sin' if t.sine else 'cos'}(c={t.c!r},w={t.w!r},phi={t.phi!r}{lam})")
    return " + ".join(chunks)
