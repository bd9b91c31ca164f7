"""Check a worker's outcomes against the mpmath oracle.

Every returned value is compared with the oracle by relative error with an
absolute floor, and every verdict with the exact dichotomy.  A call's output
is wrong when its verdict disagrees or a value misses by more than
``VALUE_TOL``.  A value misses its estimate when the actual error exceeds
the reported ``est_error`` or series ``residual`` (closed forms: 0) plus a
rounding floor.

Failed, wrong and missed outputs are all counted in the shares.  Beyond
that, an output outside fraclim's documented defects marks the run as
incorrect.  The documented defects are:

* sums mixing smooth terms with a fractional power: ``DomainError`` or
  values off, since the quadrature samples a non-smooth n-th derivative;
* a wrong verdict where the leading exponent of D^alpha f is below
  ``SMALL_EXPONENT`` (orders just below an integer): a fixed +-0.05 band
  around the fitted slope decides Zero against Finite and cannot resolve it;
* error estimates and series residuals that do not bound the error.

Anything else (another exception, a value off by more than ``GROSS_TOL``
other than a truncated series, a wrong verdict elsewhere, a failed
verify-theorem row) is unexpected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp

import oracle
import workloads

VALUE_TOL = 1e-4
GROSS_TOL = 0.1
SMALL_EXPONENT = 0.25
# Relative share of a value's size below which a difference is rounding.
ROUNDING = 1e-12
# verify-theorem's own tolerance on |limit - f^(n)(a)|.
VERIFY_TOL = 1e-6


@dataclass
class Tally:
    """Outcome counts, one per distinct input however often it was called
    (repeated calls must return the same output), and the relative error of
    every returned value."""

    attempted: int = 0
    failed: int = 0
    completed: int = 0
    wrong: int = 0
    with_estimate: int = 0
    est_miss: int = 0
    rel_errs: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)

    def value(self, got, want, floor, est) -> float:
        """Record one returned value and return its relative error.

        The error is relative to max(|want|, floor); ``est`` is the reported
        error bound, None when the value comes without one."""
        err = abs(mp.mpf(got) - want)
        size = max(abs(want), floor, mp.mpf(1e-300))
        if est is not None:
            self.with_estimate += 1
            self.est_miss += err > est + ROUNDING * size
        rel = float(err / size) if math.isfinite(got) else math.inf
        self.rel_errs.append(rel)
        return rel

    def add(self, other: "Tally"):
        for name in ("attempted", "failed", "completed", "wrong", "with_estimate",
                     "est_miss", "rel_errs", "unexpected"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _corpus(root) -> list:
    entries = []
    for raw in (root / workloads.CORPUS).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            text, _, a = line.rpartition("@")
            entries.append((text, float(a)))
    return entries


def verify(outcome: dict, root) -> Tally:
    """Rows of one verify-theorem call: all must PASS and match the oracle."""
    t = Tally(attempted=1)
    if "error" in outcome:
        t.failed = 1
        t.unexpected.append(f"verify-theorem failed: {outcome['error']}")
        return t
    expected = [(text, a, alpha) for text, a in _corpus(root)
                for alpha in workloads.VERIFY_ALPHAS]
    rows = outcome["rows"]
    if outcome["exit"] != 0 or len(rows) != len(expected):
        t.unexpected.append(f"exit {outcome['exit']} with {len(rows)} rows")
    for row, (text, a, alpha) in zip(rows, expected):
        t.completed += 1
        kind, limit, _ = oracle.verdict(oracle.Func(text, a), alpha)
        want = limit if kind == oracle.FINITE else 0.0
        got = {"Zero": 0.0, "Finite": row["limit"]}.get(row["classification"], math.inf)
        if row["classification"] == "Finite":
            t.value(got, mp.mpf(want), VERIFY_TOL, None)
        if (row["status"] != "PASS" or not abs(got - want) <= VERIFY_TOL
                or (row["a"], row["alpha"]) != (a, alpha)):
            t.wrong += 1
            t.unexpected.append(f"row {text} @ {a}, alpha={alpha}: {row['status']} "
                                f"{row['classification']} {row['limit']!r}")
    return t


def scan(item: dict, outcome: dict) -> Tally:
    t = Tally(attempted=1)
    func = oracle.Func(item["f"], item["a"])
    mixed = bool(func.powers and func.entire)
    if "error" in outcome:
        t.failed = 1
        if not (mixed and outcome["error"] == "DomainError"):
            t.unexpected.append(f"scan {item} raised {outcome['error']}")
        return t
    t.completed = 1
    samples = outcome["samples"]
    xs = [s[0] for s in samples]
    # x must be the k-th scan point, up to rounding of a + h0 * ratio**k.
    points = [item["a"] + workloads.SCAN_H0 * workloads.SCAN_RATIO**k
              for k in range(workloads.SCAN_COUNT)]
    if len(xs) != len(points) or any(abs(x - p) > 1e-15 * max(1.0, abs(p))
                                     for x, p in zip(xs, points)):
        t.unexpected.append(f"scan {item}: wrong scan points")
        return t
    want = func.deriv(item["alpha"], xs, caputo=True)
    floor = ROUNDING * max(abs(w) for w in want)
    worst = max(t.value(v, w, floor, mp.mpf(est))
                for (_, v, est), w in zip(samples, want))
    kind, limit, exponent = oracle.verdict(func, item["alpha"])
    verdict_wrong = outcome["kind"] != kind or (
        kind == oracle.FINITE and not abs(outcome["limit"] - limit) <= VERIFY_TOL)
    if verdict_wrong or worst > VALUE_TOL:
        t.wrong = 1
    unresolvable = exponent is not None and abs(exponent) < SMALL_EXPONENT
    if not mixed and (worst > GROSS_TOL or (verdict_wrong and not unresolvable)):
        t.unexpected.append(f"scan {item}: {outcome['kind']} (oracle {kind}), "
                            f"worst relative error {worst:.3g}")
    return t


def leibniz(item: dict, outcome: dict) -> Tally:
    t = Tally(attempted=1)
    if "error" in outcome:
        t.failed = 1
        t.unexpected.append(f"leibniz {item} raised {outcome['error']}")
        return t
    t.completed = 1
    f, g = oracle.Func(item["f"], item["a"]), oracle.Func(item["g"], item["a"])
    fg = f.times(g)
    alpha, xs = item["alpha"], item["x"]
    if item["op"] == "series":
        (want,) = fg.deriv(alpha, xs, caputo=False)
        worst = t.value(outcome["value"], want, 0, mp.mpf(outcome["residual"]))
    else:
        caputo = item["op"] == "caputo"
        # Polynomial pairs take closed forms all the way: estimate 0.
        closed = all(name == "pow" for name, _ in f.entire + g.entire)
        d_fg, d_f, d_g = (h.deriv(alpha, xs, caputo) for h in (fg, f, g))
        worst = 0.0
        for j, x in enumerate(xs):
            parts = (d_fg[j], d_f[j] * g.value(x), f.value(x) * d_g[j])
            # A defect is a difference of its three parts; judge it on their size.
            floor = max(abs(p) for p in parts)
            worst = max(worst, t.value(outcome["defect"][j], parts[0] - parts[1] - parts[2],
                                       floor, mp.mpf(0) if closed else None))
    if worst > VALUE_TOL:
        t.wrong = 1
    # A series truncated at K is off by its tail, which the residual reports.
    if worst > GROSS_TOL and item["op"] != "series":
        t.unexpected.append(f"leibniz {item}: relative error {worst:.3g}")
    return t


def check(workload: str, items: list, report: dict, root) -> Tally:
    """Tally every input of a worker report against the oracle, once each."""
    total = Tally()
    for key, outcome in report["outcomes"].items():
        item = items[int(key)]
        if workload.startswith("verify"):
            total.add(verify(outcome, root))
        elif workload == "scan-quad":
            total.add(scan(item, outcome))
        else:
            total.add(leibniz(item, outcome))
    return total
