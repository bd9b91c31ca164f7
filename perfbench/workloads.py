"""Seeded inputs for the four benchmark workloads.

Inputs are plain data (expression text in fraclim's term grammar, floats and
ints), so the oracle can read them without going through fraclim.  The same
workload name and seed always give the same items.

Orders, node counts, fractional-power betas and call kinds are drawn by
stratified sampling (one draw per equal-width stratum, then shuffled).  The
share of near-integer orders, of failing fractional-power sums and of each
node count is then the natural rate on every seed, so two seeds differ in
the details of the inputs, not in how many hard cases they hold.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-corpus", "verify-serial", "scan-quad", "leibniz-series")

CORPUS = "corpus/smooth30.txt"
VERIFY_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0)
VERIFY_ARGV = (
    "verify-theorem", "--corpus", CORPUS,
    "--alphas", ",".join(repr(a) for a in VERIFY_ALPHAS),
    "--count", "26", "--nodes", "1024", "--output", "json",
)

# lfd_report settings of scan-quad: ScanConfig(h0=0.1, ratio=0.5, count=26).
SCAN_H0 = 0.1
SCAN_RATIO = 0.5
SCAN_COUNT = 26
# Node counts with their weights out of 10.  Unequal weights keep the median
# call inside the 1024 group instead of on the edge between two groups.
SCAN_NODES = ((512, 3), (1024, 3), (2048, 2), (4096, 2))
SCAN_ITEMS = 400
LEIBNIZ_ITEMS = 960
# (f is a polynomial, g is a polynomial) with weights out of 16.
LEIBNIZ_PAIRS = (((True, True), 1), ((True, False), 2), ((False, True), 2), ((False, False), 11))

BASE_POINTS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _r(x: float) -> float:
    return round(x, 4)


def _stratified(rng: random.Random, m: int, lo: float, hi: float) -> list:
    """m draws, one in each of m equal strata of (lo, hi), in random order."""
    width = (hi - lo) / m
    out = [lo + (i + rng.uniform(0.02, 0.98)) * width for i in range(m)]
    rng.shuffle(out)
    return out


def _schedule(rng: random.Random, m: int, weighted) -> list:
    """m values in exact proportion to their integer weights, shuffled."""
    total = sum(w for _, w in weighted)
    out = []
    for value, w in weighted:
        out += [value] * (m * w // total)
    while len(out) < m:
        out.append(weighted[len(out) % len(weighted)][0])
    rng.shuffle(out)
    return out


def _smooth_term(rng: random.Random) -> str:
    c = _r(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
    kind = rng.choice(("sin", "cos", "exp"))
    if kind == "exp":
        return f"exp(c={c!r},lam={_r(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.0))!r})"
    w = _r(rng.uniform(0.5, 3.0))
    phi = _r(rng.uniform(0.0, 2.0 * math.pi))
    return f"{kind}(c={c!r},w={w!r},phi={phi!r})"


def _poly(rng: random.Random, a: float) -> str:
    degree = rng.randint(1, 3)
    terms = []
    for k in range(degree + 1):
        c = _r(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
        terms.append(f"pow(c={c!r},x0={a!r},beta={float(k)!r})")
    return " + ".join(terms)


def scan_items(seed: int, m: int = SCAN_ITEMS) -> list:
    """lfd_report inputs: 1-3 sin/cos/exp terms, one item in ten with an
    extra fractional power centered at the base point."""
    rng = random.Random(f"scan-quad/{seed}")
    orders = _stratified(rng, m, 0.0, 3.0)
    nodes = _schedule(rng, m, SCAN_NODES)
    sizes = _schedule(rng, m, ((1, 1), (2, 1), (3, 1)))
    with_power = set(rng.sample(range(m), m // 10))
    betas = _stratified(rng, len(with_power), 0.0, 3.0)
    items = []
    for i in range(m):
        a = rng.choice(BASE_POINTS)
        terms = [_smooth_term(rng) for _ in range(sizes[i])]
        if i in with_power:
            c = _r(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
            terms.append(f"pow(c={c!r},x0={a!r},beta={betas.pop()!r})")
        items.append({"f": " + ".join(terms), "a": a, "alpha": orders[i],
                      "nodes": nodes[i]})
    return items


def leibniz_items(seed: int, m: int = LEIBNIZ_ITEMS) -> list:
    """Factor pairs for symmetrized_series (even items) and leibniz_defect
    (odd items, operator alternating caputo / rl).  A factor is a single
    sin/cos/exp term or an integer-power polynomial centered at the base
    point; poly x poly pairs reach poly_product.  Each half draws its own
    stratified orders, pair kinds and evaluation points x - a in (0.05, 2]."""
    rng = random.Random(f"leibniz-series/{seed}")
    half = m // 2
    groups = []
    for points in (1, 3):
        orders = _stratified(rng, half, 0.0, 3.0)
        kinds = _schedule(rng, half, LEIBNIZ_PAIRS)
        offsets = _stratified(rng, points * half, 0.05, 2.0)
        groups.append([(orders[i], kinds[i], offsets[points * i:points * (i + 1)])
                       for i in range(half)])
    items = []
    for i in range(2 * half):
        alpha, (f_poly, g_poly), offsets = groups[i % 2][i // 2]
        a = rng.choice(BASE_POINTS)
        f = _poly(rng, a) if f_poly else _smooth_term(rng)
        g = _poly(rng, a) if g_poly else _smooth_term(rng)
        item = {"f": f, "g": g, "a": a, "alpha": alpha,
                "x": sorted(_r(a + u) for u in offsets)}
        item["op"] = "series" if i % 2 == 0 else ("caputo" if i % 4 == 1 else "rl")
        items.append(item)
    return items


def items(workload: str, seed: int) -> list:
    """The workload's call list.  A verify call is one whole CLI run."""
    if workload in ("verify-corpus", "verify-serial"):
        return [{"argv": list(VERIFY_ARGV)}]
    if workload == "scan-quad":
        return scan_items(seed)
    if workload == "leibniz-series":
        return leibniz_items(seed)
    raise ValueError(f"unknown workload {workload!r}")
