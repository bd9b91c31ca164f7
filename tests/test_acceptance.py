"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are pinned; each reference value carries its derivation in a
comment.  Criterion coverage:

1. limit dichotomy over the 30-function corpus x a 9-order grid
2. scaling law for sin at half order (exponent and prefactor fit)
3. quadrature vs closed power rule, 50 random polynomial cases to 1e-12
4. constant / low-degree monomial annihilation, closed and quadrature
5. product-rule defect: zero at order 1, frozen nonzero value at order 1/2
6. symmetrized series: frozen K=1 partial sum + 20 polynomial-pair identities
7. bridge consistency with the power rule + factorial-coefficient regression
8. divergence detection for a non-smooth power
"""

import math
import time
from pathlib import Path

import numpy as np

from fraclim.cli import read_corpus
from fraclim.fracderiv import (
    KIND_RL,
    METHOD_CLOSED,
    QuadratureConfig,
    caputo_derivative,
    power_rule,
)
from fraclim.funcmodel import (
    FuncExpr,
    PowerTerm,
    derivative,
    evaluate,
    parse_expr,
)
from fraclim.leibniz import leibniz_defect, rl_of_product, symmetrized_series
from fraclim.lfd import CLASS_FINITE, CLASS_ZERO, ScanConfig, lfd_report
from fraclim.specfun import FracOrder
from references import boundary_sum, quadrature

CORPUS_PATH = Path(__file__).resolve().parents[1] / "corpus" / "smooth30.txt"
ALPHA_GRID = (0.25, 0.5, 0.75, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0)

# h0 = 0.1 keeps every corpus entry inside the leading-order scaling regime
# (oscillatory entries leave it by h ~ 0.5); count = 26 puts the last samples
# near 3e-9 so the finite-limit estimate settles well inside 1e-6.
SCAN_CFG = ScanConfig(h0=0.1, ratio=0.5, count=26, quad=QuadratureConfig(nodes=1024))

INV_GAMMA_3_2 = 1.1283791670955126  # 1/Gamma(1.5) = 2/sqrt(pi), dps=40
DEFECT_XX_HALF = -0.75225277806367504926  # Gamma(3)/Gamma(2.5) - 2/Gamma(1.5)
SERIES_XX_HALF = 1.5045055561273501  # 2/Gamma(2.5) = RL^1/2 x^2 at x=1


def _closed(f, order, a, x):
    """Caputo derivative of a power sum centered at a, by the power rule."""
    r = caputo_derivative(f, order, a, x)
    assert r.method == METHOD_CLOSED
    return r.value


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_limit_dichotomy_over_corpus():
    entries = read_corpus(str(CORPUS_PATH))
    assert len(entries) == 30
    t0 = time.perf_counter()
    failures = []
    for f, a in entries:
        for al in ALPHA_GRID:
            order = FracOrder(al)
            rep = lfd_report(f, order, a, SCAN_CFG)
            kind = rep.classification.kind
            if order.is_integer:
                target = evaluate(derivative(f, order.n), a)
                if kind == CLASS_FINITE:
                    limit = rep.classification.limit
                elif kind == CLASS_ZERO:
                    limit = 0.0  # a Zero verdict is the limit-0 case
                else:
                    limit = math.nan
                ok = math.isfinite(limit) and abs(limit - target) <= 1e-6
            else:
                ok = kind == CLASS_ZERO
            if not ok:
                failures.append((a, al, kind))
    elapsed = time.perf_counter() - t0
    detail = (
        f"{len(entries) * len(ALPHA_GRID)} corpus scans, "
        f"{len(failures)} misclassified, {elapsed:.1f}s"
    )
    _verdict(1, not failures and elapsed <= 60.0, detail)


def test_criterion_2_scaling_law_for_sin():
    rep = lfd_report(
        parse_expr("sin(c=1,w=1)"), FracOrder(0.5), 0.0,
        ScanConfig(h0=0.1, ratio=0.5, count=20, quad=QuadratureConfig(nodes=1024)),
    )
    exp_err = abs(rep.fitted_exponent - 0.5)
    pref_rel = abs(rep.fitted_prefactor - INV_GAMMA_3_2) / INV_GAMMA_3_2
    ok = exp_err <= 0.05 and pref_rel <= 0.02
    _verdict(
        2, ok,
        f"fitted exponent off by {exp_err:.2e} (tol 0.05), "
        f"prefactor off by {pref_rel:.2%} (tol 2%)",
    )


def test_criterion_3_quadrature_against_power_rule_oracle():
    rng = np.random.default_rng(20260815)
    worst_rel = 0.0
    for _ in range(50):
        while True:
            alpha = float(rng.uniform(0.3, 2.7))
            if abs(alpha - round(alpha)) >= 0.05:
                break
        order = FracOrder(alpha)
        degree = int(rng.integers(order.n + 2, 6))
        a = float(rng.uniform(-0.5, 0.5))
        coeffs = rng.uniform(0.5, 2.0, degree + 1)
        f = FuncExpr([PowerTerm(float(c), a, float(k)) for k, c in enumerate(coeffs)])
        x = a + float(rng.uniform(0.5, 1.0))
        exact = _closed(f, order, a, x)
        err = abs(quadrature(f, order, a, x) - exact)
        worst_rel = max(worst_rel, err / abs(exact))
    _verdict(3, worst_rel <= 1e-12,
             f"50 random polynomial cases: worst rel err {worst_rel:.2e} (tol 1e-12)")


def test_criterion_4_annihilation():
    checked = 0
    ok = True
    for al in (0.5, 1.3, 2.5):
        order = FracOrder(al)
        for k in range(order.n):
            for c in (1.0, 3.7, -2.25):
                f = FuncExpr([PowerTerm(c, 0.25, float(k))])
                closed = _closed(f, order, 0.25, 1.1)
                quad = quadrature(f, order, 0.25, 1.1)
                ok = ok and closed == 0.0 and abs(quad) <= 1e-10
                checked += 1
    _verdict(4, ok, f"{checked} monomials below the order ceiling annihilated "
                    "(closed exactly 0, quadrature <= 1e-10)")


def test_criterion_5_leibniz_dichotomy():
    entries = read_corpus(str(CORPUS_PATH))
    worst = 0.0
    for i, (f, a_f) in enumerate(entries):
        g, a_g = entries[(i + 7) % len(entries)]
        a = max(a_f, a_g)
        rep = leibniz_defect(f, g, FracOrder(1.0), a, (a + 0.4, a + 0.9))
        worst = max(worst, rep.max_abs_defect)
    x = parse_expr("pow(c=1,x0=0,beta=1)")
    frozen = leibniz_defect(x, x, FracOrder(0.5), 0.0, (1.0,)).defect[0]
    frozen_off = abs(frozen - DEFECT_XX_HALF)
    ok = worst <= 1e-10 and frozen_off <= 1e-4
    _verdict(
        5, ok,
        f"30 corpus pairs at order 1: worst defect {worst:.2e} (tol 1e-10); "
        f"half-order x*x defect off by {frozen_off:.2e} (tol 1e-4)",
    )


def test_criterion_6_symmetrized_series():
    x = parse_expr("pow(c=1,x0=0,beta=1)")
    partial = symmetrized_series(x, x, FracOrder(0.5), 0.0, 1.0, K=1).value
    partial_off = abs(partial - SERIES_XX_HALF)

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        df, dg = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        a = float(rng.uniform(-1.0, 1.0))
        f = FuncExpr(
            [PowerTerm(float(c), a, float(k))
             for k, c in enumerate(rng.uniform(0.5, 2.0, df + 1))]
        )
        g = FuncExpr(
            [PowerTerm(float(c), a, float(k))
             for k, c in enumerate(rng.uniform(0.5, 2.0, dg + 1))]
        )
        alpha = FracOrder(float(rng.uniform(0.1, 2.9)))
        xx = a + float(rng.uniform(0.4, 1.2))
        sv = symmetrized_series(f, g, alpha, a, xx).value
        ref = rl_of_product(f, g, alpha, a, xx)
        worst = max(worst, abs(sv - ref) / max(1.0, abs(ref)))
    ok = partial_off <= 1e-9 and worst <= 1e-9
    _verdict(
        6, ok,
        f"K=1 partial sum off by {partial_off:.2e} (tol 1e-9); "
        f"20 polynomial pairs: worst series-vs-reference error {worst:.2e} (tol 1e-9)",
    )


def test_criterion_7_bridge_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(0, 4))
        a = float(rng.uniform(-1.0, 1.0))
        f = FuncExpr(
            [PowerTerm(float(c), a, float(k))
             for k, c in enumerate(rng.uniform(0.5, 2.0, d + 1))]
        )
        alpha = FracOrder(float(rng.uniform(0.1, 2.9)))
        x = a + float(rng.uniform(0.4, 1.2))
        at_a = [evaluate(derivative(f, k), a) for k in range(alpha.n)]
        got = _closed(f, alpha, a, x) + boundary_sum(at_a, alpha, a, x)
        want = sum(t.c * power_rule(((1.0, t.beta),), alpha.alpha, a, (x,), KIND_RL)[0]
                   for t in f.terms)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))

    # regression: the factorial boundary coefficient breaks the power-rule oracle
    f = parse_expr("pow(c=1,x0=0,beta=0) + pow(c=1,x0=0,beta=1)")
    want = (power_rule(((1.0, 0.0),), 0.5, 0.0, (1.0,), KIND_RL)[0]
            + power_rule(((1.0, 1.0),), 0.5, 0.0, (1.0,), KIND_RL)[0])
    cap = _closed(f, FracOrder(0.5), 0.0, 1.0)
    good = cap + boundary_sum([evaluate(f, 0.0)], FracOrder(0.5), 0.0, 1.0)
    # Caputo plus the 1/k! boundary sum: n = 1, so the one term f(0)/0! x^(-1/2)
    bad = cap + evaluate(f, 0.0) / math.factorial(0)
    ok = worst <= 1e-8 and abs(good - want) <= 1e-8 and abs(bad - want) > 1e-2
    _verdict(
        7, ok,
        f"20 polynomial cases: worst bridge-vs-power-rule error {worst:.2e} "
        f"(tol 1e-8); factorial-coefficient variant off by {abs(bad - want):.3f} "
        "as documented",
    )


def test_criterion_8_divergence_detection():
    rep = lfd_report(
        parse_expr("pow(c=1,x0=0,beta=0.3)"), FracOrder(0.7), 0.0, SCAN_CFG
    )
    kind = rep.classification.kind
    exp_off = abs(rep.fitted_exponent - (-0.4))
    ok = kind == "Divergent" and exp_off <= 0.05
    _verdict(
        8, ok,
        f"x^0.3 at order 0.7 classified {kind}, fitted exponent off by "
        f"{exp_off:.2e} (tol 0.05)",
    )
