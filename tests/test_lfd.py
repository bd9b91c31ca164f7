"""Scan-and-classify behaviour for the x -> a limit of the Caputo derivative."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fraclim import fracderiv, lfd
from fraclim.cli import main, read_corpus
from fraclim.exceptions import DomainError, InsufficientData, UnsupportedFunction
from fraclim.fracderiv import (
    METHOD_BRIDGE,
    METHOD_QUAD,
    METHOD_SPECIAL,
    QuadratureConfig,
    caputo_derivative,
    derivative_many,
    rl_derivative,
    split_powers,
)
from fraclim.funcmodel import PowerTerm, derivative, evaluate, parse_expr
from fraclim.lfd import (
    CLASS_DIVERGENT,
    CLASS_FINITE,
    CLASS_ZERO,
    Classification,
    LfdSample,
    ScanConfig,
    lfd_classify,
    lfd_exact,
    lfd_report,
    lfd_report_many,
    lfd_verify,
)
from fraclim.specfun import FracOrder, rgamma

SIN = parse_expr("sin(c=1,w=1)")
X2 = parse_expr("pow(c=1,x0=0,beta=2)")
FAST_CFG = ScanConfig(h0=0.1, ratio=0.5, count=16, quad=QuadratureConfig(nodes=512))


def test_scan_offsets_are_geometric():
    samples = lfd_report(X2, FracOrder(0.5), 0.0,
                         ScanConfig(h0=0.2, ratio=0.5, count=6)).samples
    offsets = [s.offset for s in samples]
    assert offsets == pytest.approx([0.2 * 0.5**k for k in range(6)])
    assert all(s.x == pytest.approx(s.offset) for s in samples)


def test_scan_closed_route_has_zero_est_error():
    samples = lfd_report(X2, FracOrder(0.5), 0.0, FAST_CFG).samples
    assert all(s.est_error == 0.0 for s in samples)
    assert all(s.usable for s in samples)


def test_scan_integer_order_takes_the_exact_derivative():
    samples = lfd_report(SIN, FracOrder(1.0), 0.0, FAST_CFG).samples
    assert [s.value for s in samples] == [math.cos(s.x) for s in samples]
    assert all(s.est_error == 0.0 for s in samples)


@pytest.mark.parametrize("nodes", [512, 511])
def test_scan_matches_pointwise_quadrature(nodes):
    f = parse_expr("cos(c=2,w=1.5,phi=0.3) + exp(c=1,lam=-0.8)")
    # rate 1.5: the offsets 12.8 down to 1.6 take the integral, and from 0.8
    # down the series
    cfg = ScanConfig(h0=12.8, ratio=0.5, count=26, quad=QuadratureConfig(nodes=nodes))
    for alpha in (0.4, 2.6):
        for s in lfd_report(f, FracOrder(alpha), 0.5, cfg).samples:
            one = caputo_derivative(f, FracOrder(alpha), 0.5, s.x, cfg.quad)
            assert one.method == (METHOD_QUAD if s.offset > 1.0 else METHOD_SPECIAL)
            assert s.value == pytest.approx(one.value, rel=1e-13)
            assert s.est_error == pytest.approx(one.est_error, rel=1e-13, abs=1e-300)


# Gamma(1.3)/Gamma(0.6) x^-0.4 + sum_k (-1)^k x^(2k+0.3) / Gamma(2k+1.3) (dps=40)
MIXED_CAPUTO_07_AT_05 = 1.6259060634692188956
MIXED_CAPUTO_07_AT_25 = -0.059400585478662884194


def test_mixed_fractional_power_sum_is_split_by_term():
    # f' holds (x - a)^-0.7, which no quadrature can sample at z = a: the
    # power term takes the power rule and only sin goes through quadrature,
    # past the series' reach, or the series
    f = parse_expr("pow(c=1,x0=0,beta=0.3) + sin(c=1,w=1)")
    r = caputo_derivative(f, 0.7, 0.0, 2.5)
    assert r.method == METHOD_QUAD
    assert abs(r.value - MIXED_CAPUTO_07_AT_25) <= 1e-7
    r = caputo_derivative(f, 0.7, 0.0, 0.5)
    assert r.method == METHOD_SPECIAL
    assert abs(r.value - MIXED_CAPUTO_07_AT_05) <= 1e-7
    assert rl_derivative(f, 0.7, 0.0, 0.5).method == METHOD_SPECIAL
    assert rl_derivative(f, 0.7, 0.0, 2.5).method == METHOD_BRIDGE
    assert lfd_report(f, FracOrder(0.7), 0.0, FAST_CFG).classification.kind == CLASS_DIVERGENT


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_non_finite_base_point_raises(a):
    with pytest.raises(DomainError):
        lfd_report(SIN, FracOrder(0.5), a, FAST_CFG)
    with pytest.raises(DomainError):
        lfd_report(X2, FracOrder(0.5), a, FAST_CFG)
    with pytest.raises(DomainError):
        lfd_exact(X2, FracOrder(0.5), a)


def test_smooth_fractional_order_goes_to_zero():
    rep = lfd_report(X2, FracOrder(0.5), 0.0, FAST_CFG)
    assert rep.classification.kind == CLASS_ZERO
    assert rep.classification.limit is None
    # x^2 at alpha=1/2: exponent 2 - 1/2
    assert rep.fitted_exponent == pytest.approx(1.5, abs=1e-6)
    assert rep.theory_exponent == pytest.approx(0.5)  # n - alpha for n = 1


def test_integer_order_recovers_classical_derivative():
    rep = lfd_report(SIN, FracOrder(1.0), 0.0, FAST_CFG)
    assert rep.classification.kind == CLASS_FINITE
    assert rep.classification.limit == pytest.approx(1.0, abs=1e-6)
    assert rep.theory_prefactor == pytest.approx(1.0, rel=1e-12)


def test_divergent_power():
    f = parse_expr("pow(c=1,x0=0,beta=0.3)")
    rep = lfd_report(f, FracOrder(0.7), 0.0, FAST_CFG)
    assert rep.classification.kind == CLASS_DIVERGENT
    assert rep.fitted_exponent == pytest.approx(-0.4, abs=1e-6)
    assert rep.theory_prefactor is None  # f' blows up at the base point


def test_transcendental_scan_half_order():
    rep = lfd_report(SIN, FracOrder(0.5), 0.0, FAST_CFG)
    assert rep.classification.kind == CLASS_ZERO
    assert rep.fitted_exponent == pytest.approx(0.5, abs=0.01)
    # prefactor ~ f'(0)/Gamma(1.5)
    assert rep.fitted_prefactor == pytest.approx(1.1283791670955126, rel=0.01)
    assert rep.theory_prefactor == pytest.approx(1.1283791670955126, rel=1e-12)


def test_constant_scan_is_flat_zero():
    rep = lfd_report(parse_expr("pow(c=5,x0=0,beta=0)"), FracOrder(0.5), 0.0, FAST_CFG)
    assert rep.classification.kind == CLASS_ZERO
    assert rep.fitted_exponent is None
    assert rep.fitted_prefactor is None


def test_negative_prefactor_keeps_sign():
    rep = lfd_report(parse_expr("pow(c=-3,x0=0,beta=2)"), FracOrder(0.5), 0.0, FAST_CFG)
    assert rep.classification.kind == CLASS_ZERO
    assert rep.fitted_prefactor < 0.0


def test_insufficient_data_raises():
    # 8 noise samples: each estimate exceeds its value
    with pytest.raises(InsufficientData):
        lfd_classify([0.1] * 8, 0.0, [[1e-18] * 8], [[1.0] * 8], [FracOrder(0.5)])


def test_scan_config_validation():
    with pytest.raises(DomainError):
        ScanConfig(h0=0.0)
    with pytest.raises(DomainError):
        ScanConfig(ratio=1.0)
    for count in (0, math.nan, math.inf, -math.inf, 1.5, -1):
        with pytest.raises(DomainError, match="^count must be a positive integer"):
            ScanConfig(count=count)


def test_classify_checks_its_points():
    # a point at a would put log(0) into the fit, and an infinite a makes
    # every offset infinite: neither is a scan
    xs, values, ests = [0.0, 0.1, 0.2, 0.3, 0.4], [[1e-3, 1, 2, 3, 4]], [[0.0] * 5]
    with pytest.raises(DomainError, match="must satisfy x > a"):
        lfd_classify(xs, 0.0, values, ests, [0.5])
    with pytest.raises(DomainError, match="must be finite"):
        lfd_classify(xs, math.inf, values, ests, [0.5])


def test_scan_reaches_offset_1e_200():
    # the Gauss-Legendre nodes scale with x - a, so no grid degenerates: at
    # x - a <= 1e-8, D^0.5 sin = (x-a)^0.5 / Gamma(1.5) up to a relative (x-a)^2
    samples = lfd_report(SIN, FracOrder(0.5), 0.0,
                         ScanConfig(h0=1e-8, ratio=0.1, count=193)).samples
    assert samples[-1].offset == pytest.approx(1e-200, rel=1e-12)
    for s in samples:
        assert s.value == pytest.approx(s.offset**0.5 / math.gamma(1.5), rel=1e-12)
        assert s.usable and s.est_error <= 1e-13 * s.value


def test_scan_point_rounding_onto_a_raises():
    # a + 1e-10 * 0.1^7 rounds to a = 1: x > a fails for the last point
    cfg = ScanConfig(h0=1e-10, ratio=0.1, count=8)
    assert 1.0 + cfg.h0 * cfg.ratio ** (cfg.count - 1) == 1.0
    with pytest.raises(DomainError):
        lfd_report(SIN, FracOrder(0.5), 1.0, cfg)
    with pytest.raises(DomainError):
        lfd_report(SIN, FracOrder(1.0), 1.0, cfg)
    # and a point left of a
    with pytest.raises(DomainError):
        caputo_derivative(SIN, FracOrder(0.5), 0.0, -1.0)


def test_exact_classifier_branches():
    assert lfd_exact(X2, FracOrder(0.5), 0.0).kind == CLASS_ZERO
    div = lfd_exact(parse_expr("pow(c=1,x0=0,beta=0.3)"), FracOrder(0.7), 0.0)
    assert div.kind == CLASS_DIVERGENT
    fin = lfd_exact(X2, FracOrder(2.0), 0.0)
    assert fin.kind == CLASS_FINITE
    assert fin.limit == pytest.approx(2.0, rel=1e-12)
    # annihilated terms are skipped entirely
    f = parse_expr("pow(c=9,x0=0,beta=0) + pow(c=1,x0=0,beta=2)")
    assert lfd_exact(f, FracOrder(0.5), 0.0).kind == CLASS_ZERO


def test_exact_classifier_rejects_other_terms():
    with pytest.raises(UnsupportedFunction):
        lfd_exact(SIN, FracOrder(0.5), 0.0)
    with pytest.raises(UnsupportedFunction):
        lfd_exact(parse_expr("pow(c=1,x0=1,beta=2)"), FracOrder(0.5), 0.0)


def test_exact_agrees_with_scan_on_corpus_spot():
    f = parse_expr("pow(c=2,x0=0,beta=3) + pow(c=1,x0=0,beta=1)")
    for alpha in (0.5, 1.0, 1.5, 3.0):
        exact = lfd_exact(f, FracOrder(alpha), 0.0)
        rep = lfd_report(f, FracOrder(alpha), 0.0, FAST_CFG)
        if exact.kind == CLASS_FINITE:
            assert rep.classification.kind == CLASS_FINITE
            assert rep.classification.limit == pytest.approx(exact.limit, abs=1e-6)
        else:
            assert rep.classification.kind == exact.kind


@pytest.mark.parametrize("tol", [math.nan, math.inf, -0.01])
def test_exponent_tol_must_be_finite_and_non_negative(tol):
    # a NaN band would call every scan Finite, a negative one a divergent scan Zero
    xs = [FAST_CFG.h0 * FAST_CFG.ratio**k for k in range(FAST_CFG.count)]
    values, ests, _ = derivative_many(SIN, [0.5], 0.0, xs, FAST_CFG.quad)
    rep, = lfd_classify(xs, 0.0, values, ests, [FracOrder(0.5)], exponent_tol=0.0)
    assert rep.classification.kind == CLASS_ZERO
    with pytest.raises(DomainError):
        lfd_classify(xs, 0.0, values, ests, [FracOrder(0.5)], exponent_tol=tol)
    with pytest.raises(DomainError):
        lfd_report(SIN, FracOrder(0.5), 0.0, FAST_CFG, exponent_tol=tol)
    # checked before the scan: a scan that would itself fail reports the tolerance
    rounding_cfg = ScanConfig(h0=1e-10, ratio=0.1, count=8)
    with pytest.raises(DomainError, match="exponent_tol"):
        lfd_report_many(SIN, [0.5, 1.0], 1.0, rounding_cfg, exponent_tol=tol)


def test_est_error_is_at_rounding_at_both_caps():
    # an off-centre power takes the integral at every point
    f = parse_expr("pow(c=1,x0=-0.5,beta=0.3)")
    coarse = lfd_report(f, FracOrder(0.5), 0.0,
                        ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=256))).samples
    fine = lfd_report(f, FracOrder(0.5), 0.0,
                      ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=1024))).samples
    for c, f in zip(coarse, fine):
        assert 0.0 < c.est_error <= 1e-13 * abs(c.value)
        assert 0.0 < f.est_error <= 1e-13 * abs(f.value)


def test_series_est_error_is_at_rounding():
    # sin at these offsets takes the series, whatever the node cap
    for nodes in (256, 1024):
        cfg = ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=nodes))
        for s in lfd_report(SIN, FracOrder(0.5), 0.0, cfg).samples:
            assert 0.0 < s.est_error <= 1e-13 * abs(s.value)


def test_oscillatory_integer_order_stays_finite_from_small_h0():
    # 2 sin(3x) at alpha = 1: the first classical derivative at 0 is 6; a scan
    # started too far out would leave the scaling regime, h0 = 0.1 stays in it
    f = parse_expr("sin(c=2,w=3)")
    rep = lfd_report(f, FracOrder(1.0), 0.0, ScanConfig(h0=0.1, count=20))
    assert rep.classification.kind == CLASS_FINITE
    assert rep.classification.limit == pytest.approx(6.0, abs=1e-6)


def test_finite_limit_is_extrapolated_to_the_base_point():
    # v = L + c (x - a) exactly: the last two usable samples give L, where
    # their mean would be off by about c times the smallest offsets
    xs = [0.5, 0.25, 0.125, 0.0625]
    values = [2.0 + 3.0 * h for h in xs]
    # and a noise sample, not used
    rep, = lfd_classify(xs + [0.01], 0.0, [values + [1.0]], [[0.0] * 4 + [5.0]],
                        [FracOrder(1.0)], exponent_tol=0.5)
    assert rep.usable == (True,) * 4 + (False,)
    assert rep.classification.kind == CLASS_FINITE
    assert rep.classification.limit == 2.0
    # two last samples that rounding put at one x: their value, not 0/0
    rep, = lfd_classify(xs + xs[3:], 0.0, [values + values[3:]], [[0.0] * 5],
                        [FracOrder(1.0)], exponent_tol=0.5)
    assert rep.classification.limit == values[3]


def test_samples_view_reproduces_the_rows():
    # sin(x) - x at 1/2 ~ -x^2.5: the smallest offsets sink into the
    # quadrature noise, one below its estimate (unusable)
    f = parse_expr("sin(c=1,w=1) + pow(c=-1,x0=0,beta=1)")
    rep = lfd_report(f, FracOrder(0.5), 0.0, ScanConfig(h0=0.1, count=26))
    assert not all(rep.usable)
    assert [x - 0.0 for x in rep.xs] == list(rep.offsets)
    assert rep.usable == tuple(not e > abs(v) for v, e in zip(rep.values, rep.est_errors))
    samples = rep.samples
    assert all(type(s) is LfdSample for s in samples)
    assert [(s.x, s.value, s.est_error, s.offset, s.usable) for s in samples] == list(
        zip(rep.xs, rep.values, rep.est_errors, rep.offsets, rep.usable))


@st.composite
def _fit_rows(draw):
    """(offsets, values, est_errors, alphas): noisy power laws c h^p e^noise
    on a geometric scan, one row per order, each estimate 0 or a fixed share
    of |value| that makes the sample clean, noise (usable, not fitted) or
    unusable."""
    count = draw(st.integers(4, 26))
    rows = draw(st.integers(1, 9))
    h0, ratio = draw(st.floats(1e-3, 1.0)), draw(st.floats(0.25, 0.75))
    offsets = h0 * ratio ** np.arange(count)
    laws = draw(hnp.arrays(np.float64, (rows, 2), elements=st.floats(-3.0, 3.0)))
    noise = draw(hnp.arrays(np.float64, (rows, count), elements=st.floats(-1.0, 1.0)))
    signs = draw(hnp.arrays(np.float64, (rows, count), elements=st.sampled_from((1.0, -1.0))))
    share = draw(hnp.arrays(np.float64, (rows, count),
                            elements=st.sampled_from((0.0, 1e-14, 0.05, 0.5, 1.0, 2.0))))
    values = signs * np.exp(3.0 * laws[:, :1] + laws[:, 1:] * np.log(offsets) + noise)
    alphas = draw(st.lists(st.floats(0.01, 3.0), min_size=rows, max_size=rows))
    return offsets, values, np.abs(values) * share, alphas


@given(_fit_rows())
@settings(max_examples=150, deadline=None)
def test_classify_fit_matches_polyfit_per_row(rows):
    offsets, values, ests, alphas = rows
    tol = 0.05
    usable = ~(ests > np.abs(values))
    fit = usable & (np.abs(values) > 10.0 * ests)
    short = [k for k, row in enumerate(usable) if row.sum() < 4]
    if short:  # the first order without 4 usable samples raises
        with pytest.raises(InsufficientData, match=f"have {usable[short[0]].sum()}$"):
            lfd_classify(offsets, 0.0, values, ests, alphas, tol)
        return
    reports = lfd_classify(offsets, 0.0, values, ests, alphas, tol)
    for rep, v, use, row_fit in zip(reports, values, usable, fit):
        assert rep.usable == tuple(use.tolist())
        if row_fit.sum() < 2:
            assert rep.classification.kind == CLASS_ZERO
            assert rep.fitted_exponent is rep.fitted_prefactor is None
            continue
        logx, logv = np.log(offsets[row_fit]), np.log(np.abs(v[row_fit]))
        slope, intercept = np.polyfit(logx, logv, 1)
        assert rep.fitted_exponent == pytest.approx(slope, rel=1e-13, abs=1e-13)
        assert math.log(abs(rep.fitted_prefactor)) == pytest.approx(intercept, rel=1e-13,
                                                                    abs=1e-13)
        assert math.copysign(1.0, rep.fitted_prefactor) == math.copysign(1.0, v[row_fit][-1])
        if abs(abs(slope) - tol) < 1e-9:
            continue  # a last-bit difference may cross the band edge
        if slope > tol:
            assert rep.classification == Classification(CLASS_ZERO)
        elif slope < -tol:
            assert rep.classification == Classification(CLASS_DIVERGENT)
        else:
            (h1, v1), (h2, v2) = zip(offsets[use][-2:].tolist(), v[use][-2:].tolist())
            limit = (h1 * v2 - h2 * v1) / (h1 - h2) if h1 != h2 else v2
            assert rep.classification == Classification(CLASS_FINITE, limit)


# --- many orders from one scan ---

TINY_CFG = ScanConfig(h0=0.1, ratio=0.5, count=8, quad=QuadratureConfig(nodes=64))


@st.composite
def _scan_inputs(draw):
    """(f, a): a sum of sin/cos/exp terms, an off-center polynomial and a
    fractional power centered at a, each part possibly absent."""
    a = draw(st.floats(-1.0, 1.0))
    coef = st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 0.1)
    terms = []
    for name, c, w, phi in draw(st.lists(
            st.tuples(st.sampled_from(("sin", "cos", "exp")), coef,
                      st.floats(-3.0, 3.0).filter(lambda w: abs(w) >= 0.1),
                      st.floats(0.0, 6.28)), max_size=3)):
        terms.append(f"exp(c={c!r},lam={w!r})" if name == "exp"
                     else f"{name}(c={c!r},w={w!r},phi={phi!r})")
    if draw(st.booleans()):
        x0 = a + draw(st.floats(-2.0, 2.0).filter(lambda d: abs(d) >= 0.1))
        for k, c in enumerate(draw(st.lists(coef, min_size=1, max_size=5))):
            terms.append(f"pow(c={c!r},x0={x0!r},beta={k})")
    if draw(st.booleans()) or not terms:
        beta = draw(st.floats(0.05, 3.95).filter(lambda b: b != round(b)))
        terms.append(f"pow(c={draw(coef)!r},x0={a!r},beta={beta!r})")
    return parse_expr(" + ".join(terms)), a


# orders over the groups n = 1, 2, 3, integers and near-integers included
_ORDER_LISTS = st.lists(
    st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 3.0),
              st.builds(lambda n, d: n + d, st.integers(1, 2), st.floats(-1e-3, 1e-3))),
    min_size=1, max_size=6)


@given(_scan_inputs(), _ORDER_LISTS)
@settings(max_examples=60, deadline=None)
def test_report_many_equals_one_report_per_order(inputs, alphas):
    f, a = inputs
    singles = [lfd_report(f, al, a, TINY_CFG) for al in alphas]
    many = lfd_report_many(f, alphas, a, TINY_CFG)
    assert len(many) == len(singles)
    for al, m, s in zip(alphas, many, singles):
        assert m == s and repr(m) == repr(s)  # every field, -0.0 apart from 0.0
        # the theory side as f^(n)(a) / Gamma(n + 1 - alpha), taken on its own
        order = FracOrder(al)
        try:
            expected = evaluate(derivative(f, order.n), a) * rgamma(order.n + 1.0 - al)
        except DomainError:
            expected = None
        assert repr(m.theory_prefactor) == repr(expected)


def test_report_many_prefactor_is_none_past_a_singular_derivative():
    # f = x^1.5: f'(0) = 0, f'' = 0.75 x^-0.5 is singular at 0, f''' leaves the class
    f = parse_expr("pow(c=1,x0=0,beta=1.5)")
    reps = lfd_report_many(f, [0.5, 1.0, 1.5, 2.0, 2.5], 0.0, FAST_CFG)
    assert [r.theory_prefactor for r in reps] == [0.0, 0.0, None, None, None]
    assert [r.theory_exponent for r in reps] == [0.5, 0.0, 0.5, 0.0, 0.5]


@pytest.mark.parametrize("alphas", [[], [0.5, math.nan], [0.5, math.inf], [1.0, 0.0],
                                    [-0.5]])
def test_report_many_rejects_bad_order_lists(alphas):
    with pytest.raises(DomainError):
        lfd_report_many(SIN, alphas, 0.0, FAST_CFG)


def test_report_many_needs_four_samples_like_report():
    cfg = ScanConfig(h0=0.1, ratio=0.5, count=3)
    with pytest.raises(InsufficientData):
        lfd_report(SIN, 0.5, 0.0, cfg)
    with pytest.raises(InsufficientData):
        lfd_report_many(SIN, [0.5, 1.0], 0.0, cfg)


CORPUS = Path(__file__).resolve().parents[1] / "corpus" / "smooth30.txt"
# the orders and scan of the benchmark's verify-theorem run
VERIFY_ALPHAS = [0.25, 0.5, 0.75, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0]
VERIFY_CFG = ScanConfig(h0=0.1, ratio=0.5, count=26, quad=QuadratureConfig(nodes=1024))


def test_corpus_scan_makes_one_scan_and_one_fit_per_entry(monkeypatch):
    # a per-order path (one fit, one sample object or one quadrature call
    # per order and point) fails here
    def forbidden(*args, **kwargs):
        raise AssertionError("per-order path taken")

    monkeypatch.setattr(np, "polyfit", forbidden)
    monkeypatch.setattr(LfdSample, "__init__", forbidden)
    calls, cores = Counter(), 0
    for module, name in ((lfd, "_derivative_rows"), (lfd, "lfd_classify"),
                         (fracderiv, "singular_integral")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for f, a in read_corpus(str(CORPUS)):
        calls.clear()
        assert len(lfd_report_many(f, VERIFY_ALPHAS, a, VERIFY_CFG)) == len(VERIFY_ALPHAS)
        # one quadrature call over every order when the rest holds a power
        # term (an off-centre polynomial); a rest of sin, cos and exp terms
        # takes the series at every scan point, x - a <= 0.1
        core = int(any(isinstance(t, PowerTerm) for t in split_powers(f, a)[1].terms))
        assert calls == Counter(_derivative_rows=1, lfd_classify=1, singular_integral=core)
        cores += core
    assert cores == 2


POW35 = parse_expr("pow(c=1,x0=0,beta=3.5)")


@pytest.mark.parametrize("f, builds", [(SIN, 4), (POW35, 2), (POW35 + SIN, 4)],
                         ids=["f0-3", "f1-3", "f2-6"])
def test_scan_chain_serves_the_prefactors_when_f_is_all_rest(derivative_builds, f, builds):
    # from h0 = 3.2 the first scan points of sin are past the series' reach
    # and take the integral on the rest's f^(1) and f^(3); the prefactors
    # take f^(1) and f^(3) of f; a power term centered at a takes the power
    # rule and derives nothing
    _check_prefactor_builds(derivative_builds, f, 3.2, builds)


@pytest.mark.parametrize("f, builds", [(SIN, 3), (POW35 + SIN, 3)], ids=["f0-3", "f1-4"])
def test_series_scan_derives_only_the_integer_orders_chain(derivative_builds, f, builds):
    # from h0 = 0.1 sin takes the series at every point: only the integer
    # order 1 derives the rest's f^(1), and the prefactors f^(1) and f^(3)
    _check_prefactor_builds(derivative_builds, f, 0.1, builds)


def _check_prefactor_builds(derivative_builds, f, h0, builds):
    cfg = ScanConfig(h0=h0, ratio=0.5, count=16, quad=QuadratureConfig(nodes=512))
    reps = lfd_report_many(f, [0.5, 1.0, 2.5], 0.0, cfg)
    assert len(derivative_builds) == builds
    assert [r.theory_prefactor for r in reps] == [
        evaluate(derivative(f, n), 0.0) * rgamma(n + 1.0 - al)
        for n, al in ((1, 0.5), (1, 1.0), (3, 2.5))]


def test_verify_statuses_equal_the_cli_rows(capsys):
    # verify-theorem on the benchmark argv prints lfd_verify's statuses, and
    # lfd_verify's reports are lfd_report_many's
    assert main(["verify-theorem", "--corpus", str(CORPUS),
                 "--alphas", ",".join(map(repr, VERIFY_ALPHAS)),
                 "--count", "26", "--nodes", "1024", "--output", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    verdicts = []
    for f, a in read_corpus(str(CORPUS)):
        pairs = lfd_verify(f, VERIFY_ALPHAS, a, VERIFY_CFG)
        assert [report for report, _ in pairs] == lfd_report_many(f, VERIFY_ALPHAS, a,
                                                                  VERIFY_CFG)
        verdicts += pairs
    assert [("PASS" if passed else "FAIL", report.classification.kind)
            for report, passed in verdicts] == [(r["status"], r["classification"])
                                                for r in rows]
    assert all(type(passed) is bool for _, passed in verdicts)


def test_verify_rule_by_order():
    # near integer orders, both outcomes: Zero passes off an integer, and an
    # integer order n passes when its limit (0.0 for Zero) is within tol of
    # f^(n)(a); a Divergent limit never passes
    alphas = [0.97, 1.0, 1.5, 1.97, 2.0]
    seen = set()
    for f, a in read_corpus(str(CORPUS))[:8]:
        for tol in (0.0, 1e-6):
            for al, (report, passed) in zip(alphas, lfd_verify(f, alphas, a, FAST_CFG, tol)):
                cls = report.classification
                if al != round(al):
                    assert passed == (cls.kind == CLASS_ZERO)
                else:
                    target = evaluate(derivative(f, round(al)), a)
                    limit = {CLASS_FINITE: cls.limit, CLASS_ZERO: 0.0}.get(cls.kind)
                    assert passed == (limit is not None and abs(limit - target) <= tol)
                seen.add((al == round(al), passed))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_verify_without_a_target_is_a_domain_error():
    # f' = 0.5 x^-0.5 is singular at 0: no f^(1)(a) to compare the limit with
    f = parse_expr("pow(c=1,x0=0,beta=0.5)")
    with pytest.raises(DomainError) as exc:
        lfd_verify(f, [1.0], 0.0, FAST_CFG)
    assert str(exc.value) == ("f^(1) of pow(c=1.0,x0=0.0,beta=0.5) leaves the function "
                              "class or is not finite at a=0.0")
    # a non-integer order needs no target
    [(report, passed)] = lfd_verify(f, [0.25], 0.0, FAST_CFG)
    assert passed == (report.classification.kind == CLASS_ZERO)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
def test_verify_tol_must_be_finite_and_non_negative(tol, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(lfd, "_derivative_rows", no_scan)
    with pytest.raises(DomainError, match="^tol must be finite and non-negative"):
        lfd_verify(SIN, [0.5, 1.0], 0.0, FAST_CFG, tol)
