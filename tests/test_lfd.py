"""Scan-and-classify behaviour for the x -> a limit of the Caputo derivative."""

import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclim.exceptions import DomainError, InsufficientData, UnsupportedFunction
from fraclim.fracderiv import (
    METHOD_BRIDGE,
    METHOD_QUAD,
    QuadratureConfig,
    caputo_derivative,
    rl_derivative,
)
from fraclim.funcmodel import derivative, evaluate, parse_expr
from fraclim.lfd import (
    CLASS_DIVERGENT,
    CLASS_FINITE,
    CLASS_ZERO,
    LfdSample,
    ScanConfig,
    lfd_classify,
    lfd_exact,
    lfd_report,
    lfd_report_many,
    lfd_scan,
)
from fraclim.specfun import FracOrder, rgamma

SIN = parse_expr("sin(c=1,w=1)")
X2 = parse_expr("pow(c=1,x0=0,beta=2)")
FAST_CFG = ScanConfig(h0=0.1, ratio=0.5, count=16, quad=QuadratureConfig(nodes=512))


def test_scan_offsets_are_geometric():
    samples = lfd_scan(X2, FracOrder(0.5), 0.0, ScanConfig(h0=0.2, ratio=0.5, count=6))
    offsets = [s.offset for s in samples]
    assert offsets == pytest.approx([0.2 * 0.5**k for k in range(6)])
    assert all(s.x == pytest.approx(s.offset) for s in samples)


def test_scan_closed_route_has_zero_est_error():
    samples = lfd_scan(X2, FracOrder(0.5), 0.0, FAST_CFG)
    assert all(s.est_error == 0.0 for s in samples)
    assert all(s.usable for s in samples)


def test_scan_integer_order_takes_the_exact_derivative():
    samples = lfd_scan(SIN, FracOrder(1.0), 0.0, FAST_CFG)
    assert [s.value for s in samples] == [math.cos(s.x) for s in samples]
    assert all(s.est_error == 0.0 for s in samples)


@pytest.mark.parametrize("nodes", [512, 511])
def test_scan_matches_pointwise_quadrature(nodes):
    f = parse_expr("cos(c=2,w=1.5,phi=0.3) + exp(c=1,lam=-0.8)")
    cfg = ScanConfig(h0=0.1, ratio=0.5, count=26, quad=QuadratureConfig(nodes=nodes))
    for alpha in (0.4, 2.6):
        for s in lfd_scan(f, FracOrder(alpha), 0.5, cfg):
            one = caputo_derivative(f, FracOrder(alpha), 0.5, s.x, cfg.quad)
            assert one.method == METHOD_QUAD
            assert s.value == pytest.approx(one.value, rel=1e-13)
            assert s.est_error == pytest.approx(one.est_error, rel=1e-13, abs=1e-300)


# Gamma(1.3)/Gamma(0.6) 0.5^-0.4 + sum_k (-1)^k 0.5^(2k+0.3) / Gamma(2k+1.3) (dps=40)
MIXED_CAPUTO_07_AT_05 = 1.6259060634692188956


def test_mixed_fractional_power_sum_is_split_by_term():
    # f' holds (x - a)^-0.7, which no quadrature can sample at z = a: the
    # power term takes the power rule and only sin goes through quadrature
    f = parse_expr("pow(c=1,x0=0,beta=0.3) + sin(c=1,w=1)")
    r = caputo_derivative(f, 0.7, 0.0, 0.5)
    assert r.method == METHOD_QUAD
    assert abs(r.value - MIXED_CAPUTO_07_AT_05) <= 1e-7
    assert rl_derivative(f, 0.7, 0.0, 0.5).method == METHOD_BRIDGE
    assert lfd_report(f, FracOrder(0.7), 0.0, FAST_CFG).classification.kind == CLASS_DIVERGENT


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_non_finite_base_point_raises(a):
    with pytest.raises(DomainError):
        lfd_report(SIN, FracOrder(0.5), a, FAST_CFG)
    with pytest.raises(DomainError):
        lfd_scan(X2, FracOrder(0.5), a, FAST_CFG)
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
    noise = [LfdSample(0.1, 1e-18, 1.0, 0.1, False) for _ in range(8)]
    with pytest.raises(InsufficientData):
        lfd_classify(noise, FracOrder(0.5))


def test_scan_config_validation():
    with pytest.raises(DomainError):
        ScanConfig(h0=0.0)
    with pytest.raises(DomainError):
        ScanConfig(ratio=1.0)
    with pytest.raises(DomainError):
        ScanConfig(count=0)


def test_scan_reaches_offset_1e_200():
    # the Gauss-Legendre nodes scale with x - a, so no grid degenerates: at
    # x - a <= 1e-8, D^0.5 sin = (x-a)^0.5 / Gamma(1.5) up to a relative (x-a)^2
    samples = lfd_scan(SIN, FracOrder(0.5), 0.0, ScanConfig(h0=1e-8, ratio=0.1, count=193))
    assert samples[-1].offset == pytest.approx(1e-200, rel=1e-12)
    for s in samples:
        assert s.value == pytest.approx(s.offset**0.5 / math.gamma(1.5), rel=1e-12)
        assert s.usable and s.est_error <= 1e-13 * s.value


def test_scan_point_rounding_onto_a_raises():
    # a + 1e-10 * 0.1^7 rounds to a = 1: x > a fails for the last point
    cfg = ScanConfig(h0=1e-10, ratio=0.1, count=8)
    assert 1.0 + cfg.h0 * cfg.ratio ** (cfg.count - 1) == 1.0
    with pytest.raises(DomainError):
        lfd_scan(SIN, FracOrder(0.5), 1.0, cfg)
    with pytest.raises(DomainError):
        lfd_scan(SIN, FracOrder(1.0), 1.0, cfg)
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


def test_report_serialization_round_trip():
    rep = lfd_report(SIN, FracOrder(0.5), 0.0, FAST_CFG)
    doc = rep.to_json_dict()
    assert set(doc) == {
        "samples",
        "fitted_exponent",
        "fitted_prefactor",
        "classification",
        "theory_exponent",
        "theory_prefactor",
    }
    assert len(doc["samples"]) == FAST_CFG.count
    assert doc["classification"]["kind"] == CLASS_ZERO

    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["x", "value", "est_error"]
    assert len(rows) == FAST_CFG.count + 1
    # repr round-trip: parsing the first data row reproduces the floats
    assert float(rows[1][0]) == rep.samples[0].x
    assert float(rows[1][1]) == rep.samples[0].value


@pytest.mark.parametrize("tol", [math.nan, math.inf, -0.01])
def test_exponent_tol_must_be_finite_and_non_negative(tol):
    # a NaN band would call every scan Finite, a negative one a divergent scan Zero
    samples = lfd_scan(SIN, FracOrder(0.5), 0.0, FAST_CFG)
    rep = lfd_classify(samples, FracOrder(0.5), exponent_tol=0.0)
    assert rep.classification.kind == CLASS_ZERO
    with pytest.raises(DomainError):
        lfd_classify(samples, FracOrder(0.5), exponent_tol=tol)
    with pytest.raises(DomainError):
        lfd_report(SIN, FracOrder(0.5), 0.0, FAST_CFG, exponent_tol=tol)


def test_est_error_is_at_rounding_at_both_caps():
    coarse = lfd_scan(SIN, FracOrder(0.5), 0.0,
                      ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=256)))
    fine = lfd_scan(SIN, FracOrder(0.5), 0.0,
                    ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=1024)))
    for c, f in zip(coarse, fine):
        assert 0.0 < c.est_error <= 1e-13 * abs(c.value)
        assert 0.0 < f.est_error <= 1e-13 * abs(f.value)


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
    samples = [LfdSample(h, 2.0 + 3.0 * h, 0.0, h, True) for h in (0.5, 0.25, 0.125, 0.0625)]
    samples.append(LfdSample(0.01, 1.0, 5.0, 0.01, False))  # noise, not used
    rep = lfd_classify(samples, FracOrder(1.0), exponent_tol=0.5)
    assert rep.classification.kind == CLASS_FINITE
    assert rep.classification.limit == 2.0
    # two last samples that rounding put at one x: their value, not 0/0
    rep = lfd_classify(samples[:4] + [samples[3]], FracOrder(1.0), exponent_tol=0.5)
    assert rep.classification.limit == samples[3].value


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
