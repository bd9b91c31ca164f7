"""Scan-and-classify behaviour for the x -> a limit of the Caputo derivative."""

import csv
import io
import math

import pytest

from fraclim.exceptions import DomainError, InsufficientData
from fraclim.fracderiv import (
    METHOD_BRIDGE,
    METHOD_QUAD,
    QuadratureConfig,
    caputo_derivative,
    caputo_quadrature,
    rl_derivative,
)
from fraclim.funcmodel import parse_expr
from fraclim.lfd import (
    CLASS_DIVERGENT,
    CLASS_FINITE,
    CLASS_ZERO,
    LfdSample,
    ScanConfig,
    lfd_classify,
    lfd_exact,
    lfd_report,
    lfd_scan,
)
from fraclim.specfun import FracOrder

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
            one = caputo_quadrature(f, FracOrder(alpha), 0.5, s.x, cfg.quad)
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
    with pytest.raises(DomainError):
        # final offset would sink below the quadrature min_gap
        ScanConfig(h0=1.0, ratio=0.1, count=14, quad=QuadratureConfig(min_gap=1e-9))


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


def test_est_error_shrinks_with_refinement():
    coarse = lfd_scan(SIN, FracOrder(0.5), 0.0,
                      ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=256)))
    fine = lfd_scan(SIN, FracOrder(0.5), 0.0,
                    ScanConfig(h0=0.1, count=4, quad=QuadratureConfig(nodes=1024)))
    for c, f in zip(coarse, fine):
        assert f.est_error < c.est_error


def test_oscillatory_integer_order_stays_finite_from_small_h0():
    # 2 sin(3x) at alpha = 1: the first classical derivative at 0 is 6; a scan
    # started too far out would leave the scaling regime, h0 = 0.1 stays in it
    f = parse_expr("sin(c=2,w=3)")
    rep = lfd_report(f, FracOrder(1.0), 0.0, ScanConfig(h0=0.1, count=20))
    assert rep.classification.kind == CLASS_FINITE
    assert rep.classification.limit == pytest.approx(6.0, abs=1e-6)
