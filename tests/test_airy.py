"""Airy function evaluation: oracle values, identities, and edge behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncairy import DomainError, OverflowRisk, ai_arrays, airy_arrays, airy_eval, airy_scaled

# frozen high-precision reference values (30-digit arithmetic)
ORACLE = [
    (-10.0, 0.04024123848644319, 0.99626504413279, -0.3146798296438386, 0.11941411339990923),
    (-4.5, 0.2921527810559595, -0.5233625323157477, 0.2538726576969326, 0.6347447677736637),
    (-2.0, 0.22740742820168558, 0.618259020741691, -0.4123025879563985, 0.2787951669211695),
    (0.0, 0.3550280538878172, -0.2588194037928068, 0.6149266274460007, 0.4482883573538264),
    (1.0, 0.13529241631288141, -0.1591474412967932, 1.2074235949528713, 0.9324359333927756),
    (4.5, 0.00033025032351430896, -0.0007178665675575089, 227.58808183559972, 469.13507732796637),
    (10.0, 1.1047532552898686e-10, -3.5206336767389237e-10, 455641153.54822516, 1429236134.4828658),
    (25.0, 8.116026824691387e-38, -4.066089337243281e-37, 3.9220307780413816e+35, 1.957073508323331e+36),
]

SCALED_ORACLE = [
    (50.0, 0.10605346975916805, 0.21223196271406528),
    (100.0, 0.08919692093633041, 0.1784310111708354),
]


@pytest.mark.parametrize("x,ai,aip,bi,bip", ORACLE)
def test_oracle_values(x, ai, aip, bi, bip):
    v = airy_eval(x)
    assert v.ai == pytest.approx(ai, rel=1e-11)
    assert v.aip == pytest.approx(aip, rel=1e-11)
    assert v.bi == pytest.approx(bi, rel=1e-11)
    assert v.bip == pytest.approx(bip, rel=1e-11)


@pytest.mark.parametrize("x,ai_s,bi_s", SCALED_ORACLE)
def test_scaled_oracle_values(x, ai_s, bi_s):
    v = airy_scaled(x)
    assert v.ai == pytest.approx(ai_s, rel=1e-11)
    assert v.bi == pytest.approx(bi_s, rel=1e-11)


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=-20.0, max_value=30.0))
def test_wronskian_property(x):
    ai, aip, bi, bip = airy_arrays(np.asarray([x]))[:4]
    w = float(ai[0] * bip[0] - aip[0] * bi[0])
    assert abs(w * math.pi - 1.0) <= 1e-10


def test_ode_residual():
    h = 1e-3
    for x0 in np.linspace(-10.0, 10.0, 81):
        pts = x0 + h * np.arange(-2, 3)
        ai, _ = ai_arrays(pts)
        d2 = (-ai[0] + 16 * ai[1] - 30 * ai[2] + 16 * ai[3] - ai[4]) / (12 * h * h)
        assert abs(d2 - x0 * ai[2]) <= 1e-6


def test_seam_continuity():
    eps = 1e-12
    for seam in (-9.5, -4.5, 0.0, 4.5, 9.5):
        lo = np.array(airy_arrays(np.asarray([seam - eps]))[:4]).ravel()
        hi = np.array(airy_arrays(np.asarray([seam + eps]))[:4]).ravel()
        assert np.max(np.abs(hi - lo) / np.maximum(np.abs(lo), 1.0)) <= 1e-11


def test_scaled_unscaled_consistency():
    for x in (0.25, 1.0, 3.0, 8.0, 30.0):
        u = airy_eval(x) if x <= 100 else None
        s = airy_scaled(x)
        assert s.ai * math.exp(-s.zeta) == pytest.approx(u.ai, rel=1e-12)
        assert s.aip * math.exp(-s.zeta) == pytest.approx(u.aip, rel=1e-12)
        assert s.bi * math.exp(s.zeta) == pytest.approx(u.bi, rel=1e-12)
        assert s.bip * math.exp(s.zeta) == pytest.approx(u.bip, rel=1e-12)


def test_derivative_consistency():
    # central difference of ai matches aip away from zeros
    h = 1e-5
    for x in (-3.3, -0.7, 0.9, 2.4):
        am, _ = ai_arrays(np.asarray([x - h]))
        ap, _ = ai_arrays(np.asarray([x + h]))
        _, aip = ai_arrays(np.asarray([x]))
        fd = (ap[0] - am[0]) / (2 * h)
        assert fd == pytest.approx(aip[0], rel=1e-8, abs=1e-10)


def test_invalid_inputs_raise():
    with pytest.raises(DomainError):
        airy_eval(float("nan"))
    with pytest.raises(DomainError):
        airy_eval(float("inf"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [airy_arrays, ai_arrays])
def test_arrays_reject_nonfinite(fn, bad):
    # without the check no region mask matches and np.empty leaks through
    with pytest.raises(DomainError):
        fn(np.array([bad]))
    with pytest.raises(DomainError):
        fn(np.array([[0.5, -2.0], [bad, 12.0]]))


def test_unscaled_bi_overflow_guard():
    with pytest.raises(OverflowRisk):
        airy_eval(150.0)
    with pytest.raises(DomainError):
        airy_eval(1000.0)
    # the scaled evaluation stays finite where the unscaled one overflows
    v = airy_scaled(150.0)
    assert math.isfinite(v.bi) and v.bi > 0


def test_vectorized_matches_scalar():
    xs = np.array([-7.2, -1.1, 0.4, 6.6, 14.0])
    ai_v, aip_v = ai_arrays(xs)
    for i, x in enumerate(xs):
        v = airy_eval(float(x))
        assert ai_v[i] == pytest.approx(v.ai, rel=1e-13, abs=1e-300)
        assert aip_v[i] == pytest.approx(v.aip, rel=1e-13, abs=1e-300)
