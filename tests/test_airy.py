"""Airy function evaluation: oracle values, identities, and edge behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncairy import DomainError, ai_arrays, airy, airy_arrays

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
    ai_s, aip_s, bi_s, bip_s, zeta = (float(v[0]) for v in airy_arrays(np.asarray([x])))
    e = math.exp(zeta)
    assert ai_s / e == pytest.approx(ai, rel=1e-11)
    assert aip_s / e == pytest.approx(aip, rel=1e-11)
    assert bi_s * e == pytest.approx(bi, rel=1e-11)
    assert bip_s * e == pytest.approx(bip, rel=1e-11)


@pytest.mark.parametrize("x,ai_s,bi_s", SCALED_ORACLE)
def test_scaled_oracle_values(x, ai_s, bi_s):
    ai, _, bi, _, _ = airy_arrays(np.asarray([x]))
    assert ai[0] == pytest.approx(ai_s, rel=1e-11)
    assert bi[0] == pytest.approx(bi_s, rel=1e-11)


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=-20.0, max_value=30.0))
def test_wronskian_property(x):
    ai, aip, bi, bip = airy_arrays(np.asarray([x]))[:4]
    w = float(ai[0] * bip[0] - aip[0] * bi[0])
    assert abs(w * math.pi - 1.0) <= 1e-10


def test_ode_residual(assert_checks):
    assert_checks("airy_ode_residual")


def test_seam_continuity(assert_checks):
    assert_checks("airy_seam_continuity")


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
        airy_arrays(np.asarray([float("nan")]))
    with pytest.raises(DomainError):
        airy_arrays(np.asarray([float("inf")]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [airy_arrays, ai_arrays])
def test_arrays_reject_nonfinite(fn, bad):
    # without the check no region mask matches and np.empty leaks through
    with pytest.raises(DomainError):
        fn(np.array([bad]))
    with pytest.raises(DomainError):
        fn(np.array([[0.5, -2.0], [bad, 12.0]]))


def test_unscaled_bi_overflow_guard():
    # the scaled evaluation stays finite where the unscaled Bi overflows
    _, _, bi, _, _ = airy_arrays(np.asarray([150.0]))
    assert math.isfinite(bi[0]) and bi[0] > 0


def _masked_asy_pos_scaled(x):
    # the 48-term expansion with a per-term live mask, as it stood before the early stop
    zeta = (2.0 / 3.0) * x ** 1.5
    xq = x ** 0.25
    sa = np.zeros_like(x)
    sap = np.zeros_like(x)
    sb = np.zeros_like(x)
    sbp = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(airy._ASY_U.size):
        tk = term * airy._ASY_U[k]
        tkv = term * airy._ASY_V[k]
        live = np.abs(tk) < prev
        sgn = -1.0 if (k % 2) else 1.0
        sa += np.where(live, sgn * tk, 0.0)
        sap += np.where(live, sgn * tkv, 0.0)
        sb += np.where(live, tk, 0.0)
        sbp += np.where(live, tkv, 0.0)
        prev = np.abs(tk)
        term = term / zeta
    sqrtpi = math.sqrt(math.pi)
    return sa / (2.0 * sqrtpi * xq), -xq * sap / (2.0 * sqrtpi), sb / (sqrtpi * xq), xq * sbp / sqrtpi, zeta


_ASY_POS_POINTS = [
    np.linspace(9.5, 200.0, 20_001),
    np.linspace(9.5, 9.6, 2_001),
    np.array([9.5, np.nextafter(9.5, 10.0), 1e5, 1e8]),
]


@pytest.mark.parametrize("x", _ASY_POS_POINTS, ids=["sweep", "seam", "edges"])
def test_asy_pos_early_stop_is_bit_identical(x):
    # batched and one point at a time: the stop rule reads the batch's largest term
    for got, want in zip(airy._asy_pos_scaled(x), _masked_asy_pos_scaled(x)):
        assert got.tobytes() == want.tobytes()
    for xi in x[:: max(1, x.size // 200)]:
        one = np.array([xi])
        for got, want in zip(airy._asy_pos_scaled(one), _masked_asy_pos_scaled(one)):
            assert got.tobytes() == want.tobytes(), xi


class _CountingRows:
    def __init__(self, rows):
        self.rows = rows
        self.pulled = 0

    def __iter__(self):
        for row in self.rows:
            self.pulled += 1
            yield row


def test_asy_pos_runs_at_most_25_terms(monkeypatch):
    for x in np.concatenate([[9.5, np.nextafter(9.5, 10.0)], np.geomspace(9.5, 1e8, 60)]):
        rows = _CountingRows(airy._ASY_POS_COEF)
        monkeypatch.setattr(airy, "_ASY_POS_COEF", rows)
        airy._asy_pos_scaled(np.array([x]))
        assert 1 <= rows.pulled <= 25, (x, rows.pulled)


def _seam_batch():
    pts = [-0.0, 0.0]
    for seam in (airy._SEAM_NEG_ASY, airy._SEAM_NEG_SERIES, airy._SEAM_ZERO, airy._SEAM_POS_ASY):
        pts += [np.nextafter(seam, -np.inf), seam, np.nextafter(seam, np.inf)]
    return np.array(pts)


_AI_ONLY_BATCHES = [
    _seam_batch(),
    np.concatenate([_seam_batch(), np.linspace(-30.0, 120.0, 3_001)]),
    np.random.default_rng(19).uniform(-15.0, 40.0, (40, 25)),
    np.array(-4.5),
    np.array(9.5),
]


@pytest.mark.parametrize("x", _AI_ONLY_BATCHES, ids=["seams", "regions", "2d", "0d-series", "0d-asy"])
def test_ai_arrays_is_the_ai_side_of_airy_arrays(x):
    # the Ai-only dispatch skips the Bi ladders and must not drift from the full one
    ai_s, aip_s, _, _, zeta = airy_arrays(x)
    with np.errstate(under="ignore"):
        e = np.exp(-zeta)
    ai, aip = ai_arrays(x)
    assert np.shape(ai) == np.shape(aip) == np.shape(x)
    assert np.asarray(ai).tobytes() == np.asarray(ai_s * e).tobytes()
    assert np.asarray(aip).tobytes() == np.asarray(aip_s * e).tobytes()


@pytest.mark.parametrize("rows", [2, 4])
def test_asy_pos_mixed_batch_matches_one_point(rows):
    # one point at the seam makes 24 terms; every other point stops at its own term count,
    # in any input order and with repeats
    rng = np.random.default_rng(9)
    x = np.concatenate([[9.5], rng.uniform(9.5, 200.0, 400), [200.0, 9.5, 31.0, 31.0]])
    rng.shuffle(x)
    batch = airy._asy_pos_scaled(x, rows)
    assert len(batch) == rows + 1
    for i, xi in enumerate(x):
        one = airy._asy_pos_scaled(np.array([xi]), rows)
        for got, want in zip(batch, one):
            assert got[i:i + 1].tobytes() == want.tobytes(), xi
