"""Real-argument Airy functions Ai, Ai', Bi, Bi' with exponentially scaled variants.

Evaluation strategy (seams validated by the airy_seam_continuity check in verify):

* ``x <= -9.5``        oscillatory asymptotic expansions, optimally truncated;
* ``-9.5 < x < -4.5``  Taylor propagation of the Airy ODE y'' = x y from an
  anchor ladder seeded by the Maclaurin series at x = -4.5;
* ``-4.5 <= x < 0``    Maclaurin series;
* ``0 <= x < 9.5``     Taylor anchor ladders: Ai is propagated *downward* from
  the asymptotic seed at x = 9.5 (the stable direction for the recessive
  solution), Bi *upward* from its exact value at x = 0;
* ``x >= 9.5``         asymptotic expansions in zeta = (2/3) x^(3/2), which
  produce the scaled values natively.

A plain series/asymptotics split at a single crossover cannot reach 1e-12
relative accuracy in double precision (the asymptotic series' optimal
truncation error at x = 4.5 is ~3e-6 relative), hence the anchor ladders.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["airy_arrays", "ai_arrays"]

# Ai(0) = 3^(-2/3)/Gamma(2/3), -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_C1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_C2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
_SQRT3 = math.sqrt(3.0)
_SQRTPI = math.sqrt(math.pi)

_SEAM_NEG_ASY = -9.5
_SEAM_NEG_SERIES = -4.5
_SEAM_ZERO = 0.0
_SEAM_POS_ASY = 9.5

_ANCHOR_STEP = 0.25
_TAYLOR_TERMS = 26


def _asy_u_v(nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients u_k, v_k of the large-|x| expansions."""
    u = np.empty(nmax)
    v = np.empty(nmax)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(nmax - 1):
        u[k + 1] = u[k] * (6 * k + 5) * (6 * k + 1) / (72.0 * (k + 1))
    for k in range(1, nmax):
        v[k] = -u[k] * (6 * k + 1) / (6 * k - 1)
    return u, v


_ASY_U, _ASY_V = _asy_u_v(48)


def _series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maclaurin series for Ai, Ai', Bi, Bi' (vectorized, |x| <= ~4.6)."""
    x = np.asarray(x, dtype=float)
    x3 = x * x * x
    f = np.ones_like(x)
    g = x.copy()
    fp = 0.5 * x * x
    gp = np.ones_like(x)
    tf = np.ones_like(x)
    tg = x.copy()
    tfp = 0.5 * x * x
    tgp = np.ones_like(x)
    for k in range(40):
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        tfp = tfp * x3 / ((3 * k + 3) * (3 * k + 5))
        tgp = tgp * x3 / ((3 * k + 1) * (3 * k + 3))
        f += tf
        g += tg
        fp += tfp
        gp += tgp
        if max(np.max(np.abs(tf)), np.max(np.abs(tg))) < 1e-20 * max(1.0, np.max(np.abs(f))):
            break
    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    bi = _SQRT3 * (_C1 * f + _C2 * g)
    bip = _SQRT3 * (_C1 * fp + _C2 * gp)
    return ai, aip, bi, bip


def _asy_pos_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled asymptotics for x >= 9.5: returns (ai e^z, aip e^z, bi e^-z, bip e^-z, zeta)."""
    zeta = (2.0 / 3.0) * x ** 1.5
    xq = x ** 0.25
    sa = np.zeros_like(x)
    sap = np.zeros_like(x)
    sb = np.zeros_like(x)
    sbp = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(_ASY_U.size):
        tk = term * _ASY_U[k]
        tkv = term * _ASY_V[k]
        live = np.abs(tk) < prev
        sgn = -1.0 if (k % 2) else 1.0
        sa += np.where(live, sgn * tk, 0.0)
        sap += np.where(live, sgn * tkv, 0.0)
        sb += np.where(live, tk, 0.0)
        sbp += np.where(live, tkv, 0.0)
        prev = np.abs(tk)
        term = term / zeta
    ai_s = sa / (2.0 * _SQRTPI * xq)
    aip_s = -xq * sap / (2.0 * _SQRTPI)
    bi_s = sb / (_SQRTPI * xq)
    bip_s = xq * sbp / _SQRTPI
    return ai_s, aip_s, bi_s, bip_s, zeta


def _asy_neg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oscillatory asymptotics for x <= -9.5."""
    t = -x
    xi = (2.0 / 3.0) * t ** 1.5
    tq = t ** 0.25
    c = np.cos(xi - 0.25 * math.pi)
    s = np.sin(xi - 0.25 * math.pi)
    # even/odd partial sums of u and v against (-1)^k / xi^(2k [+1])
    ue = np.zeros_like(t)
    uo = np.zeros_like(t)
    ve = np.zeros_like(t)
    vo = np.zeros_like(t)
    xi2 = xi * xi
    pe = np.ones_like(t)  # xi^{-2k}
    for k in range(_ASY_U.size // 2):
        sgn = -1.0 if (k % 2) else 1.0
        ue += sgn * _ASY_U[2 * k] * pe
        ve += sgn * _ASY_V[2 * k] * pe
        po = pe / xi
        uo += sgn * _ASY_U[2 * k + 1] * po
        vo += sgn * _ASY_V[2 * k + 1] * po
        pe = pe / xi2
    ai = (c * ue + s * uo) / (_SQRTPI * tq)
    bi = (-s * ue + c * uo) / (_SQRTPI * tq)
    aip = tq * (s * ve - c * vo) / _SQRTPI
    bip = tq * (c * ve + s * vo) / _SQRTPI
    return ai, aip, bi, bip


def _taylor_coeffs(x0: float, y0: float, y1: float, n: int) -> np.ndarray:
    """Taylor coefficients at x0 of the Airy-ODE solution with data (y0, y1)."""
    a = np.empty(n)
    a[0] = y0
    a[1] = y1
    a[2] = 0.5 * x0 * y0
    for k in range(1, n - 2):
        a[k + 2] = (x0 * a[k] + a[k - 1]) / ((k + 1) * (k + 2))
    return a


def _taylor_eval(a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    val = np.zeros_like(h)
    der = np.zeros_like(h)
    for k in range(a.shape[-1] - 1, 0, -1):
        val = (val + a[..., k]) * h
        der = der * h + k * a[..., k]
    val = val + a[..., 0]
    return val, der


class _AnchorLadder:
    """Taylor anchors of one Airy-ODE solution on a uniform grid."""

    def __init__(self, x_start: float, y0: float, y1: float, x_end: float, step: float):
        n = int(round((x_end - x_start) / step))
        self.x0 = x_start
        self.step = step
        self.n = n + 1
        xs = x_start + step * np.arange(self.n)
        coeffs = np.empty((self.n, _TAYLOR_TERMS))
        coeffs[0] = _taylor_coeffs(x_start, y0, y1, _TAYLOR_TERMS)
        for i in range(1, self.n):
            v, d = _taylor_eval(coeffs[i - 1], np.asarray(step))
            coeffs[i] = _taylor_coeffs(xs[i], float(v), float(d), _TAYLOR_TERMS)
        self.xs = xs
        self.coeffs = coeffs

    def eval(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.clip(np.rint((x - self.x0) / self.step).astype(int), 0, self.n - 1)
        h = x - self.xs[idx]
        return _taylor_eval(self.coeffs[idx], h)


def _build_ladders():
    # Ai downward from the asymptotic seed at the positive seam
    x_hi = _SEAM_POS_ASY
    ai_s, aip_s, _, _, zeta = _asy_pos_scaled(np.asarray([x_hi]))
    e = math.exp(-float(zeta[0]))
    down = _AnchorLadder(x_hi, float(ai_s[0]) * e, float(aip_s[0]) * e, 0.0, -_ANCHOR_STEP)
    # Bi upward from exact values at 0
    up = _AnchorLadder(0.0, _SQRT3 * _C1, _SQRT3 * _C2, x_hi, _ANCHOR_STEP)
    # both solutions downward into (-9.5, -4.5) from series seeds at -4.5
    sa, sap, sb, sbp = _series(np.asarray([_SEAM_NEG_SERIES]))
    neg_ai = _AnchorLadder(_SEAM_NEG_SERIES, float(sa[0]), float(sap[0]), _SEAM_NEG_ASY, -_ANCHOR_STEP)
    neg_bi = _AnchorLadder(_SEAM_NEG_SERIES, float(sb[0]), float(sbp[0]), _SEAM_NEG_ASY, -_ANCHOR_STEP)
    return down, up, neg_ai, neg_bi


_LADDER_AI_POS, _LADDER_BI_POS, _LADDER_AI_NEG, _LADDER_BI_NEG = _build_ladders()


def airy_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized scaled evaluation: (ai_s, aip_s, bi_s, bip_s, zeta).

    For x >= 0 the ai values carry e^{+zeta}, bi values e^{-zeta}; for x < 0
    the values are unscaled and zeta = 0.  Non-finite inputs raise DomainError.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("Airy arguments must be finite")
    shp = x.shape
    x = np.ravel(x)
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    bi = np.empty_like(x)
    bip = np.empty_like(x)
    zeta = np.zeros_like(x)

    m = x <= _SEAM_NEG_ASY
    if np.any(m):
        ai[m], aip[m], bi[m], bip[m] = _asy_neg(x[m])
    m = (x > _SEAM_NEG_ASY) & (x < _SEAM_NEG_SERIES)
    if np.any(m):
        ai[m], aip[m] = _LADDER_AI_NEG.eval(x[m])
        bi[m], bip[m] = _LADDER_BI_NEG.eval(x[m])
    m = (x >= _SEAM_NEG_SERIES) & (x < _SEAM_ZERO)
    if np.any(m):
        ai[m], aip[m], bi[m], bip[m] = _series(x[m])
    m = (x >= _SEAM_ZERO) & (x < _SEAM_POS_ASY)
    if np.any(m):
        xm = x[m]
        z = (2.0 / 3.0) * xm ** 1.5
        av, ad = _LADDER_AI_POS.eval(xm)
        bv, bd = _LADDER_BI_POS.eval(xm)
        ez = np.exp(z)
        ai[m] = av * ez
        aip[m] = ad * ez
        bi[m] = bv / ez
        bip[m] = bd / ez
        zeta[m] = z
    m = x >= _SEAM_POS_ASY
    if np.any(m):
        ai[m], aip[m], bi[m], bip[m], zeta[m] = _asy_pos_scaled(x[m])

    return ai.reshape(shp), aip.reshape(shp), bi.reshape(shp), bip.reshape(shp), zeta.reshape(shp)


def ai_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized unscaled (Ai, Ai'); large positive arguments underflow to 0."""
    ai_s, aip_s, _, _, zeta = airy_arrays(x)
    with np.errstate(under="ignore"):
        e = np.exp(-zeta)
    return ai_s * e, aip_s * e

