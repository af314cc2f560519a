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
  produce the scaled values natively; each point's sums stop once its next term
  can no longer change them (at most 24 terms), whatever else is in the batch.

airy_arrays and ai_arrays share this dispatch; ai_arrays evaluates the Ai side
only (no Bi ladder, no Bi sums) and returns the same bits as the unscaled Ai,
Ai' of airy_arrays.

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

# Rows k of the stacked x >= 9.5 sums (Ai, Ai', Bi, Bi'): ((-1)^k u_k, (-1)^k v_k, u_k, v_k).
_ASY_SGN = np.where(np.arange(_ASY_U.size) % 2, -1.0, 1.0)
_ASY_POS_COEF = np.stack([_ASY_SGN * _ASY_U, _ASY_SGN * _ASY_V, _ASY_U, _ASY_V], axis=1)[:, :, None]
# Largest |coefficient| of the next term, max(|u_{k+1}|, |v_{k+1}|); the last row never stops early.
_ASY_POS_NEXT = np.append(np.maximum(np.abs(_ASY_U), np.abs(_ASY_V))[1:], np.inf).tolist()
_ASY_POS_STOP = 2.0 ** -55

# Term-ratio denominators of the Maclaurin rows (f, g, f', g'): t_{k+1} = t_k x^3 / den_k.
_SERIES_DEN = np.array([[(3 * k + 2) * (3 * k + 3), (3 * k + 3) * (3 * k + 4),
                         (3 * k + 3) * (3 * k + 5), (3 * k + 1) * (3 * k + 3)]
                        for k in range(40)], dtype=float)[:, :, None]


def _series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maclaurin series for Ai, Ai', Bi, Bi' (vectorized, |x| <= ~4.6)."""
    x = np.asarray(x, dtype=float)
    x3 = x * x * x
    one = np.ones_like(x)
    # rows f, g, f', g' with Ai = C1 f - C2 g and Bi = sqrt(3) (C1 f + C2 g), likewise for Ai', Bi'
    sums = np.stack([one, x, 0.5 * x * x, one])
    term = sums.copy()
    for den in _SERIES_DEN:
        term *= x3
        term /= den
        sums += term
        if np.max(np.abs(term[:2])) < 1e-20 * max(1.0, np.max(np.abs(sums[0]))):
            break
    f, g, fp, gp = sums
    ai = _C1 * f - _C2 * g
    aip = _C1 * fp - _C2 * gp
    bi = _SQRT3 * (_C1 * f + _C2 * g)
    bip = _SQRT3 * (_C1 * fp + _C2 * gp)
    return ai, aip, bi, bip


def _asy_pos_scaled(x: np.ndarray, rows: int = 4) -> tuple[np.ndarray, ...]:
    """Scaled asymptotics for x >= 9.5: (ai e^z, aip e^z, bi e^-z, bip e^-z, zeta).

    rows=2 sums and returns only the Ai side: (ai e^z, aip e^z, zeta).
    """
    zeta = (2.0 / 3.0) * x ** 1.5
    xq = x ** 0.25
    # Term k is +-u_k / zeta^k (+-v_k / zeta^k for the derivatives).  The u-terms shrink by
    # (6k+5)(6k+1) / (72 (k+1) zeta) per step, below about 0.6 for zeta >= 19.5 (x >= 9.5)
    # and k <= 24; the v-terms shrink faster still, as |v_k| = u_k (6k+1)/(6k-1).  A point
    # stops once its next term is below 2^-55: it and every later term are below half an
    # ulp of each sum, which lies in [0.99, 1.01], so none of them can change a bit.  Every
    # x >= 9.5 stops by k = 24, long before the terms start to grow (k near 2 zeta).  The
    # points run in order of zeta: a larger zeta never rounds to a larger term, so the
    # points still summing are a prefix, which shrinks as the larger zeta stop.  Each value
    # is the one its own one-point evaluation gives.
    order = np.argsort(zeta)
    zs = zeta[order]
    sums = np.zeros((rows, x.size))
    step = np.empty_like(sums)
    term = np.ones_like(x)
    n = x.size
    for coef, nxt in zip(_ASY_POS_COEF, _ASY_POS_NEXT):
        np.multiply(term[:n], coef[:rows], out=step[:, :n])
        sums[:, :n] += step[:, :n]
        term[:n] /= zs[:n]
        if term[n - 1] * nxt < _ASY_POS_STOP:
            n = np.count_nonzero(term[:n] * nxt >= _ASY_POS_STOP)
            if n == 0:
                break
    s = np.empty_like(sums)
    s[:, order] = sums
    out = [s[0] / (2.0 * _SQRTPI * xq), -xq * s[1] / (2.0 * _SQRTPI)]
    if rows == 4:
        out += [s[2] / (_SQRTPI * xq), xq * s[3] / _SQRTPI]
    return (*out, zeta)


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


def _taylor_eval(a: np.ndarray, da: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horner value and derivative of sum_k a[k] h^k; the Taylor index is axis 0, da[k] = k a[k]."""
    # in place on arrays; [()] makes a 0-d h's sums numpy scalars, whose arithmetic is cheaper
    val = np.zeros_like(h)[()]
    der = np.zeros_like(h)[()]
    for k in range(a.shape[0] - 1, 0, -1):
        val += a[k]
        val *= h
        der *= h
        der += da[k]
    val += a[0]
    return val, der


_K = np.arange(_TAYLOR_TERMS)


class _AnchorLadder:
    """Taylor anchors of one Airy-ODE solution on a uniform grid."""

    def __init__(self, x_start: float, y0: float, y1: float, x_end: float, step: float):
        n = int(round((x_end - x_start) / step))
        self.x0 = x_start
        self.step = step
        self.n = n + 1
        xs = x_start + step * np.arange(self.n)
        coeffs = np.empty((_TAYLOR_TERMS, self.n))
        coeffs[:, 0] = _taylor_coeffs(x_start, y0, y1, _TAYLOR_TERMS)
        for i in range(1, self.n):
            a = coeffs[:, i - 1]
            v, d = _taylor_eval(a, _K * a, np.asarray(step))
            coeffs[:, i] = _taylor_coeffs(xs[i], float(v), float(d), _TAYLOR_TERMS)
        self.xs = xs
        # (a_k, k a_k) per anchor, Taylor index before the anchor index: one gather serves Horner
        self.coeffs = np.stack([coeffs, _K[:, None] * coeffs])

    def eval(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.clip(np.rint((x - self.x0) / self.step).astype(int), 0, self.n - 1)
        h = x - self.xs[idx]
        a, da = self.coeffs[:, :, idx]
        return _taylor_eval(a, da, h)


def _build_ladders():
    # Ai downward from the asymptotic seed at the positive seam
    x_hi = _SEAM_POS_ASY
    ai_s, aip_s, zeta = _asy_pos_scaled(np.asarray([x_hi]), rows=2)
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


def _scaled(x, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The region dispatch: ravelled rows (ai_s, aip_s, bi_s, bip_s)[:rows] and zeta.

    rows=2 evaluates the Ai side only and never touches the Bi ladders.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("Airy arguments must be finite")
    x = np.ravel(x)
    out = np.empty((rows, x.size))
    zeta = np.zeros_like(x)

    m = x <= _SEAM_NEG_ASY
    if np.any(m):
        out[:, m] = _asy_neg(x[m])[:rows]
    m = (x > _SEAM_NEG_ASY) & (x < _SEAM_NEG_SERIES)
    if np.any(m):
        out[:2, m] = _LADDER_AI_NEG.eval(x[m])
        if rows == 4:
            out[2:, m] = _LADDER_BI_NEG.eval(x[m])
    m = (x >= _SEAM_NEG_SERIES) & (x < _SEAM_ZERO)
    if np.any(m):
        out[:, m] = _series(x[m])[:rows]
    m = (x >= _SEAM_ZERO) & (x < _SEAM_POS_ASY)
    if np.any(m):
        xm = x[m]
        z = (2.0 / 3.0) * xm ** 1.5
        ez = np.exp(z)
        av, ad = _LADDER_AI_POS.eval(xm)
        out[0, m] = av * ez
        out[1, m] = ad * ez
        if rows == 4:
            bv, bd = _LADDER_BI_POS.eval(xm)
            out[2, m] = bv / ez
            out[3, m] = bd / ez
        zeta[m] = z
    m = x >= _SEAM_POS_ASY
    if np.any(m):
        *out[:, m], zeta[m] = _asy_pos_scaled(x[m], rows)
    return out, zeta


def airy_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized scaled evaluation: (ai_s, aip_s, bi_s, bip_s, zeta).

    For x >= 0 the ai values carry e^{+zeta}, bi values e^{-zeta}; for x < 0
    the values are unscaled and zeta = 0.  Non-finite inputs raise DomainError.
    """
    shp = np.shape(x)
    out, zeta = _scaled(x, 4)
    return (*out.reshape((4,) + shp), zeta.reshape(shp))


def ai_arrays(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized unscaled (Ai, Ai'); large positive arguments underflow to 0.

    Evaluates the Ai side of airy_arrays only, with the same bits.
    """
    shp = np.shape(x)
    out, zeta = _scaled(x, 2)
    with np.errstate(under="ignore"):
        e = np.exp(-zeta)
    ai, aip = (out * e).reshape((2,) + shp)
    return ai, aip
