"""Tracy-Widom style evaluators built on the determinant and Painleve routes.

Every gap determinant can be computed two ways: block Nystrom discretization
of the kernel, or closed-form exponentials of integrals of the matrix
Hastings-McLeod solution.  This module exposes both, the scalar F1/F2
reductions, Miura and total-positivity diagnostics, and the existence scan
for the pole boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import ai_arrays
from .errors import DomainError, OutOfRange
from .fredholm import DetResult, half_line_cutoff, half_line_rule, nystrom_det
from .kernels import (CouplingMatrix, ShiftVector, matrix_airy_kernel,
                      matrix_airy_sq_kernel)
from .ncp2 import HMGrid, hm_solve

__all__ = [
    "GapQuery",
    "GapResult",
    "det_airy_sq",
    "det_airy",
    "scalar_f2",
    "scalar_f1",
    "scalar_u",
    "scalar_w_checks",
    "p34_scalar_residual",
    "miura_residual",
    "total_positivity_check",
    "de_bruijn_check",
    "existence_scan",
]


@dataclass(frozen=True)
class GapQuery:
    """A determinant request: shifts, coupling, route selection, tolerance.

    tol is the relative tolerance of the route verdict GapResult.agree; it
    must be at least 1e-10.
    """

    s: ShiftVector
    C: CouplingMatrix
    route: str = "both"
    tol: float = 1e-6

    def __post_init__(self):
        if self.route not in ("nystrom", "painleve", "both"):
            raise DomainError("route must be nystrom, painleve or both")
        if not self.tol >= 1e-10:   # NaN fails this test too
            raise DomainError("tolerance below 1e-10 is not supported")


@dataclass(frozen=True)
class GapResult:
    """Values from the requested routes, their absolute difference and verdict.

    agree is diff <= tol * |Nystrom value| for the query's tol; diff and
    agree are None unless both routes ran.
    """

    nystrom: DetResult | None
    painleve: complex | None
    diff: float | None
    agree: bool | None


def _grid_for(C: CouplingMatrix, s: ShiftVector) -> HMGrid:
    return hm_solve(C, s.delta, S_min=min(-1.5, s.S - 0.1))


def _pack(q: GapQuery, nys, pain) -> GapResult:
    if nys is None or pain is None:
        return GapResult(nys, pain, None, None)
    diff = abs(nys.value - pain)
    # a Python bool, so that `agree is False` holds when the routes differ
    return GapResult(nys, pain, diff, bool(diff <= q.tol * max(abs(nys.value), 1e-300)))


def _half_line_det(kernel, s: ShiftVector, C: CouplingMatrix, z: float, m: int) -> DetResult:
    """det(Id + z K) for K(x, y) = kernel(x, y, s, C) on [0, half_line_cutoff(s)].

    Block Nystrom with refinement from m nodes.
    """
    rule = half_line_rule(m, half_line_cutoff(s))
    return nystrom_det(lambda x, y: kernel(x, y, s, C), s.r, z, rule)


def det_airy_sq(q: GapQuery, m: int = 40) -> GapResult:
    """det(Id - Ai^2) by Nystrom and/or the Painleve trace formula.

    The Painleve value is exp(-4 int_S^inf (t-S) Tr beta1^2 dt).
    """
    nys = None
    pain = None
    if q.route in ("nystrom", "both"):
        nys = _half_line_det(matrix_airy_sq_kernel, q.s, q.C, -1.0, m)
    if q.route in ("painleve", "both"):
        grid = _grid_for(q.C, q.s)
        pain = complex(np.exp(-4.0 * grid.int_t_beta_sq(q.s.S)))
    return _pack(q, nys, pain)


def det_airy(q: GapQuery, sign: int, m: int = 40) -> GapResult:
    """det(Id + sign * Ai) by Nystrom and/or the Painleve formula.

    The closed form is exp(int_S^inf Tr(-beta1 - 2(t-S) beta1^2) dt) with
    beta1 solved for the coupling sign*C; the overall sign inside the
    exponent is the single global convention fixed against the Nystrom
    oracle (the first-order term must reproduce the operator trace).
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    nys = None
    pain = None
    if q.route in ("nystrom", "both"):
        nys = _half_line_det(matrix_airy_kernel, q.s, q.C, float(sign), m)
    if q.route in ("painleve", "both"):
        grid = _grid_for(q.C if sign == 1 else q.C.negated(), q.s)
        s0 = q.s.S
        log_det = -grid.int_tr_beta(s0) - 2.0 * grid.int_t_beta_sq(s0)
        pain = complex(np.exp(log_det))
    return _pack(q, nys, pain)


def _scalar_grid(x: float) -> HMGrid:
    """The r = 1, unit-coupling grid behind every scalar-chain value at x.

    x = 2S, so the grid's top node S_max bounds the chain at x <= 2 S_max (20).
    """
    if not x >= -8.0:   # NaN fails this test too
        raise OutOfRange("scalar distributions are supported for x >= -8")
    grid = hm_solve(CouplingMatrix(np.array([[1.0]])), [0.0], S_min=-4.2)
    x_max = 2.0 * grid.S_values[-1]
    if x > x_max:
        raise OutOfRange(f"scalar distributions are supported for -8 <= x <= {x_max:g}")
    return grid


def scalar_f2(x: float) -> float:
    """GUE edge distribution F2(x) = exp(-int_x^inf (y-x) u(y)^2 dy).

    u(y) = -beta1(y/2) for the scalar (r=1, unit coupling) solution; the
    change of variable turns the integral into the matrix trace formula at
    shift x/2.
    """
    grid = _scalar_grid(x)
    return float(np.real(np.exp(-4.0 * grid.int_t_beta_sq(0.5 * x))))


def scalar_f1(x: float) -> float:
    """GOE edge distribution F1(x) = exp(-1/2 int_x^inf u) * sqrt(F2(x))."""
    grid = _scalar_grid(x)
    int_u = -2.0 * np.real(grid.int_tr_beta(0.5 * x))
    return float(np.exp(-0.5 * int_u) * math.sqrt(scalar_f2(x)))


def scalar_u(x: float) -> float:
    """The Hastings-McLeod solution u(x) ~ Ai(x) of u'' = 2u^3 + x u."""
    grid = _scalar_grid(x)
    return float(-np.real(grid.beta1_at(0.5 * x)[0, 0]))


def _w_of(grid: HMGrid, x: float) -> float:
    b = float(np.real(grid.beta1_at(0.5 * x)[0, 0]))
    db = float(np.real(grid.dbeta1_at(0.5 * x)[0, 0]))
    return 0.5 * b * b + 0.25 * db


def scalar_w_checks(x: float) -> tuple[float, float]:
    """(w, f1_alt): w = u^2/2 - u'/2 and the alternative F1 built from w.

    f1_alt = exp(-int_x^inf (y-x) w(y) dy); it must agree with scalar_f1.
    """
    grid = _scalar_grid(x)
    w = _w_of(grid, x)
    s0 = 0.5 * x
    # int_x^inf (y-x) w dy = 2 int_{x/2}^inf (t-x/2) beta^2 dt - int beta
    iw = 2.0 * np.real(grid.int_t_beta_sq(s0)) - np.real(grid.int_tr_beta(s0))
    return w, float(np.exp(-iw))


def p34_scalar_residual(x: float) -> float:
    """Defect of w''' = 12 w w' + 2 w + x w' by finite differences in x, up to x + 4h."""
    grid = _scalar_grid(x)
    dx = 2.0 * grid.h
    x_max = 2.0 * grid.S_values[-1] - 2.0 * dx
    if x > x_max:
        raise OutOfRange(f"p34_scalar_residual is supported for -8 <= x <= {x_max:g}")
    ws = np.array([_w_of(grid, x + k * dx) for k in range(-2, 3)])
    wp = (ws[0] - 8.0 * ws[1] + 8.0 * ws[3] - ws[4]) / (12.0 * dx)
    wppp = (-ws[0] + 2.0 * ws[1] - 2.0 * ws[3] + ws[4]) / (2.0 * dx ** 3)
    return abs(wppp - (12.0 * ws[2] * wp + 2.0 * ws[2] + x * wp))


def _log_det_scalar(kernel, s: float) -> float:
    """log det(Id - K) by Nystrom for r = 1, unit coupling and shift s."""
    d = _half_line_det(kernel, ShiftVector(np.array([s])), CouplingMatrix(np.array([[1.0]])),
                       -1.0, 40)
    return float(np.log(np.real(d.value)))


def miura_residual(s_center: float, h: float = 1e-2) -> tuple[float, float]:
    """(miura, remiu): tau-function Miura defects for r = 1.

    miura is |(d ln tau_Xi - 2 d ln tau_Gamma)^2 + d^2 ln tau_Xi| with both
    determinants by Nystrom on a finite-difference stencil of shifts; remiu
    checks u = -v^2 +- v' for u = 2 d^2 ln tau_Gamma, v^2 = -d^2 ln tau_Xi.
    """
    ks = np.arange(-3, 4)
    lxi = np.array([_log_det_scalar(matrix_airy_sq_kernel, s_center + k * h) for k in ks])
    lga = np.array([_log_det_scalar(matrix_airy_kernel, s_center + k * h) for k in ks])

    def d1(f, i):
        return (f[i + 1] - f[i - 1]) / (2.0 * h)

    def d2(f, i):
        return (f[i + 1] - 2.0 * f[i] + f[i - 1]) / (h * h)

    mid = 3
    miura = abs((d1(lxi, mid) - 2.0 * d1(lga, mid)) ** 2 + d2(lxi, mid))
    v = np.array([math.sqrt(max(-d2(lxi, i), 0.0)) for i in (2, 3, 4)])
    vp = (v[2] - v[0]) / (2.0 * h)
    u = 2.0 * d2(lga, mid)
    remiu = min(abs(u - (-v[1] ** 2 + vp)), abs(u - (-v[1] ** 2 - vp)))
    return miura, remiu


def total_positivity_check(s: ShiftVector, C: CouplingMatrix, trials: int = 100,
                           seed: int = 0) -> float:
    """Minimum determinant of random [K(xi_a, xi_b)] matrices of order 1 to 4.

    Points are (level, position) pairs with positions >= -5; the squared
    convolution kernel defines a determinantal process, so every such
    determinant must be nonnegative up to rounding.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        k = int(rng.integers(1, 5))
        levels = rng.integers(0, s.r, size=k)
        xs = rng.uniform(-5.0, 5.0, size=k)
        mat = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                block = matrix_airy_sq_kernel(xs[a], xs[b], s, C)
                mat[a, b] = float(np.real(block[levels[a], levels[b]]))
        worst = min(worst, float(np.linalg.det(mat)))
    return worst


def de_bruijn_check(s: ShiftVector, C: CouplingMatrix, pts) -> tuple[float, float]:
    """K=2 determinant vs the minor-product double integral (real C).

    pts is a pair ((j1, x1), (j2, x2)); returns (determinant value, relative
    error of the identity det = 1/2 sum_{k1,k2} int int det[F] det[G] with
    G the transposed-coupling factor; for symmetric C the product is det^2).
    """
    (j1, x1), (j2, x2) = pts
    k11 = np.real(matrix_airy_sq_kernel(x1, x1, s, C)[j1, j1])
    k12 = np.real(matrix_airy_sq_kernel(x1, x2, s, C)[j1, j2])
    k21 = np.real(matrix_airy_sq_kernel(x2, x1, s, C)[j2, j1])
    k22 = np.real(matrix_airy_sq_kernel(x2, x2, s, C)[j2, j2])
    det_direct = float(k11 * k22 - k12 * k21)
    quad = half_line_rule(120, 40.0)
    z, wz = quad.nodes, quad.weights
    r = s.r
    c = np.real(C.entries)

    def airy_of(j, x, k):
        ai, _ = ai_arrays(x + s.s[j] + z + s.s[k])
        return ai

    total = 0.0
    for k1 in range(r):
        a11 = airy_of(j1, x1, k1)
        a21 = airy_of(j2, x2, k1)
        for k2 in range(r):
            a12 = airy_of(j1, x1, k2)
            a22 = airy_of(j2, x2, k2)
            # det over (point a, integration slot c); z1 at level k1, z2 at k2
            d_f = (c[j1, k1] * a11)[:, None] * (c[j2, k2] * a22)[None, :] \
                - (c[j1, k2] * a12)[None, :] * (c[j2, k1] * a21)[:, None]
            d_g = (c[k1, j1] * a11)[:, None] * (c[k2, j2] * a22)[None, :] \
                - (c[k1, j2] * a21)[:, None] * (c[k2, j1] * a12)[None, :]
            total += float(np.einsum("a,b,ab->", wz, wz, d_f * d_g))
    total *= 0.5
    rel = abs(total - det_direct) / max(abs(det_direct), 1e-300)
    return det_direct, rel


def existence_scan(C: CouplingMatrix, s_lo: float, s_hi: float, n: int = 25,
                   m: int = 40):
    """Sample det(Id - Ai^2) over equal shifts and locate a zero crossing.

    Returns (samples, crossing) where samples is a list of (s, det) pairs
    and crossing is the first sign change, bisected to a bracket of 1e-3
    (None if the determinant stays positive, as it must when sigma_max <= 1).
    """
    r = C.r

    def det_at(s: float) -> float:
        d = _half_line_det(matrix_airy_sq_kernel, ShiftVector(np.full(r, s)), C, -1.0, m)
        return float(np.real(d.value))

    ss = np.linspace(s_lo, s_hi, n)
    vals = [det_at(s) for s in ss]
    crossing = None
    # scan right to left: report the zero nearest the pole-free region
    for i in range(n - 2, -1, -1):
        if vals[i] == 0.0:
            crossing = float(ss[i])
            break
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi = float(ss[i]), float(ss[i + 1])
            fhi = vals[i + 1]
            while hi - lo > 1e-3:
                mid = 0.5 * (lo + hi)
                fm = det_at(mid)
                if fhi * fm <= 0.0:
                    lo = mid
                else:
                    hi, fhi = mid, fm
            crossing = 0.5 * (lo + hi)
            break
    return list(zip(ss.tolist(), vals)), crossing
