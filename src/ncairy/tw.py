"""Tracy-Widom style evaluators built on the determinant and Painleve routes.

Every gap determinant can be computed two ways: block Nystrom discretization
of the kernel, or closed-form exponentials of integrals of the matrix
Hastings-McLeod solution.  This module exposes both routes, the scalar
F2/F1/u chain, and the existence scan for the pole boundary.  The
diagnostics built on these values (Miura, total positivity, de Bruijn, the
w chain) are checks in ncairy.verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ai_arrays is unused here, but perfbench/spans.py wraps tw.ai_arrays by name
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


def _half_line_det(kernel, s: ShiftVector, C: CouplingMatrix, z: float, m: int) -> DetResult:
    """det(Id + z K) for K(x, y) = kernel(x, y, s, C) on [0, half_line_cutoff(s)].

    Block Nystrom with refinement from m nodes.
    """
    rule = half_line_rule(m, half_line_cutoff(s))
    return nystrom_det(lambda x, y: kernel(x, y, s, C), s.r, z, rule)


def _gap(q: GapQuery, kernel, z: float, grid_C, log_det, m: int) -> GapResult:
    """The routes q asks for: det(Id + z K) by Nystrom, exp(log_det(grid, S)) by Painleve.

    grid_C() is the coupling of the Hastings-McLeod grid, called only when the
    Painleve route runs.
    """
    nys = None
    pain = None
    if q.route in ("nystrom", "both"):
        nys = _half_line_det(kernel, q.s, q.C, z, m)
    if q.route in ("painleve", "both"):
        grid = hm_solve(grid_C(), q.s.delta, S_min=min(-1.5, q.s.S - 0.1))
        pain = complex(np.exp(log_det(grid, q.s.S)))
    if nys is None or pain is None:
        return GapResult(nys, pain, None, None)
    diff = abs(nys.value - pain)
    # a Python bool, so that `agree is False` holds when the routes differ
    return GapResult(nys, pain, diff, bool(diff <= q.tol * max(abs(nys.value), 1e-300)))


def det_airy_sq(q: GapQuery, m: int = 40) -> GapResult:
    """det(Id - Ai^2) by Nystrom and/or the Painleve trace formula.

    The Painleve value is exp(-4 int_S^inf (t-S) Tr beta1^2 dt).
    """
    return _gap(q, matrix_airy_sq_kernel, -1.0, lambda: q.C,
                lambda grid, S: -4.0 * grid.int_t_beta_sq(S), m)


def det_airy(q: GapQuery, sign: int, m: int = 40) -> GapResult:
    """det(Id + sign * Ai) by Nystrom and/or the Painleve formula.

    The closed form is exp(int_S^inf Tr(-beta1 - 2(t-S) beta1^2) dt) with
    beta1 solved for the coupling sign*C; the overall sign inside the
    exponent is the single global convention fixed against the Nystrom
    oracle (the first-order term must reproduce the operator trace).
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +1 or -1")
    return _gap(q, matrix_airy_kernel, float(sign), lambda: q.C if sign == 1 else q.C.negated(),
                lambda grid, S: -grid.int_tr_beta(S) - 2.0 * grid.int_t_beta_sq(S), m)


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


def existence_scan(C: CouplingMatrix, s_lo: float, s_hi: float, n: int = 25,
                   m: int = 40):
    """Sample det(Id - Ai^2) over equal shifts and locate a zero crossing.

    Returns (samples, crossing) where samples is a list of (s, det) pairs
    and crossing is the first sign change, bisected to a bracket of 1e-3
    (None if the determinant stays positive).  sigma_max(C) <= 1 keeps it
    positive, but is sufficient only: the shifts are equal (delta = 0), so a
    real zero needs a real eigenvalue c_k of C with |c_k| > 1, and
    C = [[0, -2], [2, 0]] (sigma_max = 2) stays pole-free.
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
