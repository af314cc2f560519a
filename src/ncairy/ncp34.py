"""Matrix Painleve XXXIV quantities derived from the Hastings-McLeod state.

The matrix a1 = alpha1 - i beta1 and the integral a2 of a1' a1 satisfy a
coupled third-order system; this module assembles them with all derivatives
taken analytically from the matrix Painleve II equation, evaluates the
residuals of the third- and fourth-order forms, and builds the (B, V_D)
Lax pair with its zero-curvature diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .ncp2 import HMGrid

__all__ = [
    "P34State",
    "p34_state",
    "p34_residual",
    "lax_b",
    "vd_at",
    "zero_curvature_residual_p34",
]


@dataclass(frozen=True)
class P34State:
    """a1 with three derivatives, the integral a2, and the b-coefficients."""

    S: float
    a1: np.ndarray
    a1p: np.ndarray
    a1pp: np.ndarray
    a1ppp: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    b4: np.ndarray


def p34_state(grid: HMGrid, S: float) -> P34State:
    """Assemble the full state at S; derivatives use the analytic chain."""
    a1, a2 = (grid._local_cubic(nodes, S) for nodes in grid.p34_nodes)
    b = grid.beta1_at(S)
    db = grid.dbeta1_at(S)
    d2b = grid.d2beta1_at(S)
    sm = grid.s_matrix(S)
    d3b = 8.0 * b + 4.0 * (sm @ db + db @ sm) \
        + 8.0 * (db @ b @ b + b @ db @ b + b @ b @ db)
    b_sq = b @ b
    a1p = -2.0j * b_sq - 1.0j * db
    a1pp = -2.0j * (b @ db + db @ b) - 1.0j * d2b
    a1ppp = -2.0j * (2.0 * db @ db + b @ d2b + d2b @ b) - 1.0j * d3b
    b2 = 0.5j * a1p
    b3 = -0.5 * a1p @ a1 - 0.25j * a1pp
    b4 = -0.5 * a1p @ a1p + 0.5j * a1p @ a2 - 0.25 * a1pp @ a1 - 0.125j * a1ppp
    return P34State(S, a1, a1p, a1pp, a1ppp, a2, b2, b3, b4)


def _tiso1_rhs(st: P34State, sm: np.ndarray, include_a2: bool = True) -> np.ndarray:
    rhs = 8.0j * (st.a1 @ sm - sm @ st.a1) @ st.a1 + 8.0 * st.a1 \
        + 6.0j * st.a1p @ st.a1p + 4.0 * (st.a1p @ sm + sm @ st.a1p)
    if include_a2:
        rhs = rhs + 8.0j * (sm @ st.a2 - st.a2 @ sm)
    return rhs


def p34_residual(grid: HMGrid, S: float, include_a2: bool = True):
    """(res3, res2, res4): defects of the third-order system and its D-image.

    res3 compares the analytic a1''' with the third-order right-hand side;
    res2 checks a2' = a1' a1 with a five-point derivative of the stored a2;
    res4 differentiates a1''' by the same stencil against the fourth-order
    right-hand side.
    """
    st = p34_state(grid, S)
    sm = grid.s_matrix(S)
    res3 = float(np.max(np.abs(st.a1ppp - _tiso1_rhs(st, sm, include_a2))))
    h = grid.h
    sts = [p34_state(grid, S + k * h) for k in (-2, -1, 1, 2)]
    a2p = (sts[0].a2 - 8.0 * sts[1].a2 + 8.0 * sts[2].a2 - sts[3].a2) / (12.0 * h)
    res2 = float(np.max(np.abs(a2p - st.a1p @ st.a1)))
    a1pppp = (sts[0].a1ppp - 8.0 * sts[1].a1ppp + 8.0 * sts[2].a1ppp - sts[3].a1ppp) / (12.0 * h)
    com = sm @ st.a1 - st.a1 @ sm
    rhs4 = 8.0j * st.a1p @ com + 8.0j * (st.a1 @ sm - sm @ st.a1) @ st.a1p \
        + 6.0j * (st.a1pp @ st.a1p + st.a1p @ st.a1pp) \
        + 4.0 * (sm @ st.a1pp + st.a1pp @ sm) + 16.0 * st.a1p
    res4 = float(np.max(np.abs(a1pppp - rhs4)))
    return res3, res2, res4


def lax_b(st: P34State, delta, lam: complex, a2_commutator: bool = True) -> np.ndarray:
    """B(lambda) as a 2x2 block matrix of r x r blocks.

    a2_commutator toggles the [a2, s] term of the lower-left 1/lambda block
    (identically zero for r = 1); both variants are exposed so the curvature
    diagnostic can adjudicate between them.
    """
    if abs(lam) < 0.1:
        raise DomainError("lax_b requires |lambda| >= 0.1")
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    r = delta.size
    ir = np.eye(r, dtype=complex)
    sm = np.diag(st.S + delta).astype(complex)
    com_a1s = st.a1 @ sm - sm @ st.a1
    bl_low = 2.0j * st.a1 - 2.0 * com_a1s @ st.a1 - 0.5 * st.a1p @ st.a1p
    if a2_commutator:
        bl_low = bl_low + 2.0 * (st.a2 @ sm - sm @ st.a2)
    tl = (1.0 / lam) * (1.0j * com_a1s - 0.25j * st.a1pp)
    tr = -0.5 * lam * ir + (1.0 / lam) * (-sm - 0.5j * st.a1p)
    bl = 0.5 * lam ** 3 * ir + lam * (sm - 0.5j * st.a1p) + (1.0 / lam) * bl_low
    br = (1.0 / lam) * (ir + 1.0j * com_a1s + 0.25j * st.a1pp)
    return np.block([[tl, tr], [bl, br]])


def vd_at(st: P34State, lam: complex) -> np.ndarray:
    """V_D(lambda) = [[0, -1], [lambda^2 - 2i a1', 0]] in r x r blocks."""
    r = st.a1.shape[0]
    ir = np.eye(r, dtype=complex)
    z = np.zeros((r, r), dtype=complex)
    return np.block([[z, -ir], [lam * lam * ir - 2.0j * st.a1p, z]])


def zero_curvature_residual_p34(grid: HMGrid, S: float, lambda_samples,
                                step: float | None = None,
                                a2_commutator: bool = True) -> float:
    """Max defect of the (V_D, B) compatibility over the lambda samples.

    DB is formed by central differences of B at S +- step (default: the grid
    spacing), so the value is finite-difference limited at O(step^2).
    """
    if step is None:
        step = grid.h
    st = p34_state(grid, S)
    st_m = p34_state(grid, S - step)
    st_p = p34_state(grid, S + step)
    r = grid.r
    ir = np.eye(r, dtype=complex)
    z = np.zeros((r, r), dtype=complex)
    worst = 0.0
    for lam in lambda_samples:
        bmat = lax_b(st, grid.delta, lam, a2_commutator)
        db = (lax_b(st_p, grid.delta, lam, a2_commutator)
              - lax_b(st_m, grid.delta, lam, a2_commutator)) / (2.0 * step)
        vd = vd_at(st, lam)
        dlam_vd = np.block([[z, z], [2.0 * lam * ir, z]])
        res = dlam_vd - db + (vd @ bmat - bmat @ vd)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst
