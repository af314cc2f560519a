"""Block Nystrom engine for Fredholm determinants.

Gauss-Legendre quadrature rules, det(Id + z K) for matrix-valued kernels on
the half-line and on the contour gamma_plus (two rays in the upper half
plane), and spectral radii from the eigenvalues of the discretized operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .kernels import CouplingMatrix, ShiftVector, contour_symbol

__all__ = [
    "QuadratureRule",
    "DetResult",
    "gauss_legendre",
    "half_line_rule",
    "nystrom_det",
    "nystrom_det_contour",
    "spectral_radius",
    "half_line_cutoff",
]

_REFINE_CAP = 320
_RAY_LENGTH = 10.0    # each ray of gamma_plus, measured from the basepoint
_BASEPOINT = 0.5j


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights of a rule on the interval [a, b].

    Refinement rebuilds the rule as an m-node Gauss-Legendre rule mapped
    affinely onto [a, b]; gauss_legendre gives [-1, 1] and half_line_rule
    gives [0, cutoff].
    """

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise DomainError("node and weight counts differ")
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be positive")

    @property
    def m(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class DetResult:
    """A Fredholm determinant value with refinement diagnostics."""

    value: complex
    log_abs: float
    nodes_used: int
    est_error: float
    converged: bool


@cache   # at most 511 entries: the order range is [2, 512]
def gauss_legendre(m: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], built once per order and read-only.

    Nodes are Newton-refined roots of the degree-m Legendre polynomial
    starting from Chebyshev guesses; weights use 2 / ((1-x^2) P_m'(x)^2).
    """
    if not (2 <= m <= 512):
        raise DomainError("gauss_legendre order must lie in [2, 512]")
    k = np.arange(1, m + 1)
    x = -np.cos(math.pi * (k - 0.25) / (m + 0.5))
    for it in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for n in range(2, m + 1):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        dp = m * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise ConvergenceFailure("Legendre root Newton iteration did not converge")
    p0 = np.ones_like(x)
    p1 = x.copy()
    for n in range(2, m + 1):
        p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
    dp = m * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact symmetry about 0
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(x, w, -1.0, 1.0)


def half_line_cutoff(s: ShiftVector) -> float:
    """Truncation point for [0, inf): far enough that the Airy tail is dust."""
    return 40.0 + 2.0 * max(0.0, -2.0 * float(np.min(s.s)))


def _interval_rule(m: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from [-1, 1] to [a, b]."""
    base = gauss_legendre(m)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (base.nodes + 1.0), half * base.weights, a, b)


def half_line_rule(m: int, cutoff: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from [-1,1] to [0, cutoff]."""
    return _interval_rule(m, 0.0, cutoff)


def _lu_logdet(a: np.ndarray) -> tuple[complex, float]:
    """det and log|det| of a complex matrix via LAPACK LU."""
    sign, logabs = np.linalg.slogdet(a)
    if sign == 0:
        return 0.0 + 0.0j, -math.inf
    return sign * np.exp(min(logabs, 700.0)), float(logabs)


def _weighted_block(kernel, r: int, nodes: np.ndarray, weights: np.ndarray,
                    split: bool = True) -> np.ndarray:
    """B with block (i,k) = sqrt(w_i) K(x_i,x_k) sqrt(w_k) (or K w_k)."""
    m = nodes.size
    kmat = np.asarray(kernel(nodes[:, None], nodes[None, :]), dtype=complex)
    if split:
        sw = np.sqrt(weights)
        kmat = kmat * sw[:, None, None, None] * sw[None, :, None, None]
    else:
        kmat = kmat * weights[None, :, None, None]
    return kmat.transpose(0, 2, 1, 3).reshape(m * r, m * r)


def _assemble_block(kernel, r: int, z: complex, nodes: np.ndarray, weights: np.ndarray,
                    split: bool = True) -> np.ndarray:
    """Id + z B, B the weighted block of _weighted_block."""
    big = _weighted_block(kernel, r, nodes, weights, split)
    return np.eye(big.shape[0], dtype=complex) + z * big


def _refine(det_at, m: int, rays: int, refine: bool, tol: float) -> DetResult:
    """Refinement loop shared by the half-line and contour routes.

    det_at(m) returns (det, log|det|) with m nodes per ray.  With refine=True
    m doubles until the change in log det falls below tol or doubling would
    pass _REFINE_CAP; est_error is the last change.  nodes_used is rays * m.
    """
    val, logabs = det_at(m)
    if not refine:
        return DetResult(val, logabs, rays * m, 0.0, True)
    prev_log = None
    while True:
        cur_log = np.log(val) if val != 0 else complex(-math.inf)
        if prev_log is not None:
            est = abs(cur_log - prev_log)
            if est <= tol:
                return DetResult(val, logabs, rays * m, est, True)
        if 2 * m > _REFINE_CAP:
            if prev_log is None:
                raise ConvergenceFailure("refinement cap reached before any comparison")
            return DetResult(val, logabs, rays * m, est, False)
        prev_log = cur_log
        m *= 2
        val, logabs = det_at(m)


def nystrom_det(kernel, r: int, z: complex, rule: QuadratureRule,
                refine: bool = True, tol: float = 1e-10, split: bool = True) -> DetResult:
    """det(Id + z K) on the rule's interval [a, b] by block Nystrom.

    kernel(x, y) takes node arrays of shapes (m, 1) and (1, m) and returns
    the r x r kernel blocks with shape (m, m, r, r).  The first pass uses the
    rule as given; with refine=True each further pass uses a Gauss-Legendre
    rule with twice the nodes on [a, b] until the change in log det falls
    below tol or doubling would pass 320 nodes; est_error is the last change.
    """
    def det_at(m):
        rr = rule if m == rule.m else _interval_rule(m, rule.a, rule.b)
        return _lu_logdet(_assemble_block(kernel, r, z, rr.nodes, rr.weights, split=split))

    return _refine(det_at, rule.m, 1, refine, tol)


def _contour_nodes(m_per_ray: int):
    """Nodes and complex weights w_k dlambda/dt along gamma_plus, left to right.

    The contour runs from i/2 + 10 e^{i 5pi/6} down to the basepoint i/2 and
    out to i/2 + 10 e^{i pi/6}; each straight ray carries an affinely mapped
    Gauss-Legendre rule and the direction factor of dlambda.
    """
    ray = _interval_rule(m_per_ray, 0.0, _RAY_LENGTH)
    t, wt = ray.nodes, ray.weights
    d_right = np.exp(1j * math.pi / 6.0)
    d_left = np.exp(5j * math.pi / 6.0)
    # left ray traversed toward the basepoint: lambda = bp + (length - t) d_left
    lam_left = _BASEPOINT + (_RAY_LENGTH - t) * d_left
    w_left = -wt * d_left
    lam_right = _BASEPOINT + t * d_right
    w_right = wt * d_right
    lam = np.concatenate([lam_left, lam_right])
    w = np.concatenate([w_left, w_right])
    return lam, w


def nystrom_det_contour(s: ShiftVector, C: CouplingMatrix, z: complex,
                        m_per_ray: int = 60, refine: bool = True,
                        tol: float = 1e-10) -> DetResult:
    """det(Id + z K) for the contour kernel on gamma_plus.

    One-sided complex weights (no square-root splitting); the determinant is
    invariant under this similarity of the weighted block matrix.  Refinement
    doubles the nodes on each of the two rays.
    """
    def det_at(mpr):
        lam, w = _contour_nodes(mpr)
        e1, e2 = contour_symbol(lam, s, C)
        d2 = np.diagonal(e2, axis1=1, axis2=2)

        def kernel(x, y):
            # K(lam_i, lam_j) = E1^T(lam_i) E2(lam_j) / (lam_i + lam_j) at the nodes; E2 is
            # diagonal.  einsum's product, not numpy's complex multiply, which differs by an ulp.
            return np.einsum("ikl,jk->ijlk", e1, d2) / (x + y)[:, :, None, None]

        return _lu_logdet(_assemble_block(kernel, s.r, z, lam, w, split=False))

    return _refine(det_at, m_per_ray, 2, refine, tol)


def spectral_radius(kernel, r: int, rule: QuadratureRule) -> float:
    """Largest |eigenvalue| of the weighted block B, from all its eigenvalues.

    B itself, not (Id + B) - Id, so entries far below 1 keep their digits.
    """
    b = _weighted_block(kernel, r, rule.nodes, rule.weights)
    return float(np.max(np.abs(np.linalg.eigvals(b))))
