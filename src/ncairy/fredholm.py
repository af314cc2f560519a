"""Block Nystrom engine for Fredholm determinants.

Gauss-Legendre quadrature rules, det(Id + z K) for matrix-valued kernels on
the half-line and on the contour gamma_plus (two rays in the upper half
plane), and spectral radii from the eigenvalues of the discretized operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

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
_STACK_NODE_PAIRS = _REFINE_CAP ** 2   # node pairs in one stack: one determinant at the cap
_RAY_LENGTH = 10.0    # each ray of gamma_plus, measured from the basepoint
_BASEPOINT = 0.5j
_AIRY_TAIL = 16.0    # T of half_line_cutoff: Ai(T) + |Ai'(T)| <= 1e-18


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
    """Truncation point L of [0, inf), from the decay of the Airy kernel.

    Past L every kernel entry has argument x + y + s_j + s_k >= L + 2 s_min >= T.
    Ai and |Ai'| fall on [0, inf), so there the kernel and the Ai, Ai' factors of
    the squared kernel are below Ai(T) + |Ai'(T)| ~ Ai(T)(1 + sqrt(T)).  T = 16 is
    the least integer that puts this bound at or below 1e-18, far under the
    rounding of det: 2.1e-19 at T = 16, against 1.1e-17 at T = 15.  So
    L = T + 2 max(0, -s_min).
    """
    return _AIRY_TAIL + 2.0 * max(0.0, -float(np.min(s.s)))


def _interval_rule(m: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from [-1, 1] to [a, b]."""
    base = gauss_legendre(m)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (base.nodes + 1.0), half * base.weights, a, b)


def half_line_rule(m: int, cutoff: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped affinely from [-1,1] to [0, cutoff]."""
    return _interval_rule(m, 0.0, cutoff)


def _lu_logdet(a: np.ndarray) -> list[tuple[complex, float]]:
    """det and log|det| of each matrix of the real or complex stack a, one LAPACK LU each.

    The det is complex either way.
    """
    return [(0.0 + 0.0j, -math.inf) if sign == 0 else
            (np.complex128(sign) * np.exp(min(logabs, 700.0)), float(logabs))
            for sign, logabs in zip(*np.linalg.slogdet(a))]


def _weighted_block(kernel, r: int, nodes: np.ndarray, weights: np.ndarray,
                    split: bool = True) -> np.ndarray:
    """B_i with block (j,l) = sqrt(w_j) K_i(x_j,x_l) sqrt(w_l) (or K_i w_l), for (k, m) nodes.

    The weighted kernel is written straight into B's (k, m r, m r) layout.  B is
    real when the kernel values and the weights are, and complex otherwise.
    """
    k, m = nodes.shape
    kmat = np.asarray(kernel(nodes[:, :, None], nodes[:, None, :]))
    b = np.empty((k, m * r, m * r), np.result_type(kmat, weights))
    view = b.reshape(k, m, r, m, r).transpose(0, 1, 3, 2, 4)
    if split:
        sw = np.sqrt(weights)
        np.multiply(kmat, sw[:, :, None, None, None], out=view)
        view *= sw[:, None, :, None, None]
    else:
        np.multiply(kmat, weights[:, None, :, None, None], out=view)
    return b


def _id_plus(z: complex, b: np.ndarray) -> np.ndarray:
    """Id + z B_i for the stack B, in place.

    Real when B and z are, so that the LU runs in real arithmetic; a real B
    with a complex z is promoted first.
    """
    b = b.astype(np.result_type(b, z), copy=False)
    np.multiply(z, b, out=b)   # z first: numpy's complex multiply is not commutative to the bit
    n = b.shape[-1]
    b.reshape(b.shape[0], n * n)[:, ::n + 1] += 1.0
    return b


def _refine(det_at, m: int, rays: int, refine: bool, tol: float, n: int = 1) -> list[DetResult]:
    """Refinement loop shared by the half-line and contour routes, for n members.

    det_at(m, live) returns (det, log|det|) of each member in live, with m nodes
    per ray.  With refine=True a member's m doubles until the change in its log
    det (phase in (-pi, pi]) falls below tol or doubling would pass _REFINE_CAP;
    est_error is the last change.  nodes_used is rays * m.
    """
    out, live, prev_log = [None] * n, list(range(n)), {}
    while live:
        stay = []
        for i, (val, logabs) in zip(live, det_at(m, live)):
            if not refine:
                out[i] = DetResult(val, logabs, rays * m, 0.0, True)
                continue
            cur_log = np.log(val) if val != 0 else complex(-math.inf)
            if i in prev_log:
                d = cur_log - prev_log[i]
                est = abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))
                if est <= tol or 2 * m > _REFINE_CAP:
                    out[i] = DetResult(val, logabs, rays * m, est, est <= tol)
                    continue
            elif 2 * m > _REFINE_CAP:
                raise ConvergenceFailure("refinement cap reached before any comparison")
            prev_log[i] = cur_log
            stay.append(i)
        live, m = stay, 2 * m
    return out


def _nystrom_stack(kernel, r: int, z: complex, rules: list[QuadratureRule],
                   refine: bool = True, tol: float = 1e-10, split: bool = True) -> list[DetResult]:
    """det(Id + z K_i) on the interval of rules[i] for each member i, as nystrom_det refines.

    kernel(idx, x, y) takes member indices idx and their nodes, shapes (k, m, 1) and
    (k, 1, m), and returns the blocks K_i(x, y), shape (k, m, m, r, r).  The rules share
    one m.  A pass runs in chunks of _STACK_NODE_PAIRS // m^2 members (at least one).
    """
    def det_at(m, live):
        pairs = []
        size = max(1, _STACK_NODE_PAIRS // (m * m))
        for c in range(0, len(live), size):
            idx = live[c:c + size]
            rr = [rules[i] if m == rules[i].m else _interval_rule(m, rules[i].a, rules[i].b)
                  for i in idx]
            x = np.stack([q.nodes for q in rr])
            w = np.stack([q.weights for q in rr])
            pairs += _lu_logdet(_id_plus(z, _weighted_block(partial(kernel, idx), r, x, w, split)))
        return pairs

    return _refine(det_at, rules[0].m, 1, refine, tol, len(rules))


def nystrom_det(kernel, r: int, z: complex, rule: QuadratureRule,
                refine: bool = True, tol: float = 1e-10, split: bool = True) -> DetResult:
    """det(Id + z K) on the rule's interval [a, b] by block Nystrom.

    kernel(x, y) takes node arrays of shapes (m, 1) and (1, m) and returns
    the r x r kernel blocks with shape (m, m, r, r).  The first pass uses the
    rule as given; with refine=True each further pass uses a Gauss-Legendre
    rule with twice the nodes on [a, b] until the change in log det falls
    below tol or doubling would pass 320 nodes; est_error is the last change.
    """
    return _nystrom_stack(lambda idx, x, y: np.asarray(kernel(x[0], y[0]))[None],
                          r, z, [rule], refine, tol, split)[0]


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
    def det_at(mpr, live):
        lam, w = _contour_nodes(mpr)
        e1, e2 = contour_symbol(lam, s, C)
        d2 = np.diagonal(e2, axis1=1, axis2=2)

        # B[(i, l), (j, k)] = E1^T(lam_i) E2(lam_j) w_j / (lam_i + lam_j) with E2 diagonal,
        # built in its (2m r, 2m r) layout (order="C": einsum's own order would make the
        # reshape copy).  einsum's product, not numpy's complex multiply, which differs by an ulp.
        b = np.einsum("ikl,jk->iljk", e1, d2, order="C")
        b /= (lam[:, None] + lam[None, :])[:, None, :, None]
        b *= w[None, None, :, None]
        n = lam.size * s.r
        return _lu_logdet(_id_plus(z, b.reshape(1, n, n)))

    return _refine(det_at, m_per_ray, 2, refine, tol)[0]


def spectral_radius(kernel, r: int, rule: QuadratureRule) -> float:
    """Largest |eigenvalue| of the weighted block B, from all its eigenvalues.

    B itself, not (Id + B) - Id, so entries far below 1 keep their digits.
    """
    b = _weighted_block(lambda x, y: np.asarray(kernel(x[0], y[0]))[None], r,
                        rule.nodes[None], rule.weights[None])[0]
    return float(np.max(np.abs(np.linalg.eigvals(b))))
