"""Closed-form kernel evaluations for the matrix Airy convolution operator.

Provides the r x r matrix kernel with entries c_jk * Ai(x+y+s_j+s_k), its
square (expressed through the scalar Airy kernel, no numerical z-integration),
and the complex contour-side symbols used by the contour-determinant route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .airy import ai_arrays
from .errors import DomainError, OverflowRisk

__all__ = [
    "ShiftVector",
    "CouplingMatrix",
    "matrix_airy_kernel",
    "scalar_airy_kernel",
    "matrix_airy_sq_kernel",
    "contour_symbol",
]

_EXP_GUARD = 700.0  # double exp() overflows near 709


@dataclass(frozen=True)
class ShiftVector:
    """The r real shifts s_j with barycenter S and offsets delta_j = s_j - S."""

    s: np.ndarray
    S: float = field(init=False)
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.s, dtype=float))
        if s.ndim != 1 or s.size < 1:
            raise DomainError("shift vector must be a nonempty 1-D real array")
        if not np.all(np.isfinite(s)):
            raise DomainError("shift entries must be finite")
        object.__setattr__(self, "s", s)
        S = float(np.mean(s))
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "delta", s - S)

    @property
    def r(self) -> int:
        return self.s.size


@dataclass(frozen=True)
class CouplingMatrix:
    """The r x r complex coupling matrix C."""

    entries: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.entries, dtype=complex))
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DomainError("coupling matrix must be square")
        if not np.all(np.isfinite(c)):
            raise DomainError("coupling entries must be finite")
        object.__setattr__(self, "entries", c)

    @property
    def r(self) -> int:
        return self.entries.shape[0]

    def negated(self) -> "CouplingMatrix":
        return CouplingMatrix(-self.entries)


def _ai_distinct(*arrays) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Ai, Ai') at each array's shape, from one ai_arrays pass on their distinct values.

    ai_arrays works point by point, so each value is bit-identical to a pass
    over the arrays with their repeats.  -0.0 and 0.0 share one entry, and
    Ai is the same at both.
    """
    flat = [np.ravel(a) for a in arrays]
    uniq, inv = np.unique(np.concatenate(flat), return_inverse=True)
    ai_u, aip_u = ai_arrays(uniq)
    out, start = [], 0
    for a, f in zip(arrays, flat):
        idx = inv[start:start + f.size].reshape(np.shape(a))
        out.append((ai_u[idx], aip_u[idx]))
        start += f.size
    return out


def _coupling(C: CouplingMatrix) -> np.ndarray:
    """C's entries, as float64 when none has a nonzero imaginary part.

    Each product with a real factor keeps the bits of the complex product's
    real part, so a real coupling gives the real part of the complex kernel.
    """
    return C.entries if np.any(C.entries.imag) else C.entries.real


def matrix_airy_kernel(x, y, s: ShiftVector, C: CouplingMatrix) -> np.ndarray:
    """Entry (j,k) = c_jk * Ai(x + y + s_j + s_k).

    x, y may be scalars or broadcastable arrays; the result has shape
    broadcast(x, y).shape + (r, r).  It is float64 for a real C and complex
    otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ss = s.s[:, None] + s.s[None, :]
    ((ai, _),) = _ai_distinct((x + y)[..., None, None] + ss)
    return _coupling(C) * ai


def scalar_airy_kernel(a, b) -> np.ndarray:
    """The scalar Airy kernel (Ai(a)Ai'(b) - Ai'(a)Ai(b)) / (a - b).

    Near the diagonal (|a-b| < 1e-6) switches to the confluent form
    Ai'(a)^2 - a Ai(a)^2 with a first-order correction in (b - a).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    (aa, aap), (ba, bap) = _ai_distinct(a, b)
    d = a - b
    near = np.abs(d) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (aa * bap - aap * ba) / d
    if out.ndim == 0:
        return float(_confluent(a, b, aa, aap) if near else out)
    if near.any():
        idx = np.nonzero(near)
        out[idx] = _confluent(*(np.broadcast_to(v, out.shape)[idx] for v in (a, b, aa, aap)))
    return out


def _confluent(a, b, aa, aap):
    """The scalar Airy kernel near a = b, from Ai(a) and Ai'(a), to first order in b - a."""
    return aap * aap - a * aa * aa - 0.5 * (b - a) * aa * aa


def matrix_airy_sq_kernel(x, y, s: ShiftVector, C: CouplingMatrix) -> np.ndarray:
    """Kernel of the squared operator, in closed form.

    Entry (j1, j2) = sum_k c_{j1 k} c_{k j2} K_Ai(x + s_j1 + s_k, y + s_j2 + s_k)
    where K_Ai is the scalar Airy kernel; no z-quadrature is performed.
    The result is float64 for a real C and complex otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # Level axes first, so numpy's inner loops run over the nodes:
    # a[j1, 0, k] = x + s_j1 + s_k and b[0, j2, k] = y + s_j2 + s_k
    ss = (s.s[:, None] + s.s[None, :]).reshape((s.r, s.r) + (1,) * max(x.ndim, y.ndim))
    # K[..., j1, j2, k] = K_Ai(a[j1, 0, k], b[0, j2, k]), copied to the level axes last: the
    # sum over k then reduces a contiguous last axis, in the order the float.hex goldens pin
    k_ai = scalar_airy_kernel(ss[:, None] + x, ss[None] + y)
    k_ai = np.moveaxis(k_ai, (0, 1, 2), (-3, -2, -1)).copy()
    c = _coupling(C)
    w = c[:, None, :] * c.T[None, :, :]  # w[j1,j2,k] = c_{j1 k} c_{k j2}
    return np.sum(w * k_ai, axis=-1)


def _theta_exponents(lam, s: ShiftVector) -> np.ndarray:
    """Exponents i lam^3/6 + i s_j lam, shape lam.shape + (r,)."""
    lam = np.asarray(lam, dtype=complex)
    return 1j * lam[..., None] ** 3 / 6.0 + 1j * s.s * lam[..., None]


def contour_symbol(lam, s: ShiftVector, C: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The contour-side factors (E1, E2) at lambda.

    E2 = diag(exp(i lam^3/6 + i s_j lam)); E1 = -(1/(2 i pi)) E2 C.  The kernel
    convention is fixed so that [E1^T(lam) E2(mu)]_{j,k} =
    -(1/(2 i pi)) c_{kj} exp(theta_j(lam) + theta_k(mu)).
    """
    th = _theta_exponents(lam, s)
    if np.any(th.real > _EXP_GUARD):
        raise OverflowRisk("contour symbol exponent exceeds the exp() range")
    with np.errstate(under="ignore"):
        e = np.exp(th)
    e2 = np.zeros(np.shape(lam) + (s.r, s.r), dtype=complex)
    idx = np.arange(s.r)
    e2[..., idx, idx] = e
    e1 = (-1.0 / (2j * math.pi)) * (e2 @ C.entries)
    return e1, e2

