"""Fredholm determinants of matrix Airy convolution operators and matrix Painleve II/XXXIV."""

from .airy import ai_arrays, airy_arrays
from .errors import (
    ConvergenceFailure,
    DomainError,
    NcairyError,
    NoContraction,
    OutOfRange,
    OverflowRisk,
    PoleEncountered,
)
from .fredholm import (
    DetResult,
    QuadratureRule,
    gauss_legendre,
    half_line_cutoff,
    half_line_rule,
    nystrom_det,
    nystrom_det_contour,
    spectral_radius,
)
from .kernels import (
    CouplingMatrix,
    ShiftVector,
    contour_symbol,
    matrix_airy_kernel,
    matrix_airy_sq_kernel,
    scalar_airy_kernel,
)
from .ncp2 import (
    HMGrid,
    LaxPair,
    alpha1,
    hm_continue,
    hm_solve,
    hm_tail_picard,
    lax_matrices,
    ncp2_residual,
    zero_curvature_residual_p2,
)
from .ncp34 import (
    P34State,
    lax_b,
    p34_residual,
    p34_state,
    vd_at,
    zero_curvature_residual_p34,
)
from .tw import (
    GapQuery,
    GapResult,
    de_bruijn_check,
    det_airy,
    det_airy_sq,
    existence_scan,
    miura_residual,
    p34_scalar_residual,
    scalar_f1,
    scalar_f2,
    scalar_u,
    scalar_w_checks,
    total_positivity_check,
)

__all__ = [
    "airy_arrays", "ai_arrays",
    "NcairyError", "DomainError", "OverflowRisk",
    "ConvergenceFailure", "NoContraction", "OutOfRange", "PoleEncountered",
    "ShiftVector", "CouplingMatrix", "matrix_airy_kernel", "scalar_airy_kernel",
    "matrix_airy_sq_kernel", "contour_symbol",
    "QuadratureRule", "DetResult", "gauss_legendre", "half_line_rule",
    "half_line_cutoff", "nystrom_det", "nystrom_det_contour", "spectral_radius",
    "HMGrid", "LaxPair", "hm_tail_picard", "hm_continue", "hm_solve",
    "alpha1", "ncp2_residual", "lax_matrices", "zero_curvature_residual_p2",
    "P34State", "p34_state", "p34_residual", "lax_b", "vd_at",
    "zero_curvature_residual_p34",
    "GapQuery", "GapResult", "det_airy", "det_airy_sq", "scalar_f1",
    "scalar_f2", "scalar_u", "scalar_w_checks", "p34_scalar_residual",
    "miura_residual", "total_positivity_check", "de_bruijn_check",
    "existence_scan",
]
