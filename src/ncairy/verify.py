"""Named self-checks over every library invariant, reported PASS/FAIL.

CHECKS is the one registry of the library's invariants: ``ncairy verify``
and the pytest suite both run it.  Each entry is (name, fn) with
fn(rng) -> (ok, detail); run_check gives check i the generator
default_rng([seed, i]), so a check's random cases do not depend on which
checks ran before it, and a fixed seed reproduces the report byte for byte.
Cases pinned to a fixed generator stay fixed next to the seed-driven ones.
"""

from __future__ import annotations

import math

import numpy as np

from .airy import ai_arrays, airy_arrays
from .errors import PoleEncountered
from .fredholm import (
    half_line_cutoff,
    half_line_rule,
    nystrom_det,
    nystrom_det_contour,
    spectral_radius,
)
from .kernels import CouplingMatrix, ShiftVector, matrix_airy_sq_kernel, scalar_airy_kernel
from .ncp2 import (
    alpha1,
    hm_continue,
    hm_solve,
    hm_tail_picard,
    ncp2_residual,
    zero_curvature_residual_p2,
)
from .ncp34 import p34_residual, p34_state, zero_curvature_residual_p34
from .tw import GapQuery, det_airy, det_airy_sq, existence_scan, scalar_f1, scalar_f2

__all__ = ["run_all", "run_check", "CHECKS"]

_LAMBDA_SAMPLES = (1.0, 1.0j, -2.0, 0.5 + 0.5j)


def _scalar(c: float) -> CouplingMatrix:
    return CouplingMatrix(np.array([[c]]))


def _scaled(entries, sigma: float) -> CouplingMatrix:
    """entries rescaled to largest singular value sigma."""
    c = np.asarray(entries, dtype=complex)
    return CouplingMatrix(sigma * c / np.linalg.svd(c, compute_uv=False)[0])


_HERM = [[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]
_NONSYM = [[0.5, 0.4], [0.1, 0.3]]
_C1 = _scalar(1.0)
_C_HERM = CouplingMatrix(np.array(_HERM))
_C_HERM_UNIT = _scaled(_HERM, 1.0)  # sigma_max = 1: the existence boundary
_C_REAL_SYM = CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]]))

# r = 1 and r = 2 determinants, subcritical and critical couplings, S = 0, 1
_DET_CASES = (
    [(ShiftVector(np.array([S])), _scalar(c)) for c in (0.8, 1.0, 0.9) for S in (0.0, 1.0)]
    + [(ShiftVector(np.array([S - 0.15, S + 0.15])), c)
       for c in (CouplingMatrix(0.8 * np.eye(2)), _C_HERM_UNIT, _scaled(_NONSYM, 0.9))
       for S in (0.0, 1.0)]
)


def _grid(c: CouplingMatrix, delta):
    return hm_solve(c, delta, S_min=-1.5)


def _grids():
    """The r = 1 critical grid and the r = 2 subcritical and critical grids."""
    return [_grid(_C1, [0.0]), _grid(_C_HERM, [0.0, 0.3]), _grid(_C_HERM_UNIT, [0.0, 0.3])]


def check_airy_wronskian(rng) -> tuple[bool, str]:
    x = np.concatenate([rng.uniform(-20.0, 30.0, size=1000),
                        np.random.default_rng(7).uniform(-20.0, 30.0, size=1000)])
    ai, aip, bi, bip = airy_arrays(x)[:4]
    w = ai * bip - aip * bi
    err = float(np.max(np.abs(w * math.pi - 1.0)))
    return err <= 1e-10, f"max rel err {err:.3e}"


def check_airy_ode_residual(rng) -> tuple[bool, str]:
    h = 1e-3
    worst = 0.0
    for x0 in np.linspace(-10.0, 10.0, 81):
        pts = x0 + h * np.arange(-2, 3)
        ai, _ = ai_arrays(pts)
        d2 = (-ai[0] + 16 * ai[1] - 30 * ai[2] + 16 * ai[3] - ai[4]) / (12 * h * h)
        worst = max(worst, abs(d2 - x0 * ai[2]))
    return worst <= 1e-6, f"max residual {worst:.3e}"


def check_airy_seam_continuity(rng) -> tuple[bool, str]:
    ok = True
    details = []
    for eps, tol in ((1e-9, 1e-8), (1e-12, 1e-11)):
        worst = 0.0
        for seam in (-9.5, -4.5, 0.0, 4.5, 9.5):
            lo = np.array(airy_arrays(np.asarray([seam - eps]))[:4]).ravel()
            hi = np.array(airy_arrays(np.asarray([seam + eps]))[:4]).ravel()
            scale = np.maximum(np.abs(lo), 1.0)
            worst = max(worst, float(np.max(np.abs(hi - lo) / scale)))
        ok = ok and worst <= tol
        details.append(f"{worst:.3e} at eps {eps:.0e}")
    return ok, "max seam jump " + ", ".join(details)


# (x, Ai e^zeta, Ai' e^zeta, Bi e^-zeta, Bi' e^-zeta), zeta = (2/3) x^(3/2) for x >= 0 and
# zeta = 0 (unscaled values) for x < 0: mpmath 1.3 at 50 digits, rounded to double.  The
# points +-9.2 sit on the ladder side of the seams at +-9.5; 9.6 and 12 are near the seam,
# where the x >= 9.5 expansion runs longest before it stops (24 and 16 terms).
_SCALED_REFERENCE = [
    (-9.2, 0.16526800465147964, -0.8406710738038008, 0.27858425435711526, 0.5089440155457845),
    (0.5, 0.29327715912994734, -0.28469116209194256, 0.6748924111156303, 0.43022096146376937),
    (3.0, 0.210572042785977, -0.3805927480192681, 0.4393840235500964, 0.7174908464874238),
    (8.0, 0.1669880710639328, -0.47739652448079845, 0.3370723758204164, 0.9425386164762586),
    (9.2, 0.16138690211907974, -0.49380288680862283, 0.32519621241278884, 0.9773225438006494),
    (9.5, 0.1601241423810822, -0.4976638818772441, 0.32253807502213, 0.985449997537075),
    (9.6, 0.1597139498259528, -0.4989314944902078, 0.32167601083420466, 0.988114022154052),
    (12.0, 0.15119256068463707, -0.5268505009124518, 0.3039054138807329, 1.046329038508012),
    (20.0, 0.1332404073518136, -0.5975232737163193, 0.2671023248341684, 1.191155399372008),
    (100.0, 0.08919692093633041, -0.8921920625040315, 0.1784310111708354, 1.7838637549628087),
]


def check_airy_scaled_consistency(rng) -> tuple[bool, str]:
    ref = np.array(_SCALED_REFERENCE)
    got = np.array(airy_arrays(ref[:, 0])[:4]).T
    worst = float(np.max(np.abs(got - ref[:, 1:]) / np.abs(ref[:, 1:])))
    return worst <= 1e-12, f"max rel mismatch {worst:.3e}"


def _z_rule():
    """200-node Gauss-Legendre rule on [0, 40] for the z-integral oracles."""
    rule = half_line_rule(200, 40.0)
    return rule.nodes, rule.weights


def check_kernel_sq_quadrature(rng) -> tuple[bool, str]:
    s = ShiftVector(np.array([0.1, -0.4]))
    c = _C_HERM.entries
    z, wz = _z_rule()
    worst = 0.0
    for x, y in ((0.0, 0.5), (-1.0, 2.0), (1.3, 1.3)):
        oracle = np.zeros((2, 2), dtype=complex)
        for j1 in range(2):
            for j2 in range(2):
                for k in range(2):
                    a1, _ = ai_arrays(x + s.s[j1] + z + s.s[k])
                    a2, _ = ai_arrays(z + s.s[k] + y + s.s[j2])
                    oracle[j1, j2] += c[j1, k] * c[k, j2] * np.sum(wz * a1 * a2)
        direct = matrix_airy_sq_kernel(x, y, s, _C_HERM)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))
    return worst <= 1e-8, f"max abs err {worst:.3e}"


def check_kernel_hermitean_transpose(rng) -> tuple[bool, str]:
    s = ShiftVector(np.array([0.0, 0.25]))
    worst = 0.0
    for x, y in ((0.3, -0.7), (1.1, 0.2)):
        a = matrix_airy_sq_kernel(x, y, s, _C_HERM)
        b = matrix_airy_sq_kernel(y, x, s, _C_HERM)
        worst = max(worst, float(np.max(np.abs(a - b.conj().T))))
    return worst <= 1e-12, f"max asymmetry {worst:.3e}"


def check_scalar_kernel_quadrature(rng) -> tuple[bool, str]:
    z, wz = _z_rule()
    worst = 0.0
    for a, b in ((0.0, 0.0), (0.5, -0.5), (-1.0, 2.0), (3.0, 3.5)):
        a1, _ = ai_arrays(a + z)
        a2, _ = ai_arrays(b + z)
        oracle = float(np.sum(wz * a1 * a2))
        worst = max(worst, abs(float(scalar_airy_kernel(a, b)) - oracle))
    return worst <= 1e-8, f"max abs err {worst:.3e}"


def check_det_multiplicativity(rng) -> tuple[bool, str]:
    # det(Id - Ai^2) = det(Id - Ai) det(Id + Ai), all three by Nystrom
    cases = _DET_CASES + [(ShiftVector(np.array([0.0, 0.3])), _C_HERM),
                          (ShiftVector(np.array([0.2, -0.1])), _C_HERM)]
    worst = 0.0
    for s, c in cases:
        q = GapQuery(s, c, "nystrom", 1e-6)
        sq = det_airy_sq(q).nystrom.value
        mi = det_airy(q, -1).nystrom.value
        pl = det_airy(q, 1).nystrom.value
        worst = max(worst, abs(sq - mi * pl) / abs(sq))
    return worst <= 1e-8, f"max rel err {worst:.3e}"


def check_refinement_monotonicity(rng) -> tuple[bool, str]:
    s = ShiftVector(np.array([0.0]))
    cutoff = half_line_cutoff(s)
    prev = None
    ok = True
    for m in (10, 20, 40):
        rule = half_line_rule(m, cutoff)
        d = nystrom_det(lambda x, y: matrix_airy_sq_kernel(x, y, s, _C1),
                        1, -1.0, rule, refine=False)
        err = abs(d.value - 0.9693728283553741)
        if prev is not None and err > prev:
            ok = False
        prev = err
    return ok, f"final err {prev:.3e}"


def _contour_vs_half_line(s: ShiftVector, c: CouplingMatrix, z: float) -> tuple[float, float]:
    d_half = det_airy(GapQuery(s, c, "nystrom"), int(z)).nystrom
    d_cont = nystrom_det_contour(s, c, z)
    return abs(d_half.value - d_cont.value), abs(d_half.value)


def check_contour_half_line(rng) -> tuple[bool, str]:
    worst_rel = 0.0
    for sv, c, z in ((np.array([0.0]), _C1, -1.0),
                     (np.array([0.5]), _scalar(0.8), 1.0),
                     (np.array([-0.5]), _scalar(0.6), -1.0),
                     (np.array([0.0, 0.3]), _C_HERM, -1.0),
                     (np.array([0.2, -0.2]), _C_REAL_SYM, 1.0)):
        diff, size = _contour_vs_half_line(ShiftVector(sv), c, z)
        worst_rel = max(worst_rel, diff / size)
    # five random couplings with sigma_max = 0.9, fixed by their own generator
    fixed = np.random.default_rng(42)
    worst_abs = 0.0
    for _ in range(5):
        r = int(fixed.integers(1, 3))
        s = ShiftVector(np.round(fixed.uniform(-0.5, 1.0, size=r), 3))
        raw = fixed.uniform(-0.5, 0.5, size=(r, r)) + 1j * fixed.uniform(-0.5, 0.5, size=(r, r))
        z = float(fixed.choice([-1.0, 1.0]))
        worst_abs = max(worst_abs, _contour_vs_half_line(s, _scaled(raw, 0.9), z)[0])
    ok = worst_rel <= 1e-6 and worst_abs <= 1e-6
    return ok, f"max rel diff {worst_rel:.3e}, random max abs diff {worst_abs:.3e}"


def check_weight_splitting(rng) -> tuple[bool, str]:
    s = ShiftVector(np.array([0.0, 0.3]))
    rule = half_line_rule(60, half_line_cutoff(s))
    a = nystrom_det(lambda x, y: matrix_airy_sq_kernel(x, y, s, _C_HERM),
                    2, -1.0, rule, refine=False, split=True)
    b = nystrom_det(lambda x, y: matrix_airy_sq_kernel(x, y, s, _C_HERM),
                    2, -1.0, rule, refine=False, split=False)
    diff = abs(a.value - b.value)
    return diff <= 1e-12, f"abs diff {diff:.3e}"


def _rho_sq(c: float, S: float) -> float:
    """Spectral radius of the r = 1 kernel Ai^2 with coupling c at shift S."""
    s = ShiftVector(np.array([S]))
    rule = half_line_rule(80, half_line_cutoff(s))
    return spectral_radius(lambda x, y: matrix_airy_sq_kernel(x, y, s, _scalar(c)), 1, rule)


def check_spectral_radius_bounds(rng) -> tuple[bool, str]:
    # rho(-2) = 0.98922 for c = 1, and c^2 times that for c = 1.2
    rho_hi, rho_lo, rho_super = _rho_sq(1.0, 5.0), _rho_sq(1.0, -2.0), _rho_sq(1.2, -2.0)
    ok = rho_hi <= 1e-6 and 0.9 < rho_lo < 1.0 and rho_super > 1.0
    return ok, f"rho(5) {rho_hi:.3e}, rho(-2) {rho_lo:.6f}, c = 1.2 rho(-2) {rho_super:.6f}"


def _first_picard_correction(c: CouplingMatrix, delta: np.ndarray, s_val: float):
    """(u, K[u^3]) at S, u = -C o Ai(2S + a), K the Green term of the tail equation.

    200-node Gauss-Legendre on [S, S + 8], unscaled Airy values, u @ u @ u.
    """
    rule = half_line_rule(200, 8.0)
    t = np.concatenate([[s_val], s_val + rule.nodes])
    a = delta[:, None] + delta[None, :]
    ai_s, _, bi_s, _, z = airy_arrays(2.0 * t[:, None, None] + a)
    ai, bi = ai_s * np.exp(-z), bi_s * np.exp(z)
    u = -c.entries * ai
    u3 = u[1:] @ u[1:] @ u[1:]
    int_bi, int_ai = (np.tensordot(rule.weights, f[1:] * u3, 1) for f in (bi, ai))
    return u[0], 4.0 * math.pi * (ai[0] * int_bi - bi[0] * int_ai)


def check_hm_asymptotic_matching(rng) -> tuple[bool, str]:
    # at S = 2.5 the tail is u plus the first Picard correction K[u^3], up to
    # O(u^5) terms far below |K[u^3]|; a flipped Green term reads about 2
    s_val = 2.5
    worst = 0.0
    details = []
    for c, delta in ((_C_HERM, np.array([0.0, 0.3])), (_C_HERM_UNIT, np.array([-0.25, 0.25]))):
        b = _grid(c, delta).beta1_at(s_val)
        u, k = _first_picard_correction(c, delta, s_val)
        rel = float(np.max(np.abs(b - u - k)) / np.max(np.abs(k)))
        worst = max(worst, rel)
        details.append(f"|beta1 - u| {float(np.max(np.abs(b - u))):.3e}, rel err {rel:.3e}")
    return worst <= 1e-5, "; ".join(details)


def check_hm_parity(rng) -> tuple[bool, str]:
    delta = [0.0, 0.3]
    # two fresh solves by the public stages: the grid cache serves -C by
    # negating +C, which is only valid while this parity holds exactly
    g_plus, g_minus = (hm_continue(hm_tail_picard(c, delta, 2.0), -0.5)
                       for c in (_C_REAL_SYM, _C_REAL_SYM.negated()))
    exact = (np.array_equal(g_plus.beta1, -g_minus.beta1)
             and np.array_equal(g_plus.dbeta1, -g_minus.dbeta1))
    err = max(float(np.max(np.abs(g_plus.beta1 + g_minus.beta1))),
              float(np.max(np.abs(g_plus.dbeta1 + g_minus.dbeta1))))
    return exact, f"max parity defect {err:.3e}"


def check_hm_hermiticity(rng) -> tuple[bool, str]:
    grid = _grid(_C_HERM, [0.0, 0.3])
    worst = 0.0
    for s_val in (-0.5, 0.0, 1.0, 3.0):
        b = grid.beta1_at(s_val)
        worst = max(worst, float(np.max(np.abs(b - b.conj().T))))
    return worst <= 1e-12, f"max defect {worst:.3e}"


def check_picard_ode_seam(rng) -> tuple[bool, str]:
    t0 = hm_tail_picard(_C1, [0.0], 2.0)
    # continue the S0 = 3 tail down to 2 and compare with the tail solved there
    b = hm_continue(hm_tail_picard(_C1, [0.0], 3.0), 2.0).beta1[0]
    err = float(np.max(np.abs(b - t0.beta1[0])))
    # 1.4e-14 on sound code; a wrong sign on the Green term of the tail
    # sweep moves the mismatch to 9.5e-11
    return err <= 1e-12, f"seam mismatch {err:.3e}"


def check_ncp2_residual(rng) -> tuple[bool, str]:
    # nodes of every h = 1e-3 grid, and each grid's interior nodes
    pts = np.array([-0.5, 0.0, 1.0, *np.round(np.linspace(-1.4, 6.0, 16), 3)])
    worst = max(max(ncp2_residual(g, pts), ncp2_residual(g, g.S_values[2:-2]))
                for g in _grids())
    # O(h^4): halving h divides the residual by about 16, but only by 8 at the
    # tail start, where the grid-wide maximum sits
    res = []
    for h in (1e-2, 5e-3):
        grid = hm_solve(_C1, [0.0], S_min=-1.0, h=h)
        inner = grid.S_values[2:-2]
        res.append([ncp2_residual(grid, nodes)
                     for nodes in (pts[:3], inner, inner[inner <= grid.S_tail - 0.03])])
    ratio_pts, ratio_grid, ratio_below = (coarse / fine for coarse, fine in zip(*res))
    ok = worst <= 1e-6 and ratio_pts > 8.0 and ratio_grid > 8.0 and ratio_below > 12.0
    return ok, (f"max residual {worst:.3e}, halving ratio {ratio_pts:.1f} "
                f"(grid-wide {ratio_grid:.3f}, below the tail start {ratio_below:.2f})")


def check_zero_curvature_p2(rng) -> tuple[bool, str]:
    g1, *g2 = _grids()
    r1 = zero_curvature_residual_p2(g1, 0.5, _LAMBDA_SAMPLES)
    r2 = max(zero_curvature_residual_p2(g, 0.5, _LAMBDA_SAMPLES) for g in g2)
    ok = r1 <= 1e-8 and r2 <= 1e-7
    return ok, f"r=1 residual {r1:.3e}, r=2 residual {r2:.3e}"


def check_p34_residuals(rng) -> tuple[bool, str]:
    grids = _grids()
    worst3 = worst2 = worst4 = 0.0
    for grid in grids:
        for s_val in np.linspace(0.0, 4.0, 9):
            r3, r2, r4 = p34_residual(grid, float(s_val))
            worst3, worst2, worst4 = max(worst3, r3), max(worst2, r2), max(worst4, r4)
    # for a single level the a2 commutator vanishes identically
    cancel = max(abs(p34_residual(grids[0], s_val)[0]
                     - p34_residual(grids[0], s_val, include_a2=False)[0])
                 for s_val in (0.0, 1.0, 2.0, 3.0))
    ok = worst3 <= 1e-5 and worst2 <= 1e-6 and worst4 <= 1e-4 and cancel <= 1e-12
    return ok, (f"res3 {worst3:.3e}, res2 {worst2:.3e}, res4 {worst4:.3e}, "
                f"scalar a2 term {cancel:.3e}")


def check_zero_curvature_p34(rng) -> tuple[bool, str]:
    grids = _grids()
    worst = max(zero_curvature_residual_p34(g, 0.5, _LAMBDA_SAMPLES) for g in grids)
    # O(step^2): halving the difference step divides the residual by about 4
    r_h = zero_curvature_residual_p34(grids[0], 0.5, (1.0,), step=4e-3)
    r_h2 = zero_curvature_residual_p34(grids[0], 0.5, (1.0,), step=2e-3)
    ratio = r_h / r_h2
    ok = worst <= 1e-4 and ratio > 2.5
    return ok, f"max residual {worst:.3e}, halving ratio {ratio:.1f}"


def check_a1_anti_hermitean(rng) -> tuple[bool, str]:
    grid = _grid(_C_HERM, [0.0, 0.3])
    worst = 0.0
    for s_val in (0.0, 1.0, 3.0):
        a1 = p34_state(grid, s_val).a1
        worst = max(worst, float(np.max(np.abs(a1 + a1.conj().T))))
    return worst <= 1e-9, f"max defect {worst:.3e}"


def check_route_agreement(rng) -> tuple[bool, str]:
    cases = _DET_CASES + [(ShiftVector(np.array([0.0, 0.3])), _C_HERM),
                          (ShiftVector(np.array([1.0, 1.3])), _C_HERM)]
    worst = 0.0
    for s, c in cases:
        q = GapQuery(s, c, "both", 1e-6)
        for res in (det_airy_sq(q), det_airy(q, -1), det_airy(q, 1)):
            worst = max(worst, res.diff / abs(res.nystrom.value))
    q = GapQuery(ShiftVector(np.array([0.2, 0.5])), CouplingMatrix(np.array(_NONSYM)),
                 "both", 1e-6)
    res = det_airy_sq(q)
    worst = max(worst, res.diff / abs(res.nystrom.value))
    return worst <= 1e-6, f"max rel diff {worst:.3e}"


# (shifts, coupling) for the tau-derivative identities
_TAU_CASES = [(np.array([0.0, 0.3]), _C_HERM),
              (np.array([0.0]), _scalar(0.9)),
              (np.array([0.0, 0.3]), _C_HERM_UNIT)]


def _log_det_fd(s_vec, c, k, det, h=1e-3):
    """Central difference in s_k of log det; det maps a GapQuery to a GapResult."""
    vals = []
    for sgn in (-1, 1):
        sv = s_vec.copy()
        sv[k] += sgn * h
        vals.append(np.log(det(GapQuery(ShiftVector(sv), c, "nystrom", 1e-6)).nystrom.value))
    return (vals[1] - vals[0]) / (2 * h)


def check_tau_derivative_alpha1(rng) -> tuple[bool, str]:
    # d/ds_k log det(Id - Ai^2) = -2i (alpha1)_kk
    worst = 0.0
    for s_vec, c in _TAU_CASES:
        s = ShiftVector(s_vec)
        a = alpha1(_grid(c, s.delta), s.S)
        for k in range(s.r):
            pred = -2.0j * a[k, k]
            fd = _log_det_fd(s_vec, c, k, det_airy_sq)
            worst = max(worst, abs(fd - pred) / abs(pred))
    return worst <= 1e-4, f"max rel err {worst:.3e}"


def check_tau_derivative_a1(rng) -> tuple[bool, str]:
    # d/ds_k log det(Id + sign Ai) = -i (a1)_kk with a1 built from -sign C
    worst = 0.0
    for s_vec, c in _TAU_CASES:
        s = ShiftVector(s_vec)
        for sign in (-1, 1):
            a1 = p34_state(_grid(c.negated() if sign == 1 else c, s.delta), s.S).a1
            for k in range(s.r):
                pred = -1.0j * a1[k, k]
                fd = _log_det_fd(s_vec, c, k, lambda q: det_airy(q, sign))
                worst = max(worst, abs(fd - pred) / abs(pred))
    return worst <= 1e-4, f"max rel err {worst:.3e}"


def check_det_factorization(rng) -> tuple[bool, str]:
    # cross-route: Painleve det(Id - Ai^2) against Nystrom det(Id - Ai) det(Id + Ai)
    s = ShiftVector(np.array([0.2, -0.1]))
    sq = det_airy_sq(GapQuery(s, _C_HERM, "painleve", 1e-6)).painleve
    q = GapQuery(s, _C_HERM, "nystrom", 1e-6)
    prod = det_airy(q, -1).nystrom.value * det_airy(q, 1).nystrom.value
    rel = abs(sq - prod) / abs(sq)
    return rel <= 1e-8, f"rel err {rel:.3e}"


def check_pole_zero_match(rng) -> tuple[bool, str]:
    c = _scalar(1.2)
    try:
        hm_solve(c, [0.0], S_min=-3.0)
        return False, "no pole found for supercritical coupling"
    except PoleEncountered as exc:
        pole = exc.pole_at
    _, crossing = existence_scan(c, -3.0, 0.0, n=25)
    if crossing is None:
        return False, "no determinant zero found"
    diff = abs(crossing - pole)
    return diff <= 0.1, f"pole {pole:.4f}, zero {crossing:.4f}, diff {diff:.3e}"


def check_subcritical_positivity(rng) -> tuple[bool, str]:
    samples, crossing = existence_scan(_C1, -4.0, 2.0, n=13)
    vals = [v for _, v in samples]
    ok = crossing is None and all(0.0 < v <= 1.0 + 1e-12 for v in vals)
    return ok, f"det range [{min(vals):.3e}, {max(vals):.12f}], crossing {crossing}"


def check_total_positivity(rng) -> tuple[bool, str]:
    # random [K(xi_a, xi_b)] of order 1 to 4, at points (level, position >= -5):
    # the squared kernel defines a determinantal process, so each determinant
    # must be nonnegative up to rounding
    s = ShiftVector(np.array([0.0, 0.3]))

    def min_det(seed: int) -> float:
        draws = np.random.default_rng(seed)
        worst = math.inf
        for _ in range(100):
            k = int(draws.integers(1, 5))
            levels = draws.integers(0, s.r, size=k)
            xs = draws.uniform(-5.0, 5.0, size=k)
            mat = np.empty((k, k))
            for a in range(k):
                for b in range(k):
                    block = matrix_airy_sq_kernel(xs[a], xs[b], s, _C_REAL_SYM)
                    mat[a, b] = float(np.real(block[levels[a], levels[b]]))
            worst = min(worst, float(np.linalg.det(mat)))
        return worst

    drawn = min_det(int(rng.integers(0, 2 ** 31)))
    fixed = min_det(0)
    ok = drawn >= -1e-10 and fixed > -1e-12
    return ok, f"min det {drawn:.3e} (seed 0 trials {fixed:.3e})"


def check_de_bruijn(rng) -> tuple[bool, str]:
    # the K = 2 determinant at (j1, x1), (j2, x2) equals
    # 1/2 sum_{k1,k2} int int det[F] det[G] (real C, G the transposed-coupling
    # factor; for symmetric C the product is det[F]^2)
    s = ShiftVector(np.array([0.0, 0.3]))
    (j1, x1), (j2, x2) = (0, 0.2), (1, -0.4)
    k11 = np.real(matrix_airy_sq_kernel(x1, x1, s, _C_REAL_SYM)[j1, j1])
    k12 = np.real(matrix_airy_sq_kernel(x1, x2, s, _C_REAL_SYM)[j1, j2])
    k21 = np.real(matrix_airy_sq_kernel(x2, x1, s, _C_REAL_SYM)[j2, j1])
    k22 = np.real(matrix_airy_sq_kernel(x2, x2, s, _C_REAL_SYM)[j2, j2])
    det_val = float(k11 * k22 - k12 * k21)
    quad = half_line_rule(120, 40.0)
    z, wz = quad.nodes, quad.weights
    c = np.real(_C_REAL_SYM.entries)

    def airy_of(j, x, k):
        ai, _ = ai_arrays(x + s.s[j] + z + s.s[k])
        return ai

    total = 0.0
    for k1 in range(s.r):
        a11 = airy_of(j1, x1, k1)
        a21 = airy_of(j2, x2, k1)
        for k2 in range(s.r):
            a12 = airy_of(j1, x1, k2)
            a22 = airy_of(j2, x2, k2)
            # det over (point a, integration slot c); z1 at level k1, z2 at k2
            d_f = (c[j1, k1] * a11)[:, None] * (c[j2, k2] * a22)[None, :] \
                - (c[j1, k2] * a12)[None, :] * (c[j2, k1] * a21)[:, None]
            d_g = (c[k1, j1] * a11)[:, None] * (c[k2, j2] * a22)[None, :] \
                - (c[k1, j2] * a21)[:, None] * (c[k2, j1] * a12)[None, :]
            total += float(np.einsum("a,b,ab->", wz, wz, d_f * d_g))
    total *= 0.5
    rel = abs(total - det_val) / max(abs(det_val), 1e-300)
    ok = rel <= 1e-4 and det_val >= -1e-12
    return ok, f"rel err {rel:.3e}, det {det_val:.3e}"


def check_miura(rng) -> tuple[bool, str]:
    # r = 1, c = 1: tau_Xi = det(Id - Ai^2) and tau_Gamma = det(Id - Ai) by
    # Nystrom on a 7-point stencil of shifts.  miura is
    # |(d ln tau_Xi - 2 d ln tau_Gamma)^2 + d^2 ln tau_Xi|, and remiu checks
    # u = -v^2 +- v' for u = 2 d^2 ln tau_Gamma, v^2 = -d^2 ln tau_Xi
    def log_det(det, s: float) -> float:
        q = GapQuery(ShiftVector(np.array([s])), _C1, "nystrom")
        return float(np.log(np.real(det(q).nystrom.value)))

    def defects(s_center: float, h: float = 1e-2) -> tuple[float, float]:
        ks = np.arange(-3, 4)
        lxi = np.array([log_det(det_airy_sq, s_center + k * h) for k in ks])
        lga = np.array([log_det(lambda q: det_airy(q, -1), s_center + k * h) for k in ks])

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

    m0, remiu0 = defects(0.0)
    worst = max(m0, remiu0, *defects(0.5))
    # O(h^2): halving the stencil step divides the defect by about 4
    ratio = defects(0.0, h=2e-2)[0] / m0
    ok = worst <= 1e-4 and ratio > 2.5
    return ok, f"max defect {worst:.3e}, halving ratio {ratio:.1f}"


def check_f2_monotone(rng) -> tuple[bool, str]:
    xs = np.arange(-6.0, 4.5, 0.5)
    vals = [scalar_f2(float(x)) for x in xs]
    ok = all(b >= a for a, b in zip(vals, vals[1:]))
    ok = ok and 0.0 <= vals[0] and vals[-1] <= 1.0 + 1e-12
    return ok, f"F2 range [{vals[0]:.3e}, {vals[-1]:.12f}]"


def check_scalar_chain(rng) -> tuple[bool, str]:
    # F2 against the Nystrom determinant at shift x/2
    worst_f2 = 0.0
    for x in (-2.0, 0.0, 2.0):
        q = GapQuery(ShiftVector(np.array([0.5 * x])), _C1, "nystrom", 1e-6)
        worst_f2 = max(worst_f2, abs(scalar_f2(x) - float(np.real(det_airy_sq(q).nystrom.value))))
    # F1^2 exp(int_x^inf u) = F2
    grid = hm_solve(_C1, [0.0], S_min=-4.2)
    worst_prod = 0.0
    for x in (-2.0, 0.0, 1.0):
        int_u = -2.0 * float(np.real(grid.int_tr_beta(0.5 * x)))
        lhs = scalar_f1(x) ** 2 * math.exp(int_u)
        worst_prod = max(worst_prod, abs(lhs - scalar_f2(x)) / scalar_f2(x))
    # F1 = exp(-int_x^inf (y-x) w dy) for w = u^2/2 - u'/2, with
    # int_x^inf (y-x) w dy = 2 int_{x/2}^inf (t-x/2) beta^2 dt - int beta
    worst_alt = 0.0
    for x in (-2.0, -1.0, 0.0, 1.0, 1.5):
        iw = 2.0 * np.real(grid.int_t_beta_sq(0.5 * x)) - np.real(grid.int_tr_beta(0.5 * x))
        worst_alt = max(worst_alt, abs(float(np.exp(-iw)) - scalar_f1(x)) / scalar_f1(x))

    # the defect of w''' = 12 w w' + 2 w + x w' by finite differences in x
    def w_at(x: float) -> float:
        b = float(np.real(grid.beta1_at(0.5 * x)[0, 0]))
        db = float(np.real(grid.dbeta1_at(0.5 * x)[0, 0]))
        return 0.5 * b * b + 0.25 * db

    dx = 2.0 * grid.h
    worst_w = 0.0
    for x in (-2.0, 0.0, 2.0):
        ws = np.array([w_at(x + k * dx) for k in range(-2, 3)])
        wp = (ws[0] - 8.0 * ws[1] + 8.0 * ws[3] - ws[4]) / (12.0 * dx)
        wppp = (-ws[0] + 2.0 * ws[1] - 2.0 * ws[3] + ws[4]) / (2.0 * dx ** 3)
        worst_w = max(worst_w, abs(wppp - (12.0 * ws[2] * wp + 2.0 * ws[2] + x * wp)))
    ok = worst_f2 <= 1e-6 and worst_prod <= 1e-6 and worst_alt <= 1e-5 and worst_w <= 1e-4
    return ok, (f"F2 {worst_f2:.3e}, product identity {worst_prod:.3e}, "
                f"alt F1 {worst_alt:.3e}, w residual {worst_w:.3e}")


CHECKS = [
    ("airy_wronskian", check_airy_wronskian),
    ("airy_ode_residual", check_airy_ode_residual),
    ("airy_seam_continuity", check_airy_seam_continuity),
    ("airy_scaled_consistency", check_airy_scaled_consistency),
    ("kernel_sq_quadrature", check_kernel_sq_quadrature),
    ("kernel_hermitean_transpose", check_kernel_hermitean_transpose),
    ("scalar_kernel_quadrature", check_scalar_kernel_quadrature),
    ("det_multiplicativity", check_det_multiplicativity),
    ("refinement_monotonicity", check_refinement_monotonicity),
    ("contour_half_line_equivalence", check_contour_half_line),
    ("weight_splitting_invariance", check_weight_splitting),
    ("spectral_radius_bounds", check_spectral_radius_bounds),
    ("hm_asymptotic_matching", check_hm_asymptotic_matching),
    ("hm_parity", check_hm_parity),
    ("hm_hermiticity", check_hm_hermiticity),
    ("picard_ode_seam", check_picard_ode_seam),
    ("ncp2_residual", check_ncp2_residual),
    ("zero_curvature_p2", check_zero_curvature_p2),
    ("p34_residuals", check_p34_residuals),
    ("zero_curvature_p34", check_zero_curvature_p34),
    ("a1_anti_hermitean", check_a1_anti_hermitean),
    ("route_agreement", check_route_agreement),
    ("tau_derivative_alpha1", check_tau_derivative_alpha1),
    ("tau_derivative_a1", check_tau_derivative_a1),
    ("det_factorization", check_det_factorization),
    ("pole_zero_match", check_pole_zero_match),
    ("subcritical_positivity", check_subcritical_positivity),
    ("total_positivity", check_total_positivity),
    ("de_bruijn", check_de_bruijn),
    ("miura", check_miura),
    ("f2_monotone", check_f2_monotone),
    ("scalar_chain", check_scalar_chain),
]


def run_check(i: int, seed: int = 0) -> tuple[bool, str]:
    """Run CHECKS[i] on default_rng([seed, i]); return (ok, PASS/FAIL line)."""
    name, fn = CHECKS[i]
    try:
        ok, detail = fn(np.random.default_rng([seed, i]))
    except Exception as exc:  # surface, do not abort the suite
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return ok, f"{'PASS' if ok else 'FAIL'} {name} ({detail})"


def run_all(seed: int = 0, stream=None) -> list[str]:
    """Run every named check; print one PASS/FAIL line each; return failures."""
    failures = []
    for i, (name, _) in enumerate(CHECKS):
        ok, line = run_check(i, seed)
        if stream is not None:
            stream.write(line + "\n")
        if not ok:
            failures.append(name)
    return failures
