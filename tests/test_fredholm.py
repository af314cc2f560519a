"""Quadrature rules and the block Nystrom determinant engine."""

import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ncairy import (
    ConvergenceFailure,
    CouplingMatrix,
    DomainError,
    ShiftVector,
    ai_arrays,
    gauss_legendre,
    half_line_cutoff,
    half_line_rule,
    matrix_airy_kernel,
    matrix_airy_sq_kernel,
    nystrom_det,
    nystrom_det_contour,
    spectral_radius,
)
from ncairy import fredholm
from ncairy.fredholm import QuadratureRule, _interval_rule, _nystrom_stack

def test_gauss_legendre_two_point():
    rule = gauss_legendre(2)
    assert np.allclose(np.sort(rule.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)


def test_gauss_legendre_polynomial_exactness():
    # order m integrates x^(2m-1) exactly; check x^10 with m = 6
    rule = gauss_legendre(6)
    val = float(np.sum(rule.weights * rule.nodes ** 10))
    assert val == pytest.approx(2.0 / 11.0, abs=1e-14)
    assert float(np.sum(rule.weights)) == pytest.approx(2.0, abs=1e-14)


def test_gauss_legendre_symmetry_and_bounds():
    for m in (7, 64, 200):
        rule = gauss_legendre(m)
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
        assert np.allclose(rule.weights, rule.weights[::-1], atol=1e-15)
        assert np.all((rule.nodes > -1) & (rule.nodes < 1))
    with pytest.raises(DomainError):
        gauss_legendre(1)


@pytest.mark.parametrize("nodes,weights,match", [
    ([0.0, 0.5], [1.0], "counts differ"),
    ([0.0, 0.5], [1.0, 0.0], "positive"),
    ([0.0, 0.5], [1.0, -1.0], "positive"),
], ids=["shapes", "zero-weight", "negative-weight"])
def test_quadrature_rule_rejects_bad_input(nodes, weights, match):
    with pytest.raises(DomainError, match=match):
        QuadratureRule(np.array(nodes), np.array(weights), 0.0, 1.0)


def test_gauss_legendre_built_once_and_read_only():
    rule = gauss_legendre(37)
    assert gauss_legendre(37) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    mapped = _interval_rule(37, -1.0, 1.0)
    for arr, base in ((mapped.nodes, rule.nodes), (mapped.weights, rule.weights)):
        assert not np.shares_memory(arr, base)
        assert arr.flags.writeable


def test_gauss_legendre_cache_fills_lazily():
    # importing the package builds no rule; the first call builds one
    code = ("import ncairy; a = ncairy.gauss_legendre.cache_info().currsize; "
            "ncairy.gauss_legendre(40); print(a, ncairy.gauss_legendre.cache_info().currsize)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["0", "1"]


def test_rank_one_determinant():
    # K(x,y) = e^{-x-y} on [0, inf): det(Id + z K) = 1 + z/2
    rule = half_line_rule(40, 40.0)
    d = nystrom_det(lambda x, y: np.exp(-x - y)[..., None, None], 1, 1.0, rule)
    assert abs(d.value - 1.5) <= 1e-10
    assert d.converged


def test_half_line_cutoff_scaling():
    # L = T + 2 max(0, -s_min), T = 16 the least integer with Ai(T) + |Ai'(T)| <= 1e-18
    assert half_line_cutoff(ShiftVector(np.array([0.0]))) == 16.0
    assert half_line_cutoff(ShiftVector(np.array([2.5]))) == 16.0
    assert half_line_cutoff(ShiftVector(np.array([-3.0]))) == 22.0
    assert half_line_cutoff(ShiftVector(np.array([0.5, -1.25, 3.0]))) == 18.5
    ai, aip = ai_arrays(np.array([15.0, 16.0]))
    tail = ai + np.abs(aip)
    assert tail[1] <= 1e-18 < tail[0]


def test_scalar_gap_value():
    # det(Id - Ai^2) at shift 0 equals the GUE edge gap probability at 0
    s = ShiftVector(np.array([0.0]))
    c = CouplingMatrix(np.array([[1.0]]))
    rule = half_line_rule(40, half_line_cutoff(s))
    d = nystrom_det(lambda x, y: matrix_airy_sq_kernel(x, y, s, c), 1, -1.0, rule)
    assert np.real(d.value) == pytest.approx(0.9693728283553741, abs=1e-9)


def test_determinant_multiplicativity(assert_checks):
    assert_checks("det_multiplicativity")


def test_refinement_error_decreases(assert_checks):
    assert_checks("refinement_monotonicity")


def test_weight_splitting_invariance(assert_checks):
    assert_checks("weight_splitting_invariance")


@pytest.mark.parametrize("case", ["sv0-c0--1.0", "sv1-c1-1.0", "sv2-c2--1.0", "sv3-c3--1.0",
                                  "sv4-c4-1.0"])
def test_contour_half_line_equivalence(case, assert_checks):
    assert_checks("contour_half_line_equivalence")


def test_spectral_radius_decay_and_boundary(assert_checks):
    assert_checks("spectral_radius_bounds")


def test_spectral_radius_keeps_small_entries():
    # at S = 5 the Ai^2 kernel is about 1e-22, below the rounding of 1 + K;
    # one eigenvalue dominates, so the radius is close to the block's trace
    s = ShiftVector(np.array([5.0]))
    c = CouplingMatrix(np.array([[1.0]]))
    rule = half_line_rule(80, half_line_cutoff(s))

    def kernel(x, y):
        return matrix_airy_sq_kernel(x, y, s, c)

    x = rule.nodes
    trace = float(np.sum(rule.weights * np.real(np.diagonal(kernel(x[:, None], x[None, :])[..., 0, 0]))))
    assert 1e-22 < trace < 1e-21
    assert abs(spectral_radius(kernel, 1, rule) - trace) <= 1e-2 * trace


def test_det_result_diagnostics():
    s = ShiftVector(np.array([0.0]))
    c = CouplingMatrix(np.array([[1.0]]))
    rule = half_line_rule(40, half_line_cutoff(s))
    d = nystrom_det(lambda x, y: matrix_airy_sq_kernel(x, y, s, c), 1, -1.0, rule)
    assert d.converged and d.est_error <= 1e-10
    assert d.log_abs == pytest.approx(math.log(abs(d.value)), abs=1e-12)
    assert d.nodes_used >= 40


def test_rules_carry_their_interval():
    base = gauss_legendre(8)
    rule = half_line_rule(8, 52.0)
    assert (base.a, base.b, rule.a, rule.b) == (-1.0, 1.0, 0.0, 52.0)
    assert rule.nodes.tobytes() == (26.0 * (base.nodes + 1.0)).tobytes()


def test_refinement_on_a_general_interval():
    # K(x,y) = e^{-x-y} on [1, 2]: det(Id + z K) = 1 + z int_1^2 e^{-2x} dx;
    # refinement passes rebuild the rule on [1, 2], not on [0, cutoff]
    base = gauss_legendre(5)
    rule = QuadratureRule(1.5 + 0.5 * base.nodes, 0.5 * base.weights, 1.0, 2.0)
    d = nystrom_det(lambda x, y: np.exp(-x - y)[..., None, None], 1, 1.0, rule, tol=1e-13)
    assert d.converged and d.nodes_used > 5
    assert abs(d.value - (1.0 + 0.5 * (math.exp(-2.0) - math.exp(-4.0)))) <= 1e-13


# float.hex goldens of (re value, im value, log_abs, nodes_used, est_error)
# from the separate half-line and contour refinement loops with per-node
# contour symbols (numpy 2.4, OpenBLAS with 1 BLAS thread, x86-64); the shared
# loop and the array-valued contour symbols must reproduce them bit for bit.
# OpenBLAS splits its LU by thread count, so conftest.py pins it to 1.  The r = 1
# coupling is real, so its block is real and takes a real LU.  The half-line values
# were re-pinned when the cutoff went from 40 + 4 max(0, -s_min) to 16 + 2 max(0, -s_min).
# Against the operator's determinant from a 96-node rule on [0, cutoff + 6] in mpmath
# (30 digits), the 40-node (refine=False) values lie 1.0-6.8 ulp off, where the old
# ones lay 2.5-215 000 ulp off (airy r = 1: 215 000, r = 2: 3 400, r = 3: 2 000); the
# refined 80-node values lie 0.2-5.8 ulp off, against 0.2-6.5 ulp before.  The new
# value is the closer one in 9 of the 12 (kind, r, refine) cases
_GOLDEN_CASES = {
    1: (np.array([-0.5]), np.array([[0.8]])),
    2: (np.array([0.0, 0.3]), np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])),
    3: (np.array([0.1, -0.2, 0.25]),
        np.array([[0.5, 0.1, 0.05], [0.1, 0.4, 0.1j], [0.05, -0.1j, 0.3]])),
}
_NYSTROM_GOLDENS = {
    ('airy', 1, True, True): ('0x1.4f119f714a713p+0', '0x0.0p+0', '0x1.139e4cf1e21dbp-2', 80, '0x1.0000000000000p-51'),
    ('airy', 1, True, False): ('0x1.4f119f714a713p+0', '0x0.0p+0', '0x1.139e4cf1e21dbp-2', 80, '0x1.0000000000000p-51'),
    ('airy', 1, False, True): ('0x1.4f119f714a716p+0', '0x0.0p+0', '0x1.139e4cf1e21e6p-2', 40, '0x0.0p+0'),
    ('airy', 1, False, False): ('0x1.4f119f714a716p+0', '0x0.0p+0', '0x1.139e4cf1e21e6p-2', 40, '0x0.0p+0'),
    ('airy', 2, True, True): ('0x1.24e32df888b4ap+0', '0x1.f402df84a351ap-73', '0x1.13aedbb436239p-3', 80, '0x1.c000000000035p-50'),
    ('airy', 2, True, False): ('0x1.24e32df888b4ap+0', '-0x1.5973181a8e5d6p-70', '0x1.13aedbb436239p-3', 80, '0x1.c0000000007f7p-50'),
    ('airy', 2, False, True): ('0x1.24e32df888b52p+0', '-0x1.b9d6ad3f0c083p-96', '0x1.13aedbb436274p-3', 40, '0x0.0p+0'),
    ('airy', 2, False, False): ('0x1.24e32df888b52p+0', '0x1.4955b29b25684p-73', '0x1.13aedbb436274p-3', 40, '0x0.0p+0'),
    ('airy', 3, True, True): ('0x1.3431cb4ce7c12p+0', '0x1.39ea360d6b90bp-74', '0x1.7c038ea57a350p-3', 80, '0x1.c00000000053ep-53'),
    ('airy', 3, True, False): ('0x1.3431cb4ce7c12p+0', '-0x1.657139874720cp-75', '0x1.7c038ea57a350p-3', 80, '0x1.c000000000017p-53'),
    ('airy', 3, False, True): ('0x1.3431cb4ce7c13p+0', '-0x1.5a34c54771140p-74', '0x1.7c038ea57a356p-3', 40, '0x0.0p+0'),
    ('airy', 3, False, False): ('0x1.3431cb4ce7c13p+0', '-0x1.72ee113878584p-76', '0x1.7c038ea57a356p-3', 40, '0x0.0p+0'),
    ('airy2', 1, True, True): ('0x1.c0ca7a94f27dcp-1', '0x0.0p+0', '-0x1.0ddc1af8ec949p-3', 80, '0x0.0p+0'),
    ('airy2', 1, True, False): ('0x1.c0ca7a94f27dcp-1', '0x0.0p+0', '-0x1.0ddc1af8ec949p-3', 80, '0x0.0p+0'),
    ('airy2', 1, False, True): ('0x1.c0ca7a94f27dcp-1', '0x0.0p+0', '-0x1.0ddc1af8ec946p-3', 40, '0x0.0p+0'),
    ('airy2', 1, False, False): ('0x1.c0ca7a94f27dcp-1', '0x0.0p+0', '-0x1.0ddc1af8ec946p-3', 40, '0x0.0p+0'),
    ('airy2', 2, True, True): ('0x1.f8a21baae4fc9p-1', '-0x1.ef3b14fff4cc1p-75', '-0x1.dae5cf881062ep-7', 80, '0x1.4500000000001p-51'),
    ('airy2', 2, True, False): ('0x1.f8a21baae4fc9p-1', '-0x1.99110ada173eap-74', '-0x1.dae5cf881062ep-7', 80, '0x1.450000000010cp-51'),
    ('airy2', 2, False, True): ('0x1.f8a21baae4fc4p-1', '-0x1.2e1835f522a0ap-74', '-0x1.dae5cf8810768p-7', 40, '0x0.0p+0'),
    ('airy2', 2, False, False): ('0x1.f8a21baae4fc4p-1', '-0x1.341829bfcc010p-72', '-0x1.dae5cf8810768p-7', 40, '0x0.0p+0'),
    ('airy2', 3, True, True): ('0x1.f6b1cece2cf4bp-1', '0x1.5bfdc69d0c319p-79', '-0x1.2c836366cc5e1p-6', 80, '0x1.0800000000012p-52'),
    ('airy2', 3, True, False): ('0x1.f6b1cece2cf4bp-1', '0x1.b4d75acfb1fa7p-78', '-0x1.2c836366cc5e1p-6', 80, '0x1.080000000005bp-52'),
    ('airy2', 3, False, True): ('0x1.f6b1cece2cf4dp-1', '0x1.a7bec5f23c2b0p-76', '-0x1.2c836366cc591p-6', 40, '0x0.0p+0'),
    ('airy2', 3, False, False): ('0x1.f6b1cece2cf4dp-1', '0x1.e5538dc942453p-75', '-0x1.2c836366cc591p-6', 40, '0x0.0p+0'),
}
_CONTOUR_GOLDENS = {
    1: ('0x1.56e2dd94b2ee9p-1', '-0x1.0d922ee56845dp-54', '-0x1.9a8c5a6e58668p-2', 240, '0x1.f0348ebe818afp-50'),
    2: ('0x1.b913e3cab1735p-1', '0x1.b0ac675aa300ep-55', '-0x1.315d38acb72e7p-3', 240, '0x1.822ff4eb9a513p-51'),
    3: ('0x1.a18f7352362cap-1', '-0x1.62398188bdacbp-60', '-0x1.a193fb1253b7bp-3', 240, '0x1.88000013725bfp-49'),
}


# a non-Hermitian real r = 3 coupling with zero entries, frozen before the contour
# kernel read E2 through its diagonal (1 BLAS thread)
_CONTOUR_CASE_NONHERM = (np.array([0.0, 0.2, 0.4]),
                         np.array([[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, -0.1, 0.3]]))
_CONTOUR_GOLDEN_NONHERM = ('0x1.b87f5e8f0d3cfp-1', '-0x1.4c0c9c74c090fp-55', '-0x1.340f4809b8ca9p-3',
                           240, '0x1.e030de56cd11bp-50')


def _hexes(d):
    v = complex(d.value)
    return (v.real.hex(), v.imag.hex(), float(d.log_abs).hex(), d.nodes_used,
            float(d.est_error).hex())


@pytest.mark.parametrize("kind,r,refine,split", sorted(_NYSTROM_GOLDENS))
def test_nystrom_det_bit_identical(kind, r, refine, split):
    s, c = ShiftVector(_GOLDEN_CASES[r][0]), CouplingMatrix(_GOLDEN_CASES[r][1])
    kern, z = (matrix_airy_kernel, 1.0) if kind == "airy" else (matrix_airy_sq_kernel, -1.0)
    rule = half_line_rule(40, half_line_cutoff(s))
    d = nystrom_det(lambda x, y: kern(x, y, s, c), r, z, rule, refine=refine, split=split)
    assert _hexes(d) == _NYSTROM_GOLDENS[(kind, r, refine, split)]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_nystrom_det_contour_bit_identical(r):
    s, c = ShiftVector(_GOLDEN_CASES[r][0]), CouplingMatrix(_GOLDEN_CASES[r][1])
    assert _hexes(nystrom_det_contour(s, c, -1.0)) == _CONTOUR_GOLDENS[r]


def test_nystrom_det_contour_bit_identical_non_hermitian():
    s, c = ShiftVector(_CONTOUR_CASE_NONHERM[0]), CouplingMatrix(_CONTOUR_CASE_NONHERM[1])
    assert _hexes(nystrom_det_contour(s, c, -1.0)) == _CONTOUR_GOLDEN_NONHERM


@pytest.mark.parametrize("route", ["half_line", "contour"])
def test_refinement_cap_before_any_comparison(route):
    # 161 nodes per ray cannot double under the cap of 320, so no error
    # estimate exists and both routes refuse to return a value
    with pytest.raises(ConvergenceFailure):
        if route == "half_line":
            nystrom_det(lambda x, y: np.exp(-x - y)[..., None, None], 1, 1.0,
                        half_line_rule(161, 40.0), refine=True)
        else:
            nystrom_det_contour(ShiftVector(np.array([0.0])),
                                CouplingMatrix(np.array([[1.0]])), -1.0,
                                m_per_ray=161, refine=True)


def test_nystrom_stack_matches_lone_dets():
    # r = 2 members with unequal shifts refine on their own and leave the stack on different
    # passes (80 nodes from S = -4 up, 160 at -6 and 320 at -12); each keeps every bit of its
    # lone nystrom_det, diagnostics included
    c = CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]]))
    shifts = [ShiftVector(np.array([S, S + 0.3])) for S in (-6.0, -1.5, 0.0, 1.0, -12.0)]
    rules = [half_line_rule(40, half_line_cutoff(s)) for s in shifts]

    def kernel(idx, x, y):
        return np.stack([matrix_airy_sq_kernel(x[j], y[j], shifts[i], c) for j, i in enumerate(idx)])

    stack = _nystrom_stack(kernel, 2, -1.0, rules)
    lone = [nystrom_det(lambda x, y, s=s: matrix_airy_sq_kernel(x, y, s, c), 2, -1.0, rule)
            for s, rule in zip(shifts, rules)]
    assert [_hexes(d) + (d.converged,) for d in stack] == [_hexes(d) + (d.converged,) for d in lone]
    assert len({d.nodes_used for d in lone}) == 3


@pytest.mark.parametrize("z", [-1.0, 1.0])
@pytest.mark.parametrize("S", [-8.0, -4.0, 0.0, 4.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_half_line_truncation(r, S, z):
    # det(Id + z A_S) on [0, L] against 1.5 L at twice the nodes: the cutoff neglects
    # nothing the refined rule sees.  The squared kernel is left out: at r = 2, S = -8 its
    # det is 8e-7, where the 640-node reference's own rounding reads 4e-13 relative
    sv, cv = _GOLDEN_CASES[r]
    s, c = ShiftVector(S + sv - sv.mean()), CouplingMatrix(cv)
    kernel = partial(matrix_airy_kernel, s=s, C=c)
    cutoff = half_line_cutoff(s)
    d = nystrom_det(kernel, r, z, half_line_rule(40, cutoff))
    ref = nystrom_det(kernel, r, z, half_line_rule(2 * d.nodes_used, 1.5 * cutoff), refine=False)
    assert d.converged
    assert abs(d.value - ref.value) <= 1e-13 * abs(ref.value)


def test_negative_contour_det_converges():
    # det < 0: the rounding-level imaginary part of log det flips sign between passes, a
    # 2 pi jump of the principal log that is no change of det
    d = nystrom_det_contour(ShiftVector(np.array([-1.2])), CouplingMatrix(np.array([[1.2]])),
                            -1.0, m_per_ray=60)
    assert d.value.real < 0.0
    assert d.converged and d.est_error <= 1e-10 and d.nodes_used == 240


# real couplings: their kernels are real, so the blocks are real and take a real LU
_REAL_CASES = {
    1: (np.array([-0.5]), np.array([[0.8]])),
    2: (np.array([0.0, 0.3]), np.array([[0.6, 0.2], [0.2, 0.5]])),
    3: _CONTOUR_CASE_NONHERM,
}
_KINDS = {"airy+": (matrix_airy_kernel, 1.0), "airy-": (matrix_airy_kernel, -1.0),
          "airy2": (matrix_airy_sq_kernel, -1.0)}


def _as_complex(kernel):
    """kernel with its values cast to complex, so that its blocks and their LU are complex."""
    return lambda x, y: np.asarray(kernel(x, y), dtype=complex)


def _recorded_dtypes(monkeypatch):
    """The dtype of every stack _lu_logdet factors, in order."""
    dtypes = []
    lu = fredholm._lu_logdet

    def recording(a):
        dtypes.append(a.dtype)
        return lu(a)

    monkeypatch.setattr(fredholm, "_lu_logdet", recording)
    return dtypes


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_real_coupling_matches_complex_blocks(r, kind, monkeypatch):
    s, c = ShiftVector(_REAL_CASES[r][0]), CouplingMatrix(_REAL_CASES[r][1])
    kern, z = _KINDS[kind]
    rule = half_line_rule(40, half_line_cutoff(s))
    kernel = partial(kern, s=s, C=c)
    dtypes = _recorded_dtypes(monkeypatch)
    real = nystrom_det(kernel, r, z, rule)
    n = len(dtypes)
    cplx = nystrom_det(_as_complex(kernel), r, z, rule)
    assert set(dtypes[:n]) == {np.dtype(float)} and set(dtypes[n:]) == {np.dtype(complex)}
    assert isinstance(real.value, complex) and isinstance(cplx.value, complex)
    assert real.value.imag == 0.0
    assert abs(real.value - cplx.value) <= 1e-14 * abs(cplx.value)
    assert (real.nodes_used, real.converged) == (cplx.nodes_used, cplx.converged)


def test_real_coupling_spectral_radius_matches_complex_block():
    s, c = ShiftVector(_REAL_CASES[2][0]), CouplingMatrix(_REAL_CASES[2][1])
    rule = half_line_rule(40, half_line_cutoff(s))
    kernel = partial(matrix_airy_sq_kernel, s=s, C=c)
    real, cplx = spectral_radius(kernel, 2, rule), spectral_radius(_as_complex(kernel), 2, rule)
    assert abs(real - cplx) <= 1e-14 * cplx


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_hermitian_non_real_coupling_keeps_complex_blocks(kind, monkeypatch):
    # its goldens above are the complex LU's bits
    s, c = ShiftVector(_GOLDEN_CASES[2][0]), CouplingMatrix(_GOLDEN_CASES[2][1])
    kern, z = _KINDS[kind]
    dtypes = _recorded_dtypes(monkeypatch)
    d = nystrom_det(partial(kern, s=s, C=c), 2, z, half_line_rule(40, half_line_cutoff(s)))
    assert set(dtypes) == {np.dtype(complex)}
    assert isinstance(d.value, complex)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_complex_z_with_real_coupling_promotes_to_complex(kind, monkeypatch):
    # z times the real block is z times the block cast to complex, bit for bit
    s, c = ShiftVector(_REAL_CASES[2][0]), CouplingMatrix(_REAL_CASES[2][1])
    kern, z = _KINDS[kind]
    z = complex(z, 0.25)
    rule = half_line_rule(40, half_line_cutoff(s))
    kernel = partial(kern, s=s, C=c)
    dtypes = _recorded_dtypes(monkeypatch)
    d = nystrom_det(kernel, 2, z, rule)
    assert set(dtypes) == {np.dtype(complex)}
    assert _hexes(d) == _hexes(nystrom_det(_as_complex(kernel), 2, z, rule))
