"""Quadrature rules and the block Nystrom determinant engine."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncairy import (
    ConvergenceFailure,
    CouplingMatrix,
    DomainError,
    ShiftVector,
    gauss_legendre,
    half_line_cutoff,
    half_line_rule,
    matrix_airy_kernel,
    matrix_airy_sq_kernel,
    nystrom_det,
    nystrom_det_contour,
    spectral_radius,
)
from ncairy.fredholm import QuadratureRule, _interval_rule

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
    assert half_line_cutoff(ShiftVector(np.array([0.0]))) == pytest.approx(40.0)
    assert half_line_cutoff(ShiftVector(np.array([-3.0]))) == pytest.approx(52.0)


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
# contour symbols (numpy 2.4, OpenBLAS, x86-64); the shared loop and the
# array-valued contour symbols must reproduce them bit for bit
_GOLDEN_CASES = {
    1: (np.array([-0.5]), np.array([[0.8]])),
    2: (np.array([0.0, 0.3]), np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])),
    3: (np.array([0.1, -0.2, 0.25]),
        np.array([[0.5, 0.1, 0.05], [0.1, 0.4, 0.1j], [0.05, -0.1j, 0.3]])),
}
_NYSTROM_GOLDENS = {
    ('airy', 1, True, True): ('0x1.4f119f714a718p+0', '0x0.0p+0', '0x1.139e4cf1e21eap-2', 80, '0x1.416a800000000p-35'),
    ('airy', 1, True, False): ('0x1.4f119f714a718p+0', '0x0.0p+0', '0x1.139e4cf1e21eap-2', 80, '0x1.416a800000000p-35'),
    ('airy', 1, False, True): ('0x1.4f119f7115db7p+0', '0x0.0p+0', '0x1.139e4cf141697p-2', 40, '0x0.0p+0'),
    ('airy', 1, False, False): ('0x1.4f119f7115db7p+0', '0x0.0p+0', '0x1.139e4cf141697p-2', 40, '0x0.0p+0'),
    ('airy', 2, True, True): ('0x1.24e32df888b53p+0', '0x1.24cb30c07eee3p-72', '0x1.13aedbb43627bp-3', 80, '0x1.743c000000000p-41'),
    ('airy', 2, True, False): ('0x1.24e32df888b53p+0', '0x1.46b03116a1c17p-70', '0x1.13aedbb43627bp-3', 80, '0x1.743c000000000p-41'),
    ('airy', 2, False, True): ('0x1.24e32df8898a2p+0', '0x1.24e3524e9d753p-92', '0x1.13aedbb43bf87p-3', 40, '0x0.0p+0'),
    ('airy', 2, False, False): ('0x1.24e32df8898a2p+0', '0x1.b86e11b895e30p-74', '0x1.13aedbb43bf87p-3', 40, '0x0.0p+0'),
    ('airy', 3, True, True): ('0x1.3431cb4ce7c16p+0', '0x1.96974e79425c8p-74', '0x1.7c038ea57a367p-3', 80, '0x1.9818000000000p-42'),
    ('airy', 3, True, False): ('0x1.3431cb4ce7c16p+0', '0x1.5849cd015bf03p-77', '0x1.7c038ea57a367p-3', 80, '0x1.9818000000000p-42'),
    ('airy', 3, False, True): ('0x1.3431cb4ce83c3p+0', '-0x1.471f8652bd126p-75', '0x1.7c038ea57d66cp-3', 40, '0x0.0p+0'),
    ('airy', 3, False, False): ('0x1.3431cb4ce83c3p+0', '-0x1.1a49ea1252e9ap-73', '0x1.7c038ea57d66cp-3', 40, '0x0.0p+0'),
    ('airy2', 1, True, True): ('0x1.c0ca7a94f27d8p-1', '0x0.0p+0', '-0x1.0ddc1af8ec958p-3', 80, '0x1.12c0000000000p-45'),
    ('airy2', 1, True, False): ('0x1.c0ca7a94f27d8p-1', '0x0.0p+0', '-0x1.0ddc1af8ec958p-3', 80, '0x1.12c0000000000p-45'),
    ('airy2', 1, False, True): ('0x1.c0ca7a94f26e7p-1', '0x0.0p+0', '-0x1.0ddc1af8ecda4p-3', 40, '0x0.0p+0'),
    ('airy2', 1, False, False): ('0x1.c0ca7a94f26e7p-1', '0x0.0p+0', '-0x1.0ddc1af8ecda4p-3', 40, '0x0.0p+0'),
    ('airy2', 2, True, True): ('0x1.f8a21baae4fccp-1', '-0x1.3677270c79031p-73', '-0x1.dae5cf881059cp-7', 80, '0x1.030000000003bp-51'),
    ('airy2', 2, True, False): ('0x1.f8a21baae4fccp-1', '-0x1.3f169367770ccp-72', '-0x1.dae5cf881059cp-7', 80, '0x1.0300000000141p-51'),
    ('airy2', 2, False, True): ('0x1.f8a21baae4fc8p-1', '-0x1.14b2f5b0a1496p-74', '-0x1.dae5cf8810671p-7', 40, '0x0.0p+0'),
    ('airy2', 2, False, False): ('0x1.f8a21baae4fc8p-1', '-0x1.03f69d3e642b0p-71', '-0x1.dae5cf8810671p-7', 40, '0x0.0p+0'),
    ('airy2', 3, True, True): ('0x1.f6b1cece2cf49p-1', '0x1.8bdb1f5e0c7d4p-77', '-0x1.2c836366cc615p-6', 80, '0x1.0500000000008p-50'),
    ('airy2', 3, True, False): ('0x1.f6b1cece2cf49p-1', '-0x1.fb75c342b5d51p-77', '-0x1.2c836366cc615p-6', 80, '0x1.0500000000002p-50'),
    ('airy2', 3, False, True): ('0x1.f6b1cece2cf41p-1', '-0x1.89eb88576e2c5p-75', '-0x1.2c836366cc732p-6', 40, '0x0.0p+0'),
    ('airy2', 3, False, False): ('0x1.f6b1cece2cf41p-1', '0x1.b33bcfd406d36p-77', '-0x1.2c836366cc732p-6', 40, '0x0.0p+0'),
}
_CONTOUR_GOLDENS = {
    1: ('0x1.56e2dd94b2eedp-1', '-0x1.09f0e00fd4377p-54', '-0x1.9a8c5a6e5865cp-2', 240, '0x1.20063b62728cep-49'),
    2: ('0x1.b913e3cab1735p-1', '0x1.b0ac675aa300ep-55', '-0x1.315d38acb72e7p-3', 240, '0x1.c24ad30cd3a80p-51'),
    3: ('0x1.a18f7352362cap-1', '-0x1.62398188bdacbp-60', '-0x1.a193fb1253b7bp-3', 240, '0x1.88000013725bfp-49'),
}


# a non-Hermitian real r = 3 coupling with zero entries, frozen before the contour
# kernel read E2 through its diagonal
_CONTOUR_CASE_NONHERM = (np.array([0.0, 0.2, 0.4]),
                         np.array([[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, -0.1, 0.3]]))
_CONTOUR_GOLDEN_NONHERM = ('0x1.b87f5e8f0d3cfp-1', '-0x1.4c0c9c74c090fp-55', '-0x1.340f4809b8ca9p-3',
                           240, '0x1.2c138c7e66bdcp-49')


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
