"""The check registry: one test per named check in ncairy.verify.CHECKS.

Each check runs once per session (see conftest.py), on the generator
``ncairy verify --seed 0`` gives it, and prints the same PASS/FAIL line
(visible with pytest -s or on failure).  The thirteen acceptance criteria
name the checks that hold their cases; the ``*_can_fail`` tests show that a
check FAILs on a planted defect.
"""

import numpy as np
import pytest

from ncairy import ncp2, verify
from ncairy.verify import CHECKS, run_check

NAMES = [name for name, _ in CHECKS]


@pytest.mark.parametrize("name", NAMES)
def test_check(name, assert_checks):
    assert_checks(name)


def test_criterion_01_cross_route_agreement(assert_checks):
    assert_checks("route_agreement")


def test_criterion_02_factorization(assert_checks):
    assert_checks("det_multiplicativity")


def test_criterion_03_contour_half_line(assert_checks):
    assert_checks("contour_half_line_equivalence")


def test_criterion_04_ncp2_residual(assert_checks):
    assert_checks("ncp2_residual")


def test_criterion_05_asymptotic_matching(assert_checks):
    assert_checks("hm_asymptotic_matching")


def test_criterion_06_zero_curvature(assert_checks):
    assert_checks("zero_curvature_p2", "zero_curvature_p34")


def test_criterion_07_p34_residuals(assert_checks):
    assert_checks("p34_residuals")


def test_criterion_08_miura(assert_checks):
    assert_checks("miura")


def test_criterion_09_tau_derivatives(assert_checks):
    assert_checks("tau_derivative_alpha1", "tau_derivative_a1")


def test_criterion_10_existence_boundary(assert_checks):
    assert_checks("subcritical_positivity", "pole_zero_match")


def test_criterion_11_total_positivity(assert_checks):
    assert_checks("total_positivity", "de_bruijn")


def test_criterion_12_scalar_chain(assert_checks):
    assert_checks("scalar_chain")


def test_criterion_13_special_functions(assert_checks):
    assert_checks("airy_wronskian", "airy_seam_continuity")


def test_airy_scaled_consistency_can_fail(monkeypatch):
    # a relative 1e-11 error in the scaled values on [0, 9.5) must not pass
    real = verify.airy_arrays

    def perturbed(x):
        x = np.asarray(x, dtype=float)
        out = real(x)
        bump = np.where((x >= 0.0) & (x < 9.5), 1.0 + 1e-11, 1.0)
        return tuple(v * bump for v in out[:4]) + (out[4],)

    monkeypatch.setattr(verify, "airy_arrays", perturbed)
    ok, line = run_check(NAMES.index("airy_scaled_consistency"), seed=0)
    assert not ok, line


def test_spectral_radius_bounds_can_fail(monkeypatch):
    # a kernel scaled by 1.2 puts rho(-2) at c = 1 above 1
    real = verify.matrix_airy_sq_kernel
    monkeypatch.setattr(verify, "matrix_airy_sq_kernel", lambda *a: 1.2 * real(*a))
    ok, line = run_check(NAMES.index("spectral_radius_bounds"), seed=0)
    assert not ok, line


def test_hm_asymptotic_matching_can_fail(monkeypatch):
    # the cube negated flips the sign of the Green term in every tail sweep,
    # so the solved tail is u - K[u^3] + ...: the error reads 2 |K[u^3]|
    real = ncp2._matcube
    monkeypatch.setattr(ncp2, "_matcube", lambda b: -real(b))
    monkeypatch.setattr(ncp2, "_GRID_CACHE", {})
    ok, line = run_check(NAMES.index("hm_asymptotic_matching"), seed=0)
    assert not ok and "rel err 2.0" in line, line
