"""The check registry: one test per named check in ncairy.verify.CHECKS.

Each check runs once, on the generator ``ncairy verify --seed 0`` gives it,
and prints the same PASS/FAIL line (visible with pytest -s or on failure).
The thirteen acceptance criteria name the checks that hold their cases.
"""

import functools

import pytest

from ncairy.verify import CHECKS, run_check

_INDEX = {name: i for i, (name, _) in enumerate(CHECKS)}


@functools.cache
def _run(name):
    return run_check(_INDEX[name], seed=0)


def _assert_checks(*names):
    for name in names:
        ok, line = _run(name)
        print(line)
        assert ok, line


@pytest.mark.parametrize("name", list(_INDEX))
def test_check(name):
    _assert_checks(name)


def test_criterion_01_cross_route_agreement():
    _assert_checks("route_agreement")


def test_criterion_02_factorization():
    _assert_checks("det_multiplicativity")


def test_criterion_03_contour_half_line():
    _assert_checks("contour_half_line_equivalence")


def test_criterion_04_ncp2_residual():
    _assert_checks("ncp2_residual")


def test_criterion_05_asymptotic_matching():
    _assert_checks("hm_asymptotic_matching")


def test_criterion_06_zero_curvature():
    _assert_checks("zero_curvature_p2", "zero_curvature_p34")


def test_criterion_07_p34_residuals():
    _assert_checks("p34_residuals")


def test_criterion_08_miura():
    _assert_checks("miura")


def test_criterion_09_tau_derivatives():
    _assert_checks("tau_derivative_alpha1", "tau_derivative_a1")


def test_criterion_10_existence_boundary():
    _assert_checks("subcritical_positivity", "pole_zero_match")


def test_criterion_11_total_positivity():
    _assert_checks("total_positivity", "de_bruijn")


def test_criterion_12_scalar_chain():
    _assert_checks("scalar_chain")


def test_criterion_13_special_functions():
    _assert_checks("airy_wronskian", "airy_seam_continuity")
