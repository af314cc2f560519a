"""Matrix Painleve XXXIV state, residuals, and the (B, V_D) Lax pair."""

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    DomainError,
    alpha1,
    hm_solve,
    lax_b,
    p34_residual,
    p34_state,
    vd_at,
)

C1 = CouplingMatrix(np.array([[1.0]]))
C2 = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))
D2 = [0.0, 0.3]


@pytest.fixture(scope="module")
def grid1():
    return hm_solve(C1, [0.0], S_min=-1.5)


@pytest.fixture(scope="module")
def grid2():
    return hm_solve(C2, D2, S_min=-1.5)


def test_residual_bounds(assert_checks):
    assert_checks("p34_residuals")


def test_scalar_a2_term_cancels(assert_checks):
    assert_checks("p34_residuals")


def test_matrix_a2_term_required(grid2):
    # for r = 2 dropping the commutator breaks the third-order identity
    with_term, _, _ = p34_residual(grid2, 0.5, include_a2=True)
    without, _, _ = p34_residual(grid2, 0.5, include_a2=False)
    assert with_term <= 1e-5
    assert without > 1e-3


def test_a1_anti_hermitean(assert_checks):
    assert_checks("a1_anti_hermitean")


def test_a1p_derivative_consistency(grid1):
    h = grid1.h
    sts = [p34_state(grid1, 0.5 + k * h) for k in (-2, -1, 1, 2)]
    fd = (sts[0].a1 - 8 * sts[1].a1 + 8 * sts[2].a1 - sts[3].a1) / (12 * h)
    st = p34_state(grid1, 0.5)
    assert np.max(np.abs(fd - st.a1p)) <= 1e-9


def test_zero_curvature(assert_checks):
    assert_checks("zero_curvature_p34")


def test_zero_curvature_second_order_decay(assert_checks):
    assert_checks("zero_curvature_p34")


def test_vd_structure(grid2):
    st = p34_state(grid2, 0.5)
    v = vd_at(st, 2.0)
    r = 2
    assert v.shape == (2 * r, 2 * r)
    assert np.max(np.abs(v[:r, :r])) == 0.0
    assert np.max(np.abs(v[r:, r:])) == 0.0
    assert np.allclose(v[:r, r:], -np.eye(r))
    assert np.allclose(v[r:, :r], 4.0 * np.eye(r) - 2.0j * st.a1p)


def test_lax_b_small_lambda_guard(grid1):
    st = p34_state(grid1, 0.5)
    with pytest.raises(DomainError):
        lax_b(st, grid1.delta, 0.05)
    b = lax_b(st, grid1.delta, 0.5)
    assert b.shape == (2, 2) and np.isfinite(b).all()


# float.hex of alpha1 and a2 on grid2, row-major (re, im) pairs
P34_GOLDENS = {
    -1.0: ((("-0x1.c796e76649be3p-70", "0x1.1280a7dca47bap-2"),
           ("-0x1.1fa42436104c2p-4", "0x1.1fa42436104c2p-3"),
           ("0x1.1fa42436104c2p-4", "0x1.1fa42436104c2p-3"),
           ("-0x1.7c64fff19d64ap-71", "0x1.41573ff5ec1b7p-3")),
          (("-0x1.917245dae4283p-3", "-0x1.6a700a37822dcp-68"),
           ("-0x1.d1ab0c0bf50eep-4", "-0x1.d1ab0c0bf50eep-5"),
           ("-0x1.75491fb673a54p-3", "0x1.75491fb673a54p-4"),
           ("-0x1.53371dbe6759fp-3", "-0x1.36d7325e16a39p-69"))),
    0.5: ((("-0x1.e50da29ac6466p-85", "0x1.60400971c4c78p-9"),
           ("-0x1.90e504b91a0f0p-12", "0x1.90e504b91a0f0p-11"),
           ("0x1.90e504b91a0f0p-12", "0x1.90e504b91a0f0p-11"),
           ("0x1.2ebe6de2bd5c0p-88", "0x1.fba5bfae69970p-12")),
          (("-0x1.ecf79905d331bp-9", "-0x1.a018053b40067p-84"),
           ("-0x1.1cec3ef3c0e47p-10", "-0x1.1cec3ef3c0e47p-11"),
           ("-0x1.3222f7cb4d694p-10", "0x1.3222f7cb4d694p-11"),
           ("-0x1.84e6dd38a29b8p-11", "-0x1.03f4d4c4d64edp-86"))),
}


@pytest.mark.parametrize("s_val", sorted(P34_GOLDENS))
def test_alpha1_and_a2_bit_exact(grid2, s_val):
    want_alpha1, want_a2 = (
        np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in g]).reshape(2, 2)
        for g in P34_GOLDENS[s_val])
    assert np.array_equal(alpha1(grid2, s_val), want_alpha1)
    assert np.array_equal(p34_state(grid2, s_val).a2, want_a2)
