"""Kernel assembly: shift/coupling containers and the Airy-type kernels."""

import math

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    DivisionByZero,
    DomainError,
    OverflowRisk,
    ShiftVector,
    ai_arrays,
    contour_kernel,
    contour_symbol,
    gauss_legendre,
    half_line_rule,
    kernels,
    matrix_airy_kernel,
    matrix_airy_sq_kernel,
    scalar_airy_kernel,
)

C_HERM = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))


def _z_rule(m=200, cutoff=40.0):
    base = gauss_legendre(m)
    return 0.5 * cutoff * (base.nodes + 1.0), 0.5 * cutoff * base.weights


def test_shift_vector_split():
    s = ShiftVector(np.array([0.7, -0.2, 0.1]))
    assert s.S == pytest.approx(0.2)
    assert np.allclose(s.delta, [0.5, -0.4, -0.1])
    assert s.s - s.S == pytest.approx(s.delta)
    assert s.r == 3
    assert np.allclose(np.diag(s.diag()), s.s)


def test_coupling_matrix_flags():
    assert C_HERM.is_hermitean and not C_HERM.is_real
    c_real = CouplingMatrix(np.array([[0.5, 0.1], [0.3, 0.4]]))
    assert c_real.is_real and not c_real.is_hermitean
    neg = C_HERM.negated()
    assert np.allclose(neg.entries, -C_HERM.entries)


def test_sigma_max_cross_check():
    for c in (C_HERM, CouplingMatrix(np.array([[0.9, 0.5], [0.0, 0.3]]))):
        assert c.sigma_max == pytest.approx(c.sigma_max_crosscheck(), rel=1e-10)
    assert CouplingMatrix(np.array([[1.0]])).sigma_max == pytest.approx(1.0)


def test_matrix_airy_kernel_entries():
    s = ShiftVector(np.array([0.1, -0.3]))
    k = matrix_airy_kernel(0.4, 0.7, s, C_HERM)
    for j in range(2):
        for l in range(2):
            ai, _ = ai_arrays(np.asarray([0.4 + 0.7 + s.s[j] + s.s[l]]))
            assert k[j, l] == pytest.approx(C_HERM.entries[j, l] * ai[0], rel=1e-12)


def test_scalar_kernel_against_quadrature():
    z, wz = _z_rule()
    for a, b in ((0.0, 0.0), (0.5, -0.5), (-1.0, 2.0), (3.0, 3.5)):
        a1, _ = ai_arrays(a + z)
        a2, _ = ai_arrays(b + z)
        oracle = float(np.sum(wz * a1 * a2))
        assert float(scalar_airy_kernel(a, b)) == pytest.approx(oracle, abs=1e-8)


def test_scalar_kernel_diagonal_seam():
    # confluent branch must join the generic branch smoothly
    a = 0.3
    near = float(scalar_airy_kernel(a, a + 5e-7))
    far = float(scalar_airy_kernel(a, a + 5e-6))
    exact = float(scalar_airy_kernel(a, a))
    assert abs(near - exact) < abs(far - exact) + 1e-12
    assert near == pytest.approx(exact, rel=1e-6)


def test_sq_kernel_against_z_integral():
    s = ShiftVector(np.array([0.1, -0.4]))
    z, wz = _z_rule()
    for x, y in ((0.0, 0.5), (-1.0, 2.0), (1.3, 1.3)):
        direct = matrix_airy_sq_kernel(x, y, s, C_HERM)
        oracle = np.zeros((2, 2), dtype=complex)
        for j1 in range(2):
            for j2 in range(2):
                for k in range(2):
                    a1, _ = ai_arrays(x + s.s[j1] + z + s.s[k])
                    a2, _ = ai_arrays(z + s.s[k] + y + s.s[j2])
                    oracle[j1, j2] += (C_HERM.entries[j1, k] * C_HERM.entries[k, j2]
                                       * np.sum(wz * a1 * a2))
        assert np.max(np.abs(direct - oracle)) <= 1e-8


def test_sq_kernel_hermitean_transpose():
    s = ShiftVector(np.array([0.0, 0.25]))
    for x, y in ((0.3, -0.7), (1.1, 0.2)):
        a = matrix_airy_sq_kernel(x, y, s, C_HERM)
        b = matrix_airy_sq_kernel(y, x, s, C_HERM)
        assert np.max(np.abs(a - b.conj().T)) <= 1e-12


def test_contour_symbol_diagonal_phase():
    s = ShiftVector(np.array([0.0]))
    c = CouplingMatrix(np.array([[1.0]]))
    lam = 1.0j
    e1, e2 = contour_symbol(lam, s, c)
    # exp(i lam^3 / 6) at lam = i is exp(1/6)
    assert e2[0, 0] == pytest.approx(np.exp(1.0 / 6.0), rel=1e-12)
    assert e1[0, 0] == pytest.approx(-e2[0, 0] / (2.0j * np.pi), rel=1e-12)


def test_contour_kernel_guards():
    s = ShiftVector(np.array([0.0]))
    c = CouplingMatrix(np.array([[1.0]]))
    k = contour_kernel(1.0j, 1.0j, s, c)
    assert np.isfinite(k).all()
    with pytest.raises(DivisionByZero):
        contour_kernel(1.0j, -1.0j, s, c)
    with pytest.raises(OverflowRisk):
        contour_symbol(40.0j, s, c)


def test_shift_coupling_validation():
    with pytest.raises(DomainError):
        ShiftVector(np.array([np.nan]))
    with pytest.raises(DomainError):
        CouplingMatrix(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_kernel_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        scalar_airy_kernel(bad, 0.5)
    with pytest.raises(DomainError):
        scalar_airy_kernel(np.array([0.5, 1.0]), np.array([[bad], [2.0]]))


def _ai_kernel_ref(x, y, s, C):
    """matrix_airy_kernel evaluated on every broadcast argument."""
    ai, _ = ai_arrays((x + y)[..., None, None] + (s.s[:, None] + s.s[None, :]))
    return C.entries * ai


def _sq_kernel_ref(x, y, s, C):
    """matrix_airy_sq_kernel with Airy evaluated on every broadcast argument pair."""
    x, y = np.broadcast_arrays(x, y)
    ss = s.s[:, None] + s.s[None, :]
    a, b = np.broadcast_arrays((x[..., None, None] + ss)[..., :, None, :],
                               (y[..., None, None] + ss)[..., None, :, :])
    aa, aap = ai_arrays(a)
    ba, bap = ai_arrays(b)
    d = a - b
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (aa * bap - aap * ba) / d
    diag = aap * aap - a * aa * aa - 0.5 * (b - a) * aa * aa
    k_ai = np.where(np.abs(d) < 1e-6, diag, off)
    w = C.entries[:, None, :] * C.entries.T[None, :, :]
    return np.sum(w * k_ai, axis=-1)


_RNG = np.random.default_rng(20100)
_DISTINCT_CASES = [
    (np.array([0.3]), np.array([[0.8]])),
    (np.array([0.1, -0.3]), np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])),
    (np.array([0.25, 0.25]), np.array([[0.6, 0.2], [0.2, 0.5]])),      # repeated shift
    (np.array([0.7, -0.2, 0.1]), _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))),
    (np.array([-0.5, 0.4, -0.5]), _RNG.standard_normal((3, 3))),        # repeated shift
]


@pytest.mark.parametrize("shifts,coupling", _DISTINCT_CASES,
                         ids=["r1", "r2", "r2-repeated", "r3", "r3-repeated"])
def test_kernels_bit_identical_to_broadcast_evaluation(shifts, coupling):
    s = ShiftVector(shifts)
    c = CouplingMatrix(coupling)
    nodes = half_line_rule(40, 40.0).nodes
    # the Nystrom block, and one whose x and y carry different values
    for x, y in ((nodes[:, None], nodes[None, :]), (nodes[:, None], nodes[None, ::-2] - 3.0)):
        for kernel, ref in ((matrix_airy_kernel, _ai_kernel_ref),
                            (matrix_airy_sq_kernel, _sq_kernel_ref)):
            got, want = kernel(x, y, s, c), ref(x, y, s, c)
            assert got.shape == want.shape == (40, y.size, s.r, s.r)
            assert got.tobytes() == want.tobytes()


def test_kernels_bit_identical_at_signed_zero():
    # s = -0.0 keeps x + y + s_j + s_k = -0.0 where x + y = -0.0
    s = ShiftVector(np.array([-0.0, 0.5]))
    c = CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]]))
    x = np.array([-0.0, 0.0, 0.5, 1.5])[:, None]
    args = (x + x.T)[..., None, None] + (s.s[:, None] + s.s[None, :])
    assert np.any((args == 0.0) & np.signbit(args)) and np.any((args == 0.0) & ~np.signbit(args))
    for kernel, ref in ((matrix_airy_kernel, _ai_kernel_ref),
                        (matrix_airy_sq_kernel, _sq_kernel_ref)):
        assert kernel(x, x.T, s, c).tobytes() == ref(x, x.T, s, c).tobytes()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_blocks_make_one_airy_pass_on_distinct_arguments(r, monkeypatch):
    calls = []
    real = kernels.ai_arrays

    def counting(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(kernels, "ai_arrays", counting)
    s = ShiftVector(np.linspace(-0.4, 0.6, r))
    c = CouplingMatrix(np.eye(r))
    m, pairs = 40, r * (r + 1) // 2
    nodes = half_line_rule(m, 40.0).nodes
    matrix_airy_sq_kernel(nodes[:, None], nodes[None, :], s, c)
    assert len(calls) == 1 and calls[0] <= m * pairs
    calls.clear()
    matrix_airy_kernel(nodes[:, None], nodes[None, :], s, c)
    assert len(calls) == 1 and calls[0] <= m * (m + 1) // 2 * pairs
