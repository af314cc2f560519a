"""Kernel assembly: shift/coupling containers and the Airy-type kernels."""

import math

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    DomainError,
    OverflowRisk,
    ShiftVector,
    ai_arrays,
    contour_symbol,
    half_line_rule,
    kernels,
    matrix_airy_kernel,
    matrix_airy_sq_kernel,
    scalar_airy_kernel,
)

C_HERM = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))


def test_shift_vector_split():
    s = ShiftVector(np.array([0.7, -0.2, 0.1]))
    assert s.S == pytest.approx(0.2)
    assert np.allclose(s.delta, [0.5, -0.4, -0.1])
    assert s.s - s.S == pytest.approx(s.delta)
    assert s.r == 3


def test_coupling_matrix_flags():
    neg = C_HERM.negated()
    assert np.allclose(neg.entries, -C_HERM.entries)


def test_matrix_airy_kernel_entries():
    s = ShiftVector(np.array([0.1, -0.3]))
    k = matrix_airy_kernel(0.4, 0.7, s, C_HERM)
    for j in range(2):
        for l in range(2):
            ai, _ = ai_arrays(np.asarray([0.4 + 0.7 + s.s[j] + s.s[l]]))
            assert k[j, l] == pytest.approx(C_HERM.entries[j, l] * ai[0], rel=1e-12)


def test_scalar_kernel_against_quadrature(assert_checks):
    assert_checks("scalar_kernel_quadrature")


def test_scalar_kernel_diagonal_seam():
    # confluent branch must join the generic branch smoothly
    a = 0.3
    near = float(scalar_airy_kernel(a, a + 5e-7))
    far = float(scalar_airy_kernel(a, a + 5e-6))
    exact = float(scalar_airy_kernel(a, a))
    assert abs(near - exact) < abs(far - exact) + 1e-12
    assert near == pytest.approx(exact, rel=1e-6)


def test_sq_kernel_against_z_integral(assert_checks):
    assert_checks("kernel_sq_quadrature")


def test_sq_kernel_hermitean_transpose(assert_checks):
    assert_checks("kernel_hermitean_transpose")


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
    with pytest.raises(OverflowRisk):
        contour_symbol(40.0j, s, c)


def test_shift_coupling_validation():
    with pytest.raises(DomainError):
        ShiftVector(np.array([np.nan]))
    with pytest.raises(DomainError):
        CouplingMatrix(np.array([[1.0, 2.0]]))


def test_shift_vector_rejects_2d():
    with pytest.raises(DomainError, match="1-D"):
        ShiftVector(np.array([[0.0, 0.1]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
def test_coupling_rejects_nonfinite(bad):
    with pytest.raises(DomainError, match="finite"):
        CouplingMatrix(np.array([[0.5, bad], [0.0, 0.5]]))


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


@pytest.mark.parametrize("x,y", [
    (0.3, -1.2),                                        # Python floats, as verify passes them
    (np.float64(2.5), np.float64(-4.0)),                # numpy scalars, as tw passes them
    (np.array(0.7), np.array(0.7)),                     # 0-d arrays on the diagonal
    (np.linspace(-3.0, 12.0, 7), 0.4),                  # vector x scalar
    (1.1, np.linspace(-6.0, 20.0, 5)),                  # scalar x vector
    (np.linspace(-2.0, 2.0, 3)[:, None], np.linspace(0.0, 9.0, 4)),  # 2-d broadcast
], ids=["float", "float64", "0d", "vec-scalar", "scalar-vec", "2d"])
def test_sq_kernel_shapes_and_values_for_scalar_and_broadcast_inputs(x, y):
    s = ShiftVector(np.array([0.7, -0.2, 0.1]))
    c = CouplingMatrix(_DISTINCT_CASES[3][1])
    got = matrix_airy_sq_kernel(x, y, s, c)
    want = _sq_kernel_ref(np.asarray(x, dtype=float), np.asarray(y, dtype=float), s, c)
    assert got.shape == np.broadcast_shapes(np.shape(x), np.shape(y)) + (3, 3)
    assert got.tobytes() == want.tobytes()
