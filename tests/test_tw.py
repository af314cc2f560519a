"""Cross-route determinants, scalar distribution chain, and process checks."""

import math

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    DomainError,
    GapQuery,
    OutOfRange,
    ShiftVector,
    det_airy,
    det_airy_sq,
    existence_scan,
    matrix_airy_sq_kernel,
    scalar_f1,
    scalar_f2,
    scalar_u,
)
from ncairy import fredholm, tw

C_HERM = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))

# the ids of the route_agreement cases c = 0.8 at S = 0, 1 and C_HERM at (0, 0.3), (1, 1.3)
CASE_IDS = ["r1_S+0.00", "r1_S+1.00", "r2_S+0.15", "r2_S+1.15"]


@pytest.mark.parametrize("case", CASE_IDS)
def test_route_agreement_sq(case, assert_checks):
    assert_checks("route_agreement")


@pytest.mark.parametrize("case", CASE_IDS)
@pytest.mark.parametrize("sign", [-1, 1])
def test_route_agreement_pm(case, sign, assert_checks):
    assert_checks("route_agreement")


def test_route_agreement_nonsymmetric_real(assert_checks):
    assert_checks("route_agreement")


def test_route_verdict_is_bool_or_none():
    s = ShiftVector(np.array([1.0]))
    c = CouplingMatrix(np.array([[0.8]]))
    assert det_airy_sq(GapQuery(s, c, "both")).agree is True
    for route in ("nystrom", "painleve"):
        res = det_airy_sq(GapQuery(s, c, route))
        assert res.diff is None and res.agree is None


def test_gap_query_rejects_unknown_route():
    s = ShiftVector(np.array([1.0]))
    c = CouplingMatrix(np.array([[0.8]]))
    with pytest.raises(DomainError, match="route"):
        GapQuery(s, c, "contour")


def test_det_airy_rejects_sign_zero():
    q = GapQuery(ShiftVector(np.array([1.0])), CouplingMatrix(np.array([[0.8]])), "nystrom")
    with pytest.raises(DomainError, match="sign"):
        det_airy(q, 0)


def test_factorization_identity(assert_checks):
    assert_checks("det_multiplicativity")


def test_tau_derivative_sq(assert_checks):
    assert_checks("tau_derivative_alpha1")


@pytest.mark.parametrize("sign", [-1, 1])
def test_tau_derivative_pm(sign, assert_checks):
    assert_checks("tau_derivative_a1")


def test_f2_matches_nystrom(assert_checks):
    assert_checks("scalar_chain")


def test_f2_known_value():
    assert scalar_f2(0.0) == pytest.approx(0.9693728283553741, abs=1e-8)


def test_f1_known_value():
    assert scalar_f1(0.0) == pytest.approx(0.8319080662, abs=1e-7)


def test_f1_f2_u_chain(assert_checks):
    assert_checks("scalar_chain")


def test_f1_alternative_construction(assert_checks):
    assert_checks("scalar_chain")


def test_scalar_u_is_positive_decaying():
    assert scalar_u(0.0) == pytest.approx(0.36706155154620285, abs=1e-9)
    assert 0 < scalar_u(4.0) < scalar_u(0.0)
    with pytest.raises(OutOfRange):
        scalar_f2(-9.0)


@pytest.mark.parametrize("x", [-8.2, math.nan, 20.5])
@pytest.mark.parametrize("fn", [scalar_f2, scalar_u])
def test_scalar_chain_range_guard(fn, x):
    with pytest.raises(OutOfRange, match="scalar distributions are supported"):
        fn(x)


def test_p34_scalar_residual(assert_checks):
    assert_checks("scalar_chain")


@pytest.mark.parametrize("s0", [0.0, 0.5])
def test_miura_identity(s0, assert_checks):
    assert_checks("miura")


def test_miura_second_order_decay(assert_checks):
    assert_checks("miura")


def test_total_positivity_symmetric(assert_checks):
    assert_checks("total_positivity")


def test_de_bruijn_identity(assert_checks):
    assert_checks("de_bruijn")


def test_existence_scan_subcritical(assert_checks):
    assert_checks("subcritical_positivity")


def test_existence_scan_supercritical_matches_pole(assert_checks):
    assert_checks("pole_zero_match")


# float.hex of the Painleve values: any change to the solve or the integrals shows
PAINLEVE_CASES = {
    1: (ShiftVector(np.array([0.0])), CouplingMatrix(np.array([[0.8]]))),
    2: (ShiftVector(np.array([0.0, 0.3])), C_HERM),
    3: (ShiftVector(np.array([-0.2, 0.0, 0.4])),
        CouplingMatrix(np.array([[0.5, 0.1, 0.05j], [0.1, 0.4, 0.2], [-0.05j, 0.2, 0.3]]))),
}
# r -> (det(Id - Ai^2), det(Id + Ai), det(Id - Ai)) as (re, im)
PAINLEVE_GOLDENS = {
    1: (("0x1.f5f6bd668f17cp-1", "0x0.0p+0"),
        ("0x1.21e650180f8ddp+0", "-0x0.0p+0"),
        ("0x1.bb442a0e01cf9p-1", "-0x0.0p+0")),
    2: (("0x1.f8a21baae509cp-1", "0x1.040b05f9200b0p-79"),
        ("0x1.24e32df887ffap+0", "-0x1.9559d0725e6a7p-77"),
        ("0x1.b913e3cab28ffp-1", "0x1.6a0b76d260cf6p-77")),
    3: (("0x1.f369952db00e3p-1", "0x1.aa53960a93c83p-76"),
        ("0x1.3823ef3fa21b6p+0", "0x1.550444daf41d7p-77"),
        ("0x1.99970c17f6ef5p-1", "0x1.db8eb0abbc56ap-77")),
}
# x -> (F2, F1, u)
SCALAR_GOLDENS = {
    -4.0: ("0x1.d0977b92143efp-9", "0x1.eff4941dfc332p-8", "0x1.6942e41ef0fcbp+0"),
    0.0: ("0x1.f051a2a6d5af5p-1", "0x1.a9efdaa33f1ffp-1", "0x1.77defbbe0a32dp-2"),
    2.0: ("0x1.fff142ed9f90ep-1", "0x1.faac886805665p-1", "0x1.1e21a3599e89bp-5"),
}


def _fromhex(pair):
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


@pytest.mark.parametrize("r", sorted(PAINLEVE_GOLDENS))
def test_painleve_values_bit_exact(r):
    s, c = PAINLEVE_CASES[r]
    q = GapQuery(s, c, "painleve")
    got = (det_airy_sq(q).painleve, det_airy(q, 1).painleve, det_airy(q, -1).painleve)
    assert got == tuple(_fromhex(g) for g in PAINLEVE_GOLDENS[r])


@pytest.mark.parametrize("x", sorted(SCALAR_GOLDENS))
def test_scalar_chain_bit_exact(x):
    got = (scalar_f2(x), scalar_f1(x), scalar_u(x))
    assert got == tuple(float.fromhex(g) for g in SCALAR_GOLDENS[x])


def _scan_by_sample(C, s_lo, s_hi, n, m=40):
    """existence_scan as a loop of lone half-line determinants: the reference for the stack.

    Returns (samples, crossing, the DetResult of each sample).
    """
    def det_at(s):
        return tw._half_line_det(matrix_airy_sq_kernel, ShiftVector(np.full(C.r, s)), C, -1.0, m)

    ss = np.linspace(s_lo, s_hi, n)
    dets = [det_at(s) for s in ss]
    vals = [float(np.real(d.value)) for d in dets]
    crossing = None
    for i in range(n - 2, -1, -1):
        if vals[i] == 0.0:
            crossing = float(ss[i])
            break
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi, fhi = float(ss[i]), float(ss[i + 1]), vals[i + 1]
            while hi - lo > 1e-3:
                mid = 0.5 * (lo + hi)
                fm = float(np.real(det_at(mid).value))
                if fhi * fm <= 0.0:
                    lo = mid
                else:
                    hi, fhi = mid, fm
            crossing = 0.5 * (lo + hi)
            break
    return list(zip(ss.tolist(), vals)), crossing, dets


def _scan_hex(samples, crossing):
    return [(s.hex(), v.hex()) for s, v in samples], None if crossing is None else crossing.hex()


# name -> (C, s_lo, s_hi, n); "deep" puts kernel arguments x + 2s below the -9.5 Airy seam
_SCAN_CASES = {
    "r1-subcritical": ([[0.9]], -4.0, 0.0, 9),
    "r1-supercritical": ([[1.2]], -3.0, 0.0, 7),
    "r2-subcritical": ([[0.6, 0.2], [0.2, 0.5]], -3.0, 0.0, 7),
    "deep": ([[0.9]], -6.0, 4.0, 11),
}


@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_existence_scan_matches_sample_loop(case):
    c, lo, hi, n = _SCAN_CASES[case]
    C = CouplingMatrix(np.array(c))
    samples, crossing = existence_scan(C, lo, hi, n=n)
    want, want_crossing, dets = _scan_by_sample(C, lo, hi, n)
    assert _scan_hex(samples, crossing) == _scan_hex(want, want_crossing)
    assert (crossing is not None) == case.endswith("supercritical")
    if case == "deep":
        # the samples leave the stack on different passes
        assert len({d.nodes_used for d in dets}) > 1



@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
def test_existence_scan_real_blocks_match_complex(case, monkeypatch):
    # a real C scans in real arithmetic; the same blocks built in complex give each
    # determinant to 1e-14 relative (1e-16 absolute below 1e-2, where the bisection
    # closes on a zero), the same diagnostics and the same crossing
    c, lo, hi, n = _SCAN_CASES[case]
    C = CouplingMatrix(np.array(c))
    stack = tw._nystrom_stack

    def scan(kernel):
        dets = []

        def recording(*args):
            out = stack(*args)
            dets.extend(out)
            return out

        monkeypatch.setattr(tw, "_nystrom_stack", recording)
        monkeypatch.setattr(tw, "matrix_airy_sq_kernel", kernel)
        return existence_scan(C, lo, hi, n=n), dets

    (samples, crossing), real = scan(matrix_airy_sq_kernel)
    (_, want_crossing), cplx = scan(lambda *a: matrix_airy_sq_kernel(*a).astype(complex))
    assert crossing == want_crossing and len(real) == len(cplx) >= n
    for a, b in zip(real, cplx):
        assert isinstance(a.value, complex) and a.value.imag == 0.0
        assert abs(a.value - b.value) <= 1e-14 * max(abs(b.value), 1e-2)
        assert (a.nodes_used, a.converged) == (b.nodes_used, b.converged)

def test_existence_scan_chunks_keep_bits(monkeypatch):
    # a budget of two 40-node members per stack: chunks of 2 at m = 40 and of 1 above
    budget = 2 * 40 * 40
    C = CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]]))
    want = _scan_hex(*_scan_by_sample(C, -6.0, 0.0, 7)[:2])
    stacks = []
    lu = fredholm._lu_logdet

    def recording(a):
        stacks.append((a.shape[0], a.shape[-1] // C.r))
        return lu(a)

    monkeypatch.setattr(fredholm, "_STACK_NODE_PAIRS", budget)
    monkeypatch.setattr(fredholm, "_lu_logdet", recording)
    assert _scan_hex(*existence_scan(C, -6.0, 0.0, n=7)) == want
    assert max(k for k, _ in stacks) == 2
    assert all(k <= max(1, budget // (m * m)) for k, m in stacks)


def test_existence_scan_stack_within_default_budget(monkeypatch):
    # 65 samples at m = 40: stacks of at most (320 / 40)^2 = 64 members
    stacks = []
    lu = fredholm._lu_logdet

    def recording(a):
        stacks.append((a.shape[0], a.shape[-1]))
        return lu(a)

    monkeypatch.setattr(fredholm, "_lu_logdet", recording)
    existence_scan(CouplingMatrix(np.array([[0.9]])), -2.0, 0.0, n=65)
    assert max(k for k, _ in stacks) == 64
    assert all(k * m * m <= 320 * 320 for k, m in stacks)
