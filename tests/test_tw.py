"""Cross-route determinants, scalar distribution chain, and process checks."""

import math

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    GapQuery,
    OutOfRange,
    PoleEncountered,
    ShiftVector,
    de_bruijn_check,
    det_airy,
    det_airy_sq,
    existence_scan,
    half_line_cutoff,
    half_line_rule,
    hm_solve,
    matrix_airy_sq_kernel,
    miura_residual,
    nystrom_det,
    p34_scalar_residual,
    scalar_f1,
    scalar_f2,
    scalar_u,
    scalar_w_checks,
    total_positivity_check,
)

C_HERM = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))
C_REAL_NONSYM = CouplingMatrix(np.array([[0.5, 0.4], [0.1, 0.3]]))
C_REAL_SYM = CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]]))

CASES = [
    ShiftVector(np.array([0.0])),
    ShiftVector(np.array([1.0])),
    ShiftVector(np.array([0.0, 0.3])),
    ShiftVector(np.array([1.0, 1.3])),
]


def _coupling_for(s):
    return CouplingMatrix(np.array([[0.8]])) if s.r == 1 else C_HERM


@pytest.mark.parametrize("s", CASES, ids=lambda s: f"r{s.r}_S{s.S:+.2f}")
def test_route_agreement_sq(s):
    q = GapQuery(s, _coupling_for(s), "both", 1e-6)
    res = det_airy_sq(q)
    assert res.diff <= 1e-6 * abs(res.nystrom.value)


@pytest.mark.parametrize("s", CASES, ids=lambda s: f"r{s.r}_S{s.S:+.2f}")
@pytest.mark.parametrize("sign", [-1, 1])
def test_route_agreement_pm(s, sign):
    q = GapQuery(s, _coupling_for(s), "both", 1e-6)
    res = det_airy(q, sign)
    assert res.diff <= 1e-6 * abs(res.nystrom.value)


def test_route_agreement_nonsymmetric_real():
    s = ShiftVector(np.array([0.2, 0.5]))
    q = GapQuery(s, C_REAL_NONSYM, "both", 1e-6)
    res = det_airy_sq(q)
    assert res.diff <= 1e-6 * abs(res.nystrom.value)


def test_route_verdict_is_bool_or_none():
    s = ShiftVector(np.array([1.0]))
    c = CouplingMatrix(np.array([[0.8]]))
    assert det_airy_sq(GapQuery(s, c, "both")).agree is True
    for route in ("nystrom", "painleve"):
        res = det_airy_sq(GapQuery(s, c, route))
        assert res.diff is None and res.agree is None


def test_factorization_identity():
    for s, c in [(ShiftVector(np.array([0.0])), CouplingMatrix(np.array([[0.8]]))),
                 (ShiftVector(np.array([0.2, -0.1])), C_HERM)]:
        q = GapQuery(s, c, "nystrom", 1e-6)
        sq = det_airy_sq(q).nystrom.value
        mi = det_airy(q, -1).nystrom.value
        pl = det_airy(q, 1).nystrom.value
        assert abs(sq - mi * pl) / abs(sq) <= 1e-8


def _log_det_fd(s_vec, c, k, kind, sign, h=1e-3):
    vals = []
    for sgn in (-1, 1):
        sv = s_vec.copy()
        sv[k] += sgn * h
        ss = ShiftVector(sv)
        q = GapQuery(ss, c, "nystrom", 1e-6)
        if kind == "sq":
            d = det_airy_sq(q).nystrom.value
        else:
            d = det_airy(q, sign).nystrom.value
        vals.append(np.log(d))
    return (vals[1] - vals[0]) / (2 * h)


def test_tau_derivative_sq():
    # d/ds_k log det(Id - Ai^2) = -2i (alpha1)_kk
    from ncairy import alpha1

    s_vec = np.array([0.0, 0.3])
    grid = hm_solve(C_HERM, [0.0, 0.3], S_min=-1.0)
    a = alpha1(grid, 0.0)
    for k in range(2):
        fd = _log_det_fd(s_vec, C_HERM, k, "sq", 0)
        pred = -2.0j * a[k, k]
        assert abs(fd - pred) / abs(pred) <= 1e-4


@pytest.mark.parametrize("sign", [-1, 1])
def test_tau_derivative_pm(sign):
    # d/ds_k log det(Id + sign*Ai) = -i (a1)_kk with a1 built from -sign*C
    from ncairy import p34_state

    s_vec = np.array([0.0, 0.3])
    ceff = C_HERM.negated() if sign == 1 else C_HERM
    grid = hm_solve(ceff, [0.0, 0.3], S_min=-1.0)
    a1 = p34_state(grid, 0.0).a1
    for k in range(2):
        fd = _log_det_fd(s_vec, C_HERM, k, "pm", sign)
        pred = -1.0j * a1[k, k]
        assert abs(fd - pred) / abs(pred) <= 1e-4


def test_f2_matches_nystrom():
    c = CouplingMatrix(np.array([[1.0]]))
    for x in (-2.0, 0.0, 2.0):
        s = ShiftVector(np.array([0.5 * x]))
        rule = half_line_rule(40, half_line_cutoff(s))
        d = nystrom_det(lambda u, v: matrix_airy_sq_kernel(u, v, s, c), 1, -1.0, rule)
        assert scalar_f2(x) == pytest.approx(float(np.real(d.value)), abs=1e-6)


def test_f2_known_value():
    assert scalar_f2(0.0) == pytest.approx(0.9693728283553741, abs=1e-8)


def test_f1_known_value():
    assert scalar_f1(0.0) == pytest.approx(0.8319080662, abs=1e-7)


def test_f1_f2_u_chain():
    # F1^2 * exp(int_x^inf u) = F2
    grid = hm_solve(CouplingMatrix(np.array([[1.0]])), [0.0], S_min=-4.2)
    for x in (-2.0, 0.0, 1.0):
        int_u = -2.0 * float(np.real(grid.int_tr_beta(0.5 * x)))
        lhs = scalar_f1(x) ** 2 * math.exp(int_u)
        assert lhs == pytest.approx(scalar_f2(x), rel=1e-6)


def test_f1_alternative_construction():
    for x in (-1.0, 0.0, 1.5):
        _, f1_alt = scalar_w_checks(x)
        assert f1_alt == pytest.approx(scalar_f1(x), rel=1e-5)


def test_scalar_u_is_positive_decaying():
    assert scalar_u(0.0) == pytest.approx(0.36706155154620285, abs=1e-9)
    assert 0 < scalar_u(4.0) < scalar_u(0.0)
    with pytest.raises(OutOfRange):
        scalar_f2(-9.0)


@pytest.mark.parametrize("x", [-8.2, math.nan, 20.5])
@pytest.mark.parametrize("fn", [scalar_f2, scalar_u, p34_scalar_residual])
def test_scalar_chain_range_guard(fn, x):
    with pytest.raises(OutOfRange, match="scalar distributions are supported"):
        fn(x)


def test_p34_scalar_residual():
    for x in (-2.0, 0.0, 2.0):
        assert p34_scalar_residual(x) <= 1e-4


@pytest.mark.parametrize("s0", [0.0, 0.5])
def test_miura_identity(s0):
    miura, remiu = miura_residual(s0)
    assert miura <= 1e-4
    assert remiu <= 1e-4


def test_miura_second_order_decay():
    m_h, _ = miura_residual(0.0, h=2e-2)
    m_h2, _ = miura_residual(0.0, h=1e-2)
    assert m_h / m_h2 > 2.5


def test_total_positivity_symmetric():
    s = ShiftVector(np.array([0.0, 0.3]))
    worst = total_positivity_check(s, C_REAL_SYM, trials=100, seed=0)
    assert worst >= -1e-12


def test_de_bruijn_identity():
    s = ShiftVector(np.array([0.0, 0.3]))
    det_val, rel = de_bruijn_check(s, C_REAL_SYM, ((0, 0.2), (1, -0.4)))
    assert rel <= 1e-4
    assert det_val >= -1e-12


def test_existence_scan_subcritical():
    samples, crossing = existence_scan(CouplingMatrix(np.array([[1.0]])), -4.0, 2.0, n=13)
    assert crossing is None
    assert all(0.0 < v <= 1.0 + 1e-12 for _, v in samples)


def test_existence_scan_supercritical_matches_pole():
    c = CouplingMatrix(np.array([[1.2]]))
    with pytest.raises(PoleEncountered) as exc:
        hm_solve(c, [0.0], S_min=-3.0)
    _, crossing = existence_scan(c, -3.0, 0.0, n=25)
    assert crossing is not None
    assert abs(crossing - exc.value.pole_at) <= 0.1


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
