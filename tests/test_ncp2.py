"""Matrix Hastings-McLeod solver: Picard tail, RK4 continuation, Lax pair."""

import dataclasses
import math

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    DomainError,
    HMGrid,
    PoleEncountered,
    ai_arrays,
    airy_eval,
    alpha1,
    beta2,
    hm_solve,
    hm_tail_picard,
    lax_matrices,
    ncp2_residual,
    p34_state,
    zero_curvature_residual_p2,
)
from ncairy import ncp2
from ncairy.airy import airy_arrays
from ncairy.ncp2 import _bary_matrix, _blown, _matcube, _rk4_step

C1 = CouplingMatrix(np.array([[1.0]]))
C2 = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))
D2 = [0.0, 0.3]


@pytest.fixture(scope="module")
def grid1():
    return hm_solve(C1, [0.0], S_min=-1.5)


@pytest.fixture(scope="module")
def grid2():
    return hm_solve(C2, D2, S_min=-1.5)


def test_scalar_known_value(grid1):
    # the scalar Hastings-McLeod solution at the origin
    assert float(np.real(grid1.beta1_at(0.0)[0, 0])) == pytest.approx(
        -0.36706155154620285, abs=1e-9)


def test_deep_tail_matches_airy(grid1):
    # far to the right the solution collapses onto its Airy seed
    assert complex(grid1.beta1_at(4.0)[0, 0]) == pytest.approx(
        -airy_eval(8.0).ai, abs=1e-12)


def test_asymptotic_matching(grid2):
    s_val = 5.0
    b = grid2.beta1_at(s_val)
    sj = s_val + np.asarray(D2)
    target = -C2.entries * ai_arrays(sj[:, None] + sj[None, :])[0]
    m = float(np.max(np.abs(D2)))
    bound = 10.0 * math.sqrt(s_val) * math.exp(-(4.0 / 3.0) * (2 * s_val - 2 * m) ** 1.5)
    assert float(np.max(np.abs(b - target))) <= bound


def test_ode_residual_everywhere(grid1, grid2):
    for grid in (grid1, grid2):
        for s_val in np.linspace(-1.4, 6.0, 16):
            assert ncp2_residual(grid, float(s_val)) <= 1e-6


def test_residual_fourth_order_decay():
    res_h = []
    for h in (1e-2, 5e-3):
        grid = hm_solve(C1, [0.0], S_min=-1.0, h=h, cached=False)
        res_h.append(max(ncp2_residual(grid, s) for s in (-0.5, 0.0, 1.0)))
    ratio = res_h[0] / res_h[1]
    assert ratio > 8.0  # O(h^4) halving gives ~16


def test_parity_odd_in_coupling():
    # two fresh solves, so the check does not rest on the cache's mirror
    g_plus = hm_solve(CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]])), D2,
                      S_min=-0.5, cached=False)
    g_minus = hm_solve(CouplingMatrix(np.array([[-0.6, -0.2], [-0.2, -0.5]])), D2,
                       S_min=-0.5, cached=False)
    assert np.array_equal(g_plus.beta1, -g_minus.beta1)
    assert np.array_equal(g_plus.dbeta1, -g_minus.dbeta1)


def test_hermiticity(grid2):
    for s_val in (-0.5, 0.0, 1.0, 3.0):
        b = grid2.beta1_at(s_val)
        assert float(np.max(np.abs(b - b.conj().T))) <= 1e-12


def test_picard_ode_seam():
    t0 = hm_tail_picard(C1, [0.0], 2.0)
    t1 = hm_tail_picard(C1, [0.0], 3.0)
    b = t1.beta1_at(np.asarray([3.0]))[0]
    db = t1.dbeta1_at(np.asarray([3.0]))[0]
    h = 1e-3
    s_cur = 3.0
    for _ in range(1000):
        b, db = _rk4_step(s_cur, b, db, -h, np.array([0.0]))
        s_cur -= h
    ref = t0.beta1_at(np.asarray([2.0]))[0]
    assert float(np.max(np.abs(b - ref))) <= 1e-9


@pytest.mark.parametrize("m,s_tail", [(0.0, 2.0), (1.0004, 2.001), (1.0006, 2.001),
                                       (1.2345, 2.235)])
def test_tail_start_snaps_up_past_one(m, s_tail):
    # the nearest multiple of h below 1 + max|delta| would put the Picard
    # tail outside its domain; inputs that solved before keep their start
    c = CouplingMatrix(np.array([[0.5, 0.1], [0.1, 0.4]]))
    grid = hm_solve(c, [-m, m], S_min=2.5, cached=False)
    assert grid.S_tail >= 1.0 + m
    assert grid.S_tail == pytest.approx(s_tail, abs=1e-12)


@pytest.mark.parametrize("kw", [{"s0": math.nan}, {"s0": math.inf}, {"h": 0.0},
                                {"h": -1e-3}, {"h": math.nan}, {"h": 0.02}])
def test_hm_solve_rejects_bad_start_and_step(kw):
    with pytest.raises(DomainError):
        hm_solve(C1, [0.0], cached=False, **kw)


def test_zero_coupling_is_zero():
    grid = hm_solve(CouplingMatrix(np.array([[0.0]])), [0.0], S_min=-1.0)
    assert float(np.max(np.abs(grid.beta1))) == 0.0


def test_supercritical_pole_detection():
    with pytest.raises(PoleEncountered) as exc:
        hm_solve(CouplingMatrix(np.array([[1.5]])), [0.0], S_min=-3.0)
    pole = exc.value.pole_at
    assert -3.0 < pole < 0.0
    # the partial grid remains usable to the right of the pole
    grid = exc.value.grid
    assert grid.S_values[0] > pole
    assert np.isfinite(grid.beta1).all()


def test_alpha1_antiderivative(grid1):
    # D alpha1 = -2i beta1^2, checked by central differences
    h = 1e-3
    a = [alpha1(grid1, 0.5 + k * h) for k in (-2, -1, 1, 2)]
    fd = (a[0] - 8 * a[1] + 8 * a[2] - a[3]) / (12 * h)
    b = grid1.beta1_at(0.5)
    assert np.max(np.abs(fd - (-2.0j) * b @ b)) <= 1e-8


def test_beta2_consistency(grid1):
    b = grid1.beta1_at(0.5)
    db = grid1.dbeta1_at(0.5)
    a1 = alpha1(grid1, 0.5)
    expect = -0.5j * db - 1.0j * b @ a1
    assert np.max(np.abs(beta2(grid1, 0.5) - expect)) <= 1e-12


def test_zero_curvature(grid1, grid2):
    lams = (1.0, 1.0j, -2.0, 0.5 + 0.5j)
    assert zero_curvature_residual_p2(grid1, 0.5, lams) <= 1e-8
    assert zero_curvature_residual_p2(grid2, 0.5, lams) <= 1e-7


def test_lax_matrix_shapes(grid2):
    pair = lax_matrices(grid2, 0.5)
    a = pair.a_at(1.0 + 0.5j)
    ud = pair.ud_at(1.0 + 0.5j)
    assert a.shape == (4, 4) and ud.shape == (4, 4)
    assert np.isfinite(a).all() and np.isfinite(ud).all()


def test_interpolation_consistency(grid1):
    # evaluation off the grid agrees with the stored nodes nearby
    i = grid1.index_of(0.25)
    s_node = float(grid1.S_values[i])
    assert np.max(np.abs(grid1.beta1_at(s_node) - grid1.beta1[i])) <= 1e-13


MIRROR_CASES = {
    "r1": (np.array([[0.8]]), [0.0]),
    "r2_complex_hermitian": (C2.entries, D2),
    "r2_zero_entries": (np.array([[0.6, 0.0], [0.0, 0.5]]), D2),
    "r3": (np.array([[0.5, 0.1, 0.05j], [0.1, 0.4, 0.2], [-0.05j, 0.2, 0.3]]),
           [-0.2, 0.0, 0.4]),
}


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = {}
    monkeypatch.setattr(ncp2, "_GRID_CACHE", cache)
    return cache


@pytest.fixture
def solve_counter(monkeypatch):
    calls = []
    picard = ncp2.hm_tail_picard

    def counting(*a, **k):
        calls.append(a)
        return picard(*a, **k)

    monkeypatch.setattr(ncp2, "hm_tail_picard", counting)
    return calls


@pytest.mark.parametrize("first", ["plus", "minus"])
@pytest.mark.parametrize("case", sorted(MIRROR_CASES))
def test_mirrored_grid_matches_fresh_solve(case, first, fresh_cache, solve_counter):
    entries, delta = MIRROR_CASES[case]
    c = CouplingMatrix(entries)
    solved, mirrored = (c, c.negated()) if first == "plus" else (c.negated(), c)
    hm_solve(solved, delta, S_min=-0.5)
    assert len(solve_counter) == 1
    grid = hm_solve(mirrored, delta, S_min=-0.5)
    assert len(solve_counter) == 1   # served from the cached opposite sign
    assert hm_solve(mirrored, delta, S_min=-0.5) is grid
    assert grid.C is mirrored
    ref = hm_solve(mirrored, delta, S_min=-0.5, cached=False)
    assert len(solve_counter) == 2
    # np.array_equal is bit equality up to the sign of exact zeros, which
    # the solver itself does not fix (a fresh -C solve can yield -0.0)
    for name in ("S_values", "beta1", "dbeta1"):
        assert np.array_equal(getattr(grid, name), getattr(ref, name)), name
    assert grid.S_tail == ref.S_tail and grid.h == ref.h
    assert grid.pole_at is None and ref.pole_at is None
    assert len(fresh_cache) == 2


def test_supercritical_pair_poles_agree(fresh_cache):
    c = CouplingMatrix(np.array([[1.5]]))
    errs = []
    for cc in (c, c.negated()):
        with pytest.raises(PoleEncountered) as exc:
            hm_solve(cc, [0.0], S_min=-3.0)
        errs.append(exc.value)
    assert errs[0].pole_at == errs[1].pole_at
    assert np.array_equal(errs[0].grid.beta1, -errs[1].grid.beta1)
    assert fresh_cache == {}   # pole outcomes are not cached


def test_grid_cache_evicts_least_recently_used(fresh_cache, solve_counter, monkeypatch):
    monkeypatch.setattr(ncp2, "_GRID_CACHE_SIZE", 2)
    # S_min above the tail start: each solve is the Picard tail alone
    c_a, c_b, c_c = (CouplingMatrix(np.array([[c]])) for c in (0.3, 0.4, 0.5))
    g_a = hm_solve(c_a, [0.0], S_min=2.5)
    g_b = hm_solve(c_b, [0.0], S_min=2.5)
    assert hm_solve(c_a, [0.0], S_min=2.5) is g_a   # the hit makes b the oldest
    hm_solve(c_c, [0.0], S_min=2.5)
    assert len(fresh_cache) == 2 and len(solve_counter) == 3
    assert hm_solve(c_a, [0.0], S_min=2.5) is g_a
    assert len(solve_counter) == 3
    assert hm_solve(c_b, [0.0], S_min=2.5) is not g_b
    assert len(solve_counter) == 4 and len(fresh_cache) == 2


def test_grid_owns_read_only_arrays(grid2):
    delta = np.array([0.0, 0.3])
    arrays = [np.linspace(0.0, 0.3, 4), np.zeros((4, 2, 2), complex),
              np.zeros((4, 2, 2), complex)]
    grid = HMGrid(C2, delta, *arrays, S_tail=0.3, h=0.1)
    for name in ("S_values", "beta1", "dbeta1", "delta"):
        with pytest.raises(ValueError):
            getattr(grid, name)[0] = 1.0
    # the caller's arrays stay writable, and the grid keeps its own delta
    assert delta.flags.writeable and all(a.flags.writeable for a in arrays)
    delta[1] = 9.0
    assert grid.delta[1] == 0.3
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.h = 0.5
    # a solved grid hands out views of its nodes and integrals read-only
    for value in (grid2.beta1, grid2.beta1_at(0.0), grid2.int_beta_sq(0.0)):
        with pytest.raises(ValueError):
            value[0, 0] = 1.0


def test_derived_integrals_computed_once(grid2, monkeypatch):
    # a new grid over the solved arrays starts with nothing computed
    grid = HMGrid(grid2.C, grid2.delta, grid2.S_values, grid2.beta1, grid2.dbeta1,
                  grid2.S_tail, grid2.h)
    calls = []
    cumulative = ncp2._reverse_cumulative

    def counting(*a):
        calls.append(a)
        return cumulative(*a)

    monkeypatch.setattr(ncp2, "_reverse_cumulative", counting)
    for _ in range(2):
        for s_val in (-0.5, 0.25, 1.0):
            grid.int_beta_sq(s_val)
            grid.int_t_beta_sq(s_val)
            grid.int_tr_beta(s_val)
            p34_state(grid, s_val)
    # beta1^2, t Tr beta1^2, Tr beta1^2, Tr beta1 and a2
    assert len(calls) == 5
    assert grid.int_t_beta_sq(0.25) == grid2.int_t_beta_sq(0.25)


class _NoAccess(dict):
    def _refuse(self, *a, **k):
        raise AssertionError("grid cache touched")

    __getitem__ = __setitem__ = __contains__ = get = setdefault = _refuse


def test_uncached_solve_leaves_cache_alone(monkeypatch):
    cache = _NoAccess()
    monkeypatch.setattr(ncp2, "_GRID_CACHE", cache)
    grid = hm_solve(C1, [0.0], S_min=-0.5, cached=False)
    assert grid.pole_at is None
    assert len(cache) == 0


def _seed_rhs(S, b, db, delta):
    sm = np.diag(S + delta).astype(complex)
    return db, 4.0 * (sm @ b + b @ sm) + 8.0 * b @ b @ b


def _seed_step(S, b, db, step, delta):
    k1b, k1d = _seed_rhs(S, b, db, delta)
    k2b, k2d = _seed_rhs(S + 0.5 * step, b + 0.5 * step * k1b, db + 0.5 * step * k1d, delta)
    k3b, k3d = _seed_rhs(S + 0.5 * step, b + 0.5 * step * k2b, db + 0.5 * step * k2d, delta)
    k4b, k4d = _seed_rhs(S + step, b + step * k3b, db + step * k3d, delta)
    bn = b + (step / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    dbn = db + (step / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    return bn, dbn


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rk4_step_matches_matrix_form(r):
    # the elementwise anticommutator must reproduce diag-matrix products exactly
    rng = np.random.default_rng(r)
    delta = rng.uniform(-0.4, 0.4, r)
    b = 0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    db = 0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    ref_b, ref_db = b, db
    s_cur, h = 1.0, 1e-3
    for _ in range(200):
        b, db = _rk4_step(s_cur, b, db, -h, delta)
        ref_b, ref_db = _seed_step(s_cur, ref_b, ref_db, -h, delta)
        s_cur -= h
        assert b.tobytes() == ref_b.tobytes() and db.tobytes() == ref_db.tobytes()


def test_blown_flags_nonfinite_and_large():
    ok = np.array([[1e8, -1e8], [1e8j, 0.5]], dtype=complex)
    assert not _blown(ok)
    for bad in (np.nan, complex(0.0, np.nan), np.inf, -np.inf, complex(0.0, -np.inf),
                np.nextafter(1e8, np.inf), -2e8, 2e8j):
        b = ok.copy()
        b[1, 0] = bad
        assert _blown(b), bad


def _aibi(x, y):
    ai_s, _, _, _, zx = airy_arrays(np.asarray(x, dtype=float))
    _, _, bi_s, _, zy = airy_arrays(np.asarray(y, dtype=float))
    return ai_s * bi_s * np.exp(zy - zx)


def _aipbi(x, y):
    _, aip_s, _, _, zx = airy_arrays(np.asarray(x, dtype=float))
    _, _, bi_s, _, zy = airy_arrays(np.asarray(y, dtype=float))
    return aip_s * bi_s * np.exp(zy - zx)


def _aibip(x, y):
    ai_s, _, _, _, zx = airy_arrays(np.asarray(x, dtype=float))
    _, _, _, bip_s, zy = airy_arrays(np.asarray(y, dtype=float))
    return ai_s * bip_s * np.exp(zy - zx)


def _integral_with_product_helpers(tail, s_pts, beta_nodes, deriv):
    """PicardTail._integral as written with one Airy evaluation per product."""
    half = 0.5 * (tail.S_max - s_pts)
    t = s_pts[:, None] + half[:, None] * (tail._sub_nodes[None, :] + 1.0)
    wt = half[:, None] * tail._sub_weights[None, :]
    p = _bary_matrix(tail.nodes, tail._bw, t.ravel())
    b_t = np.einsum("pm,mij->pij", p, beta_nodes).reshape(t.shape + tail.C.entries.shape)
    b3 = _matcube(b_t)
    a = tail._offsets()
    x_s = 2.0 * s_pts[:, None, None, None] + a
    x_t = 2.0 * t[:, :, None, None] + a
    if deriv:
        g = 2.0 * (_aipbi(x_s, x_t) - _aibip(x_t, x_s))
    else:
        g = _aibi(x_s, x_t) - _aibi(x_t, x_s)
    return 4.0 * math.pi * np.einsum("pt,ptij,ptij->pij", wt, g, b3)


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("c,delta", [
    (C1, [0.0]),
    (C2, D2),
    (CouplingMatrix(np.array([[0.5, 0.1, 0.05], [0.1, 0.4, 0.1j], [0.05, -0.1j, 0.3]])),
     [0.1, -0.2, 0.1]),
])
def test_picard_integral_matches_product_helpers(c, delta, deriv):
    # one Airy pass per argument array gives the same bits as evaluating
    # each Airy-Bi product separately
    tail = hm_tail_picard(c, delta, 2.0)
    s_pts = np.concatenate([tail.nodes, [2.0, 2.5, 7.0]])
    got = tail._integral(s_pts, tail.beta, deriv)
    ref = _integral_with_product_helpers(tail, s_pts, tail.beta, deriv)
    assert got.tobytes() == ref.tobytes()
