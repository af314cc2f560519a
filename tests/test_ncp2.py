"""Matrix Hastings-McLeod solver: Picard tail, RK4 continuation, Lax pair."""

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from ncairy import (
    CouplingMatrix,
    DomainError,
    HMGrid,
    OutOfRange,
    PoleEncountered,
    ShiftVector,
    ai_arrays,
    alpha1,
    hm_solve,
    hm_tail_picard,
    lax_matrices,
    ncp2_residual,
    p34_state,
)
from ncairy import GapQuery, det_airy_sq, ncp2
from ncairy.airy import airy_arrays
from ncairy.ncp2 import _matcube, _reverse_cumulative, _rk4

C1 = CouplingMatrix(np.array([[1.0]]))
C2 = CouplingMatrix(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]]))
D2 = [0.0, 0.3]
C3 = CouplingMatrix(np.array([[0.5, 0.1 - 0.2j, 0.05j],
                              [0.1 + 0.2j, 0.4, 0.1],
                              [-0.05j, 0.1, 0.3]]))


def _fresh(c, delta, s_min):
    """A fresh solve by the public stages (tail start 2, h = 1e-3); the grid cache
    is neither read nor written, and solve_counter counts the tail."""
    return ncp2.hm_continue(ncp2.hm_tail_picard(c, delta, 2.0), s_min)


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
        -ai_arrays(np.asarray([8.0]))[0][0], abs=1e-12)


def test_asymptotic_matching(assert_checks):
    assert_checks("hm_asymptotic_matching")


def test_ode_residual_everywhere(assert_checks):
    assert_checks("ncp2_residual")


def test_residual_fourth_order_decay(assert_checks):
    assert_checks("ncp2_residual")


def test_parity_odd_in_coupling(assert_checks):
    assert_checks("hm_parity")


def test_hermiticity(assert_checks):
    assert_checks("hm_hermiticity")


def test_picard_ode_seam(assert_checks):
    assert_checks("picard_ode_seam")


def test_tail_solve_makes_one_airy_pass(monkeypatch):
    calls = []
    real = ncp2.airy_arrays

    def counting(x):
        calls.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(ncp2, "airy_arrays", counting)
    tail = hm_tail_picard(C2, D2, 2.0)
    assert tail.sweeps >= 2
    assert calls == [(8001, 2, 2)]


def test_tail_is_a_grid(fresh_cache):
    # the Picard tail is the depth-0 grid whose nodes every solve from it keeps
    tail = hm_tail_picard(C2, D2, 2.0)
    assert isinstance(tail, HMGrid) and tail.pole_at is None and tail.sweeps >= 2
    assert tail.S_values[0] == tail.S_tail == 2.0 and tail.S_values.size == 8001
    grid = hm_solve(C2, D2, S_min=-0.5)
    for s_val in (2.0, 2.001, 3.5, 10.0):
        assert tail.beta1_at(s_val).tobytes() == grid.beta1_at(s_val).tobytes()
        assert tail.dbeta1_at(s_val).tobytes() == grid.dbeta1_at(s_val).tobytes()
    # sweeps survives continuation, slicing and the -C mirror, poles too
    assert grid.sweeps == ncp2.hm_continue(tail, -0.5).sweeps == tail.sweeps
    assert hm_solve(C2, D2, S_min=0.5).sweeps == tail.sweeps
    assert hm_solve(C2.negated(), D2, S_min=-0.5).sweeps == tail.sweeps
    assert hm_solve(C2.negated(), D2, S_min=-1.0).sweeps == tail.sweeps
    c = CouplingMatrix(np.array([[1.5]]))
    sweeps = hm_tail_picard(c, [0.0], 2.0).sweeps
    for cc in (c, c.negated()):
        with pytest.raises(PoleEncountered) as exc:
            hm_solve(cc, [0.0], S_min=-3.0)
        assert exc.value.grid.sweeps == sweeps


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, 0.02])
def test_tail_solve_rejects_bad_step(h):
    with pytest.raises(DomainError):
        hm_tail_picard(C1, [0.0], 2.0, h)


def test_tail_solve_rejects_start_below_domain():
    # S0 = 1.2 < 1 + max|delta| = 1.3
    with pytest.raises(DomainError, match="S0 >= 1"):
        hm_tail_picard(C2, D2, 1.2)


def test_tail_start_past_bi_overflow_raises(fresh_cache):
    # Bi(2 S + a) overflows once 2 (S0 + 8) passes about 104
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="tail start S0 = 45 too large"):
            hm_tail_picard(C1, [0.0], 45.0)
        with pytest.raises(DomainError, match="tail start S0 = 45 too large"):
            hm_solve(C1, [0.0], S_min=44.0, s0=45.0)
        tail = hm_tail_picard(C1, [0.0], 44.0)
    assert np.isfinite(tail.beta1).all() and np.isfinite(tail.dbeta1).all()


def _tail_sweep(grid: HMGrid, b: np.ndarray) -> np.ndarray:
    """One sweep of the tail integral equation over the grid nodes from S_tail up.

    b(S) -> u + 4 pi [Ai(2S+a) int_S Bi(2t+a) b^3 dt - Bi(2S+a) int_S Ai(2t+a) b^3 dt].
    """
    s = grid.S_values[grid.index_of(grid.S_tail):]
    a = grid.delta[:, None] + grid.delta[None, :]
    ai_s, _, bi_s, _, z = airy_arrays(2.0 * s[:, None, None] + a)
    with np.errstate(under="ignore"):
        ai = ai_s * np.exp(-z)
        bi = bi_s * np.exp(z)
    b3 = _matcube(b)
    f_bi = _reverse_cumulative(bi * b3, grid.h, np.zeros(a.shape))
    f_ai = _reverse_cumulative(ai * b3, grid.h, np.zeros(a.shape))
    return -grid.C.entries * ai + 4.0 * math.pi * (ai * f_bi - bi * f_ai)


@pytest.mark.parametrize("c,shifts", [
    (C1, [0.0]),
    (C2, D2),
    # the complex r = 3 case of test_tw's PAINLEVE_CASES
    (CouplingMatrix(np.array([[0.5, 0.1, 0.05j], [0.1, 0.4, 0.2], [-0.05j, 0.2, 0.3]])),
     [-0.2, 0.0, 0.4]),
])
def test_tail_is_exact_fixed_point(c, shifts, fresh_cache):
    # the solved tail samples are the floating-point fixed point of the sweep
    grid = hm_solve(c, ShiftVector(np.array(shifts)).delta, S_min=2.0)
    b = grid.beta1[grid.index_of(grid.S_tail):]
    assert _tail_sweep(grid, b).tobytes() == b.tobytes()


@pytest.mark.parametrize("m,s_tail", [(0.0, 2.0), (1.0004, 2.001), (1.0006, 2.001),
                                       (1.2345, 2.235)])
def test_tail_start_snaps_up_past_one(m, s_tail, fresh_cache):
    # the nearest multiple of h below 1 + max|delta| would put the Picard
    # tail outside its domain; inputs that solved before keep their start
    c = CouplingMatrix(np.array([[0.5, 0.1], [0.1, 0.4]]))
    grid = hm_solve(c, [-m, m], S_min=2.5)
    assert grid.S_tail >= 1.0 + m
    assert grid.S_tail == pytest.approx(s_tail, abs=1e-12)


@pytest.mark.parametrize("kw", [{"s0": math.nan}, {"s0": math.inf}, {"h": 0.0},
                                {"h": -1e-3}, {"h": math.nan}, {"h": 0.02},
                                {"S_min": math.nan}, {"S_min": math.inf},
                                {"S_min": -math.inf}])
def test_hm_solve_rejects_bad_start_and_step(kw, fresh_cache, solve_counter):
    with pytest.raises(DomainError):
        hm_solve(C1, [0.0], **kw)
    assert not solve_counter and not fresh_cache   # before any work


@pytest.mark.parametrize("delta", [[0.0, math.inf], [0.0, math.nan], [0.0, 0.1, 0.2],
                                   [0.0], [[0.0, 0.1]]])
def test_bad_delta_raises_before_any_work(delta, fresh_cache, solve_counter):
    # non-finite, the wrong length for r = 2 (too long or broadcast), and 2-D
    with pytest.raises(DomainError, match="delta"):
        hm_solve(C2, delta, S_min=1.0)
    assert not solve_counter and not fresh_cache
    with pytest.raises(DomainError, match="delta"):
        hm_tail_picard(C2, delta, 2.0)


# pole-free, but the Picard map from 2.0 does not contract
C_RETRY = CouplingMatrix(np.array([[0.0, -1e4], [1e4, 0.0]]))


def test_retried_tail_start_matches_fresh_solve(fresh_cache, solve_counter):
    grid = hm_solve(C_RETRY, [0.0, 0.0], S_min=1.0)
    assert [a[2] for a in solve_counter] == [2.0, 2.5]
    ref = ncp2.hm_continue(ncp2.hm_tail_picard(C_RETRY, [0.0, 0.0], 2.5), 1.0)
    assert grid.S_tail == ref.S_tail == 2.5
    for name in ("S_values", "beta1", "dbeta1"):
        assert getattr(grid, name).tobytes() == getattr(ref, name).tobytes()


def test_retried_tail_start_stays_on_h_lattice(fresh_cache, solve_counter):
    # h does not divide 0.5: the start is raised by 167 h, not by 0.5
    h = 3e-3
    grid = hm_solve(C_RETRY, [0.0, 0.0], S_min=2.0, h=h)
    assert len(solve_counter) == 2
    assert abs(grid.S_tail / h - round(grid.S_tail / h)) < 1e-9
    assert grid.S_values[grid.index_of(2.4)] == pytest.approx(2.4, abs=1e-12)


def test_continue_rejects_nonfinite_s_min():
    tail = hm_tail_picard(C1, [0.0], 2.0)
    for s_min in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="S_min must be finite"):
            ncp2.hm_continue(tail, s_min)


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


def test_pole_frees_its_grid_without_cyclic_gc(fresh_cache):
    # a traceback frame that names the exception would keep the exception, the
    # grid and the RK4 buffers alive until the next cyclic collection
    gc.disable()
    try:
        try:
            hm_solve(CouplingMatrix(np.array([[1.5]])), [0.0], S_min=-3.0)
        except PoleEncountered as exc:
            grid = weakref.ref(exc.grid)
        assert len(fresh_cache) == 1 and grid() is not None
        fresh_cache.clear()   # the cache held the only other reference
        assert grid() is None
    finally:
        gc.enable()


def test_alpha1_antiderivative(grid1):
    # D alpha1 = -2i beta1^2, checked by central differences
    h = 1e-3
    a = [alpha1(grid1, 0.5 + k * h) for k in (-2, -1, 1, 2)]
    fd = (a[0] - 8 * a[1] + 8 * a[2] - a[3]) / (12 * h)
    b = grid1.beta1_at(0.5)
    assert np.max(np.abs(fd - (-2.0j) * b @ b)) <= 1e-8


def test_zero_curvature(assert_checks):
    assert_checks("zero_curvature_p2")


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


def test_index_of_takes_nodes_only(grid1):
    # 0.3337 lies 0.3 h from the node 0.334 and used to snap to it
    h = grid1.h
    for s_val in (0.3337, 0.3335, grid1.S_values[0] - h, grid1.S_values[-1] + h, math.nan):
        with pytest.raises(OutOfRange, match="not on the stored grid"):
            grid1.index_of(s_val)
        with pytest.raises(OutOfRange):
            ncp2_residual(grid1, s_val)
    assert grid1.index_of(0.334) == grid1.index_of(0.334 + 1e-14)
    # an array of nodes: one index each, and the largest of the residuals
    pts = np.array([-1.0, 0.0, 0.334, 3.0])
    assert np.array_equal(grid1.index_of(pts), [grid1.index_of(p) for p in pts])
    assert ncp2_residual(grid1, pts) == max(ncp2_residual(grid1, p) for p in pts)
    with pytest.raises(OutOfRange, match="two neighbors"):
        ncp2_residual(grid1, grid1.S_values[-2:])


def test_queries_reject_nan(grid2):
    # NaN fails both ends of the range test, so it is out of range too
    for query in (grid2.beta1_at, grid2.dbeta1_at, grid2.d2beta1_at, grid2.int_beta_sq,
                  grid2.int_t_beta_sq, grid2.int_tr_beta):
        with pytest.raises(OutOfRange, match="outside the grid"):
            query(math.nan)


MIRROR_CASES = {
    "r1": (np.array([[0.8]]), [0.0]),
    "r2_complex_hermitian": (C2.entries, D2),
    "r2_zero_entries": (np.array([[0.6, 0.0], [0.0, 0.5]]), D2),
    "r3": (np.array([[0.5, 0.1, 0.05j], [0.1, 0.4, 0.2], [-0.05j, 0.2, 0.3]]),
           [-0.2, 0.0, 0.4]),
}


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
    ref = _fresh(mirrored, delta, -0.5)
    assert len(solve_counter) == 2
    # np.array_equal is bit equality up to the sign of exact zeros, which
    # the solver itself does not fix (a fresh -C solve can yield -0.0)
    for name in ("S_values", "beta1", "dbeta1"):
        assert np.array_equal(getattr(grid, name), getattr(ref, name)), name
    assert grid.S_tail == ref.S_tail and grid.h == ref.h
    assert grid.pole_at is None and ref.pole_at is None
    assert len(fresh_cache) == 2


def _assert_same_solve(grid, ref, mirrored=False):
    """grid is bit for bit ref, with the same derived integrals.

    A grid mirrored from -C may differ from a fresh solve in the sign of an
    exact zero, which adding 0.0 clears; every other bit must match.
    """
    def bits(a):
        return (a + 0.0 if mirrored else a).tobytes()

    for name in ("S_values", "beta1", "dbeta1"):
        assert bits(getattr(grid, name)) == bits(getattr(ref, name)), name
    assert (grid.S_tail, grid.h, grid.pole_at) == (ref.S_tail, ref.h, ref.pole_at)
    for got, want in zip((grid._beta_sq_cum, *grid._trace_cums, *grid.p34_nodes),
                         (ref._beta_sq_cum, *ref._trace_cums, *ref.p34_nodes)):
        assert bits(got) == bits(want)


DEPTH_CASES = {
    1: (np.array([[0.8]]), [0.0]),
    2: (C2.entries, D2),
    3: (C3.entries, [-0.2, 0.1, 0.35]),
}
# a slice, a continuation, a hit, a slice of the continued grid, a hit
DEPTH_S_MIN = (0.3, -0.9, -0.4, -0.6, -0.9)


@pytest.fixture(scope="module")
def depth_refs():
    """(r, S_min) -> a fresh solve of DEPTH_CASES[r] to S_min, for each S_min in DEPTH_S_MIN.

    Built once for the module, before any test's solve_counter starts counting.
    """
    return {(r, s_min): _fresh(CouplingMatrix(entries), delta, s_min)
            for r, (entries, delta) in DEPTH_CASES.items() for s_min in set(DEPTH_S_MIN)}


@pytest.mark.parametrize("first", ["plus", "minus"])
@pytest.mark.parametrize("r", sorted(DEPTH_CASES))
def test_other_depths_match_fresh_solve(r, first, depth_refs, fresh_cache, solve_counter):
    # one solve for C or -C serves C at a shallower S_min (a slice) and at a
    # deeper one (a continuation from the cached left node); for
    # first == "minus" the slice and the continuation come from -C
    entries, delta = DEPTH_CASES[r]
    c = CouplingMatrix(entries)
    hm_solve(c if first == "plus" else c.negated(), delta, S_min=-0.4)
    for s_min in DEPTH_S_MIN:
        grid = hm_solve(c, delta, S_min=s_min)
        assert hm_solve(c, delta, S_min=s_min) is grid and grid.C is c
        assert len(solve_counter) == 1   # exactly one tail solve
        _assert_same_solve(grid, depth_refs[r, s_min], mirrored=first == "minus")


def test_extension_pole_in_first_chunk(fresh_cache, solve_counter):
    c = CouplingMatrix(np.array([[1.2]]))
    with pytest.raises(PoleEncountered) as exc:
        _fresh(c, [0.0], -3.0)
    ref = exc.value.grid
    # a grid that stops ten nodes above the last good one: the continuation
    # to -3.0 blows up ten steps into its first chunk
    above = hm_solve(c, [0.0], S_min=float(ref.S_values[10]))
    assert 10 < ncp2._CHUNK and above.S_values[0] == ref.S_values[10]
    with pytest.raises(PoleEncountered) as exc:
        hm_solve(c, [0.0], S_min=-3.0)
    assert len(solve_counter) == 2   # the fresh reference and the grid above
    assert exc.value.pole_at == ref.pole_at
    _assert_same_solve(exc.value.grid, ref)


def test_pole_grid_serves_slices_above_its_last_node(fresh_cache, solve_counter):
    c = CouplingMatrix(np.array([[1.5]]))
    with pytest.raises(PoleEncountered) as exc:
        hm_solve(c, [0.0], S_min=-3.0)
    pole_grid = exc.value.grid
    last = float(pole_grid.S_values[0])
    for s_min in (last, 0.5):
        grid = hm_solve(c, [0.0], S_min=s_min)
        assert grid.pole_at is None and hm_solve(c, [0.0], S_min=s_min) is grid
        _assert_same_solve(grid, _fresh(c, [0.0], s_min))
    assert len(solve_counter) == 3   # one solve, and the two fresh references
    below = last - pole_grid.h
    with pytest.raises(PoleEncountered) as exc:
        hm_solve(c, [0.0], S_min=below)
    assert len(solve_counter) == 3
    assert exc.value.pole_at == pole_grid.pole_at
    _assert_same_solve(exc.value.grid, pole_grid)
    with pytest.raises(PoleEncountered) as fresh:
        _fresh(c, [0.0], below)
    _assert_same_solve(exc.value.grid, fresh.value.grid)


def test_supercritical_pair_poles_agree(fresh_cache, solve_counter):
    c = CouplingMatrix(np.array([[1.5]]))
    errs = []
    for cc in (c, c.negated()):
        with pytest.raises(PoleEncountered) as exc:
            hm_solve(cc, [0.0], S_min=-3.0)
        errs.append(exc.value)
    assert len(solve_counter) == 1   # the -C pole is the negated +C pole grid
    assert errs[1].grid.C.entries[0, 0] == -1.5
    with pytest.raises(PoleEncountered) as fresh:
        _fresh(c.negated(), [0.0], -3.0)
    assert errs[0].pole_at == errs[1].pole_at == fresh.value.pole_at
    assert np.array_equal(errs[0].grid.beta1, -errs[1].grid.beta1)
    _assert_same_solve(errs[1].grid, fresh.value.grid, mirrored=True)


@pytest.mark.parametrize("order", [1, -1])
def test_table_over_depths_solves_once(order, fresh_cache, solve_counter):
    # the rows below S = -1.4 each ask for their own S_min = S - 0.1
    c = CouplingMatrix(np.array([[0.9]]))
    for S in np.linspace(-4.0, 0.0, 17)[::order]:
        q = GapQuery(ShiftVector(np.array([S])), c, "painleve")
        assert 0.0 < det_airy_sq(q).painleve.real < 1.0
    assert len(solve_counter) == 1


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
    # the elementwise anticommutator must reproduce diag-matrix products
    # exactly, over the kernel's 200 rows
    rng = np.random.default_rng(r)
    delta = rng.uniform(-0.4, 0.4, r)
    b = 0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    db = 0.3 * (rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    ys = np.empty((201, 3, r, r), dtype=complex)
    ys[0, 0], ys[0, 1] = b, db
    s = 1.0 - 1e-3 * np.arange(200)
    shifts = np.stack([s, s + 0.5 * -1e-3, s - 1e-3], axis=1)[:, :, None] + delta
    assert _rk4(ys, shifts, -1e-3) == 200
    for i, s_cur in enumerate(s):
        b, db = _seed_step(s_cur, b, db, -1e-3, delta)
        assert ys[i + 1, 0].tobytes() == b.tobytes() and ys[i + 1, 1].tobytes() == db.tobytes()


def test_blown_flags_nonfinite_and_large():
    # a zero step leaves a finite state as it is, so _rk4 tests beta1 itself:
    # it returns 1 for a step that stays at or below 1e8, and 0 for a blown one
    def steps(b):
        ys = np.zeros((2, 3, 2, 2), dtype=complex)
        ys[0, 0] = b
        done = _rk4(ys, np.zeros((1, 3, 2)), 0.0)
        if np.isfinite(b).all():
            assert ys[1, 0].tobytes() == b.tobytes()
        return done

    ok = np.array([[1e8, -1e8], [1e8j, 0.5]], dtype=complex)
    assert steps(ok) == 1
    for bad in (np.nan, complex(0.0, np.nan), np.inf, -np.inf, complex(0.0, -np.inf),
                np.nextafter(1e8, np.inf), -2e8, 2e8j):
        b = ok.copy()
        b[1, 0] = bad
        assert steps(b) == 0, bad


def _loop_continue(tail, S_min):
    """hm_continue as a per-step loop of _seed_step, with lists."""
    def blown(b):
        return not (np.abs(b).max() <= 1e8)

    h, s0 = tail.h, tail.S_tail
    s_list, b_list, db_list = [], [], []
    b, db = tail.beta1[0], tail.dbeta1[0]
    pole_at = None
    for i in range(int(round((s0 - S_min) / h))):
        s_cur = s0 - i * h
        bn, dbn = _seed_step(s_cur, b, db, -h, tail.delta)
        if blown(bn):
            lo, hi = s_cur - h, s_cur
            step = h
            while step > h / 16.0:
                step *= 0.5
                bt, dbt = _seed_step(hi, b, db, -step, tail.delta)
                if blown(bt):
                    lo = hi - step
                else:
                    b, db = bt, dbt
                    hi = hi - step
                    lo = hi - step
            pole_at = 0.5 * (lo + hi)
            break
        b, db = bn, dbn
        s_list.append(s_cur - h)
        b_list.append(b)
        db_list.append(db)
    shape = tail.beta1.shape[1:]
    s_all = np.concatenate([np.array(s_list[::-1]), tail.S_values])
    b_all = np.concatenate([np.array(b_list[::-1]).reshape(-1, *shape), tail.beta1])
    db_all = np.concatenate([np.array(db_list[::-1]).reshape(-1, *shape), tail.dbeta1])
    return s_all, b_all, db_all, pole_at


def _assert_same_grid(grid, ref):
    for name, want in zip(("S_values", "beta1", "dbeta1"), ref):
        assert getattr(grid, name).tobytes() == want.tobytes(), name
    assert grid.pole_at == ref[3]


@pytest.mark.parametrize("c,delta,s_min", [
    (C1, [0.0], -1.5),
    (C2, D2, -1.2),                            # complex Hermitian
    (CouplingMatrix(np.array([[0.6, 0.2], [0.2, 0.5]])), [-0.15, 0.15], -0.7),
    (C3, [-0.2, 0.1, 0.35], -0.5),             # complex Hermitian, r = 3
    (C2, D2, 2.0),                             # S_min at the tail start
    (C3, [-0.2, 0.1, 0.35], 2.6),              # above it: no continuation
])
def test_continuation_matches_step_loop(c, delta, s_min):
    tail = hm_tail_picard(c, delta, 2.0)
    _assert_same_grid(ncp2.hm_continue(tail, s_min), _loop_continue(tail, s_min))


def test_continuation_pole_matches_step_loop(monkeypatch):
    tail = hm_tail_picard(CouplingMatrix(np.array([[1.2]])), [0.0], 2.0)
    ref = _loop_continue(tail, -3.0)
    good = ref[0].size - tail.S_values.size   # the step from this node blows up
    assert good % ncp2._CHUNK not in (0, ncp2._CHUNK - 1)
    # the default chunk puts the blow-up inside a chunk; then on a chunk's
    # last row, and on the first row of the next chunk
    for chunk in (ncp2._CHUNK, good + 1, good):
        monkeypatch.setattr(ncp2, "_CHUNK", chunk)
        with pytest.raises(PoleEncountered) as exc:
            ncp2.hm_continue(tail, -3.0)
        assert exc.value.pole_at == ref[3] and -1.2 < ref[3] < -1.1
        _assert_same_grid(exc.value.grid, ref)


@pytest.mark.parametrize("c", [1.1, 1.05])
def test_pole_bisection_advance_matches_step_loop(c):
    # here a halved step from the last good node stays finite (the first
    # halving for 1.1, the third for 1.05), so the bracket and state move left
    tail = hm_tail_picard(CouplingMatrix(np.array([[c]])), [0.0], 2.0)
    ref = _loop_continue(tail, -3.0)
    with pytest.raises(PoleEncountered) as exc:
        ncp2.hm_continue(tail, -3.0)
    assert exc.value.pole_at == ref[3]
    _assert_same_grid(exc.value.grid, ref)
