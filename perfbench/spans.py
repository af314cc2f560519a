"""In-memory span collector that wraps ncairy's public functions from outside.

Each wrapper replaces a function where the *calling* module looks it up
(for example ``ncairy.tw.hm_solve``), so the library itself is untouched.
A span records (id, parent id, op id, name, start, end) plus the
attributes its layer needs; spans stay in memory until the run ends.

Two modes:

* ``Tracer.install_counters`` installs cheap call counters on the two
  layer entry points that the idle-layer assertions need (Painleve grid
  solves and Nystrom determinants) and remembers which grids ``hm_solve``
  returned.  It is always on; it times nothing.
* ``Tracer.install_spans`` builds the full span wrappers, on top of the
  counters, and ``Tracer.set_spans`` switches them in and out, so a
  ``--trace 1`` run can trace some ops and leave the others untraced.

A grid-cache hit is an ``hm_solve`` call that returns an ``HMGrid`` object
already returned before in the run, traced or not.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import weakref

import numpy as np

# (ncairy submodule, global name) pairs: the submodule's own lookup of the
# name is replaced, so only calls made from that submodule are seen.
AIRY_POINTS = [
    ("kernels", "ai_arrays"),
    ("ncp2", "ai_arrays"),
    ("ncp2", "airy_arrays"),
    ("tw", "ai_arrays"),
]
KERNEL_POINTS = [
    ("tw", "matrix_airy_sq_kernel"),
    ("tw", "matrix_airy_kernel"),
    ("ncp2", "scalar_airy_kernel"),
    ("fredholm", "contour_symbol"),
]
TW_NAMES = ["det_airy_sq", "det_airy", "scalar_f2", "scalar_f1", "existence_scan"]
GRID_QUERIES = ["beta1_at", "dbeta1_at", "d2beta1_at", "int_beta_sq",
                "int_t_beta_sq", "int_tr_beta"]
NCP2_CERTS = ["ncp2_residual", "zero_curvature_residual_p2"]
NCP34_CERTS = ["p34_residual", "zero_curvature_residual_p34"]

# (name, unit, better): work counts are better lower, because an optimisation
# does the same job with less work per op
PER_LAYER = [
    ("airy.calls", "count/op", "lower"), ("airy.points", "count/op", "lower"),
    ("airy.busy_s", "s/op", "lower"), ("airy.distinct_ratio", "ratio", "higher"),
    ("kernels.calls", "count/op", "lower"), ("kernels.entries", "count/op", "lower"),
    ("kernels.self_s", "s/op", "lower"),
    ("fredholm.dets", "count/op", "lower"), ("fredholm.passes", "count/det", "lower"),
    ("fredholm.nodes_mean", "count/det", "lower"), ("fredholm.self_s", "s/op", "lower"),
    ("fredholm.lu_gflop", "GFLOP/op", "lower"), ("fredholm.unconverged", "count/op", "lower"),
    ("ncp2.solves", "count/op", "lower"), ("ncp2.picard_s", "s/op", "lower"),
    ("ncp2.picard_sweeps", "count/op", "lower"), ("ncp2.tail_retries", "count/op", "lower"),
    ("ncp2.continue_s", "s/op", "lower"), ("ncp2.rk4_steps", "count/op", "lower"),
    ("ncp2.cache_hit_ratio", "ratio", "higher"), ("ncp2.grid_mb", "MB", "lower"),
    ("ncp2.query_s", "s/op", "lower"), ("ncp34.busy_s", "s/op", "lower"),
    ("tw.self_s", "s/op", "lower"), ("tw.scan_evals", "count/op", "lower"),
    ("cli.self_s", "s/op", "lower"), ("cli.bytes_out", "B/op", "lower"),
    ("trace.ops_per_s", "1/s", "higher"), ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count/op", "lower"),
]


class _Span:
    """One call into a layer.

    ``book_s`` is the tracer's own bookkeeping that ran inside this span's
    interval (attribute extraction after a descendant returned); it is
    removed from both the net duration and the self time.
    """

    __slots__ = ("sid", "parent", "op", "name", "fn", "t0", "t1", "child_s", "book_s", "attrs")

    def __init__(self, sid, parent, op, name, fn, t0):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.fn = fn
        self.t0 = t0
        self.t1 = t0
        self.child_s = 0.0
        self.book_s = 0.0
        self.attrs = {}

    @property
    def net_s(self) -> float:
        return self.t1 - self.t0 - self.book_s

    @property
    def self_s(self) -> float:
        return self.net_s - self.child_s


class Tracer:
    """Counters for the idle-layer gate and, when enabled, span recording."""

    def __init__(self, nc, lib):
        self.nc = nc          # the ncairy package (submodules as attributes)
        self.lib = lib        # the benchmark's own namespace of public functions
        self.saved = []       # (owner, name, original) to restore
        self.span_swaps = []  # (owner, name, original, span wrapper)
        self.grid_solves = 0
        self.nystrom_dets = 0
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.op = -1
        self.next_id = 0
        self.seen_grids: dict[int, weakref.ref] = {}   # every grid hm_solve returned
        self.last_hit = False
        self.bytes_out = 0
        self.enabled = False

    # -- installation ------------------------------------------------------

    def _replace(self, owner, name, make):
        orig = getattr(owner, name)
        self.saved.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def restore(self):
        self.set_spans(False)
        for owner, name, orig in reversed(self.saved):
            setattr(owner, name, orig)
        self.saved.clear()

    def install_counters(self):
        def count_solves(fn):
            @functools.wraps(fn)
            def wrapper(*a, **k):
                self.grid_solves += 1
                self.last_hit = False
                grid = fn(*a, **k)
                ref = self.seen_grids.get(id(grid))
                self.last_hit = ref is not None and ref() is grid
                if not self.last_hit:
                    self.seen_grids[id(grid)] = weakref.ref(grid)
                return grid
            return wrapper

        def count_dets(fn):
            @functools.wraps(fn)
            def wrapper(*a, **k):
                self.nystrom_dets += 1
                return fn(*a, **k)
            return wrapper

        nc = self.nc
        for owner in (nc.tw, nc.cli, self.lib):
            self._replace(owner, "hm_solve", count_solves)
        self._replace(nc.tw, "nystrom_det", count_dets)
        self._replace(nc.cli, "nystrom_det_contour", count_dets)
        self._replace(self.lib, "nystrom_det_contour", count_dets)

    def install_spans(self):
        """Build the span wrappers; ``set_spans`` switches them in and out."""
        nc = self.nc
        for mod, name in AIRY_POINTS:
            self._span(getattr(nc, mod), name, lambda fn: self._wrap(fn, "airy", self._airy_attrs))
        for mod, name in KERNEL_POINTS:
            self._span(getattr(nc, mod), name, lambda fn: self._wrap(fn, "kernels", self._kernel_attrs))
        for owner in (nc.tw, nc.cli, self.lib):
            self._span(owner, "hm_solve", lambda fn: self._wrap(fn, "ncp2.solve", self._solve_attrs))
        self._span(nc.ncp2, "hm_tail_picard", lambda fn: self._wrap(fn, "ncp2.picard", self._picard_attrs))
        self._span(nc.ncp2, "hm_continue", lambda fn: self._wrap(fn, "ncp2.continue", self._continue_attrs))
        for name in GRID_QUERIES:
            self._span(nc.ncp2.HMGrid, name, lambda fn: self._wrap(fn, "ncp2.query"))
        self._span(nc.tw, "nystrom_det", lambda fn: self._wrap(fn, "fredholm", self._det_attrs))
        for owner in (nc.cli, self.lib):
            self._span(owner, "nystrom_det_contour",
                       lambda fn: self._wrap(fn, "fredholm", self._det_attrs))
        for owner in (nc.cli, self.lib):
            for name in TW_NAMES:
                self._span(owner, name, lambda fn: self._wrap(fn, "tw"))
        self._span(nc.tw, "scalar_f2", lambda fn: self._wrap(fn, "tw"))
        for name in NCP2_CERTS:
            self._span(self.lib, name, lambda fn: self._wrap(fn, "ncp2.query"))
        for name in NCP34_CERTS:
            self._span(self.lib, name, lambda fn: self._wrap(fn, "ncp34"))
        self._span(self.lib, "run_command", lambda fn: self._wrap(fn, "cli"))

    def _span(self, owner, name, make):
        orig = getattr(owner, name)
        self.span_swaps.append((owner, name, orig, make(orig)))

    def set_spans(self, on: bool):
        if on == self.enabled:
            return
        swaps = self.span_swaps if on else reversed(self.span_swaps)
        for owner, name, orig, wrapper in swaps:
            setattr(owner, name, wrapper if on else orig)
        self.enabled = on

    # -- span mechanics ----------------------------------------------------

    def _wrap(self, fn, name, attrs_fn=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            parent = self.stack[-1] if self.stack else None
            span = _Span(self.next_id, parent.sid if parent else None, self.op, name,
                         fn.__name__, time.perf_counter())
            self.next_id += 1
            self.stack.append(span)
            result = exc = None
            try:
                result = fn(*a, **k)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.t1 = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.child_s += span.net_s
                if attrs_fn is not None:
                    t_book = time.perf_counter()
                    attrs_fn(span, sig.bind(*a, **k), result, exc)
                    book = time.perf_counter() - t_book
                    for outer in self.stack:
                        outer.book_s += book
        return wrapper

    # -- per-layer attributes ---------------------------------------------

    @staticmethod
    def _airy_attrs(span, bound, result, exc):
        x = np.ravel(np.asarray(bound.arguments["x"], dtype=float))
        span.attrs["points"] = x.size
        span.attrs["distinct"] = np.unique(x).size if x.size else 0

    @staticmethod
    def _kernel_attrs(span, bound, result, exc):
        if result is not None:
            first = result[0] if isinstance(result, tuple) else result
            span.attrs["entries"] = int(np.size(first))

    def _solve_attrs(self, span, bound, result, exc):
        span.attrs["hit"] = self.last_hit   # set by the counter underneath

    @staticmethod
    def _picard_attrs(span, bound, result, exc):
        if result is not None:
            span.attrs["sweeps"] = result.sweeps
        span.attrs["retry"] = exc is not None and type(exc).__name__ == "NoContraction"

    @staticmethod
    def _continue_attrs(span, bound, result, exc):
        grid = result if result is not None else getattr(exc, "grid", None)
        if grid is None:
            return
        below = int(np.count_nonzero(grid.S_values < grid.S_tail - 0.5 * grid.h))
        # a pole is bracketed by four halvings of the step (h -> h/16)
        span.attrs["rk4_steps"] = below + (4 if grid.pole_at is not None else 0)

    @staticmethod
    def _det_attrs(span, bound, result, exc):
        if result is None:
            return
        bound.apply_defaults()
        args = bound.arguments
        if "rule" in args:      # nystrom_det: one interval
            r, m0, rays = args["r"], args["rule"].m, 1
        else:                   # nystrom_det_contour: two rays of m_per_ray nodes
            r, m0, rays = args["s"].r, args["m_per_ray"], 2
        # each refinement pass doubles the nodes, starting from m0 per ray
        passes = 1 + round(math.log2(result.nodes_used / (rays * m0))) if args["refine"] else 1
        # complex LU of an N x N block matrix: 8/3 N^3 flops, computed, not measured
        gflop = sum(8.0 / 3.0 * (rays * m0 * 2 ** p * r) ** 3 for p in range(passes)) * 1e-9
        span.attrs.update(passes=passes, nodes=result.nodes_used, gflop=gflop,
                          converged=bool(result.converged))

    # -- summaries ---------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id

    def layer_metrics(self, ops: int, untraced_ops_per_s: float,
                      traced_ops_per_s: float) -> dict:
        """Per-layer metrics over the traced part; times and counts per op."""
        by_id = {s.sid: s for s in self.spans}
        agg: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
        distinct = points = 0
        dets = returned = passes = nodes = 0
        solves = hits = 0
        for s in self.spans:
            n = s.name
            if n == "airy":
                agg["airy.calls"] += 1
                agg["airy.busy_s"] += s.net_s
                points += s.attrs["points"]
                distinct += s.attrs["distinct"]
            elif n == "kernels":
                agg["kernels.calls"] += 1
                agg["kernels.entries"] += s.attrs.get("entries", 0)
                agg["kernels.self_s"] += s.self_s
            elif n == "fredholm":
                dets += 1
                agg["fredholm.self_s"] += s.self_s
                if "passes" in s.attrs:     # the det returned
                    returned += 1
                    passes += s.attrs["passes"]
                    nodes += s.attrs["nodes"]
                    agg["fredholm.lu_gflop"] += s.attrs["gflop"]
                    agg["fredholm.unconverged"] += not s.attrs["converged"]
                parent = by_id.get(s.parent)
                if parent is not None and parent.fn == "existence_scan":
                    agg["tw.scan_evals"] += 1
            elif n == "ncp2.solve":
                solves += 1
                hits += s.attrs.get("hit", False)
                agg["ncp2.query_s"] += s.self_s
            elif n == "ncp2.picard":
                agg["ncp2.picard_s"] += s.net_s
                agg["ncp2.picard_sweeps"] += s.attrs.get("sweeps", 0)
                agg["ncp2.tail_retries"] += s.attrs.get("retry", False)
            elif n == "ncp2.continue":
                agg["ncp2.continue_s"] += s.net_s
                agg["ncp2.rk4_steps"] += s.attrs.get("rk4_steps", 0)
            elif n == "ncp2.query":
                agg["ncp2.query_s"] += s.self_s
            elif n == "ncp34":
                agg["ncp34.busy_s"] += s.self_s
            elif n == "tw":
                agg["tw.self_s"] += s.self_s
            elif n == "cli":
                agg["cli.self_s"] += s.self_s

        per_op = max(ops, 1)
        out = {k: v / per_op for k, v in agg.items()}
        out["airy.points"] = points / per_op
        out["airy.distinct_ratio"] = distinct / points if points else 0.0
        out["fredholm.dets"] = dets / per_op
        out["fredholm.passes"] = passes / returned if returned else 0.0
        out["fredholm.nodes_mean"] = nodes / returned if returned else 0.0
        out["ncp2.solves"] = solves / per_op
        out["ncp2.cache_hit_ratio"] = hits / solves if solves else 0.0
        out["ncp2.grid_mb"] = self.grid_bytes() / 2 ** 20
        out["cli.bytes_out"] = self.bytes_out / per_op
        out["trace.ops_per_s"] = traced_ops_per_s
        out["trace.overhead_ratio"] = (1.0 - traced_ops_per_s / untraced_ops_per_s
                                       if untraced_ops_per_s > 0 else 0.0)
        out["trace.spans"] = len(self.spans) / per_op
        return out

    def grid_bytes(self) -> int:
        total = 0
        for ref in self.seen_grids.values():
            g = ref()
            if g is not None:
                total += g.S_values.nbytes + g.beta1.nbytes + g.dbeta1.nbytes
        return total

