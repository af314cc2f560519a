"""The three workloads: seeded op streams, op executors, checks, cross-checks.

An *op* is one closed-loop request.  ``Workload.ops(seed)`` yields op specs
(plain JSON-able dicts, so the frozen reference can store them);
``Workload.run`` executes one spec through ncairy's public functions and
returns a JSON-able output; ``Workload.check`` lists the reasons an output
fails.  Checks and cross-checks run after the timed window, so the window
holds only library work.

Ops come in blocks.  S, the barycenter of the shifts, runs over fixed
points of the CLI's default range [-4, 4]; coupling strength and offsets
are stratified, one seeded draw per stratum.  Fixed orders (a Latin
rotation, or a golden-ratio order whose every prefix spans the range) pair
them, so every timed window holds nearly the same mix of op costs whatever
the seed.  That is what keeps medians and p90 steady across seeds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

import numpy as np

ROUTE_TOL = 1e-6        # GapQuery's default tol; the per-op route tolerance
LAMBDAS = (1.0, 1.0j, -2.0, 0.5 + 0.5j)
# certification bounds, the same as the library's own verify suite
CERT_BOUNDS = {"ncp2": 1e-6, "zc_p2": 1e-7, "res3": 1e-5, "res2": 1e-6,
               "res4": 1e-4, "zc_p34": 1e-4}
POLE_ZERO_TOL = 5e-3    # pole of the Painleve grid vs zero of the Nystrom scan
S_RANGE = (-4.0, 4.0)   # the CLI's default --from/--to range


def spread(n: int) -> list:
    """0..n-1 ordered by the golden-ratio sequence: every prefix is spread out."""
    return sorted(range(n), key=lambda i: (i * 0.6180339887498949) % 1.0)


def strata(rng, n: int, lo: float, hi: float, order=None) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi].

    The strata come in the given order, or shuffled when none is given.
    """
    vals = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
    return vals[list(order)] if order is not None else rng.permutation(vals)


def midpoints(n: int, lo: float, hi: float, order) -> np.ndarray:
    """The midpoints of n equal strata of [lo, hi], in the given order.

    S, the barycenter of the shifts, sets how many quadrature nodes and RK4
    steps an op needs, so it is a table axis shared by every seed, as the
    CLI's --from/--to are; the seed draws everything else.
    """
    return (lo + (hi - lo) * (np.arange(n) + 0.5) / n)[list(order)]


def rotation(n: int, step: int, b: int) -> list:
    """Latin rotation: slot j of block b takes stratum (step * j + b) mod n."""
    return [(step * j + b) % n for j in range(n)]


def draw_shifts(rng, r: int, S: float, m: float) -> list:
    """Shifts with barycenter S and max|delta| = m, written to 4 decimals."""
    if r == 1:
        offs = np.zeros(1)
    else:
        offs = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, size=r - 2)])
        offs -= offs.mean()
        offs *= m / np.max(np.abs(offs))
    return [round(float(v), 4) for v in S + offs]


def draw_coupling(rng, r: int, sigma: float, decimals: int = 4) -> list:
    """A real symmetric r x r coupling with largest singular value sigma."""
    a = rng.uniform(-1.0, 1.0, size=(r, r))
    a = 0.5 * (a + a.T) + 0.5 * np.eye(r)
    a *= sigma / np.linalg.svd(a, compute_uv=False)[0]
    return np.round(a, decimals).tolist()


def _cplx(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _val(pair) -> complex:
    return complex(pair[0], pair[1])


def _pair(z: dict) -> list:
    """A complex number as the CLI's JSON writes it, as [re, im]."""
    return [z["re"], z["im"]]


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), 1e-300)


def _positive(z: complex) -> bool:
    return z.real > 0.0 and abs(z.imag) <= 1e-8 * abs(z)


def thue_morse(b: int) -> int:
    """Parity of the number of ones in b: 0, 1, 1, 0, 1, 0, 0, 1, ..."""
    return bin(b).count("1") % 2


class Workload:
    name = ""
    block = 1         # ops per block: the op mix repeats block by block
    ref_ops = 0       # ops of the default seed frozen in the reference
    replay = ()       # reference ops (indices) re-run after the window on other seeds
    # peak RSS is read after this many ops, a fixed amount of work that every
    # window at the seed completes with room to spare, at most half of its
    # ops (0: at the end of the window); the grid cache grows with every op,
    # so at the end of the window it would grow with the speed of the program
    rss_ops = 0

    def __init__(self, lib):
        self.lib = lib

    def ops(self, seed: int):
        raise NotImplementedError

    def traced(self, i: int) -> bool:
        """Whether op i runs traced in a ``--trace 1`` run.

        Every other op of a block is traced, and the Thue-Morse sequence over
        block numbers picks which half, so a block position, and a kind of
        block that recurs with a period of 2, 4 or 8 blocks, is traced as
        often as not.  Traced and untraced ops then share the op mix and the
        cache state of one window.
        """
        b, pos = divmod(i, self.block)
        return (pos + thue_morse(b)) % 2 == 1

    def run(self, spec: dict, tracer) -> dict:
        raise NotImplementedError

    def check(self, spec: dict, out: dict) -> list:
        raise NotImplementedError

    def summary(self, spec: dict, out: dict) -> dict:
        """The part of an output the frozen reference pins."""
        raise NotImplementedError

    def cross_check(self, records) -> tuple[list, list]:
        """(relative route differences, [(record index, reason)]) after the window."""
        raise NotImplementedError

    # shared helpers

    def _query(self, spec, route):
        lib = self.lib
        s = lib.ShiftVector(np.asarray(spec["shifts"], dtype=float))
        c = lib.CouplingMatrix(np.asarray(spec["coupling"], dtype=float))
        return lib.GapQuery(s, c, route, ROUTE_TOL)


class Nystrom(Workload):
    """Nystrom-only determinants; the Painleve layers stay idle."""

    name = "nystrom"
    block = 14
    ref_ops = 28
    rss_ops = 70
    replay = (0, 1, 2)
    KINDS = ("sq", "airy-", "airy+", "contour")

    def ops(self, seed: int):
        rng = np.random.default_rng([1, seed])
        # every (kind, r) once per block, with r and kind both cycling
        combos = [(self.KINDS[j % 4], 1 + j % 3) for j in range(12)]
        n = len(combos)
        for b in itertools.count():
            # over n blocks every (kind, r) meets every stratum of S, of the
            # coupling and of the offsets once, so each window holds nearly
            # the same mix of op costs
            S = midpoints(n, *S_RANGE, rotation(n, 5, b))
            sigma = strata(rng, n, 0.3, 0.95, rotation(n, 7, b))
            offs = strata(rng, n, 0.05, 0.6, rotation(n, 11, b))
            block = []
            for i, (kind, r) in enumerate(combos):
                spec = {"kind": kind, "r": r,
                        "shifts": draw_shifts(rng, r, S[i], offs[i]),
                        "coupling": draw_coupling(rng, r, sigma[i])}
                if kind == "contour":
                    spec["sign"] = int(rng.choice([-1, 1]))
                block.append(spec)
            # two scans per block, a fixed share of 1/7 of the ops
            scan_c = strata(rng, 2, 0.5, 0.95, [0, 1])
            for pos, c in zip((n // 3, 2 * n // 3 + 1), scan_c):
                block.insert(pos, {"kind": "scan", "r": 1, "coupling": [[round(float(c), 4)]],
                                   "lo": -4.0, "hi": 0.0, "n": 25})
            yield from block

    def run(self, spec, tracer):
        lib = self.lib
        kind = spec["kind"]
        if kind == "scan":
            c = lib.CouplingMatrix(np.asarray(spec["coupling"], dtype=float))
            samples, crossing = lib.existence_scan(c, spec["lo"], spec["hi"], n=spec["n"])
            return {"dets": [v for _, v in samples], "crossing": crossing}
        q = self._query(spec, "nystrom")
        if kind == "sq":
            d = lib.det_airy_sq(q).nystrom
        elif kind == "contour":
            d = lib.nystrom_det_contour(q.s, q.C, float(spec["sign"]))
        else:
            d = lib.det_airy(q, -1 if kind == "airy-" else 1).nystrom
        return {"value": _cplx(d.value), "converged": bool(d.converged),
                "nodes": int(d.nodes_used)}

    def check(self, spec, out):
        if spec["kind"] == "scan":
            # subcritical coupling: det(Id - Ai^2) stays positive, no zero
            ok = out["crossing"] is None and min(out["dets"]) > 0.0
            return [] if ok else ["scan_crossing"]
        reasons = []
        if not out["converged"]:
            reasons.append("unconverged")
        if not _positive(_val(out["value"])):
            reasons.append("nonpositive")
        return reasons

    def summary(self, spec, out):
        if spec["kind"] == "scan":
            return {"values": out["dets"], "crossing": out["crossing"]}
        return {"values": out["value"]}

    def cross_check(self, records):
        """Painleve route for the three lowest-S determinants with r <= 2."""
        cands = [(min(rec.spec["shifts"]), i) for i, rec in enumerate(records)
                 if rec.ok and rec.spec["kind"] != "scan" and rec.spec["r"] <= 2]
        rels, bad = [], []
        for _, i in sorted(cands)[:3]:
            spec = records[i].spec
            q = self._query(spec, "painleve")
            kind = spec["kind"]
            if kind == "sq":
                pain = self.lib.det_airy_sq(q).painleve
            else:
                sign = spec["sign"] if kind == "contour" else (-1 if kind == "airy-" else 1)
                pain = self.lib.det_airy(q, sign).painleve
            rel = _rel(_val(records[i].out["value"]), pain)
            rels.append(rel)
            if rel > ROUTE_TOL:
                bad.append((i, "route_disagree"))
        return rels, bad


class PainleveCold(Workload):
    """Painleve-route determinants on a fresh (C, delta) every op."""

    name = "painleve_cold"
    block = 10
    ref_ops = 10
    rss_ops = 10
    replay = (0,)
    POLE_AT = 5     # block position of the supercritical op
    PAST_ONE_AT = 8  # block position whose max|delta| lies past 1
    # 1 + max|delta| rounds up to a multiple of h = 1e-3 at both values; the
    # neighbours 1.0004 and 1.2345, which round down and raise DomainError,
    # are probed after the window (see DEFECT_PROBES)
    PAST_ONE = (1.0006, 1.2347)
    R = 2           # one matrix size keeps op costs alike, so p50 and p90 hold still

    def ops(self, seed: int):
        rng = np.random.default_rng([2, seed])
        n, r = self.block, self.R
        for b in itertools.count():
            S = midpoints(n, *S_RANGE, spread(n))
            sigma = strata(rng, n - 1, 0.3, 0.95, rotation(n - 1, 2, b))
            sub = [i for i in range(n) if i != self.POLE_AT]
            m = list(strata(rng, n - 2, 0.0, 1.0))
            m.insert(sub.index(self.PAST_ONE_AT), self.PAST_ONE[b % len(self.PAST_ONE)])
            block = [{"kind": "cold", "r": r, "shifts": draw_shifts(rng, r, S[i], m[j]),
                      "coupling": draw_coupling(rng, r, sigma[j])} for j, i in enumerate(sub)]
            block.insert(self.POLE_AT, {
                "kind": "pole", "r": r, "shifts": [round(float(S[self.POLE_AT]), 4)] * r,
                "coupling": draw_coupling(rng, r, float(rng.uniform(1.2, 2.0)))})
            yield from block

    def run(self, spec, tracer):
        lib = self.lib
        q = self._query(spec, "painleve")
        if spec["kind"] == "pole":
            poles = []
            for call in (lambda: lib.det_airy_sq(q), lambda: lib.det_airy(q, -1)):
                try:
                    call()
                    poles.append(None)
                except lib.PoleEncountered as exc:
                    g = exc.grid
                    poles.append({"pole_at": exc.pole_at, "s_low": float(g.S_values[0]),
                                  "h": g.h, "beta_low": float(np.max(np.abs(g.beta1[0])))})
            return {"poles": poles}
        sq = lib.det_airy_sq(q).painleve
        mi = lib.det_airy(q, -1).painleve
        pl = lib.det_airy(q, 1).painleve
        # the grid det_airy_sq used (tw asks for S_min = min(-1.5, S - 0.1))
        grid = lib.hm_solve(q.C, q.s.delta, S_min=min(-1.5, q.s.S - 0.1))
        h = grid.h
        pts = [round(max(q.s.S, grid.S_values[0] + 0.01) / h) * h, 0.5]
        res = {"ncp2": max(lib.ncp2_residual(grid, p) for p in pts),
               "zc_p2": lib.zero_curvature_residual_p2(grid, 0.5, LAMBDAS),
               "zc_p34": lib.zero_curvature_residual_p34(grid, 0.5, LAMBDAS)}
        p34 = [lib.p34_residual(grid, p) for p in pts]
        for k, name in enumerate(("res3", "res2", "res4")):
            res[name] = max(t[k] for t in p34)
        return {"values": [_cplx(sq), _cplx(mi), _cplx(pl)], "residuals": res}

    def check(self, spec, out):
        if spec["kind"] == "pole":
            reasons = []
            for p in out["poles"]:
                if p is None:
                    reasons.append("pole_missing")
                elif not (p["s_low"] - p["h"] <= p["pole_at"] <= p["s_low"]
                          and p["beta_low"] > 100.0):
                    reasons.append("pole_wrong")
            a, b = out["poles"]
            if a and b and a["pole_at"] != b["pole_at"]:
                reasons.append("pole_wrong")   # beta1(-C) = -beta1(C): same pole
            return reasons
        reasons = []
        if not all(_positive(_val(v)) for v in out["values"]):
            reasons.append("nonpositive")
        if any(out["residuals"][k] > bound for k, bound in CERT_BOUNDS.items()):
            reasons.append("certification")
        return reasons

    def summary(self, spec, out):
        if spec["kind"] == "pole":
            return {"poles": [p and p["pole_at"] for p in out["poles"]]}
        return {"values": out["values"]}

    def cross_check(self, records):
        """Nystrom route for the three lowest-S r <= 2 ops; scan zero vs one pole."""
        lib = self.lib
        cands = [(min(rec.spec["shifts"]), i) for i, rec in enumerate(records)
                 if rec.ok and rec.spec["kind"] == "cold" and rec.spec["r"] <= 2]
        rels, bad = [], []
        for _, i in sorted(cands)[:3]:
            q = self._query(records[i].spec, "nystrom")
            nys = [lib.det_airy_sq(q).nystrom, lib.det_airy(q, -1).nystrom,
                   lib.det_airy(q, 1).nystrom]
            for d, pain in zip(nys, records[i].out["values"]):
                rel = _rel(d.value, _val(pain))
                rels.append(rel)
                if rel > ROUTE_TOL or not d.converged:
                    bad.append((i, "route_disagree"))
        poles = [i for i, rec in enumerate(records) if rec.ok and rec.spec["kind"] == "pole"]
        if poles:
            i = poles[0]
            pole = records[i].out["poles"][0]["pole_at"]
            c = lib.CouplingMatrix(np.asarray(records[i].spec["coupling"], dtype=float))
            _, zero = lib.existence_scan(c, pole - 0.3, pole + 0.3, n=7)
            if zero is None or abs(zero - pole) > POLE_ZERO_TOL:
                bad.append((i, "pole_wrong"))
        return rels, bad


def _fmt_list(vals) -> str:
    return ",".join(f"{v:.2f}" for v in vals)


class DetTable(Workload):
    """CLI tables through ``run_command``: det --route both, f2 and f1."""

    name = "det_table"
    block = 17      # one table: 15 det rows, then f2 and f1
    ref_ops = 34    # the first two tables
    rss_ops = 34
    # rows of the first table: airy2 at S = 0, airy +1 at S = 2
    replay = (3, 13)
    # small tables, so a window averages over several configurations
    S_TABLE = [-4.0, -2.0, 0.0, 2.0, 4.0]
    OFFSET = 0.15
    # a narrow band of subcritical strengths: the node count at S = -4
    # depends on it, and only a few tables fit in one window
    SIGMA = (0.7, 0.8)
    F_X = [-4.0 + 0.5 * k for k in range(17)]   # the CLI's default f2/f1 range
    ROWS = (("airy2", -1), ("airy", 1), ("airy", -1))

    def ops(self, seed: int):
        rng = np.random.default_rng([3, seed])
        while True:
            # seeded r = 2 configurations, all alike in cost, so p50 and p90
            # hold still; their offsets are typed as decimals, and s - mean(s)
            # rounds differently at each S, which the raw-bytes cache key sees
            r, offs = 2, [-self.OFFSET, self.OFFSET]
            coupling = sum(draw_coupling(rng, 2, float(rng.uniform(*self.SIGMA)), 2), [])
            rows = [(self.S_TABLE[i], kind, sign) for i in spread(len(self.S_TABLE))
                    for kind, sign in self.ROWS]
            for S, kind, sign in rows:
                yield {"kind": "det", "argv": [
                    "det", "--r", str(r), "--shifts=" + _fmt_list([S + o for o in offs]),
                    "--coupling=" + _fmt_list(coupling), "--kind", kind,
                    "--sign", str(sign), "--route", "both", "--tol", repr(ROUTE_TOL),
                    "--format", "json"]}
            yield {"kind": "f2", "argv": ["f2", "--format", "json"]}
            yield {"kind": "f1", "argv": ["f1", "--format", "json"]}

    def run(self, spec, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.run_command(spec["argv"])
        text = out.getvalue()
        if tracer.enabled:
            tracer.bytes_out += len(text.encode())
        return {"code": code, "text": text}

    @staticmethod
    def _rows(out):
        try:
            return json.loads(out["text"])
        except ValueError:
            return None

    def check(self, spec, out):
        rows = self._rows(out)
        if out["code"] != 0 and spec["kind"] == "det" and rows:
            rec = rows[0]
            reasons = ["exit_code"]
            if rec.get("diff", 0.0) > ROUTE_TOL * abs(_val(_pair(rec["nystrom"]))):
                reasons.append("route_disagree")
            if rec.get("est_error", 0.0) > self.lib.NYSTROM_TOL:
                reasons.append("unconverged")
            return reasons
        if out["code"] != 0:
            return ["exit_code"]
        if not rows:
            return ["malformed"]
        if spec["kind"] != "det":
            xs = [row["x"] for row in rows]
            vals = [row[spec["kind"].upper()] for row in rows]
            ok = (xs == self.F_X and all(b >= a for a, b in zip(vals, vals[1:]))
                  and 0.0 <= vals[0] and vals[-1] <= 1.0 + 1e-12)
            return [] if ok else ["distribution"]
        rec = rows[0]
        nys, pain = _val(_pair(rec["nystrom"])), _val(_pair(rec["painleve"]))
        reasons = []
        if rec["est_error"] > self.lib.NYSTROM_TOL:
            reasons.append("unconverged")
        if _rel(nys, pain) > ROUTE_TOL:
            reasons.append("route_disagree")
        if not _positive(nys):
            reasons.append("nonpositive")
        return reasons

    def summary(self, spec, out):
        rows = self._rows(out) or []
        if spec["kind"] != "det":
            return {"code": out["code"], "values": [row[spec["kind"].upper()] for row in rows]}
        vals = []
        for rec in rows:
            vals += _pair(rec["nystrom"]) + _pair(rec["painleve"])
        return {"code": out["code"], "values": vals}

    def cross_check(self, records):
        """Every successful det row already carries both routes."""
        rels = []
        for rec in records:
            if rec.ok and rec.spec["kind"] == "det":
                row = self._rows(rec.out)[0]
                rels.append(_rel(_val(_pair(row["nystrom"])), _val(_pair(row["painleve"]))))
        return rels, []


WORKLOADS = {w.name: w for w in (Nystrom, PainleveCold, DetTable)}


def _past_one_solve(lib, m: float):
    C = lib.CouplingMatrix(np.array([[0.5, 0.1], [0.1, 0.4]]))
    lib.hm_solve(C, np.array([-m, m]))


def _gue_det_at(lib, S: float):
    q = lib.GapQuery(lib.ShiftVector(np.array([S])), lib.CouplingMatrix(np.array([[1.0]])),
                     "nystrom", ROUTE_TOL)
    d = lib.det_airy_sq(q).nystrom
    return None if d.converged else f"converged=False at {d.nodes_used} nodes"


# Seed defects, probed untimed after the window of every run: every timed op
# must succeed, so the ops that hit these defects are kept out of the op
# streams and reported here instead.  (name, probe); a probe raises an
# NcairyError or returns what went wrong, or returns None once the defect is
# fixed.
DEFECT_PROBES = [
    ("hm_solve at max|delta| = 1.0004", lambda lib: _past_one_solve(lib, 1.0004)),
    ("hm_solve at max|delta| = 1.2345", lambda lib: _past_one_solve(lib, 1.2345)),
    ("Nystrom det(Id - Ai^2) at c = 1, S = -4", lambda lib: _gue_det_at(lib, -4.0)),
]


def probe_defects(lib) -> list:
    """(name, what went wrong) for each seed defect that is still open."""
    found = []
    for name, probe in DEFECT_PROBES:
        try:
            what = probe(lib)
        except lib.NcairyError as exc:
            what = f"{type(exc).__name__}: {exc}"
        if what is not None:
            found.append((name, what))
    return found
