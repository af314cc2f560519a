"""ncairy benchmark: one closed-loop client, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload nystrom --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload det_table --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --freeze        # rewrite perfbench/reference/*.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  Lines before it
start with ``#`` and give the environment, sample counts and failures by
reason.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# BLAS threads are pinned before numpy loads: the matrices here are at most
# a few hundred rows, and on a small shared machine with default threads one
# process ran the same determinant ten times slower than the next.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import POLE_ZERO_TOL, WORKLOADS, probe_defects  # noqa: E402

REF_SEED = 0
REF_REL, REF_ABS = 1e-11, 1e-15   # tolerance of the frozen-reference gate
REF_POLE = 1e-3 / 16              # pole bracket resolution at the default step h
SETUP_PROBES = 3   # set-up probe processes per batch; a run takes three batches

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("route_agree_digits", "digits")]
# reported with the per-layer metrics: seed defects still open (workloads.DEFECT_PROBES)
DEFECTS_METRIC = ("defects.open", "count")

PUBLIC = ["ShiftVector", "CouplingMatrix", "GapQuery", "PoleEncountered", "NcairyError",
          "det_airy_sq", "det_airy", "existence_scan", "nystrom_det_contour", "hm_solve",
          "ncp2_residual", "zero_curvature_residual_p2", "p34_residual",
          "zero_curvature_residual_p34", "scalar_f2", "scalar_f1"]


@dataclass
class Record:
    spec: dict
    out: dict
    latency: float
    traced: bool
    reasons: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def import_ncairy():
    """Import the package and its CLI (builds the Airy ladders)."""
    nc = importlib.import_module("ncairy")
    importlib.import_module("ncairy.cli")
    lib = types.SimpleNamespace(**{name: getattr(nc, name) for name in PUBLIC})
    lib.run_command = nc.cli.run_command
    # the Nystrom stopping tolerance, to read `converged` off the CLI's est_error
    lib.NYSTROM_TOL = inspect.signature(nc.nystrom_det).parameters["tol"].default
    return nc, lib


def warm_up(lib, workload):
    """First calls into numpy, LAPACK and argparse; touches no grid cache."""
    q = lib.GapQuery(lib.ShiftVector(np.array([2.0])),
                     lib.CouplingMatrix(np.array([[0.5]])), "nystrom")
    lib.det_airy(q, -1)
    if workload.name == "det_table":
        spec = {"kind": "det", "argv": ["det", "--route", "nystrom", "--kind", "airy",
                                        "--shifts", "2", "--coupling", "0.5"]}
        workload.run(spec, types.SimpleNamespace(enabled=False))


def setup(name: str):
    """Import plus harness set-up: the work a set-up probe times."""
    nc, lib = import_ncairy()
    workload = WORKLOADS[name](lib)
    ref = load_reference(name)
    warm_up(lib, workload)
    return nc, lib, workload, ref


def setup_batch(name: str) -> float:
    """The lowest set-up CPU time of a batch of fresh probe processes.

    Each probe process times one set-up of its own, because a process that
    repeats the set-up in place finds the modules already imported.  CPU time,
    not wall time: on a shared machine wall time also counts the waits for
    other tenants' work.  The lowest time drops a probe that other work slowed.
    A run takes three batches, seconds apart, and reports their median, which
    drops a batch that met a slow spell of the machine.
    """
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                              "--workload", name], capture_output=True, text=True,
                             timeout=120, cwd=ROOT, check=True).stdout
        times.append(float(out.split()[-1]))
    return min(times)


def reference_path(name: str) -> str:
    return os.path.join(HERE, "reference", f"{name}.json")


def load_reference(name: str) -> dict:
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _flat(v):
    if isinstance(v, list):
        for x in v:
            yield from _flat(x)
    else:
        yield v


def same_summary(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key in a:
        if key in ("error", "code"):
            if a[key] != b[key]:
                return False
            continue
        xs, ys = list(_flat(a[key])), list(_flat(b[key]))
        if len(xs) != len(ys):
            return False
        tol_abs = REF_POLE if key in ("poles", "crossing") else REF_ABS
        for x, y in zip(xs, ys):
            if x is None or y is None:
                if x is not y:
                    return False
            elif abs(x - y) > REF_REL * max(abs(x), abs(y)) + tol_abs:
                return False
    return True


def execute(workload, spec, tracer, nc) -> tuple[dict, bool]:
    """Run one op; library errors become outputs.  Returns (output, crashed)."""
    try:
        return workload.run(spec, tracer), False
    except nc.NcairyError as exc:
        return {"error": type(exc).__name__, "msg": str(exc)}, False
    except Exception as exc:  # an unexpected crash must not stop the run
        traceback.print_exc(file=sys.stderr)
        return {"error": type(exc).__name__, "msg": str(exc)}, True


def percentile(sorted_vals, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with the weights of the
    Beta(q (n + 1), (1 - q)(n + 1)) law over [(i - 1)/n, i/n]; they centre on
    rank q n and spread over a few ranks.  Where the latencies have gaps
    between cost modes, it moves less from run to run than one order
    statistic does.
    """
    n = len(sorted_vals)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, x, cdf, left=0.0, right=1.0)
    return float(np.dot(np.diff(edges), sorted_vals))


def environment() -> dict:
    """What a result depends on besides the code: interpreter, BLAS, machine, commit."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        cfg = {"blas": deps["blas"].get("name"), "blas_version": deps["blas"].get("version")}
    except (TypeError, KeyError):  # older numpy: no dict mode
        cfg = {"blas": "unknown", "blas_version": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
            dirty = bool(subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                         "--untracked-files=no"], capture_output=True,
                                        text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__, **cfg,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_commit": commit, "git_dirty": dirty}


def freeze():
    """Rewrite the frozen reference of every workload for the default seed."""
    os.makedirs(os.path.dirname(reference_path("")), exist_ok=True)
    for name, cls in WORKLOADS.items():
        nc, lib = import_ncairy()
        workload = cls(lib)
        tracer = Tracer(nc, lib)
        ops = []
        gen = workload.ops(REF_SEED)
        for _ in range(workload.ref_ops):
            spec = next(gen)
            out, _ = execute(workload, spec, tracer, nc)
            reasons = ["error:" + out["error"]] if "error" in out else workload.check(spec, out)
            if reasons:
                raise SystemExit(f"{name}: op {len(ops)} fails while freezing: {reasons}")
            ops.append({"spec": spec, "summary": workload.summary(spec, out)})
        doc = {"workload": name, "seed": REF_SEED, "rel_tol": REF_REL, "abs_tol": REF_ABS,
               "pole_tol": REF_POLE, "ops": ops}
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"# froze {len(ops)} ops of {name}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REF_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--freeze", action="store_true",
                   help="rewrite the frozen reference outputs and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "ncairy")):
        print(f"error: no ncairy package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.freeze:
        freeze()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        t0 = time.process_time()
        setup(args.workload)
        print(f"{time.process_time() - t0!r}")
        return 0

    # set-up probes before the window, after it and after the checks
    setup_lows = [] if args.trace else [setup_batch(args.workload)]
    nc, lib, workload, ref = setup(args.workload)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; one closed-loop client")

    tracer = Tracer(nc, lib)
    tracer.install_counters()
    if args.trace:
        tracer.install_spans()
    gen = workload.ops(args.seed)
    records: list[Record] = []
    crashed = []
    peak_rss_mb = None
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    while time.perf_counter() < deadline:
        spec = next(gen)
        tracer.set_spans(bool(args.trace) and workload.traced(len(records)))
        tracer.begin_op(len(records))
        t0 = time.perf_counter()
        out, crash = execute(workload, spec, tracer, nc)
        records.append(Record(spec, out, time.perf_counter() - t0, tracer.enabled))
        if len(records) == workload.rss_ops:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if crash:
            crashed.append(len(records) - 1)
    t_end = time.perf_counter()
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# peak RSS read at the end of the window, after {len(records)} of "
              f"{workload.rss_ops} ops")
    idle = {"ncp2.solves": tracer.grid_solves, "fredholm.dets": tracer.nystrom_dets}
    tracer.restore()
    if not args.trace:
        setup_lows.append(setup_batch(args.workload))

    # -- correctness gate (after the window) ---------------------------------
    problems = []
    for i, rec in enumerate(records):
        if "error" in rec.out:
            rec.reasons.append("error:" + rec.out["error"])
        else:
            rec.reasons += workload.check(rec.spec, rec.out)
    for i in crashed:
        problems.append(f"op {i} crashed: {records[i].out['error']}")
    if args.workload == "nystrom" and idle["ncp2.solves"]:
        problems.append(f"idle layer ncp2 ran {idle['ncp2.solves']} grid solves")
    if args.workload == "painleve_cold" and idle["fredholm.dets"]:
        problems.append(f"idle layer fredholm ran {idle['fredholm.dets']} determinants")

    def compare(spec, out, what):
        match = [r for r in ref["ops"] if r["spec"] == spec]
        if not match:
            return None
        summary = {"error": out["error"]} if "error" in out else workload.summary(spec, out)
        if not same_summary(summary, match[0]["summary"]):
            problems.append(f"{what} differs from the frozen reference")
            return False
        return True

    compared = 0
    for i, rec in enumerate(records):
        if args.seed == REF_SEED or rec.spec["kind"] in ("f2", "f1"):
            res = compare(rec.spec, rec.out, f"op {i}")
            if res is not None:
                compared += 1
                if not res:
                    rec.reasons.append("reference_mismatch")
    for k in workload.replay:
        spec = ref["ops"][k]["spec"]
        out, crash = execute(workload, spec, tracer, nc)
        if crash:
            problems.append(f"reference op {k} crashed: {out['error']}")
        if compare(spec, out, f"reference op {k}") is not None:
            compared += 1
    if compared == 0:
        problems.append("no op was compared with the frozen reference")

    try:
        rels, bad = workload.cross_check(records)
    except nc.NcairyError as exc:
        rels, bad = [], []
        problems.append(f"cross-check raised {type(exc).__name__}: {exc}")
    for i, reason in bad:
        records[i].reasons.append(reason)
    if not rels:
        problems.append("no cross-route comparison was made")

    # -- metrics --------------------------------------------------------------
    attempted = len(records)
    failed = sum(not r.ok for r in records)
    if failed:
        problems.append(f"{failed} failed ops; the seed fails none")
    reasons: dict[str, int] = {}
    for r in records:
        for reason in dict.fromkeys(r.reasons):
            reasons[reason] = reasons.get(reason, 0) + 1
    print(f"# ops attempted {attempted} failed {failed} fail_ratio "
          f"{failed / max(attempted, 1):.4f}; failures by reason {json.dumps(reasons, sort_keys=True)}")
    print(f"# reference: {compared} ops compared (rel {REF_REL:g}, abs {REF_ABS:g}); "
          f"cross-route comparisons {len(rels)}; pole-zero tol {POLE_ZERO_TOL:g}")
    print(f"# idle-layer counters {json.dumps(idle, sort_keys=True)}")
    for msg in problems:
        print(f"# PROBLEM {msg}")
    defects = probe_defects(lib)
    for name, what in defects:
        print(f"# seed defect still open: {name}: {what}")

    if args.trace:
        # ops per second of busy time, traced ops against untraced ones
        rates = []
        for traced in (False, True):
            busy = [r.latency for r in records if r.traced == traced]
            rates.append(len(busy) / sum(busy) if busy else math.nan)
        n_traced = sum(r.traced for r in records)
        metrics_raw = tracer.layer_metrics(n_traced, *rates)
        metrics_raw[DEFECTS_METRIC[0]] = len(defects)
        units = {name: unit for name, unit, _ in PER_LAYER}
        units[DEFECTS_METRIC[0]] = DEFECTS_METRIC[1]
        print(f"# traced ops {n_traced}, untraced ops {attempted - n_traced}, interleaved; "
              f"ops_per_s untraced {rates[0]:.4f}, traced {rates[1]:.4f}")
    else:
        lat = sorted(r.latency for r in records if r.ok)
        worst = max(rels) if rels else math.nan
        metrics_raw = {
            "setup_s": statistics.median(setup_lows + [setup_batch(args.workload)]),
            "ops_per_s": (attempted - failed) / (t_end - t_start),
            "latency_p50_ms": 1e3 * percentile(lat, 0.5) if lat else math.nan,
            "latency_p90_ms": 1e3 * percentile(lat, 0.9) if lat else math.nan,
            "peak_rss_mb": peak_rss_mb,
            "route_agree_digits": -math.log10(max(worst, 1e-17)),
        }
        units = dict(END_TO_END)
        beyond = len(lat) - math.ceil(0.9 * len(lat)) if lat else 0
        print(f"# latency samples {len(lat)} (successful ops); {beyond} beyond p90")
    metrics = {}
    for name, value in metrics_raw.items():
        print(f"# metric {name} {value:.6g} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    correct = not problems and all(math.isfinite(v["value"]) for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
