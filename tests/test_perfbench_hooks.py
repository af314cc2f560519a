"""The benchmark's tracer still finds every ncairy name it wraps.

perfbench/spans.py replaces functions and methods by name; a refactor that
drops or renames one would otherwise fail only inside a traced benchmark run.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    # run.py pins BLAS threads in the environment and imports its siblings
    # from perfbench/ on sys.path; all of that is undone once it is loaded
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run   # its dataclass looks the module up
        try:
            spec.loader.exec_module(run)
        finally:
            for name in (spec.name, "spans", "workloads"):
                sys.modules.pop(name, None)
    return run


def test_tracer_installs_on_live_package():
    run = _load_run()
    nc, lib = run.import_ncairy()
    tracer = run.Tracer(nc, lib)
    originals = {"picard": nc.ncp2.hm_tail_picard, "solve": nc.tw.hm_solve,
                 "query": nc.ncp2.HMGrid.int_beta_sq}
    try:
        tracer.install_counters()
        tracer.install_spans()
        tracer.set_spans(True)
        # S_min below the tail start, so the continuation takes RK4 steps
        grid = lib.hm_solve(lib.CouplingMatrix(np.array([[0.5]])), [0.0], S_min=1.5,
                            cached=False)
        grid.int_beta_sq(3.0)
        # one half-line and one contour determinant: spans.py binds their arguments
        s, c = lib.ShiftVector(np.array([2.0])), lib.CouplingMatrix(np.array([[0.5]]))
        lib.det_airy_sq(lib.GapQuery(s, c, "nystrom"))
        lib.nystrom_det_contour(s, c, -1.0)
        tracer.set_spans(False)
    finally:
        tracer.restore()
    names = {s.name for s in tracer.spans}
    assert {"ncp2.solve", "ncp2.picard", "ncp2.continue", "ncp2.query", "fredholm"} <= names
    picard = next(s for s in tracer.spans if s.name == "ncp2.picard")
    assert picard.attrs["sweeps"] > 0
    cont = next(s for s in tracer.spans if s.name == "ncp2.continue")
    assert cont.attrs["rk4_steps"] > 0
    dets = [s for s in tracer.spans if s.name == "fredholm"]
    assert [d.fn for d in dets] == ["nystrom_det", "nystrom_det_contour"]
    assert all(d.attrs["passes"] >= 2 and d.attrs["nodes"] > 0 for d in dets)
    assert nc.ncp2.hm_tail_picard is originals["picard"]
    assert nc.tw.hm_solve is originals["solve"]
    assert nc.ncp2.HMGrid.int_beta_sq is originals["query"]
