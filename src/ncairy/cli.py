"""Command-line interface: determinants, solver tables, and the verify suite.

Configuration is plain ``key = value`` lines (with # comments); command-line
flags override file values, and the NCAIRY_CONFIG environment variable
supplies a fallback config path.  Output is CSV (%.12e, LF endings) or JSON,
byte-identical across runs for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NcairyError, PoleEncountered
from .fredholm import nystrom_det_contour
from .kernels import CouplingMatrix, ShiftVector
from .ncp2 import hm_solve
from .tw import GapQuery, det_airy, det_airy_sq, existence_scan, scalar_f1, scalar_f2

__all__ = ["RunConfig", "load_config", "write_table", "run_command", "main"]


@dataclass
class RunConfig:
    """All tunables of a run; field names double as config-file keys."""

    r: int = 1
    shifts: list = field(default_factory=lambda: [0.0])
    coupling_re: list = field(default_factory=lambda: [1.0])
    coupling_im: list = field(default_factory=list)
    quad_nodes: int = 40
    hm_s0: float = 2.0
    hm_step: float = 1e-3
    output_format: str = "csv"
    seed: int = 0

    def shift_vector(self) -> ShiftVector:
        return ShiftVector(np.asarray(self.shifts, dtype=float))

    def coupling(self) -> CouplingMatrix:
        r = self.r
        re = np.asarray(self.coupling_re, dtype=float).reshape(r, r)
        if self.coupling_im:
            im = np.asarray(self.coupling_im, dtype=float).reshape(r, r)
        else:
            im = np.zeros((r, r))
        return CouplingMatrix(re + 1j * im)


def load_config(path: str) -> dict:
    """Parse key = value lines; '#' starts a comment; lists are comma-split.

    Each key must be a RunConfig field, and its value is parsed as the type
    of that field's default.
    """
    defaults = vars(RunConfig())   # field name -> default value
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in defaults:
                raise ValueError(f"unknown config key: {key}")
            if isinstance(defaults[key], list):
                out[key] = [float(v) for v in val.split(",") if v.strip()]
            else:
                out[key] = type(defaults[key])(val)
    return out


def _unsigned_zero(x) -> float:
    """float(x) with -0.0 turned into 0.0.

    The sign of an exact zero depends on the order of solves that share the
    grid cache, so it must not reach the byte-identical output.
    """
    return float(x) + 0.0


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.12e" % _unsigned_zero(x)
    return str(x)


def write_table(records, fmt: str, stream) -> None:
    """Emit homogeneous records as CSV or JSON.

    Complex values expand to re_/im_ column pairs in CSV and to
    {"re": ..., "im": ...} objects in JSON.
    """
    if fmt == "csv":
        if not records:
            stream.write("\n")
            return
        cols = []
        for key, val in records[0].items():
            if isinstance(val, (complex, np.complexfloating)):
                cols.extend([("re_" + key, key, "re"), ("im_" + key, key, "im")])
            else:
                cols.append((key, key, None))
        stream.write(",".join(c[0] for c in cols) + "\n")
        for rec in records:
            cells = []
            for _, key, part in cols:
                val = rec[key]
                if part == "re":
                    cells.append(_fmt(float(np.real(val))))
                elif part == "im":
                    cells.append(_fmt(float(np.imag(val))))
                else:
                    cells.append(_fmt(val))
            stream.write(",".join(cells) + "\n")
    elif fmt == "json":
        def enc(val):
            if isinstance(val, (complex, np.complexfloating)):
                return {"re": _unsigned_zero(np.real(val)), "im": _unsigned_zero(np.imag(val))}
            if isinstance(val, (np.integer,)):
                return int(val)
            if isinstance(val, (float, np.floating)):
                return _unsigned_zero(val)
            if isinstance(val, (np.bool_, bool)):
                return bool(val)
            return val

        stream.write(json.dumps([{k: enc(v) for k, v in r.items()} for r in records],
                                indent=2, sort_keys=False))
        stream.write("\n")
    else:
        raise ValueError(f"unknown output format: {fmt}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ncairy")
    p.add_argument("command", choices=["det", "hm-solve", "f1", "f2", "scan", "verify"])
    p.add_argument("--r", type=int)
    p.add_argument("--shifts", type=str)
    p.add_argument("--coupling", type=str)
    p.add_argument("--coupling-im", dest="coupling_im", type=str)
    p.add_argument("--kind", choices=["airy", "airy2", "contour"], default="airy2")
    p.add_argument("--sign", type=int, choices=[1, -1], default=-1)
    p.add_argument("--route", choices=["nystrom", "painleve", "both"], default="both")
    p.add_argument("--from", dest="xfrom", type=float, default=-4.0)
    p.add_argument("--to", dest="xto", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--nodes", type=int)
    p.add_argument("--s0", type=float)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"])
    p.add_argument("--seed", type=int)
    p.add_argument("--config", type=str)
    p.add_argument("--out", type=str)
    return p


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    path = args.config or os.environ.get("NCAIRY_CONFIG")
    if path:
        for key, val in load_config(path).items():
            setattr(cfg, key, val)
    if args.r is not None:
        cfg.r = args.r
    if args.shifts is not None:
        cfg.shifts = [float(v) for v in args.shifts.split(",")]
    if args.coupling is not None:
        cfg.coupling_re = [float(v) for v in args.coupling.split(",")]
    if args.coupling_im is not None:
        cfg.coupling_im = [float(v) for v in args.coupling_im.split(",")]
    if args.nodes is not None:
        cfg.quad_nodes = args.nodes
    if args.s0 is not None:
        cfg.hm_s0 = args.s0
    if args.fmt is not None:
        cfg.output_format = args.fmt
    if args.seed is not None:
        cfg.seed = args.seed
    if len(cfg.shifts) != cfg.r and len(cfg.shifts) == 1:
        cfg.shifts = cfg.shifts * cfg.r
    if len(cfg.shifts) != cfg.r:
        raise ValueError("shifts length does not match r")
    if len(cfg.coupling_re) != cfg.r * cfg.r:
        raise ValueError("coupling length does not match r*r")
    if cfg.coupling_im and len(cfg.coupling_im) != cfg.r * cfg.r:
        raise ValueError("coupling-im length does not match r*r")
    return cfg


def _cmd_det(cfg: RunConfig, args) -> tuple[list, int]:
    s = cfg.shift_vector()
    c = cfg.coupling()
    q = GapQuery(s, c, args.route, args.tol)   # validates --tol for every kind
    if args.kind == "contour":
        d = nystrom_det_contour(s, c, float(args.sign), m_per_ray=cfg.quad_nodes)
        rec = {"kind": "contour", "sign": args.sign, "value": complex(d.value),
               "log_abs": d.log_abs, "nodes_used": d.nodes_used,
               "est_error": d.est_error, "converged": d.converged}
        return [rec], 0
    if args.kind == "airy2":
        res = det_airy_sq(q, m=cfg.quad_nodes)
    else:
        res = det_airy(q, args.sign, m=cfg.quad_nodes)
    rec = {"kind": args.kind, "sign": args.sign, "route": args.route}
    if res.nystrom is not None:
        rec["nystrom"] = complex(res.nystrom.value)
        rec["nodes_used"] = res.nystrom.nodes_used
        rec["est_error"] = res.nystrom.est_error
    if res.painleve is not None:
        rec["painleve"] = complex(res.painleve)
    if res.diff is not None:
        rec["diff"] = float(res.diff)
    return [rec], 1 if res.agree is False else 0


def _n_steps(args) -> int:
    """Number of --step intervals from --from to --to; all three must be finite.

    --to may equal --from (one row) but not lie below it.
    """
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise DomainError("--step must be finite and positive")
    n = (args.xto - args.xfrom) / args.step
    if not math.isfinite(n):
        raise DomainError("--from and --to must be finite")
    if n < 0.0:
        raise DomainError("--to must not lie below --from")
    return int(round(n))


def _cmd_hm_solve(cfg: RunConfig, args) -> tuple[list, int]:
    s = cfg.shift_vector()
    c = cfg.coupling()
    n_steps = _n_steps(args)
    try:
        grid = hm_solve(c, s.delta, S_min=args.xfrom, h=cfg.hm_step, s0=cfg.hm_s0)
    except PoleEncountered as exc:
        grid = exc.grid
    records = []
    r = cfg.r
    for k in range(n_steps + 1):
        sv = args.xfrom + k * args.step
        if sv < grid.S_values[0] - 1e-12 or sv > grid.S_values[-1] + 1e-12:
            continue
        b = grid.beta1_at(sv)
        db = grid.dbeta1_at(sv)
        rec = {"S": sv}
        for i in range(r):
            for j in range(r):
                rec[f"b_{i + 1}{j + 1}"] = complex(b[i, j])
        for i in range(r):
            for j in range(r):
                rec[f"db_{i + 1}{j + 1}"] = complex(db[i, j])
        records.append(rec)
    return records, 0


def _cmd_scalar(cfg: RunConfig, args, which: str) -> tuple[list, int]:
    records = []
    n_steps = _n_steps(args)
    fn = scalar_f1 if which == "f1" else scalar_f2
    for k in range(n_steps + 1):
        x = args.xfrom + k * args.step
        records.append({"x": x, which.upper(): fn(x)})
    return records, 0


def _cmd_scan(cfg: RunConfig, args) -> tuple[list, int]:
    c = cfg.coupling()
    n = max(_n_steps(args) + 1, 2)
    samples, crossing = existence_scan(c, args.xfrom, args.xto, n=n, m=cfg.quad_nodes)
    records = [{"s": sv, "det": dv} for sv, dv in samples]
    if crossing is not None:
        print(f"# zero crossing at s = {crossing:.6f}", file=sys.stderr)
    return records, 0


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError, NcairyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            # imported here: no other command needs the check registry
            from . import verify

            failures = verify.run_all(seed=cfg.seed, stream=sys.stdout)
            return 1 if failures else 0
        if args.command == "det":
            records, code = _cmd_det(cfg, args)
        elif args.command == "hm-solve":
            records, code = _cmd_hm_solve(cfg, args)
        elif args.command in ("f1", "f2"):
            records, code = _cmd_scalar(cfg, args, args.command)
        elif args.command == "scan":
            records, code = _cmd_scan(cfg, args)
        else:
            return 2
    except NcairyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_table(records, cfg.output_format, fh)
    else:
        write_table(records, cfg.output_format, sys.stdout)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
