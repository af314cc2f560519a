"""Command-line interface: determinants, solver tables, and the verify suite.

Configuration is plain ``key = value`` lines (with # comments); command-line
flags override file values, and the NCAIRY_CONFIG environment variable
supplies a fallback config path.  Output is CSV (%.12e, LF endings) or JSON,
byte-identical across runs for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, NcairyError, OutOfRange, PoleEncountered
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


_DEFAULTS = vars(RunConfig())   # field name -> default value
# flag of each list setting -> its RunConfig field (a field name is also its config key)
_LIST_FLAGS = {"--shifts": "shifts", "--coupling": "coupling_re", "--coupling-im": "coupling_im"}
_FORMATS = ("csv", "json")


def _parse_value(key: str, text):
    """Parse a config value or flag as the type of RunConfig field ``key``.

    A list is comma-separated floats, and an empty item is an error.  Flags of
    scalar fields arrive already converted to that type by argparse.
    """
    if not isinstance(_DEFAULTS[key], list):
        return type(_DEFAULTS[key])(text)
    items = text.split(",")
    if not all(v.strip() for v in items):
        raise ValueError(f"empty item in {key} list: {text}")
    return [float(v) for v in items]


def load_config(path: str) -> dict:
    """Parse key = value lines; '#' starts a comment.

    Each key must be a RunConfig field, and its value is parsed by _parse_value.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ValueError(f"unknown config key: {key}")
            out[key] = _parse_value(key, val)
    return out


def _cell(x):
    """One output cell as a plain bool, int, float or str; complex as {"re", "im"}.

    An exact zero prints unsigned: its sign depends on the order of solves that
    share the grid cache, so it must not reach the byte-identical output.
    """
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": _cell(x.real), "im": _cell(x.imag)}
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x) + 0.0
    return x


def _csv_row(row: dict) -> dict:
    """CSV columns of an encoded row: a complex cell gives a re_ and an im_ column."""
    flat = {}
    for key, val in row.items():
        if isinstance(val, dict):
            flat.update({f"{part}_{key}": v for part, v in val.items()})
        else:
            flat[key] = val
    return flat


def write_table(records, fmt: str, stream) -> None:
    """Emit homogeneous records as CSV or JSON.

    Complex values expand to re_/im_ column pairs in CSV and to
    {"re": ..., "im": ...} objects in JSON.
    """
    rows = [{k: _cell(v) for k, v in rec.items()} for rec in records]
    if fmt == "json":
        stream.write(json.dumps(rows, indent=2) + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown output format: {fmt}")
    rows = [_csv_row(row) for row in rows]
    stream.write(",".join(rows[0]) + "\n" if rows else "\n")
    for row in rows:
        cells = ("%.12e" % v if isinstance(v, float) else str(v).lower() if isinstance(v, bool)
                 else str(v) for v in row.values())
        stream.write(",".join(cells) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    # a dest that names a RunConfig field sets that field
    p = argparse.ArgumentParser(prog="ncairy")
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--r", type=int)
    for flag, key in _LIST_FLAGS.items():
        p.add_argument(flag, dest=key, metavar=flag[2:].replace("-", "_").upper())
    p.add_argument("--kind", choices=["airy", "airy2", "contour"], default="airy2")
    p.add_argument("--sign", type=int, choices=[1, -1], default=-1)
    p.add_argument("--route", choices=["nystrom", "painleve", "both"], default="both")
    p.add_argument("--from", dest="xfrom", type=float, default=-4.0)
    p.add_argument("--to", dest="xto", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--nodes", dest="quad_nodes", metavar="NODES", type=int)
    p.add_argument("--s0", dest="hm_s0", metavar="S0", type=float)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", dest="output_format", choices=_FORMATS)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", type=str)
    p.add_argument("--out", type=str)
    return p


def _attach_list_values(argv) -> list:
    """Rewrite ``--shifts -0.15,0.15`` as ``--shifts=-0.15,0.15``.

    argparse takes a separate value that starts with a minus and is not one plain
    number for an option name, so a list like ``-0.15,0.15`` needs the ``=`` form.
    """
    out = []
    it = iter(argv)
    for arg in it:
        val = next(it, None) if arg in _LIST_FLAGS else None
        out.append(arg if val is None else f"{arg}={val}")
    return out


def _config_from_args(args) -> RunConfig:
    path = args.config or os.environ.get("NCAIRY_CONFIG")
    values = load_config(path) if path else {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = _parse_value(f.name, flag)
    cfg = RunConfig(**values)
    if cfg.output_format not in _FORMATS:
        raise ValueError(f"unknown output format: {cfg.output_format}")
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
        if args.route == "painleve":
            raise DomainError("det --kind contour has no --route painleve")
        d = nystrom_det_contour(s, c, float(args.sign), m_per_ray=cfg.quad_nodes)
        rec = {"kind": "contour", "sign": args.sign, "value": complex(d.value),
               "log_abs": d.log_abs, "nodes_used": d.nodes_used,
               "est_error": d.est_error, "converged": d.converged}
        return [rec], 0 if d.converged else 1
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
    unconverged = res.nystrom is not None and not res.nystrom.converged
    return [rec], 1 if res.agree is False or unconverged else 0


def _points(args) -> list:
    """The table abscissae --from, --from + --step, ... up to --to; all must be finite.

    --to may equal --from (one row) but not lie below it.
    """
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise DomainError("--step must be finite and positive")
    n = (args.xto - args.xfrom) / args.step
    if not math.isfinite(n):
        raise DomainError("--from and --to must be finite")
    if n < 0.0:
        raise DomainError("--to must not lie below --from")
    return [args.xfrom + k * args.step for k in range(int(round(n)) + 1)]


def _cmd_hm_solve(cfg: RunConfig, args) -> tuple[list, int]:
    s = cfg.shift_vector()
    c = cfg.coupling()
    xs = _points(args)
    try:
        grid = hm_solve(c, s.delta, S_min=args.xfrom, h=cfg.hm_step, s0=cfg.hm_s0)
    except PoleEncountered as exc:
        grid = exc.grid
        print(f"# pole at S = {exc.pole_at:.6f}", file=sys.stderr)
    ij = [(i, j, f"{i + 1}{j + 1}") for i, j in np.ndindex(cfg.r, cfg.r)]
    records = []
    for sv in xs:
        try:
            b, db = grid.beta1_at(sv), grid.dbeta1_at(sv)
        except OutOfRange:   # below a pole, or above the grid
            continue
        records.append({"S": sv, **{f"b_{n}": complex(b[i, j]) for i, j, n in ij},
                        **{f"db_{n}": complex(db[i, j]) for i, j, n in ij}})
    return records, 0


def _cmd_scalar(cfg: RunConfig, args) -> tuple[list, int]:
    fn = scalar_f1 if args.command == "f1" else scalar_f2
    return [{"x": x, args.command.upper(): fn(x)} for x in _points(args)], 0


def _cmd_scan(cfg: RunConfig, args) -> tuple[list, int]:
    c = cfg.coupling()
    n = max(len(_points(args)), 2)
    samples, crossing = existence_scan(c, args.xfrom, args.xto, n=n, m=cfg.quad_nodes)
    records = [{"s": sv, "det": dv} for sv, dv in samples]
    if crossing is not None:
        print(f"# zero crossing at s = {crossing:.6f}", file=sys.stderr)
    return records, 0


def _cmd_verify(cfg: RunConfig, args) -> tuple[str, int]:
    # imported here: no other command needs the check registry
    from . import verify

    lines = io.StringIO()
    failures = verify.run_all(seed=cfg.seed, stream=lines)
    return lines.getvalue(), 1 if failures else 0


_COMMANDS = {"det": _cmd_det, "hm-solve": _cmd_hm_solve, "f1": _cmd_scalar, "f2": _cmd_scalar,
             "scan": _cmd_scan, "verify": _cmd_verify}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_list_values(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError, NcairyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result, code = _COMMANDS[args.command](cfg, args)
    except NcairyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else contextlib.nullcontext(sys.stdout)) as stream:
            if isinstance(result, str):   # verify's PASS/FAIL lines
                stream.write(result)
            else:
                write_table(result, cfg.output_format, stream)
    except OSError as exc:   # exit 1 would read as a failed check or disagreeing routes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
