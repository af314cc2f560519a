"""Command-line interface: parsing, serialization, determinism, exit codes."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ncairy import cli, ncp2, verify
from ncairy.cli import RunConfig, load_config, run_command, write_table


def _run(argv, capsys):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_both_routes_exit_zero(capsys):
    code, out, _ = _run(["det", "--r", "1", "--coupling", "1", "--shifts", "0",
                         "--kind", "airy2", "--route", "both"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("kind,sign,route,")
    assert "diff" in lines[0]


def test_det_json_round_trip(capsys):
    code, out, _ = _run(["det", "--kind", "contour", "--sign", "-1",
                         "--format", "json"], capsys)
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 1
    rec = recs[0]
    assert set(rec) == {"kind", "sign", "value", "log_abs", "nodes_used",
                        "est_error", "converged"}
    assert rec["value"]["re"] == pytest.approx(0.8319080662, abs=1e-6)
    assert rec["converged"] is True


def test_python_dash_m_entry_point(capsys):
    argv = ["det", "--kind", "contour", "--sign", "-1", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "ncairy", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, out, _ = _run(argv, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_f2_monotone_csv(capsys):
    code, out, _ = _run(["f2", "--from", "-4", "--to", "4", "--step", "0.5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,F2"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(not line.endswith(",") for line in lines)


def test_csv_number_format(capsys):
    code, out, _ = _run(["f2", "--from", "0", "--to", "0", "--step", "1"], capsys)
    assert code == 0
    row = out.strip().split("\n")[1]
    x_str, f2_str = row.split(",")
    assert x_str == "0.000000000000e+00"
    assert float(f2_str) == pytest.approx(0.9693728283553741, abs=1e-8)
    assert len(f2_str.split("e")[0].split(".")[1]) == 12


def test_hm_solve_column_layout(capsys):
    code, out, _ = _run(["hm-solve", "--r", "2", "--shifts", "0,0.3",
                         "--coupling", "0.6,0.2,0.2,0.5",
                         "--from", "0", "--to", "1", "--step", "0.5"], capsys)
    assert code == 0
    header = out.strip().split("\n")[0].split(",")
    assert header[:5] == ["S", "re_b_11", "im_b_11", "re_b_12", "im_b_12"]
    assert "re_db_11" in header


def test_byte_identical_reruns(tmp_path):
    args = ["f1", "--from", "-2", "--to", "2", "--step", "1"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_command(args + ["--out", str(p1)]) == 0
    assert run_command(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 2\nshifts = 0, 0.3  # levels\n"
                   "coupling_re = 0.6, 0.2, 0.2, 0.5\nquad_nodes = 40\n")
    parsed = load_config(str(cfg))
    assert parsed["r"] == 2 and parsed["shifts"] == [0.0, 0.3]
    code, out, _ = _run(["det", "--config", str(cfg), "--kind", "airy2",
                         "--route", "nystrom"], capsys)
    assert code == 0
    # flag overrides the file
    code, out2, _ = _run(["det", "--config", str(cfg), "--r", "1",
                          "--shifts", "0", "--coupling", "1",
                          "--kind", "airy2", "--route", "nystrom"], capsys)
    assert code == 0
    assert out != out2


def test_config_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n# a comment only\n   \nr = 2  # levels\n")
    assert load_config(str(cfg)) == {"r": 2}


def test_config_line_without_equals_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r 2\n")
    code, out, err = _run(["det", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", "error: malformed config line: r 2\n")


def test_config_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("r = 1\nshifts = 0.5\ncoupling_re = 0.8\n")
    monkeypatch.setenv("NCAIRY_CONFIG", str(cfg))
    code, out, _ = _run(["det", "--kind", "airy2", "--route", "nystrom"], capsys)
    assert code == 0


def test_bad_input_exit_two(capsys):
    code, _, err = _run(["det", "--r", "2", "--coupling", "1"], capsys)
    assert code == 2
    assert "error" in err
    code, _, _ = _run(["det", "--kind", "bogus"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv,msg", [
    (["--r", "2", "--shifts", "0,0.1,0.2", "--coupling", "1,0,0,1"], "shifts length"),
    (["--r", "1", "--coupling-im", "0.1,0.2"], "coupling-im length"),
], ids=["shifts", "coupling-im"])
def test_list_length_mismatch_exit_two(capsys, argv, msg):
    code, out, err = _run(["det", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {msg} does not match r")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exit_two(tmp_path, capsys, source):
    # a seed verify cannot use is bad input, not 32 failed checks
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    argv = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg)]
    code, out, err = _run(["verify", *argv], capsys)
    assert (code, out, err) == (2, "", "error: seed must be non-negative: -1\n")


@pytest.mark.parametrize("spaced,glued", [
    (["--coupling", "0.6,0.2,0.2,0.5", "--shifts", "-0.15,0.15"],
     ["--coupling", "0.6,0.2,0.2,0.5", "--shifts=-0.15,0.15"]),
    (["--coupling", "-0.5,0.1,0.1,-0.4", "--coupling-im", "-0,-0.1,0.1,0", "--shifts", "-0.2,0.1",
      "--route", "nystrom"],
     ["--coupling=-0.5,0.1,0.1,-0.4", "--coupling-im=-0,-0.1,0.1,0", "--shifts=-0.2,0.1",
      "--route", "nystrom"]),
])
def test_list_option_value_may_start_with_minus(capsys, spaced, glued):
    # argparse alone reads "-0.15,0.15" as an option name and exits 2
    code, out, err = _run(["det", "--r", "2", *spaced], capsys)
    assert code == 0, err
    code_eq, out_eq, _ = _run(["det", "--r", "2", *glued], capsys)
    assert code_eq == 0
    assert out == out_eq


# (RunConfig field, its flag, a value other than the default, the rest of the argv)
_FIELD_FLAG_CASES = [
    ("r", "--r", "2", ["det", "--route", "nystrom", "--coupling", "0.6,0.2,0.2,0.5"]),
    ("shifts", "--shifts", "-0.3", ["det", "--route", "nystrom"]),
    ("coupling_re", "--coupling", "0.8", ["det", "--route", "nystrom"]),
    ("coupling_im", "--coupling-im", "0.1", ["det", "--route", "nystrom"]),
    ("quad_nodes", "--nodes", "12", ["det", "--kind", "contour"]),
    ("hm_s0", "--s0", "3", ["hm-solve", "--from", "0", "--to", "1"]),
    ("output_format", "--format", "json", ["f2", "--from", "0", "--to", "1"]),
    ("seed", "--seed", "3", ["verify"]),
]


@pytest.mark.parametrize("key,flag,value,argv", _FIELD_FLAG_CASES,
                         ids=[c[0] for c in _FIELD_FLAG_CASES])
def test_flag_and_config_key_give_same_output(tmp_path, capsys, monkeypatch,
                                              key, flag, value, argv):
    # verify's only setting is the seed: one check that prints a draw stands in for the suite
    monkeypatch.setattr(verify, "CHECKS", [("draw", lambda rng: (True, f"{rng.random():.17g}"))])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    by_flag = _run([*argv, flag, value], capsys)
    by_file = _run([*argv, "--config", str(cfg)], capsys)
    assert by_flag == by_file and by_flag[0] == 0
    assert by_flag != _run(argv, capsys)


def test_every_flag_field_is_covered():
    parser_dests = {a.dest for a in cli._build_parser()._actions}
    flag_fields = [f.name for f in dataclasses.fields(RunConfig) if f.name in parser_dests]
    assert sorted(flag_fields) == sorted(c[0] for c in _FIELD_FLAG_CASES)


@pytest.mark.parametrize("key,flag", [("shifts", "--shifts"), ("coupling_re", "--coupling"),
                                      ("coupling_im", "--coupling-im")])
@pytest.mark.parametrize("value", ["0,", "1,,2", ""], ids=["trailing", "inner", "empty"])
def test_empty_list_item_exit_two(tmp_path, capsys, key, flag, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for argv in (["det", f"{flag}={value}"], ["det", "--config", str(cfg)]):
        code, out, err = _run(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: empty item in {key} list: {value}\n"


def test_det_routes_disagree_exit_one(capsys):
    # at c = 1, S = -4 the Nystrom value is unconverged and the routes
    # differ by more than the default tol
    code, out, _ = _run(["det", "--shifts=-4", "--kind", "airy2", "--route", "both"], capsys)
    assert code == 1
    assert out.startswith("kind,sign,route,")


@pytest.mark.parametrize("argv", [
    ["det", "--shifts=-6", "--kind", "airy2", "--route", "nystrom"],
    ["det", "--kind", "contour", "--coupling", "1.2", "--shifts=-1.2", "--sign", "-1",
     "--nodes", "60"],
], ids=["half_line", "contour"])
def test_det_unconverged_exit_one(capsys, argv):
    # the value still prints, with an error estimate above the 1e-10 refinement tol
    code, out, _ = _run(argv + ["--format", "json"], capsys)
    assert code == 1
    (rec,) = json.loads(out)
    assert rec["est_error"] > 1e-10


@pytest.mark.parametrize("tol", ["1e-12", "nan"])
def test_det_tol_below_floor_exit_two(capsys, tol):
    code, out, err = _run(["det", "--kind", "airy2", "--route", "both", "--tol", tol], capsys)
    assert code == 2 and out == ""
    assert "tolerance below 1e-10" in err


def test_det_contour_tol_below_floor_exit_two(capsys):
    code, out, err = _run(["det", "--kind", "contour", "--tol", "1e-12"], capsys)
    assert code == 2 and out == ""
    assert "tolerance below 1e-10" in err


@pytest.mark.parametrize("argv", [
    ["f2", "--step", "0"],
    ["f2", "--step", "-0.5"],
    ["scan", "--step", "0"],
    ["hm-solve", "--step", "nan"],
    ["hm-solve", "--from", "nan"],
], ids=["f2-zero", "f2-negative", "scan-zero", "hm-solve-nan", "hm-solve-from-nan"])
def test_table_step_exit_two(capsys, argv):
    code, out, err = _run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["f1", "--from", "1", "--to", "0"],
    ["f2", "--from", "1", "--to", "0"],
    ["hm-solve", "--from", "3", "--to", "1"],
    ["scan", "--coupling", "0.9", "--from", "0", "--to", "-1"],
], ids=["f1", "f2", "hm-solve", "scan"])
def test_table_reversed_range_exit_two(capsys, argv):
    code, out, err = _run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --to")


@pytest.mark.parametrize("command", ["f1", "f2", "hm-solve", "scan"])
def test_table_row_bound_exit_two(monkeypatch, capsys, command):
    # a lowered bound, so no test ever asks for an unbounded table
    monkeypatch.setattr(cli, "_MAX_ROWS", 4)
    argv = [command, "--from", "2", "--to", "3", "--step", "0.25"]   # 5 rows
    code, out, err = _run(argv, capsys)
    assert (code, out, err) == (2, "", "error: table of 5 rows exceeds 4\n")
    monkeypatch.setattr(cli, "_MAX_ROWS", 5)
    assert len(cli._points(cli._build_parser().parse_args(argv))) == 5


def test_table_equal_range_one_row(capsys):
    code, out, _ = _run(["f2", "--from", "0", "--to", "0"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["0.000000000000e+00,9.693728283554e-01"]


def test_hm_solve_nan_tail_start_exit_two(capsys):
    code, out, err = _run(["hm-solve", "--s0", "nan"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: tail start")


def test_hm_solve_tail_start_past_overflow_exit_two(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(["hm-solve", "--s0", "45", "--from", "44", "--to", "45",
                               "--step", "0.5"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: tail start S0 = 45 too large")
    code, out, _ = _run(["hm-solve", "--s0", "44", "--from", "44", "--to", "45",
                         "--step", "0.5"], capsys)
    assert code == 0 and len(out.splitlines()) == 4


def test_hm_solve_reports_pole_that_cuts_table(capsys):
    code, out, err = _run(["hm-solve", "--coupling", "1.5", "--from", "-3", "--to", "0",
                           "--step", "0.5"], capsys)
    assert code == 0
    rows = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert rows == [-0.5, 0.0]
    assert err.startswith("# pole at S = ") and err.endswith("\n")
    pole = float(err[len("# pole at S = "):])
    assert -1.0 < pole < -0.5 and err == f"# pole at S = {pole:.6f}\n"


def test_det_contour_painleve_route_exit_two(capsys):
    code, out, err = _run(["det", "--kind", "contour", "--route", "painleve"], capsys)
    assert code == 2 and out == ""
    assert err == "error: det --kind contour has no --route painleve\n"
    code, out, _ = _run(["det", "--kind", "contour", "--route", "nystrom"], capsys)
    assert code == 0 and out.startswith("kind,sign,re_value,")


def test_f2_above_grid_exit_two(capsys):
    code, out, err = _run(["f2", "--from", "18", "--to", "22", "--step", "1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: scalar distributions are supported for -8 <= x <= 20\n"


def test_hm_step_zero_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hm_step = 0\n")
    code, out, err = _run(["hm-solve", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: continuation step")


def test_config_output_format_checked_before_run(monkeypatch, tmp_path, capsys):
    def refuse(*a):
        raise AssertionError("command ran")

    monkeypatch.setitem(cli._COMMANDS, "det", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output_format = xml\n")
    code, out, err = _run(["det", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", "error: unknown output format: xml\n")


def test_out_in_missing_directory_exit_two(tmp_path, capsys):
    path = tmp_path / "nodir" / "x.csv"
    code, out, err = _run(["f2", "--from", "0", "--to", "0", "--out", str(path)], capsys)
    assert code == 2 and out == "" and not path.exists()
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_removed_cutoff_flag_exit_two(capsys):
    code, _, err = _run(["det", "--cutoff", "30"], capsys)
    assert code == 2
    assert "--cutoff" in err


@pytest.mark.parametrize("key", ["quad_cutoff", "hm_smax", "hm_tol"])
def test_removed_config_keys_exit_two(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 30\n")
    code, _, err = _run(["det", "--config", str(cfg)], capsys)
    assert code == 2
    assert f"unknown config key: {key}" in err


def test_config_method_name_exit_two(tmp_path, capsys):
    # RunConfig.coupling is a method, not a config key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coupling = 1\n")
    code, _, err = _run(["det", "--config", str(cfg)], capsys)
    assert code == 2
    assert "unknown config key: coupling" in err


def test_write_table_complex_csv():
    buf = io.StringIO()
    write_table([{"S": 1.0, "b": 0.5 - 0.25j}], "csv", buf)
    lines = buf.getvalue().split("\n")
    assert lines[0] == "S,re_b,im_b"
    cells = lines[1].split(",")
    assert float(cells[1]) == 0.5 and float(cells[2]) == -0.25


def test_write_table_complex_json():
    buf = io.StringIO()
    write_table([{"b": 0.5 - 0.25j, "n": 3}], "json", buf)
    rec = json.loads(buf.getvalue())[0]
    assert rec["b"] == {"re": 0.5, "im": -0.25}
    assert rec["n"] == 3


def test_write_table_unsigned_zero():
    rec = {"x": -0.0, "c": complex(-0.0, -0.0), "y": np.float64(-0.0)}
    buf = io.StringIO()
    write_table([rec], "csv", buf)
    assert buf.getvalue().split("\n")[1] == ",".join(["0.000000000000e+00"] * 4)
    buf = io.StringIO()
    write_table([rec], "json", buf)
    assert "-0" not in buf.getvalue()
    assert json.loads(buf.getvalue())[0] == {"x": 0.0, "c": {"re": 0.0, "im": 0.0}, "y": 0.0}


def test_hm_solve_output_independent_of_solve_order(monkeypatch, capsys):
    # a +C grid served as the negation of a cached -C grid flips the sign of
    # exact zeros (here the off-diagonal entries of C = diag(0.6, 0.5))
    monkeypatch.setattr(ncp2, "_GRID_CACHE", {})
    args = ["hm-solve", "--r", "2", "--shifts", "0,0.3", "--coupling", "0.6,0,0,0.5",
            "--from", "1", "--to", "2", "--step", "0.25"]
    fresh = _run(args, capsys)[1]
    ncp2._GRID_CACHE.clear()
    cfg = RunConfig(r=2, shifts=[0.0, 0.3], coupling_re=[0.6, 0.0, 0.0, 0.5])
    ncp2.hm_solve(cfg.coupling().negated(), cfg.shift_vector().delta, S_min=1.0)
    mirrored = _run(args, capsys)[1]
    assert len(ncp2._GRID_CACHE) == 2   # the +C grid came from the mirror
    assert fresh == mirrored


def test_hm_solve_opposite_signs_share_one_solve(fresh_cache, solve_counter, capsys):
    # a coupling typed with either sign has +0.0 imaginary parts, while the
    # negation of the other sign carries -0.0: the mirror must still be found
    args = ["hm-solve", "--r", "2", "--shifts", "0,0.3", "--from", "1", "--to", "2",
            "--step", "0.25"]
    assert _run(args + ["--coupling", "0.6,0.2,0.2,0.5"], capsys)[0] == 0
    assert _run(args + ["--coupling=-0.6,-0.2,-0.2,-0.5"], capsys)[0] == 0
    assert len(solve_counter) == 1


def test_det_table_shift_pattern_solves_once(fresh_cache, solve_counter, capsys):
    # S = -2 and S = 2 give byte-identical offsets, and the S = 2 row asks
    # for a shallower S_min: a slice of the S = -2 grid
    args = ["det", "--r", "2", "--coupling", "0.6,0.2,0.2,0.5", "--route", "painleve"]
    for shifts in ("-2.15,-1.85", "1.85,2.15"):
        assert _run(args + ["--shifts=" + shifts], capsys)[0] == 0
    assert len(solve_counter) == 1


def test_det_contour_honours_nodes(monkeypatch, capsys):
    seen = []
    real = cli.nystrom_det_contour

    def spy(*a, **k):
        seen.append(k["m_per_ray"])
        return real(*a, **k)

    monkeypatch.setattr(cli, "nystrom_det_contour", spy)
    code, _, _ = _run(["det", "--kind", "contour", "--nodes", "10"], capsys)
    assert code == 0 and seen == [10]


def test_verify_reports_failing_and_raising_checks(monkeypatch, capsys):
    def boom(rng):
        raise ValueError("broken check")

    monkeypatch.setattr(verify, "CHECKS", [("fails", lambda rng: (False, "off by 1")),
                                           ("raises", boom)])
    code, out, _ = _run(["verify"], capsys)
    assert code == 1
    assert out.splitlines() == ["FAIL fails (off by 1)",
                                "FAIL raises (raised ValueError: broken check)"]


def test_verify_out_writes_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(verify, "CHECKS", [("fails", lambda rng: (False, "off by 1"))])
    path = tmp_path / "verify.txt"
    code, out, err = _run(["verify", "--out", str(path)], capsys)
    assert (code, out, err) == (1, "", "")
    assert path.read_text() == "FAIL fails (off by 1)\n"


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.r == 1 and cfg.quad_nodes == 40 and cfg.hm_step == 1e-3
    assert cfg.output_format == "csv" and cfg.seed == 0
    assert cfg.shift_vector().r == 1
    assert cfg.coupling().entries.shape == (1, 1)


def test_scan_reports_samples(capsys):
    code, out, err = _run(["scan", "--coupling", "1.2", "--from", "-3",
                           "--to", "0", "--step", "0.25"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s,det"
    assert "zero crossing" in err


def test_scan_samples_table_rows(capsys):
    # the rows --from + k --step that f2 prints with the same flags, not a
    # linspace to --to
    flags = ["--coupling", "1", "--from", "0", "--to", "1", "--step", "0.3"]
    code, out, _ = _run(["scan", *flags], capsys)
    assert code == 0
    code, f2_out, _ = _run(["f2", *flags], capsys)
    assert code == 0
    scan_s = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert scan_s == [line.split(",")[0] for line in f2_out.splitlines()[1:]]
    assert [float(s) for s in scan_s] == pytest.approx([0.0, 0.3, 0.6, 0.9], abs=1e-12)


def test_verify_subset_passes(assert_checks):
    assert_checks("airy_wronskian")
