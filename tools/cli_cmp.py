"""Run the CLI comparison set against two source trees and list the runs that differ.

Usage: python tools/cli_cmp.py OLD_TREE NEW_TREE

Each non-comment line of tools/cli_runs.txt is one ``ncairy`` argv (shell
quoting).  It runs as ``python -m ncairy ARGV`` with ``TREE/src`` on
PYTHONPATH and NCAIRY_CONFIG unset, in a fresh directory that holds a copy of
tools/cli_configs, so ``--config`` and ``--out`` take plain file names.  A
run differs when its stdout, stderr, exit code or any file it writes differs
between the trees.  Every differing line of such a stream is printed, with
None for a line one side lacks.  Exit status: 0 when every run matches, 1
otherwise.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "cli_configs"


def load_runs(path: Path = HERE / "cli_runs.txt") -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def run(tree: Path, argv: list[str]) -> dict:
    """stdout, stderr, exit code and written files of one run against one tree."""
    env = {k: v for k, v in os.environ.items() if k != "NCAIRY_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(CONFIGS, tmp, dirs_exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "ncairy", *argv], cwd=tmp, env=env,
                              capture_output=True, timeout=600)
        written = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())
                   if not (CONFIGS / p.name).exists()}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode,
            "files": written}


def _lines(value) -> list[str]:
    if isinstance(value, dict):
        return [f"{name}: {line}" for name, data in value.items() for line in _lines(data)]
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace").splitlines()
    return [str(value)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    runs = load_runs()
    differ = 0
    for args in runs:
        a, b = run(old, args), run(new, args)
        parts = [k for k in a if a[k] != b[k]]
        if parts:
            differ += 1
            print(f"DIFF ({', '.join(parts)}): {shlex.join(args)}")
            for k in parts:
                pairs = zip_longest(_lines(a[k]), _lines(b[k]))
                for i, (x, y) in enumerate(pairs):
                    if x != y:
                        print(f"  {k} line {i + 1}:\n    old {x!r}\n    new {y!r}")
    print(f"{len(runs)} runs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
