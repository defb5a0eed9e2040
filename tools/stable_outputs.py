"""Digest the --stable output of every reference CLI call.

    python3 tools/stable_outputs.py [SEED ...]     (default seeds: 7 1001)

The calls are the INVOCATIONS of tests/test_cli.py, then the cli_calls of
perfbench/workloads.py at each seed.  Each runs as `python -m gpylab.cli
ARGV --stable` against this checkout's src/, and prints one line: the
sha256 of its standard output, its exit code and its argv.  Run it in two
checkouts and diff the two listings; a line that differs marks a call
whose output changed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(ROOT / "perfbench")]

import test_cli  # noqa: E402
import workloads  # noqa: E402


def workload_argvs(seed: int) -> list:
    """The argv of each cli_calls item at `seed`, in workload order."""
    # cli_calls wraps each argv with _cli_item; keep the argv instead.
    make_item = workloads._cli_item
    workloads._cli_item = lambda command, argv, check: argv
    try:
        return workloads.cli_calls(seed, False)
    finally:
        workloads._cli_item = make_item


def digest(argv: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "gpylab.cli", *argv, "--stable"],
        capture_output=True, env=env, timeout=600,
    )
    sha = hashlib.sha256(proc.stdout).hexdigest()
    return f"{sha}  exit={proc.returncode}  {' '.join(argv)}"


def main(seeds: list) -> None:
    argvs = list(test_cli.INVOCATIONS.values())
    for seed in seeds:
        argvs += workload_argvs(seed)
    for argv in argvs:
        print(digest(argv), flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [7, 1001])
