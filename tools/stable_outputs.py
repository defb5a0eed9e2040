"""Digest the --stable output of every reference CLI call.

    python3 tools/stable_outputs.py [--against DIR] [SEED ...]   (default seeds: 7 1001)

The calls are the INVOCATIONS of tests/test_cli.py, then the cli_calls of
perfbench/workloads.py at each seed.  Each runs as `python -m gpylab.cli
ARGV --stable` against this checkout's src/, and prints one line: the
sha256 of its standard output, its exit code and its argv.  Run it in two
checkouts and diff the two listings; a line that differs marks a call
whose output changed.

With --against DIR, each call also runs against DIR/src (another checkout
of this repository).  For each call whose output differs, an indented line
follows with the other checkout's digest, the largest relative difference
over the numeric leaves of the two JSON payloads, and the leaves found in
only one of them.  The last line gives the number of calls whose output or
exit code differs, and the exit code is 1 if there is any, so the
comparison can serve as a gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def run_call(src: Path, argv: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "gpylab.cli", *argv, "--stable"],
        capture_output=True, env=env, timeout=600,
    )


def digest(proc: subprocess.CompletedProcess) -> str:
    return f"{hashlib.sha256(proc.stdout).hexdigest()}  exit={proc.returncode}"


def leaves(node, path: str = "") -> dict:
    """Each scalar of a JSON value by its path, e.g. "params.N" or "terms.3"."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{path}.{key}" if path else str(key)))
    return out


def compare(ours: bytes, theirs: bytes) -> str:
    """The largest relative difference over numeric leaves, other leaves that
    differ, and the leaves only one payload has."""
    try:
        a, b = leaves(json.loads(ours)), leaves(json.loads(theirs))
    except json.JSONDecodeError:
        return "no JSON payload on one side"
    worst, where, other = 0.0, None, []
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        if x == y:
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numeric:
            other.append(key)
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        if rel > worst:
            worst, where = rel, key
    parts = [f"max rel diff {worst:.3g} at {where}" if where else "no numeric leaf differs"]
    if other:
        parts.append(f"non-numeric leaves differ: {', '.join(other)}")
    if a.keys() - b.keys():
        parts.append(f"only here: {', '.join(sorted(a.keys() - b.keys()))}")
    if b.keys() - a.keys():
        parts.append(f"only there: {', '.join(sorted(b.keys() - a.keys()))}")
    return "; ".join(parts)


def main(seeds: list, against: Path | None) -> int:
    """Print the listing; return the number of calls that differ from `against`."""
    argvs = list(test_cli.INVOCATIONS.values())
    for seed in seeds:
        argvs += workload_argvs(seed)
    differ = 0
    for argv in argvs:
        proc = run_call(SRC, argv)
        print(f"{digest(proc)}  {' '.join(argv)}", flush=True)
        if against is None:
            continue
        other = run_call(against / "src", argv)
        if other.stdout != proc.stdout or other.returncode != proc.returncode:
            differ += 1
            print(f"    against {digest(other)}: {compare(proc.stdout, other.stdout)}", flush=True)
    if against is not None:
        print(f"{differ} of {len(argvs)} calls differ from {against}")
    return differ


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout whose outputs to compare with")
    parser.add_argument("seeds", nargs="*", type=int, default=[7, 1001])
    args = parser.parse_args()
    sys.exit(1 if main(args.seeds, args.against) else 0)
