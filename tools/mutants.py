"""Run the registered mutation checks: every mutant must fail its tests, and
every known equivalent must pass them.

    python3 tools/mutants.py [NAME ...]   (default: every row)

Each row of MUTANTS and EQUIVALENTS gives a name, a file under src/, an
anchor that occurs exactly once in that file, its replacement, and the test
files (or pytest node ids) to run.  For each row the runner copies src/,
tests/ and demos/ into a temporary directory, applies the one edit there and
runs `python -m pytest -x -q -p no:cacheprovider FILES` in it, with that
copy's src/ first on PYTHONPATH.  It prints one line per row, `killed`,
`survived`, `anchor missing` or `error` (pytest could not run the tests),
then a summary.  The exit code is 1 if any mutant survives, any equivalent
is killed, or any row is missing its anchor or errs.  It needs only the
standard library and the test extras, and it is not part of Tier-1: it runs
the named test files once per row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A row that has not finished by then counts as killed: its tests did not pass.
TIMEOUT_S = 600

# (name, file, anchor, replacement, tests): each must be killed.
MUTANTS = [
    (
        "B_10 zeroed in the Euler-Maclaurin tail",
        "src/gpylab/oracle.py",
        "_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66)",
        "_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 0.0)",
        ["tests/test_oracle.py"],
    ),
    (
        "@lru_cache restored on a combinat helper",
        "src/gpylab/combinat.py",
        "def _rising(d: int, m: int) -> int:",
        '@__import__("functools").lru_cache(maxsize=4096)\ndef _rising(d: int, m: int) -> int:',
        ["tests/test_imports.py"],
    ),
    (
        "divisor work guard removed",
        "src/gpylab/weights.py",
        "    if lifts > MAX_DIVISOR_LIFTS:\n",
        "    if False:\n",
        ["tests/test_weights.py"],
    ),
    (
        "bezout bound at 2^23",
        "src/gpylab/weights.py",
        "    if u_max >= 2**22:\n",
        "    if u_max >= 2**23:\n",
        ["tests/test_weights.py"],
    ),
    (
        "`t *= q` dropped in residues",
        "src/gpylab/primes.py",
        "    t *= q\n",
        "",
        ["tests/test_primes.py"],
    ),
    (
        "gcd mask `per_x *= meets` dropped",
        "src/gpylab/weights.py",
        "    per_x *= meets\n",
        "",
        ["tests/test_weights.py"],
    ),
    (
        "_TINY_HI one too high",
        "src/gpylab/integers.py",
        "_TINY_HI = 1 << 8\n",
        "_TINY_HI = (1 << 8) + 1\n",
        ["tests/test_primes.py"],
    ),
    (
        "one prime missing from _TINY_PRIMES",
        "src/gpylab/integers.py",
        "    n for n in range(2, _TINY_HI) if all(",
        "    n for n in range(2, _TINY_HI) if n != 251 and all(",
        ["tests/test_primes.py"],
    ),
    (
        "small_primes stops at _TINY_HI",
        "src/gpylab/integers.py",
        "    out.extend(m for m in range(_TINY_HI, x + 1) if factorize(m) == {m: 1})\n",
        "",
        ["tests/test_tuples.py"],
    ),
    (
        "module-level numpy import in tuples",
        "src/gpylab/tuples.py",
        "from .errors import CapacityError, DomainError\n",
        "import numpy as np\n\nfrom .errors import CapacityError, DomainError\n",
        ["tests/test_cli.py::test_each_call_loads_only_its_subcommands_modules"],
    ),
    (
        "module-level numpy import in combinat",
        "src/gpylab/combinat.py",
        "from .errors import CapacityError, DomainError\n",
        "import numpy as np\n\nfrom .errors import CapacityError, DomainError\n",
        ["tests/test_imports.py"],
    ),
    (
        "TupleH truncates a non-integral shift",
        "src/gpylab/tuples.py",
        "            if v != h:\n",
        "            if False:\n",
        ["tests/test_tuples.py"],
    ),
    (
        "N >= 2^62 guard removed from _pair_counts",
        "src/gpylab/weights.py",
        "    if N >= 2**62:\n",
        "    if False:\n",
        ["tests/test_cli.py::test_capacity_error_exit_code"],
    ),
    (
        "window ceiling dropped from _window_ranges",
        "src/gpylab/weights.py",
        "    if 8 * N > prime_engine.MAX_TABLE_BYTES:\n",
        "    if False:\n",
        ["tests/test_weights.py"],
    ),
    (
        "cli._num reads through float",
        "src/gpylab/cli.py",
        "    try:\n        return int(text)\n",
        "    try:\n        return int(_real(text))\n",
        ["tests/test_cli.py"],
    ),
]

# (name, file, anchor, replacement, tests): each must survive, as it changes
# no value the tests can see.
EQUIVALENTS = [
    (
        # numpy's complex multiply may fuse operations, yet on the batch of
        # tests/test_oracle.py it gives the same bits as the float64 products.
        "numpy's complex multiply in _w_tail",
        "src/gpylab/oracle.py",
        "        tr += ar * br - ai * bi\n        ti += ar * bi + ai * br\n",
        "        z = (ar + 1j * ai) * (br + 1j * bi)\n        tr += z.real\n        ti += z.imag\n",
        ["tests/test_oracle.py"],
    ),
]


def run_row(file: str, anchor: str, replacement: str, tests: list) -> str:
    """The outcome of one edit: killed, survived, anchor missing or error."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for sub in ("src", "tests", "demos"):
            shutil.copytree(ROOT / sub, Path(tmp) / sub, ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / file
        text = path.read_text(encoding="utf-8")
        if text.count(anchor) != 1:
            return "anchor missing"
        path.write_text(text.replace(anchor, replacement), encoding="utf-8")
        paths = [str(Path(tmp) / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            code = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "killed"
    # pytest exits 0 when every test passed and 1 when some failed; any
    # other code means the tests did not run (a bad path, no tests collected).
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv: list) -> int:
    rows = [(row, "killed") for row in MUTANTS] + [(row, "survived") for row in EQUIVALENTS]
    if argv:
        unknown = set(argv) - {row[0] for row, _ in rows}
        if unknown:
            print(f"unknown rows: {sorted(unknown)}", file=sys.stderr)
            return 2
        rows = [(row, want) for row, want in rows if row[0] in argv]
    surprises = 0
    for (name, file, anchor, replacement, tests), want in rows:
        got = run_row(file, anchor, replacement, tests)
        kind = "mutant" if want == "killed" else "equivalent"
        mark = "ok" if got == want else "SURPRISE"
        surprises += got != want
        print(f"{mark:8} {kind:10} {got:14} {name}", flush=True)
    mutants = sum(want == "killed" for _, want in rows)
    print(f"{len(rows)} rows ({mutants} mutants, {len(rows) - mutants} equivalents): "
          f"{len(rows) - surprises} as registered, {surprises} surprises")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
