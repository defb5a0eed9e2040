"""Shift-set families and the command-line driver.

The sieve machinery applies to any shift set, not just dense intervals:
sparse sets (geometric powers, powers with structured exponents) are
interesting as long as their counting function beats the
sqrt(log N) (log log N)^2 threshold.  Every library operation is also
reachable from the `gpylab` command-line driver.
"""

import json
import tempfile
from pathlib import Path

from gpylab.cli import main as cli_main
from gpylab.sequences import density_threshold, generate_sequence

N = 10**6
print(f"density threshold at N=10^6: {density_threshold(N):.2f}")
for kind, kw in (("interval", {"h": 8}), ("powers_k", {"k": 3}),
                 ("powers_k_sum_two_squares", {"k": 2})):
    vals = generate_sequence(kind, N, **kw)
    print(f"  {kind:>26}: {len(vals):>3} elements, head {vals[:6]}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.json"
    code = cli_main(["singular", "value", "--shifts", "0,2", "--cutoff", "1e5",
                     "--stable", "--out", str(out)])
    payload = json.loads(out.read_text())
    print(f"\nCLI run exit={code}: S({{0,2}}) mid={payload['mid']:.8f} "
          f"rad={payload['rad']:.1e}")
print("\n(see `gpylab --help` for the full subcommand surface)")
