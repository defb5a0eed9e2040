"""Smoke test of the benchmark: every workload at tiny sizes, in about 20 s.

`run.py --smoke` checks that each workload reports every metric named in
BENCHMARK.json with its unit and that no item fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_reports_every_metric_and_no_failures():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "problems": 0}
