"""Run one benchmark workload in this process and print its raw measurements.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
READY once gpylab is imported and the inputs are generated, then (unless
--setup-only) runs passes over the items and prints one JSON line.

A pass calls every item once, with a calibration sample of the host's speed
before every item and after the last (run.calibrate).  Passes repeat while
the next one is expected to end within --seconds (at least one pass, or two
when traced, so that an untraced and a traced pass exist).  After the last
pass, the first pass's outputs are checked by an independent route (after,
so that the checks' memory stays out of the peak RSS); every later pass must
reproduce them exactly.  With --trace 1, passes alternate untraced and
traced, and the spans of the traced passes are written to perfbench/out/ at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from run import MODULES, calibrate


class Tracer:
    """Spans around the calls the benchmark makes into gpylab, kept in memory."""

    def __init__(self):
        self.on = False
        self.spans = []  # (id, name, start, end, parent id, item id)
        self._next = 0
        self._parent = None
        self._item = None

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        sid = self._next
        self._next += 1
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((sid, name, start, time.perf_counter(), self._parent, self._item))

    def item(self, kind, item_id, fn):
        if not self.on:
            return fn(self)
        sid = self._next
        self._next += 1
        self._parent, self._item = sid, item_id
        start = time.perf_counter()
        try:
            return fn(self)
        finally:
            self.spans.append((sid, f"item:{kind}", start, time.perf_counter(), None, item_id))
            self._parent = self._item = None


def run_pass(items, tracer, pass_no):
    """Call every item once; returns (wall, latencies, calibration, outputs, counts, errors).

    A calibration sample is taken before every item and after the last one,
    so each item lies between two samples of the host's current speed.
    """
    lat, cal, outs, errors = [], [], [], {}
    counts = {}
    start = time.perf_counter()
    for i, item in enumerate(items):
        cal.append(calibrate())
        t0 = time.perf_counter()
        try:
            out, c = tracer.item(item.kind, f"{pass_no}.{i}", item.run)
        except Exception:
            out, c = None, {}
            errors[i] = traceback.format_exc(limit=3)
        lat.append(time.perf_counter() - t0)
        outs.append(out)
        for k, v in c.items():
            counts[k] = counts.get(k, 0) + v
    cal.append(calibrate())
    return time.perf_counter() - start, lat, cal, outs, counts, errors


def check_first(items, outs, errors):
    """Independent checks of the first pass; returns {item index: problems}."""
    bad = {}
    for i, (item, out) in enumerate(zip(items, outs)):
        if i in errors:
            bad[i] = [errors[i]]
            continue
        try:
            problems = item.check(out)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc(limit=3)]
        if problems:
            bad[i] = problems
    return bad


def busy_by_span(spans):
    busy = {}
    for _, name, start, end, _, _ in spans:
        if not name.startswith("item:"):
            busy[name] = busy.get(name, 0.0) + (end - start)
    return busy


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="file for the spans of a traced run")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    import gpylab

    if not os.path.realpath(gpylab.__file__).startswith(src + os.sep):
        print(f"gpylab imported from {gpylab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    items = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    walls = {False: [], True: []}
    latencies = {False: [], True: []}  # per pass, per item
    cals = {False: [], True: []}       # per pass, one more than the items
    traced_busy = []
    counts = {}
    reference = None
    broken = []  # per pass: indices of items that raised or changed output
    pass_no, spent = 0, 0.0
    while True:
        traced = bool(args.trace) and pass_no % 2 == 1
        tracer.on = traced
        first_span = len(tracer.spans)
        wall, lat, cal, outs, counts, errors = run_pass(items, tracer, pass_no)
        tracer.on = False
        walls[traced].append(wall)
        latencies[traced].append(lat)
        cals[traced].append(cal)
        if traced:
            traced_busy.append(busy_by_span(tracer.spans[first_span:]))
        if reference is None:
            reference, first_errors = outs, errors
        broken.append({i for i in range(len(items)) if i in errors or outs[i] != reference[i]})
        pass_no += 1
        spent += wall
        median_pass = statistics.median(walls[False] + walls[True])
        if pass_no >= 1 + args.trace and spent + median_pass > args.seconds:
            break
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli-calls" else resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0

    bad = check_first(items, reference, first_errors)
    for i, problems in sorted(bad.items()):
        print(f"FAILED {items[i].kind} (item {i}): " + "; ".join(problems), file=sys.stderr)
    failed_by_module = dict.fromkeys(MODULES, 0)
    for pass_broken in broken:
        for i in set(bad) | pass_broken:
            failed_by_module[items[i].module] += 1
    failed = sum(failed_by_module.values())

    if args.trace and args.spans_out:
        os.makedirs(os.path.dirname(args.spans_out), exist_ok=True)
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "item"],
                       "spans": tracer.spans}, fh)

    busy = {}
    for name in {n for b in traced_busy for n in b}:
        busy[name] = statistics.median(b.get(name, 0.0) for b in traced_busy)
    import numpy
    import sympy

    result = {
        "passes": pass_no,
        "walls": walls[False],
        "traced_walls": walls[True],
        "latencies": latencies[False],
        "traced_latencies": latencies[True],
        "cal": cals[False],
        "traced_cal": cals[True],
        "peak_rss_mb": peak_rss_mb,
        "attempted": pass_no * len(items),
        "failed": failed,
        "failed_by_module": failed_by_module,
        "counts": counts,
        "busy": busy,
        "spans": len(tracer.spans),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "sympy": sympy.__version__, "gpylab": gpylab.__version__},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
