"""gpylab benchmark: one workload per run, each in fresh child processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gpy-moments --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The harness is standard library only.  Each run is a single-threaded closed
loop: one worker process (perfbench/worker.py) calls the items of the
workload one after another, with the BLAS/OpenMP pools pinned to one thread.
Set-up is timed on separate children that only import gpylab and generate the
inputs.  The last line of standard output is one JSON object: with --trace 0
its metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  The lines before it repeat every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gpy-moments", "exact-kernels", "progressions", "cli-calls")
MODULES = ("weights", "tuples", "combinat", "singular", "primes", "bv", "oracle", "sequences", "cli")
CLI_COMMANDS = ("primes", "tuple", "singular", "gpy", "combi", "oracle", "bv", "seq", "verify")
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7       # set-up timings per run, the main worker's included
START_SAMPLES = 5       # interpreter and import timings per traced run
DEADLINE_S = 170.0      # a run that is not done by then is abandoned
CAL_LOOPS = 100_000     # iterations of the calibration loop
CAL_COPY_BYTES = 16 << 20  # size of the buffer the calibration copies twice
CAL_REF_LOOP_S = 0.008  # the loop's time at the reference speed
CAL_REF_COPY_S = 0.0055  # the two copies' time at the reference speed

# Per-layer busy time: metric -> the span names it sums.
BUSY = {
    "weights.pair_sum_direct.busy_s": ("weights.pair_sum_direct",),
    "weights.pair_sum_theta.busy_s": ("weights.pair_sum_theta",),
    "weights.pair_sum_divisor.busy_s": ("weights.pair_sum_divisor",),
    "weights.detector_sum.busy_s": ("weights.detector_sum",),
    "tuples.regular_classes.busy_s": ("tuples.regular_classes",),
    "combinat.Z.busy_s": ("combinat.Z_sum", "combinat.Z_closed"),
    "combinat.coeff_A_sum.busy_s": ("combinat.coeff_A_sum",),
    "combinat.coeff_A_closed.busy_s": ("combinat.coeff_A_closed",),
    "combinat.coeff_ratio_check.busy_s": ("combinat.coeff_ratio_check",),
    "combinat.divisor_mean_check.busy_s": ("combinat.divisor_mean_check",),
    "singular.singular_series.busy_s": ("singular.singular_series", "singular.singular_series_extended"),
    "singular.average_B.busy_s": ("singular.average_B", "singular.s_star"),
    "singular.check_monotone.busy_s": ("singular.check_monotone",),
    "singular.quasiprime.busy_s": ("singular.quasiprime_density", "singular.quasiprime_count"),
    "primes.primes_upto.busy_s": ("primes.primes_upto",),
    "primes.sieve_range.busy_s": ("primes.sieve_range",),
    "primes.theta.busy_s": ("primes.theta_sum", "primes.theta_progression"),
    "primes.ap_error_star.busy_s": ("primes.ap_error_star",),
    "bv.bv_sum.busy_s": ("bv.bv_sum",),
    "bv.bv_sum_restricted.busy_s": ("bv.bv_sum_restricted",),
    "bv.estar_aggregate.busy_s": ("bv.estar_aggregate",),
    "oracle.main_term.busy_s": ("oracle.main_term_t4", "oracle.main_term_t5", "oracle.g00"),
    "oracle.verify_w_bounds.busy_s": ("oracle.verify_w_bounds",),
    "oracle.j_product.busy_s": ("oracle.j_product",),
    "sequences.generate_sequence.busy_s": ("sequences.generate_sequence",),
}
BUSY.update({f"cli.{c}.busy_s": (f"cli.{c}",) for c in CLI_COMMANDS})

# Exact work counts per pass, summed over the items of the pass.
COUNTS = (
    "weights.window_n", "weights.walk_items", "tuples.classes_out", "combinat.grid_points",
    "singular.ordered_subsets", "singular.histogram_ks", "primes.sieve_range.calls",
    "primes.primes_out", "bv.moduli", "oracle.w_points", "cli.calls",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in BUSY},
    **{name: "count" for name in COUNTS},
    **{f"{m}.failed": "count" for m in MODULES},
    **{f"{m}.share": "frac" for m in MODULES},
    "weights.route_agree_frac": "frac", "cli.interp_s": "s", "cli.import_s": "s",
    "ops_failed_frac": "frac", "call_tail.calls": "count", "call_tail.pct": "%",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "call_p50_s": "s", "call_tail_s": "s",
    "raw.setup_s": "s", "raw.wall_s": "s", "host.slowdown": "ratio",
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


_cal_buffers: list = []


def calibrate() -> float:
    """The host's current slowdown against the reference speed, on this CPU.

    The benchmark's host is a shared VM whose CPUs run up to 50% slower for
    seconds to minutes while a neighbour is busy.  Interpreter-bound code
    slows more than memory-bound code, so the probe times both a fixed
    pure-Python loop and two copies of a 16 MB buffer, each against its
    reference time, and returns the mean of the two ratios.  The buffers
    stay allocated (32 MB of the worker's RSS).
    """
    if not _cal_buffers:
        # Both bytearrays: a bytes source would be copied to a temporary first.
        _cal_buffers[:] = [bytearray(b"x" * CAL_COPY_BYTES), bytearray(CAL_COPY_BYTES)]
        calibrate()  # a cold first sample: faults the pages in, warms the loop
    src, dst = _cal_buffers
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    mid = time.perf_counter()
    dst[:] = src
    dst[:] = src
    end = time.perf_counter()
    return ((mid - start) / CAL_REF_LOOP_S + (end - mid) / CAL_REF_COPY_S) / 2.0


def at_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` rescaled to the reference speed by the slowdowns measured
    just before and just after them."""
    return seconds * 2.0 / (before + after)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({k: "1" for k in THREAD_PINS})
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark run exceeded its deadline")
    return left


def spawn_worker(argv: list, env: dict, deadline: float) -> tuple[float, float, str]:
    """Start a worker; returns (seconds until it printed READY, the same at
    the reference speed, rest of stdout)."""
    before = calibrate()
    start = time.perf_counter()
    # Own process group, so that a worker abandoned at the deadline is killed
    # together with any CLI call it has running.
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        ready = None
        while ready is None:
            if not select.select([proc.stdout], [], [], remaining(deadline))[0]:
                continue
            line = proc.stdout.readline()
            if line == "":
                raise RuntimeError(f"worker exited before set-up finished: {argv}")
            if line.strip() == "READY":
                ready = time.perf_counter() - start
                ready_ref = at_reference(ready, before, calibrate())
        out, _ = proc.communicate(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {argv}")
    return ready, ready_ref, out


def start_cost(env: dict, deadline: float, samples: int) -> tuple[float, float]:
    """Median seconds, at the reference speed, of a bare interpreter and of
    `import gpylab.cli` on top of it."""
    def median_run(code: str) -> float:
        times = []
        for _ in range(samples):
            before = calibrate()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           timeout=remaining(deadline))
            times.append(at_reference(time.perf_counter() - start, before, calibrate()))
        return statistics.median(times)

    interp = median_run("pass")
    return interp, median_run("import gpylab.cli") - interp


def pass_time(latencies: list) -> float:
    """One pass assembled from each item's median time over the passes given.

    With one pass this is that pass, with two the mean of the two.
    """
    return sum(statistics.median(col) for col in zip(*latencies))


def scaled(latencies: list, cals: list) -> list:
    """Item times of every pass at the reference speed."""
    return [[at_reference(t, cal[i], cal[i + 1]) for i, t in enumerate(lat)]
            for lat, cal in zip(latencies, cals)]


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten values beyond it.

    Below 21 values no percentile above the median has ten beyond it, and the
    maximum is reported instead.
    """
    s = sorted(values)
    if len(s) < 21:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn_worker(base + ["--seconds", "0", "--setup-only"] + (["--smoke"] if smoke else []),
                           env, deadline)[:2]
              for _ in range(1 if smoke else SETUP_SAMPLES - 1)]
    out_dir = os.path.join(HERE, "out")
    spans_out = os.path.join(out_dir, f"{workload}-seed{seed}.spans.json")
    argv = base + ["--seconds", str(seconds), "--trace", str(trace), "--spans-out", spans_out]
    ready, ready_ref, out = spawn_worker(argv + (["--smoke"] if smoke else []), env, deadline)
    setups.append((ready, ready_ref))
    raw = json.loads(out.strip().splitlines()[-1])

    lat = [x for row in scaled(raw["latencies"], raw["cal"]) for x in row]
    tail_value, tail_pct = tail(lat)
    e2e = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": pass_time(scaled(raw["latencies"], raw["cal"])),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    layer = {}
    if trace:
        busy, counts = raw["busy"], raw["counts"]
        traced_raw = pass_time(raw["traced_latencies"])
        traced_wall = pass_time(scaled(raw["traced_latencies"], raw["traced_cal"]))
        layer = {name: sum(busy.get(s, 0.0) for s in spans) for name, spans in BUSY.items()}
        layer.update({name: counts.get(name, 0) for name in COUNTS})
        pairs = counts.get("weights.route_pairs", 0)
        layer["weights.route_agree_frac"] = counts.get("weights.route_agree", 0) / pairs if pairs else 0.0
        layer.update({f"{m}.failed": raw["failed_by_module"][m] for m in MODULES})
        for m in MODULES:
            own = sum(v for k, v in busy.items() if k.split(".")[0] == m)
            layer[f"{m}.share"] = own / traced_raw
        layer["cli.interp_s"], layer["cli.import_s"] = start_cost(env, deadline, 1 if smoke else START_SAMPLES)
        layer.update({
            "ops_failed_frac": raw["failed"] / raw["attempted"],
            "call_p50_s": statistics.median(lat),
            "call_tail_s": tail_value,
            "call_tail.calls": len(lat),
            "call_tail.pct": tail_pct,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - e2e["wall_s"],
            "trace.spans": raw["spans"],
            "raw.setup_s": statistics.median(r for r, _ in setups),
            "raw.wall_s": pass_time(raw["latencies"]),
            "host.slowdown": statistics.median(c for cal in raw["cal"] for c in cal),
        })
    env_info = {"nproc": os.cpu_count(), **raw["versions"],
                "threads": {k: env[k] for k in THREAD_PINS}}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "env": env_info, "setup_samples": setups, "passes": raw["passes"], "walls": raw["walls"],
        "traced_walls": raw["traced_walls"], "latencies": raw["latencies"],
        "traced_latencies": raw["traced_latencies"], "cal": raw["cal"], "traced_cal": raw["traced_cal"],
        "attempted": raw["attempted"], "failed": raw["failed"],
        "end_to_end": e2e, "per_layer": layer,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(rec: dict) -> dict:
    """Print the record's metrics by name and unit; return the result line."""
    units = PER_LAYER_UNITS if rec["trace"] else E2E_UNITS
    metrics = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
    env = rec["env"]
    lat = [x for row in scaled(rec["latencies"], rec["cal"]) for x in row]
    print(f"{rec['workload']} seed={rec['seed']} passes={rec['passes']} "
          f"(untraced {len(rec['walls'])}, traced {len(rec['traced_walls'])})")
    print(f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"sympy={env['sympy']} threads=" + ",".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, value in metrics.items():
        print(f"  {name:38s} {value:.6g} {units[name]}")
    if not rec["trace"]:
        tail_value, tail_pct = tail(lat)
        print(f"  {'call_p50_s':38s} {statistics.median(lat):.6g} s")
        print(f"  {'call_tail_s':38s} {tail_value:.6g} s (p{tail_pct:.1f} of {len(lat)} calls)")
    print(f"  {'ops_failed':38s} {rec['failed']}/{rec['attempted']} items")
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced; checks names, units, failures."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {WORKLOADS}")
    for workload in WORKLOADS:
        # A traced run also measures the end-to-end metrics, on its untraced passes.
        rec = measure(workload, 1, 0, 1, smoke=True)
        line = report(rec)
        got = {0: {name: E2E_UNITS[name] for name in rec["end_to_end"]},
               1: {name: m["unit"] for name, m in line["metrics"].items()}}
        for trace in (0, 1):
            if got[trace] != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got[trace].items())}")
        if line["failed"] or not line["correct"]:
            problems.append(f"{workload}: {line['failed']} failed items")
    for p in problems:
        print("SMOKE FAILED:", p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, self-check")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gpylab", "__init__.py")):
        print("run from the root of a gpylab checkout: src/gpylab is missing", file=sys.stderr)
        return 2
    # One CPU for the harness and everything it starts, so that calibration
    # samples and the work they rescale run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        line = report(measure(name, args.seed, args.seconds, args.trace, smoke=False))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
