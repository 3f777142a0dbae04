#!/usr/bin/env python3
"""Host-time benchmark of the Cereal simulator.

  python3 hostbench/run.py --workload micro_sd|accel_sweep|cluster_dataflow
                           [--seed N] [--seconds S] [--trace 0|1]
  python3 hostbench/run.py --workload all [--seed N] [--seconds S]

Builds the driver from source (into .bench_build/hostbench), then runs
it repeatedly, each time in a fresh process, until --seconds have
passed and at least a few runs are in. Every run sets up from cold and
checks its outputs. Prints the medians over runs as the last line, one
JSON object:

  --trace 0: wall_s, setup_s, peak_rss_mb (the end-to-end metrics)
  --trace 1: the per-layer metrics, from runs that record the driver's
             spans, interleaved with untraced runs for the overhead

`correct` is false if any check failed, any run failed, or two runs
disagreed on a simulated value. `--workload all` prints every workload's
end-to-end metrics, failed_frac and ops as a table instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
DRIVER = os.path.join(BUILD, "hostbench")
WORKLOADS = ("micro_sd", "accel_sweep", "cluster_dataflow")
MIN_RUNS = 3
# With --trace 1: at least this many traced and as many untraced runs.
MIN_TRACED_RUNS = 2
RUN_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Per-layer host times: the driver's span (self time) for each, and
# whether it falls in the timed phase (else in set-up).
LAYER_TIMES = (
    ("heap.build_s", "heap.build", False),
    ("heap.verify_s", "heap.verify", True),
    ("serde.ser_s", "serde.ser", True),
    ("serde.deser_s", "serde.deser", True),
    ("harness.online_s", "harness.online", True),
    ("cpu.replay_s", "cpu.replay", True),
    ("cereal.pack_s", "cereal.pack", True),
    ("cereal.unpack_s", "cereal.unpack", True),
    ("cereal.accel.ser_s", "cereal.accel.ser", True),
    ("cereal.accel.deser_s", "cereal.accel.deser", True),
    ("cluster.profile_s", "cluster.profile", False),
    ("cluster.serving_s", "cluster.serving", True),
    ("cluster.shuffle_s", "cluster.shuffle", True),
    ("dataflow.run_s", "dataflow.run", True),
)

# Simulated values and counts, exact and identical on every run.
LAYER_COUNTS = (
    ("heap.objects", "count"),
    ("serde.stream_bytes", "B"),
    ("serde.narration_events", "count"),
    ("cpu.sim_instructions", "count"),
    ("cpu.sim_llc_accesses", "count"),
    ("cpu.sim_dram_bytes", "B"),
    ("cereal.stream_bytes", "B"),
    ("cereal.accel.sim_ser_s", "s"),
    ("cereal.accel.sim_deser_s", "s"),
    ("cereal.accel.su_busy_s", "s"),
    ("cereal.accel.du_busy_s", "s"),
    ("cluster.requests", "count"),
    ("cluster.dropped", "count"),
    ("cluster.sim_p99_ms", "ms"),
    ("cluster.sim_goodput_rps", "1/s"),
    ("dataflow.records", "count"),
    ("dataflow.sim_completion_s", "s"),
    ("dataflow.wire_bytes", "B"),
)

# Host time per unit of work: (metric, time metric, count metric).
LAYER_RATES = (
    ("cpu.ns_per_event", "cpu.replay_s", "serde.narration_events"),
    ("cluster.ns_per_request", "cluster.serving_s", "cluster.requests"),
    ("dataflow.ns_per_record", "dataflow.run_s", "dataflow.records"),
)


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver up to date."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources under {ROOT}/src; cannot build")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "hostbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, traced, index):
    """One fresh driver process; returns its result or None."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if traced:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(spans_dir, f"{workload}-s{seed}-r{index}.json")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} run {index} timed out")
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(f"{workload} run {index} exited {p.returncode}")
        return None
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Run until @seconds have passed; returns (untraced, traced, ok)."""
    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        # With tracing, alternate so both kinds see the same conditions.
        want_traced = trace and index % 2 == 1
        r = run_once(workload, seed, want_traced, index)
        index += 1
        if r is None:
            return untraced, traced, False
        (traced if want_traced else untraced).append(r)
        if trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_RUNS
        else:
            enough = len(untraced) >= MIN_RUNS
        if enough and time.monotonic() >= deadline:
            return untraced, traced, True


def agree(a, b):
    """Two runs' simulated values agree on every key both report."""
    return all(a[k] == b[k] for k in a.keys() & b.keys())


def median(rs, key):
    return statistics.median(r[key] for r in rs)


def end_to_end_metrics(untraced):
    return {name: {"value": median(untraced, name), "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(untraced, traced):
    wall = median(untraced, "wall_s")
    out = {}
    for name, span, _ in LAYER_TIMES:
        out[name] = {"value": statistics.median(
            r["layers"].get(span, 0.0) for r in traced), "unit": "s"}
    counts = traced[0]["counts"]
    for name, unit in LAYER_COUNTS:
        out[name] = {"value": counts.get(name, 0), "unit": unit}
    for name, t, n in LAYER_RATES:
        events = out[n]["value"]
        out[name] = {"value": out[t]["value"] * 1e9 / events if events
                     else 0.0, "unit": "ns"}
    out["trace.overhead_frac"] = {
        "value": median(traced, "wall_s") / wall - 1, "unit": "ratio"}
    layer_sum = statistics.median(
        sum(r["layers"].get(span, 0.0) for _, span, timed in LAYER_TIMES
            if timed)
        for r in traced)
    out["trace.layer_sum_frac"] = {"value": layer_sum / wall,
                                   "unit": "ratio"}
    return out


def result(workload, seed, seconds, trace):
    untraced, traced, ok = measure(workload, seed, seconds, trace)
    runs = untraced + traced
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Untraced runs time the harness calls, traced runs the per-layer
    # split of the same work; both must compute the same values.
    refs = [rs[0] for rs in (untraced, traced) if rs]
    same = all(agree(r["counts"], ref["counts"]) and
               r["points"] == ref["points"] for r in runs for ref in refs)
    if not same:
        log(f"{workload}: runs disagree on simulated values")
    correct = ok and failed == 0 and attempted > 0 and same
    if not ok:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "metrics": {}}
    metrics = (per_layer_metrics(untraced, traced) if trace
               else end_to_end_metrics(untraced))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        r = result(args.workload, args.seed, args.seconds, args.trace == 1)
        print(json.dumps(r))
        return 0 if r["metrics"] else 1

    print(f"{'workload':<17} {'wall_s':>9} {'setup_s':>9} "
          f"{'peak_rss_mb':>12} {'failed_frac':>12} {'ops':>6}")
    for w in WORKLOADS:
        r = result(w, args.seed, args.seconds, False)
        m = r["metrics"]
        if not m:
            print(f"{w:<17} run failed", flush=True)
            continue
        print(f"{w:<17} {m['wall_s']['value']:>9.4f} "
              f"{m['setup_s']['value']:>9.4f} "
              f"{m['peak_rss_mb']['value']:>12.1f} "
              f"{r['failed'] / r['attempted']:>12.4f} {r['attempted']:>6}",
              flush=True)
    print("units: wall_s s, setup_s s, peak_rss_mb MiB, failed_frac ratio, "
          "ops count")
    return 0


if __name__ == "__main__":
    sys.exit(main())
