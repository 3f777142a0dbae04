#!/usr/bin/env python3
"""Check that the benchmark driver runs the same simulation as the benches.

For each workload, the driver's simulated results (every value under
"points" in its JSON line) must equal, value for value, what the bench
that emits the same point writes to its JSON at the same scale and seed:

  micro_sd          seed 42   bench_fig10_micro_speedup (every point)
  accel_sweep       seed 42   bench_abl_mai (every point)
  cluster_dataflow  seed 1    bench_serving_knee ctl-u50/u200 points,
                              bench_cluster_shuffle shuffle points
  cluster_dataflow  seed 7    bench_dataflow base-job points

Each workload runs twice, untraced (the calls run.py times for the
end-to-end metrics) and traced (the per-layer split). Both runs must
pass all their correctness checks and report identical simulated values,
and every bench runs afresh, so nothing is compared with an older build.

  check_sim.py --driver BUILD/hostbench --bench-dir BUILD --work-dir DIR
"""

import argparse
import json
import os
import subprocess
import sys

# (workload, seed, benches compared on that run)
RUNS = [
    ("micro_sd", 42, ["fig10_micro_speedup"]),
    ("accel_sweep", 42, ["abl_mai"]),
    ("cluster_dataflow", 1, ["serving_knee", "cluster_shuffle"]),
    ("cluster_dataflow", 7, ["dataflow"]),
]

# Driver points with no counterpart in the bench's sweep.
UNMATCHED_OK = {"serving_knee": {"java-ctl-u100", "cereal-ctl-u100"}}


def run_driver(args, workload, seed, traced):
    cmd = [args.driver, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace-out", os.path.join(
            args.work_dir, f"spans_{workload}_{seed}.json")]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_bench(args, bench):
    path = os.path.join(args.work_dir, f"BENCH_{bench}.json")
    subprocess.run(
        [os.path.join(args.bench_dir, f"bench_{bench}"), "--threads", "2",
         "--json", path],
        check=True, stdout=subprocess.DEVNULL)
    with open(path) as f:
        return {p["name"]: p for p in json.load(f)["points"]}


def diff(got, want, where):
    """Every value the driver wrote must equal the bench's value."""
    if isinstance(got, dict):
        if not isinstance(want, dict):
            return [f"{where}: bench has no object"]
        out = []
        for k, v in got.items():
            if k not in want:
                out.append(f"{where}.{k}: missing from bench")
            else:
                out.extend(diff(v, want[k], f"{where}.{k}"))
        return out
    if isinstance(got, list):
        if not isinstance(want, list) or len(got) != len(want):
            return [f"{where}: list differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(diff(g, w, f"{where}[{i}]"))
        return out
    return [] if got == want else [f"{where}: driver {got!r} != bench {want!r}"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--driver", required=True)
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    os.makedirs(args.work_dir, exist_ok=True)

    problems = []
    compared = 0
    for workload, seed, benches in RUNS:
        untraced = run_driver(args, workload, seed, False)
        traced = run_driver(args, workload, seed, True)
        label = f"{workload} seed {seed}"
        for r in (untraced, traced):
            if r["failed"] != 0 or r["ops"] == 0:
                problems.append(f"{label}: {r['failed']} of {r['ops']} "
                                "checks failed")
        common = untraced["counts"].keys() & traced["counts"].keys()
        if (untraced["points"] != traced["points"] or
                any(untraced["counts"][k] != traced["counts"][k]
                    for k in common)):
            problems.append(f"{label}: untraced and traced runs disagree on "
                            "simulated values")
        for bench in benches:
            want = run_bench(args, bench)
            points = untraced["points"].get(bench, {})
            if not points:
                problems.append(f"{label}: driver wrote no {bench} points")
            for name, got in points.items():
                if name not in want:
                    if name not in UNMATCHED_OK.get(bench, set()):
                        problems.append(f"{bench}/{name}: not in bench")
                    continue
                problems.extend(diff(got, want[name], f"{bench}/{name}"))
                compared += 1

    for p in problems:
        print("MISMATCH", p)
    print(f"{compared} points compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
