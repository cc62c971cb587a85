"""Run the benchmark once per seed, in one or more sets, and write a
baseline file in the format of BENCH_84281d5.json.

    python3 perfbench/collect.py --sets 2 --seeds 0-9 \\
        --out .perfbench-work/BENCH_mylabel.json

Each run is a separate untraced `perfbench/run.py` process with the
run_seconds of BENCHMARK.json, started after the previous one ended. A set
runs every workload over every seed; the sets run one after the other. For
every workload and end-to-end metric the file holds, per set, the values,
their median and quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. With two or more
sets it also holds median_shift, the last set's median over the first's,
minus one. Each metric carries its unit, direction and bound from
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def run_once(workload, seed, seconds):
    """One benchmark process; returns (result, environment, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[0])["environment"], wall


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None,
                   help="comma list; defaults to the workloads of BENCHMARK.json")
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,5,7919")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    declared = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    results = {w: [] for w in names}  # per workload: one list of runs per set
    walls = {w: [] for w in names}
    environment = {}
    for index in range(args.sets):
        for workload in names:
            runs, set_walls = [], []
            for seed in seeds:
                result, environment[workload], wall = run_once(workload, seed, seconds)
                runs.append(result)
                set_walls.append(wall)
                print(f"set {index + 1} {workload} seed={seed} wall={wall:.1f}s "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            results[workload].append(runs)
            walls[workload].append(set_walls)

    out = {"commit": environment[names[0]]["git_commit"],
           "made_with": "python3 perfbench/collect.py " + " ".join(
               sys.argv[1:] if argv is None else argv),
           "default_seed": run.DEFAULT_SEED, "held_out_seed": run.HELD_OUT_SEED,
           "note": ("spread = (q3 - q1) / median over the runs of one set "
                    "(statistics.quantiles, n=4); median_shift = last set "
                    "median / first set median - 1"),
           "workloads": {}}
    for workload in names:
        sets = results[workload]
        end_to_end = {}
        for name in sets[0][0]["metrics"]:
            metric = {key: declared[name][key] for key in ("unit", "better", "bound")}
            metric["sets"] = [summarize([r["metrics"][name]["value"] for r in runs])
                              for runs in sets]
            medians = [s["median"] for s in metric["sets"]]
            if len(medians) > 1:
                metric["median_shift"] = medians[-1] / medians[0] - 1
            end_to_end[name] = metric
            worst = max(s["spread"] for s in metric["sets"])
            shift = metric.get("median_shift", 0.0)
            flags = "" if worst <= metric["bound"] else "  SPREAD>BOUND"
            flags += "" if shift <= metric["bound"] else "  SHIFT>BOUND"
            print(f"{workload:<11}{name:<12} bound {metric['bound']:.2f} "
                  + " | ".join(f"median {s['median']:.5g} spread {s['spread']:.3f}"
                               for s in metric["sets"])
                  + f" shift {shift:+.3f}{flags}")
        out["workloads"][workload] = {
            "why": workloads.WORKLOADS[workload].why, "run_seconds": seconds,
            "environment": environment[workload],
            "attempted": [sum(r["attempted"] for r in runs) for runs in sets],
            "failed": [sum(r["failed"] for r in runs) for runs in sets],
            "run_wall_s": walls[workload], "end_to_end": end_to_end}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
