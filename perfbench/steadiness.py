#!/usr/bin/env python3
"""Measure how steady the benchmark is and record the evidence.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--out perfbench/steadiness.json]

Runs every workload --runs times through run.py, each run with another
--seed, and reports per end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: (q3 - q1) / median. A
metric is steady when its spread is below a third of its bound in
BENCHMARK.json (setup_s is exempt: only its median is compared). With --out,
the set is appended to the JSON file's "sets" list; that file is the
evidence the bounds rest on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    begin = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - begin
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, p.returncode))
    env = [l for l in lines if l.startswith("env:")]
    env += ["cpu_use=" + l.split("process CPU use in the windows ")[1].split()[0]
            for l in lines if "process CPU use in the windows " in l]
    return json.loads(lines[-1]), env, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"finished": "", "run_seconds": spec["run_seconds"], "runs": args.runs,
              "first_seed": args.first_seed, "workloads": {}}
    steady = True
    for w in names:
        values = {m: [] for m in bounds}
        probes, walls = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            out, env, wall = one_run(w, seed, spec["run_seconds"])
            walls.append(round(wall, 1))
            probes.append(" ".join(env))
            for m in bounds:
                values[m].append(out["metrics"][m]["value"])
            cpu = [t for l in env for t in l.split() if t.startswith("cpu_")]
            print("%s seed %d: %s (%.0f s, %s)" % (w, seed, "  ".join(
                "%s=%.4g" % (m, out["metrics"][m]["value"]) for m in bounds), wall, " ".join(cpu)),
                flush=True)
        rows = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady = steady and ok
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                       "bound": bounds[m], "steady": ok, "values": vs}
            print("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  bound %.2f %s" % (
                m, med, q1, q3, spread, bounds[m], "ok" if ok else "NOT STEADY"), flush=True)
        record["workloads"][w] = {"metrics": rows, "run_wall_s": walls, "env": probes}
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record["steady"] = steady
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                sets = json.load(f)["sets"]
        with open(args.out, "w") as f:
            json.dump({"sets": sets + [record]}, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
