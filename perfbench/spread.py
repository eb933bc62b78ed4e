#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarize the spread.

    python3 perfbench/spread.py --runs 10 --seconds 10 [--trace 0] [--first-seed 1] [workload ...]

Each run uses its own seed. For every metric the summary gives the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread: the distance between the quartiles as a share of the median. With
--trace 0 the spread is compared with a third of the metric's bound in
BENCHMARK.json. The summary, the environment every run recorded and the raw
results are written to .bench_build/spread-<workload>-trace<t>.json, so that
figures from different hosts are never compared without their environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("spread.py: %s exited %d" % (" ".join(cmd), done.returncode))
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return env, json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        envs, results = [], []
        for i in range(args.runs):
            env, res = run_once(w, args.first_seed + i, seconds, args.trace)
            envs.append(env)
            results.append(res)
            if not res["correct"] or res["failed"]:
                ok = False
        names = sorted(results[0]["metrics"])
        summary = {}
        print("%s (%d runs, %ds, trace %d)" % (w, args.runs, seconds, args.trace))
        for n in names:
            s = summarize([r["metrics"][n]["value"] for r in results])
            s["unit"] = results[0]["metrics"][n]["unit"]
            summary[n] = s
            bound = bounds.get(n) if args.trace == 0 else None
            flag = ""
            if bound is not None and n != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- above bound/3 (%.3f)" % (bound / 3)
            print("  %-34s median %14.4f %-6s q1 %14.4f q3 %14.4f spread %.4f%s"
                  % (n, s["median"], s["unit"], s["q1"], s["q3"], s["spread"], flag))
        out = os.path.join(ROOT, ".bench_build", "spread-%s-trace%d.json" % (w, args.trace))
        with open(out, "w") as f:
            json.dump({"workload": w, "seconds": seconds, "trace": args.trace,
                       "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
                       "environments": envs, "summary": summary, "results": results}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
