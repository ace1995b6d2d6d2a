#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs perfbench/run.sh on each workload once per seed, then reports for
each end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, against the metric's bound in
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steady.py --seeds 101-110 --out perfbench/steadiness/set-a.json

The JSON record holds every run's metrics, so two records of the same
code can be compared with --compare A.json B.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.time() - t0
    return out


def summarize(runs, bench):
    rows = []
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        if len(vals) > 1:
            q1, med, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = med = q3 = vals[0]
        spread = (q3 - q1) / med if med else 0.0
        rows.append({"metric": m["name"], "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": m["bound"], "values": vals})
    return rows


def print_table(workload, rows):
    print(f"\n{workload}")
    print(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for r in rows:
        flag = "" if r["spread"] <= r["bound"] / 3 else "  (over a third of the bound)"
        print(f"  {r['metric']:20} {r['median']:12.5g} {r['q1']:12.5g} {r['q3']:12.5g} "
              f"{r['spread']:8.4f} {r['bound']:6.2f}{flag}")


def compare(a_path, b_path, bench):
    a, b = json.load(open(a_path)), json.load(open(b_path))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in a["workloads"]:
        for ra, rb in zip(a["workloads"][w]["summary"], b["workloads"][w]["summary"]):
            m = bounds[ra["metric"]]
            worse = (rb["median"] - ra["median"]) / ra["median"] if ra["median"] else 0.0
            if m["better"] == "higher":
                worse = -worse
            bad = worse > m["bound"]
            ok &= not bad
            print(f"{w:14} {ra['metric']:20} {ra['median']:12.5g} {rb['median']:12.5g} "
                  f"worse by {worse:+.4f} (bound {m['bound']}){'  FAIL' if bad else ''}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"))
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", default="", help="write the JSON record here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records' medians")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    if args.compare:
        sys.exit(0 if compare(*args.compare, bench) else 1)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    record = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for w in names:
        runs = [run_once(w, s, bench["run_seconds"], 0) for s in args.seeds]
        rows = summarize(runs, bench)
        record["workloads"][w] = {"runs": runs, "summary": rows}
        print_table(w, rows)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
