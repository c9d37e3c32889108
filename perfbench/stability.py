#!/usr/bin/env python3
"""Stability study for the repository benchmark.

Runs each workload once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the spread (interquartile
range as a share of the median) next to the bound BENCHMARK.json fixes.
Run from the repository root:

    python3 perfbench/stability.py --seeds 1-10 [--workloads grid,sweepd]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    secs = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for w in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(secs), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {s}: incorrect: {res}", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{w} ({len(seeds(args.seeds))} seeds, {secs} s each)")
        print(f"| metric | median | q1 | q3 | spread | bound |")
        print(f"|---|---|---|---|---|---|")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            mark = "" if spread < m["bound"] / 3 else " (over bound/3)" if spread <= m["bound"] else " (OVER BOUND)"
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f}{mark} | {m['bound']} |")
        for m in bench["end_to_end"]:
            print(f"  {m['name']}: " + " ".join(f"{x:.4g}" for x in values[m["name"]]))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
