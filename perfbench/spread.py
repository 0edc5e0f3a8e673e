#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads compile,dse --seeds 1-10 [--out FILE]

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4).  Run from the repository
root.  --out writes the medians and quartiles as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="compile,dse,analyze,timeline")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for s in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {s}: {res['failed']} of {res['attempted']} failed")
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        summary[w] = {}
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{w:9} {name:24} median {med:<14.6g} spread {spread:7.4f} "
                  f"bound {bound}{flag}")
            print("          runs: " + " ".join(f"{v:.5g}" for v in vals))
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
