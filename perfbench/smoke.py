#!/usr/bin/env python3
"""Short-run smoke test of the benchmark, run by `dune runtest`.

    python3 smoke.py MAIN_EXE BENCHMARK_JSON CORPUS_DIR

Checks, on a few small programs:
  * every workload prints a result line with exactly the end-to-end
    metrics of BENCHMARK.json (units included), all operations correct;
  * --workload all prints the 16 named end-to-end metrics;
  * the traced run prints exactly the per-layer metrics and writes its
    spans as trace-event JSON;
  * the exact counts (design quality, DSE best point, every per-layer
    count) repeat byte for byte across two runs and across DSE domain
    counts;
  * an unknown workload exits non-zero without a result line.
"""
import json
import os
import subprocess
import sys
import tempfile

MAIN, BENCH, CORPUS = sys.argv[1:4]
MAIN = os.path.abspath(MAIN)
QUICK = ["--benches", "sumrows,tpchq6,saxpy,bad_race,bad_nonaffine",
         "--corpus", CORPUS, "--seconds", "0.05"]
ALL_16 = {
    "setup_s", "compile_programs_per_s", "compile_ms_p50", "compile_ms_p99",
    "design_cycles_geomean", "design_logic_geomean", "design_bram_geomean",
    "dse_points_per_s", "dse_sweep_ms_p50", "dse_best_cycles_geomean",
    "analyze_designs_per_s", "analyze_ms_p50", "analyze_ms_p99",
    "timeline_events_per_s", "timeline_ms_p50", "timeline_ms_p90"}
EXACT = ["design_cycles_geomean", "design_logic_geomean", "design_bram_geomean"]

bench = json.load(open(BENCH))
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)


def run(*args):
    """Run the benchmark with QUICK and ARGS; returns the parsed result line."""
    out = subprocess.run([MAIN, *QUICK, *args], check=True, capture_output=True,
                         text=True).stdout
    last = out.strip().splitlines()[-1]
    res = json.loads(last)
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{args}: result keys {sorted(res)}")
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          f"{args}: {res['failed']} of {res['attempted']} operations failed")
    return res


def raw(res, names):
    # the printed JSON numbers, compared as text
    return {n: json.dumps(res["metrics"][n]["value"]) for n in names}


def same_metrics(res, spec, what):
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    check(got == want, f"{what}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")


for w in [x["name"] for x in bench["workloads"]]:
    first = run("--workload", w, "--seed", "3", "--trace", "0")
    same_metrics(first, bench["end_to_end"], w)
    for name, m in first["metrics"].items():
        check(isinstance(m["value"], (int, float)) and m["value"] > 0,
              f"{w}: {name} = {m['value']}")
    again = run("--workload", w, "--seed", "3", "--trace", "0", "--domains", "1")
    check(raw(first, EXACT) == raw(again, EXACT),
          f"{w}: exact metrics differ between runs / domain counts")

every = run("--workload", "all", "--seed", "3", "--trace", "0")
check(set(every["metrics"]) == ALL_16,
      f"all: metrics {sorted(set(every['metrics']) ^ ALL_16)} differ from the 16")

with tempfile.TemporaryDirectory() as tmp:
    spans = os.path.join(tmp, "spans.json")
    t1 = run("--workload", "dse", "--seed", "5", "--trace", "1", "--spans", spans)
    same_metrics(t1, bench["per_layer"], "trace")
    events = json.load(open(spans))["traceEvents"]
    check(len(events) > 0 and all(e["ph"] == "X" for e in events), "spans file")
    t2 = run("--workload", "dse", "--seed", "5", "--trace", "1", "--spans", "",
             "--domains", "1")
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] == "count" and not m["name"].startswith("dse.pool.")]
    check(raw(t1, counts) == raw(t2, counts),
          "traced: exact counts differ between runs / domain counts")

bad = subprocess.run([MAIN, *QUICK, "--workload", "nope", "--seed", "1", "--trace", "0"],
                     capture_output=True, text=True)
check(bad.returncode != 0 and bad.stdout.strip() == "", "unknown workload accepted")

if failures:
    sys.exit("perfbench smoke test failed:\n  " + "\n  ".join(failures))
print("perfbench smoke test: ok")
