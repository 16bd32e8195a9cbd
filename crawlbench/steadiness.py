#!/usr/bin/env python3
"""Steadiness report: one build, two interleaved sets of runs.

    python3 crawlbench/steadiness.py [--runs 10]
        [--workloads trace-replay,byte-pipeline,batch-select]
        [--trace] [--out .bench_build/steadiness.json]

Run it from the root of a source tree. For seeds 1..runs it runs every
workload once in set A and once in set B, both with that seed,
alternating which set goes first, through run.py with BENCHMARK.json's
run_seconds. For each workload and end-to-end metric it then prints each
set's median, quartiles and spread (the distance between the quartiles
as a share of the median, quartiles as statistics.quantiles(n=4) gives
them), and whether the sets agree within the metric's bound: each
spread within the bound and set B's median within the bound of set A's,
either way. It also requires the share of failed operations to be the
same in both sets. The bounds in BENCHMARK.json were set from this
report; a spread above a third of its bound is flagged as not steady.

With --trace it also makes one traced run per workload and seed, prints
the median of every per-layer metric, and reports the traced crawl's
pages/s against the untraced median: the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (result, record) from its last lines."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share
    (negative when it is better)."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out",
                        default=os.path.join(".bench_build",
                                             "steadiness.json"))
    args = parser.parse_args()
    bench = load_benchmark()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    runs = {(w, s): [] for w in workloads for s in "AB"}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = 1 + i
        for set_name in ("AB" if i % 2 == 0 else "BA"):
            for w in workloads:
                result, record = run_once(w, seed, seconds, trace=False)
                runs[(w, set_name)].append((result, record))
                print(f"run {i} set {set_name} {w} seed {seed}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
        if args.trace:
            for w in workloads:
                traced[w].append(run_once(w, seed, seconds, trace=True))

    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    all_agree = True
    for w in workloads:
        entry = {}
        shares = {}
        for s in "AB":
            attempted = sum(r["attempted"] for r, _ in runs[(w, s)])
            failed = sum(r["failed"] for r, _ in runs[(w, s)])
            shares[s] = failed / attempted
            entry[f"failed_share_{s}"] = shares[s]
            entry[f"correct_{s}"] = all(r["correct"] for r, _ in runs[(w, s)])
        agree_failed = shares["A"] == shares["B"]
        all_agree &= agree_failed and entry["correct_A"] and entry["correct_B"]
        print(f"\n{w}: failed share A {shares['A']} B {shares['B']}"
              f"{'' if agree_failed else '  DIFFER'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summarize([r["metrics"][name]["value"] for r, _ in runs[(w, "A")]])
            b = summarize([r["metrics"][name]["value"] for r, _ in runs[(w, "B")]])
            drift = worse_by(metric, a["median"], b["median"])
            agree = (a["spread"] <= bound and b["spread"] <= bound and
                     abs(drift) <= bound)
            steady = max(a["spread"], b["spread"]) < bound / 3
            all_agree &= agree
            entry[name] = {"A": a, "B": b, "bound": bound,
                           "b_worse_by": drift, "agree": agree,
                           "spread_below_third_of_bound": steady}
            print(f"  {name:16s} A {a['median']:.6g} [{a['q1']:.6g}, "
                  f"{a['q3']:.6g}] spread {a['spread']:.4f} | B "
                  f"{b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] spread "
                  f"{b['spread']:.4f} | B worse by {drift:+.4f} "
                  f"bound {bound} {'agree' if agree else 'DISAGREE'}"
                  f"{'' if steady else ' (spread above a third of bound)'}")
        if args.trace and traced[w]:
            entry["traced_correct"] = all(r["correct"] for r, _ in traced[w])
            all_agree &= entry["traced_correct"]
            entry["per_layer"] = {}
            for metric in bench["per_layer"]:
                name = metric["name"]
                median = statistics.median(
                    r["metrics"][name]["value"] for r, _ in traced[w])
                entry["per_layer"][name] = median
                print(f"  traced {name:28s} {median:.6g} {metric['unit']}")
            untraced = statistics.median(
                [rec["pages"] / rec["crawl_wall_s"]
                 for s in "AB" for _, rec in runs[(w, s)]])
            traced_rate = statistics.median(
                rec["pages"] / rec["crawl_wall_s"] for _, rec in traced[w])
            overhead = untraced / traced_rate - 1
            entry["trace_overhead"] = overhead
            print(f"  traced crawl pages/s {traced_rate:.6g} vs untraced "
                  f"{untraced:.6g}: overhead {overhead:+.3f}")
        entry["records"] = {s: [rec for _, rec in runs[(w, s)]] for s in "AB"}
        report["workloads"][w] = entry
    report["agree"] = all_agree
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\n{'all agree' if all_agree else 'NOT all agree'}; "
          f"report -> {args.out}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
