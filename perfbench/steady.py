#!/usr/bin/env python3
"""Steadiness of one workload over repeated runs, and comparison of two sets.

    python3 perfbench/steady.py --workload W [--runs 10] [--seed0 1]
        [--seconds S] [--trace 0|1] [--save set.json]
    python3 perfbench/steady.py --compare before.json after.json

The first form runs perfbench/run.py N times, each with its own seed
(seed0, seed0+1, ...), and prints per metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json, plus the failed share of ops.
--seconds defaults to BENCHMARK.json's run_seconds. --save keeps the raw
results. The second form compares two saved sets: for each end-to-end
metric the change of the median, in the metric's worse direction, as a
share of the first median, against its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    return b, metrics


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(args):
    b, _ = spec()
    seconds = args.seconds or b["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace], cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit("run with seed %d failed (status %d)" % (seed, out.returncode))
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        res["seed"] = seed
        res["notes"] = [json.loads(l) for l in lines[:-1] if l.startswith("{")]
        results.append(res)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
            flush=True)
    return {"workload": args.workload, "trace": args.trace,
            "seconds": seconds, "runs": results}


def report(s):
    _, metrics = spec()
    runs = s["runs"]
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("\n%s, %d runs of %s s, trace %s; failed share(s) of ops: %s" % (
        s["workload"], len(runs), s["seconds"], s["trace"],
        ", ".join("%.6g" % x for x in shares)))
    print("%-28s %12s %12s %12s %8s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "unit"))
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(vals)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        print("%-28s %12.6g %12.6g %12.6g %8.4f %7s  %-6s %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound,
            runs[0]["metrics"][name]["unit"], flag))


def compare(a_path, b_path):
    _, metrics = spec()
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    print("%s: %s -> %s" % (a["workload"], a_path, b_path))
    share = lambda s: sorted({r["failed"] / r["attempted"] for r in s["runs"]})
    print("failed share %s -> %s%s" % (share(a), share(b),
                                       "" if share(a) == share(b) else "  DIFFERS"))
    for name in a["runs"][0]["metrics"]:
        m = metrics.get(name, {})
        ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
        worse = (mb - ma) / ma if m.get("better") == "lower" else (ma - mb) / ma
        bound = m.get("bound")
        verdict = "" if bound is None else ("ok" if worse <= bound else "WORSE")
        print("%-28s %12.6g %12.6g  worse by %+8.4f  bound %-6s %s" % (
            name, ma, mb, worse, "-" if bound is None else bound, verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.workload:
        ap.error("--workload is required")
    s = run_set(args)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(s, f, indent=1)
    report(s)


if __name__ == "__main__":
    main()
