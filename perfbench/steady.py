#!/usr/bin/env python3
"""Steadiness check: run each workload N times with distinct seeds and print,
per end-to-end metric, the median, the quartiles and the interquartile spread
as a share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed0 100]
                                [--seconds S] [--trace 0|1]

Run from the repository root. Exits 1 if any spread exceeds its bound, if
a time reads the same in every run, or if the failed share differs between
runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    took = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if a.trace else bench["end_to_end"]
    ok = True
    for w in names:
        runs = []
        for i in range(a.runs):
            res, took = run_once(bench["command"], w, a.seed0 + i, seconds, a.trace)
            runs.append(res)
            print(f"# {w} seed {a.seed0 + i}: {took:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: correct in all runs: {correct}; failed shares: {sorted(shares)}")
        ok &= correct and len(shares) == 1
        print(f"  {'metric':<32}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, ok = " OVER", False
                elif spread > bound / 3:
                    flag = " >1/3"
            if len(set(vals)) == 1 and m["unit"] in ("s", "ms", "us", "ns"):
                flag, ok = flag + " SAME", False
            bstr = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {m['name']:<32}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}{spread:>9.3f}{bstr:>8}{flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
