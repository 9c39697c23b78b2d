#!/usr/bin/env python3
"""Run the benchmark over a list of seeds and print, per workload and
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to a third of the metric's bound from BENCHMARK.json.

Usage, from the repository root:
    python3 perfbench/steadiness.py [--seeds 1,2,...] [--workloads a,b] [--trace 0|1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", default=str(spec["run_seconds"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                                     "--seconds", args.seconds, "--trace", args.trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if out.returncode != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {out.returncode})")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(workload)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2 or med == 0:
                print(f"  {name:40s} median {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
            print(f"  {name:40s} median {med:12.6g}  spread {spread:.4f}{limit}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
