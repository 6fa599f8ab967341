#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per seed and prints, for every metric, the median
and the inter-quartile distance as a share of the median (statistics.
quantiles(n=4)), next to the metric's bound from BENCHMARK.json. A spread
above a third of the bound is marked; above the bound, the workload is too
noisy for that metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not last["correct"]:
            print("seed %d: exit %d, correct=%s" % (seed, proc.returncode, last["correct"]))
            return 1
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in sorted(last["metrics"].items()))),
            flush=True)

    print("%-34s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, vs in sorted(values.items()):
        med = stats.median(vs)
        sp = stats.spread(vs) if len(vs) > 1 and med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and sp > bound:
            mark = "  OVER BOUND"
        elif bound is not None and sp > bound / 3:
            mark = "  over bound/3"
        print("%-34s %14.6g %9.4f %7s%s" % (name, med, sp, bound if bound else "-", mark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
