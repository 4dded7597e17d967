#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's median and
its spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload gateway --seeds 1-10 [--seconds 10] [--trace 0]

A benchmark is steady when every end-to-end spread except setup_s is below a
third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    values = {name: [] for name in metrics}
    all_correct = True
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                                "--seconds", str(seconds), "--trace",
                                                str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        all_correct &= result["correct"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
    for name, spec_metric in metrics.items():
        v = values[name]
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = spec_metric.get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:<32} median={median:<14.6g} spread={spread:.4f} "
              f"bound={bound if bound is not None else '-'} {flag}  "
              f"[{' '.join(f'{x:.4g}' for x in v)}]")
    print(f"all correct: {all_correct}")


if __name__ == "__main__":
    main()
