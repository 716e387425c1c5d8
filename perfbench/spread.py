"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]
        [--seconds S]

Runs `run.py` once per seed, one after another, and prints for each metric
the median and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. That share
is what each end-to-end metric's bound in BENCHMARK.json is held against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, (q3 - q1) / mid if mid else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values: dict = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        mid, share = spread(vals)
        bound = bounds.get(name)
        flag = "" if bound is None else (
            f" bound {bound:.3f} ({'ok' if share <= bound else 'OVER'})")
        print(f"{name:40s} median {mid:.6g}  iqr/median {share:.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
