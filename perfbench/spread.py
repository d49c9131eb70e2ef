#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; the bounds in ``BENCHMARK.json`` are judged against it.
The unscaled wall-time medians of each run are read from its results file
and their spread is printed too.  Runs are sequential, one process at a time.

    python3 perfbench/spread.py --workload smoke --seeds 1-10 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seeds_from(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
                  if k in bounds or args.trace == 0), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        detail = json.loads((ROOT / ".perfbench" / "results" / (
            f"{args.workload}-full-s{seed}-t{args.trace}.json")).read_text())
        plain = [it for it in detail["iterations"] if not it["traced"] and "run_s" in it]
        walls = {"run_s": [it["run_wall_s"] for it in plain],
                 "aggregate_s": [it["aggregate_wall_s"] for it in plain]}
        for name, series in walls.items():
            values.setdefault(f"{name} (wall)", []).append(statistics.median(series))

    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
        print(f"{name:<40} median {mid:.6g} spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
