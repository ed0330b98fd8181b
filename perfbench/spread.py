"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads study-pure,train --seeds 1-10 [--trace 0] [--out FILE]

Runs are sequential.  For every workload and metric it prints the median
and the quartile spread (Q3 - Q1) / median of the values, with
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json, and the same for the wall-clock figures in ``info``.
``--out`` keeps every result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-300:]}")
                return 1
            result = json.loads(lines[-1])
            info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
            results.setdefault(workload, []).append({"seed": seed, "result": result, "info": info})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        runs = results[workload]
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            unit = runs[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name)
            flag = "" if bound is None else (" OK" if spread < bound / 3 else " WIDE")
            print(f"  {workload:12s} {name:36s} median {median:12.5g} {unit:9s} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
        for name in runs[0]["info"].get("wall_clock", {}):  # printed for comparison, not gated
            values = [r["info"]["wall_clock"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            print(f"  {workload:12s} {'wall_clock.' + name:36s} median {median:12.5g} "
                  f"spread {(q3 - q1) / median if median else 0.0:7.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
