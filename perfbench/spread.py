"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py --workload narrow --seeds 0-9 [--seconds 20] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for each
metric the median of the runs and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of that median,
next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def relative_spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seed_range(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} host_probe_ms={meta.get('host_probe_ms')} {values}",
              flush=True)
    print(f"{args.workload}: {len(runs)} runs of {seconds} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        bound = bounds.get(name)
        spread = relative_spread(values) if len(values) > 1 and statistics.median(values) else 0.0
        note = "" if bound is None else f"  bound {bound} (a third: {bound / 3:.3f})"
        print(f"  {name:40s} median {statistics.median(values):12.6g}  spread {spread:.3f}{note}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
