"""Run one workload several times on distinct seeds and check its spread.

    python3 perfbench/repeat.py --workload train_slate --runs 10 [--first-seed 1]

For every end-to-end metric in ``BENCHMARK.json`` this prints the values,
their median and their interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound. A
metric is steady when that spread stays below a third of its bound;
``setup_s`` is reported but not held to it. Exits 1 when a run fails or
a spread is not steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    healthy = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {done.returncode})\n{done.stderr[-2000:]}")
            healthy = False
            continue
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
        ), flush=True)

    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        if len(series) < 2:
            continue
        spread = quartile_spread(series)
        steady = spread < metric["bound"] / 3.0
        if metric["name"] != "setup_s":
            healthy = healthy and steady
        print(
            f"{metric['name']:>18}: median {statistics.median(series):.5g} {metric['unit']}, "
            f"spread {spread:.3f} (bound {metric['bound']}, "
            f"{'steady' if steady else 'NOT steady'})"
        )
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
