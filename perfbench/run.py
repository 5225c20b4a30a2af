"""Benchmark entry point: one workload, one run, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train_slate --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``train_slate``     -- full ``train_iteration()`` loop (Algorithm 1);
- ``rollout_sharded`` -- repeated ``collect()`` on two rollout workers;
- ``serve_open_loop`` -- open- and closed-loop load on a TCP gateway.

End-to-end metrics (``--trace 0``), one name on every workload. The
single-threaded, CPU-bound ``train_slate`` times are scaled to reference
host speed (``perfbench/reference.py``: each time is multiplied by the
host factor measured next to it, and the raw wall-clock figures go to the
report line); the other two workloads mix processes and waits, which a
one-core reference does not track, and report raw wall-clock:

- ``setup_s``          -- median of several set-ups: trainer build and SADAE
  pretrain (plus worker spawn and the first collect on ``rollout_sharded``),
  or gateway child spawn and session opens;
- ``latency_ms_p50``   -- median ``train_iteration()`` / ``collect()`` time, or
  median phase-A request latency measured from each request's due time;
- ``latency_ms_tail``  -- upper quartile of the per-operation time on the
  training workloads (>= 40 samples, so >= 10 lie beyond it), p99 of the
  phase-A latency on ``serve_open_loop``; a failed request ranks as slowest;
- ``user_steps_per_s`` -- user-steps trained or collected per second, or user
  rows served per second in the closed-loop phase (capacity);
- ``peak_rss_mb``      -- peak RSS of the process running the system: the
  trainer process plus its largest worker, or the gateway child.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs an untraced and a traced pass, reports the
per-layer metrics (a layer the workload does not exercise reads 0) and
writes every span to ``.perfbench/``. Every run checks the program's
outputs first; a failed check prints ``"correct": false`` with no
metrics and exits 1. Earlier stdout lines carry the environment stamp
and a human-readable report; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_slate", "rollout_sharded", "serve_open_loop")


def environment_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    threads = {
        name: os.environ.get(name)
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The checkout's own source, never an installed copy; the script's
    # directory is dropped so benchmark modules import as a package.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    from perfbench import serving, training

    runner = {
        "train_slate": training.train_slate,
        "rollout_sharded": training.rollout_sharded,
        "serve_open_loop": serving.serve_open_loop,
    }[args.workload]
    stamp = environment_stamp()
    print(json.dumps({"environment": stamp}))
    try:
        outcome = runner(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        stop_resource_tracker()
    outcome.report["failed_ratio"] = outcome.failed / max(outcome.attempted, 1)
    print(json.dumps({"report": outcome.report}, default=str))

    metrics = {}
    if outcome.correct and not outcome.failed:
        for metric in wanted:
            value = outcome.values.get(metric["name"])
            if value is None and args.trace:
                value = 0.0  # a layer this workload does not exercise
            if value is None or not math.isfinite(value) or (not args.trace and value <= 0):
                outcome.correct = False
                outcome.error = f"metric {metric['name']} has no valid value: {value!r}"
                break
            metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    if not outcome.correct:
        print(f"FAILED: {outcome.error}", file=sys.stderr)
        metrics = {}
    if args.trace and outcome.correct:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": stamp,
            "report": outcome.report, "metrics": metrics,
            "span_fields": ["name", "start", "end", "parent", "op"]
            if args.workload != "serve_open_loop" else ["name", "trace", "start", "duration"],
            "spans": outcome.spans,
        }, default=str))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct and not outcome.failed else 1


def stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker and wait for it to exit."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
