"""The two training workloads: ``train_slate`` and ``rollout_sharded``.

Both drive the program only through ``repro.scenarios.trainer_from_config``,
``PolicyTrainer.train_iteration`` / ``PolicyTrainer.collect`` and the
trainer's metrics registry. Each runs its correctness gate outside the
timed region and returns an :class:`Outcome`; a failed gate returns no
numbers.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from . import reference
from .spans import Recorder, instrument
from .stats import highest_percentile, layer_totals, percentile, unattributed_fraction

TRAIN_SCENARIO = {"family": "slate", "num_envs": 16, "num_users": 10, "horizon": 20}
ROLLOUT_SCENARIO = {"family": "slate", "num_envs": 16, "num_users": 50, "horizon": 30}
ROLLOUT_SEGMENTS = 16
ROLLOUT_WORKERS = 2

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3
#: ``final_reward`` is the mean raw reward of these timed iterations, so
#: it names the same iterations however long a run lasts.
FINAL_WINDOW = (20, 30)
#: Timed operations per untraced pass at least: with >= 40 the upper
#: quartile has >= 10 samples beyond it; training iterations are cheap
#: enough to take more, which averages out more of the host's speed
#: swings. Traced passes need only the reward window.
MIN_ITERATIONS = 60
MIN_COLLECTS = 40
MIN_TRACED_OPS = FINAL_WINDOW[1]
MIN_TRACED_COLLECTS = 10

#: Warnings that mean the run left the path it claims to measure.
PATH_WARNINGS = (
    "policy cannot be shipped to rollout workers",
    "rollout worker restart budget exhausted",
)

#: Per-layer span names reported as mean seconds per timed operation.
LAYER_SECONDS = {
    "trainer.collect": "trainer.collect_s",
    "trainer.post_process": "trainer.post_process_s",
    "buffer.finalize": "buffer.finalize_s",
    "ppo.update": "ppo.update_s",
    "policy.forward": "policy.forward_s",
    "nn.backward": "nn.backward_s",
    "nn.optim_step": "nn.optim_step_s",
    "sadae.update": "sadae.update_s",
    "policy.act": "policy.act_s",
    "env.step": "env.step_s",
    "workers.sync_policy": "workers.sync_policy_s",
    "workers.collect_rollouts": "workers.collect_rollouts_s",
    "workers.fetch_envs": "workers.fetch_envs_s",
    "workers.load_envs": "workers.load_envs_s",
    "workers.spawn": "workers.spawn_s",
    "workers.close": "workers.close_s",
}


@dataclass
class Outcome:
    """What one workload run measured, or why it has no numbers."""

    correct: bool
    attempted: int = 0
    failed: int = 0
    values: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)
    error: Optional[str] = None


def make_config(scenario: Dict[str, Any], seed: int, **overrides):
    from repro.core import scenario_small_config

    config = scenario_small_config(seed=seed)
    config.scenario = dict(scenario, seed=seed)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def build(config, first_collect: bool, stack: ExitStack):
    """A pretrained trainer, its first collect, and the seconds both took.

    The trainer is closed when ``stack`` unwinds, so rollout workers never
    outlive a run that fails half-way.
    """
    from repro.scenarios import trainer_from_config

    start = time.perf_counter()
    trainer = stack.enter_context(trainer_from_config(config))
    trainer.pretrain_sadae()
    first = trainer.collect() if first_collect else None
    return trainer, time.perf_counter() - start, first


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def finite(metrics: Dict[str, float]) -> bool:
    return all(math.isfinite(float(value)) for value in metrics.values())


@dataclass
class Pass:
    """One timed pass: per-operation seconds, results, and failures."""

    seconds: List[float] = field(default_factory=list)
    #: Host factor measured right after each operation, when scaling.
    factors: List[float] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    failed: int = 0
    tensors: List[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.seconds) + self.failed


def timed_pass(
    op: Callable[[], Any],
    ok: Callable[[Any], bool],
    seconds: float,
    min_ops: int,
    recorder: Optional[Recorder] = None,
    scale: bool = False,
) -> Pass:
    """Run ``op`` until ``seconds`` passed and ``min_ops`` ran; stop at a failure.

    With ``scale`` the host factor is sampled after every operation,
    outside its timing (see :mod:`perfbench.reference`).
    """
    run = Pass()
    start = time.perf_counter()
    while len(run.seconds) < min_ops or time.perf_counter() - start < seconds:
        before = 0
        if recorder is not None:
            recorder.op = len(run.seconds)
            before = recorder.counts.get("nn.tensors", 0)
            root = recorder.open("op")
        began = time.perf_counter()
        try:
            result = op()
        except Exception as error:  # an operation that raises is a failure
            result, good = error, False
        else:
            good = ok(result)
        elapsed = time.perf_counter() - began
        if recorder is not None:
            recorder.close(root)
            recorder.op = None
            run.tensors.append(recorder.counts.get("nn.tensors", 0) - before)
        if not good:
            run.failed += 1
            run.results.append(result)
            break
        run.seconds.append(elapsed)
        if scale:
            run.factors.append(reference.host_factor(samples=1))
        run.results.append(result)
    return run


def timing_report(run: Pass) -> Dict[str, Any]:
    """Raw wall-clock figures (ms) and any host factors that scaled them."""
    ms = [s * 1000.0 for s in run.seconds]
    report = {
        "samples": len(ms),
        "raw_p50_ms": statistics.median(ms),
        "raw_p75_ms": percentile(ms, 75.0),
        "raw_highest_percentile_ms": highest_percentile(ms),
    }
    if run.factors:
        report["host_factor_p50"] = statistics.median(run.factors)
        report["host_factor_range"] = [min(run.factors), max(run.factors)]
    return report


def timing_values(run: Pass, work_per_op: int) -> Dict[str, float]:
    """End-to-end figures of one pass: median, upper quartile, user-steps per second.

    Operation times are scaled by their host factors when the pass sampled them.
    """
    factors = run.factors or [1.0] * len(run.seconds)
    ms = [s * f * 1000.0 for s, f in zip(run.seconds, factors)]
    return {
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_tail": percentile(ms, 75.0),
        "user_steps_per_s": work_per_op * len(ms) / (sum(ms) / 1000.0),
    }


def timed_spans(recorder: Recorder) -> List[tuple]:
    """The spans of timed operations (set-up dropped), parents re-indexed."""
    timed = [span for span in recorder.spans if span[4] is not None]
    position = {id(span): i for i, span in enumerate(timed)}
    return [
        (s[0], s[1], s[2], position[id(recorder.spans[s[3]])] if s[3] >= 0 else -1)
        for s in timed
    ]


def layer_values(recorder: Recorder, run: Pass) -> Dict[str, float]:
    """Per-layer figures of a traced pass, each a mean per timed operation."""
    spans = [tuple(span[:4]) for span in recorder.spans]
    roots = [i for i, span in enumerate(recorder.spans) if span[0] == "op"]
    totals = layer_totals(timed_spans(recorder))
    ops = max(len(roots), 1)
    values = {}
    for name, metric in LAYER_SECONDS.items():
        values[metric] = totals.get(name, (0.0, 0.0, 0))[0] / ops
    values["policy.act_calls"] = totals.get("policy.act", (0.0, 0.0, 0))[2] / ops
    values["workers.parent_steps"] = totals.get("workers.parent_step", (0.0, 0.0, 0))[2] / ops
    values["nn.tensors_per_iter"] = statistics.mean(run.tensors) if run.tensors else 0.0
    values["unattributed_frac"] = unattributed_fraction(spans, roots)
    setup = [span for span in recorder.spans if span[0] == "sadae.pretrain"]
    if setup:
        values["sadae.pretrain_s"] = statistics.median(s[2] - s[1] for s in setup)
    return values


def self_time_report(recorder: Recorder, ops: int) -> Dict[str, float]:
    """Mean self seconds per operation of every traced layer (set-up excluded)."""
    totals = layer_totals(timed_spans(recorder))
    return {name: round(own / max(ops, 1), 6) for name, (_, own, _) in totals.items()}


def registry_values(trainer) -> Dict[str, float]:
    """Rollout-worker figures from the trainer's own metrics registry."""
    snapshot = trainer.metrics.snapshot()
    values = {"workers.respawns": 0.0, "workers.degraded": 0.0}
    family = snapshot.get("rollout_collect_seconds")
    if family and family["series"]:
        from repro.obs import quantile_from_buckets

        series = family["series"]
        edges = series[0]["buckets"]
        counts = [sum(s["counts"][i] for s in series) for i in range(len(edges) + 1)]
        total = sum(s["count"] for s in series)
        values["workers.shard_collect_s_p50"] = quantile_from_buckets(edges, counts, total, 0.5)
        values["workers.shard_collect_s_max"] = max(s["sum"] / s["count"] for s in series)
        values["workers.shard_collects"] = float(total)
    respawns = snapshot.get("rollout_worker_respawns_total")
    if respawns:
        values["workers.respawns"] = float(sum(s["value"] for s in respawns["series"]))
    degraded = snapshot.get("rollout_pool_degraded")
    if degraded:
        values["workers.degraded"] = float(max(s["value"] for s in degraded["series"]))
    return values


# ----------------------------------------------------------------------
# train_slate
# ----------------------------------------------------------------------
def train_slate(seed: int, seconds: float, trace: bool) -> Outcome:
    with ExitStack() as stack:
        return _train_slate(seed, seconds, trace, stack)


def _train_slate(seed: int, seconds: float, trace: bool, stack: ExitStack) -> Outcome:
    from repro.rl import verify_training_reproducibility

    config = make_config(TRAIN_SCENARIO, seed)
    trainers, setups, raw_setups = [], [], []
    for _ in range(SETUP_REPEATS):
        before = reference.host_factor()
        trainer, took, _ = build(make_config(TRAIN_SCENARIO, seed), False, stack)
        trainers.append(trainer)
        raw_setups.append(took)
        setups.append(took * (before + reference.host_factor()) / 2.0)
    setup_s = statistics.median(setups)
    work = config.segments_per_iteration * TRAIN_SCENARIO["num_users"] * TRAIN_SCENARIO["horizon"]

    # Gate: the workload seed reproduces its trajectory, every value finite.
    spare = list(trainers[:2])
    try:
        verified = verify_training_reproducibility(lambda: spare.pop(0), iterations=3, runs=2)
    except AssertionError as error:
        return Outcome(False, error=f"train_slate not reproducible: {error}")
    if not all(finite(metrics) for metrics in verified):
        return Outcome(False, error="train_slate logged a non-finite value in the gate")

    timed = trainers[2]
    run = timed_pass(timed.train_iteration, finite, seconds / 2 if trace else seconds,
                     MIN_TRACED_OPS if trace else MIN_ITERATIONS, scale=True)
    timed.close()
    if run.results[: len(verified)] != verified:
        return Outcome(False, error="timed train_slate run left the verified trajectory")
    outcome = Outcome(True, run.attempted, run.failed)
    if run.failed:
        outcome.report["first_failure"] = repr(run.results[-1])
        return outcome
    final_reward = statistics.mean(run.results[i]["reward"] for i in range(*FINAL_WINDOW))
    outcome.report.update(
        user_steps_per_iteration=work,
        final_reward=final_reward,
        iteration=timing_report(run),
        setup_raw_s=raw_setups,
    )
    if not trace:
        outcome.values = dict(
            timing_values(run, work), setup_s=setup_s, peak_rss_mb=peak_rss_mb()
        )
        return outcome

    recorder = Recorder()
    with instrument(recorder):
        traced_trainer = build(make_config(TRAIN_SCENARIO, seed), False, stack)[0]
        traced = timed_pass(
            traced_trainer.train_iteration, finite, seconds / 2, MIN_TRACED_OPS, recorder
        )
    traced_trainer.close()
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    if traced.failed:
        return outcome
    traced_reward = statistics.mean(traced.results[i]["reward"] for i in range(*FINAL_WINDOW))
    if traced_reward != final_reward:
        return Outcome(
            False, error=f"tracing changed final_reward: {traced_reward!r} != {final_reward!r}"
        )
    values = layer_values(recorder, traced)
    values["train.final_reward"] = final_reward
    values["trace.overhead_frac"] = (
        statistics.median(traced.seconds) / statistics.median(run.seconds) - 1.0
    )
    outcome.values = values
    outcome.report["self_s_per_iteration"] = self_time_report(recorder, len(traced.seconds))
    outcome.spans = recorder.spans
    return outcome


# ----------------------------------------------------------------------
# rollout_sharded
# ----------------------------------------------------------------------
def segment_bytes(buffer) -> List[bytes]:
    fields = ("states", "prev_actions", "actions", "rewards", "dones", "values",
              "log_probs", "last_values")
    return [
        b"".join(np.ascontiguousarray(getattr(seg, name)).tobytes() for name in fields)
        for seg in buffer.segments
    ]


def rollout_sharded(seed: int, seconds: float, trace: bool) -> Outcome:
    with ExitStack() as stack, warnings.catch_warnings():
        for message in PATH_WARNINGS:
            warnings.filterwarnings("error", message=message, category=RuntimeWarning)
        return _rollout_sharded(seed, seconds, trace, stack)


def _rollout_sharded(seed: int, seconds: float, trace: bool, stack: ExitStack) -> Outcome:
    overrides = dict(segments_per_iteration=ROLLOUT_SEGMENTS, rollout_workers=ROLLOUT_WORKERS)
    work = ROLLOUT_SEGMENTS * ROLLOUT_SCENARIO["num_users"] * ROLLOUT_SCENARIO["horizon"]
    # Reference: the same seed collected in-process, outside any timing.
    in_process, _, (ref_buffer, ref_rewards) = build(
        make_config(ROLLOUT_SCENARIO, seed, segments_per_iteration=ROLLOUT_SEGMENTS),
        True,
        stack,
    )
    in_process.close()
    built = []
    for repeat in range(SETUP_REPEATS):
        built.append(build(make_config(ROLLOUT_SCENARIO, seed, **overrides), True, stack))
        if repeat < SETUP_REPEATS - 1:
            built[-1][0].close()  # only the timed trainer keeps its workers
    setup_s = statistics.median(took for _, took, _ in built)
    mode = built[0][0].config.resolved_rollout_mode()
    first_buffer, first_rewards = built[0][2]
    if mode != "shard_parallel":
        return Outcome(False, error=f"rollout_sharded resolved to {mode!r}")
    if segment_bytes(first_buffer) != segment_bytes(ref_buffer) or first_rewards != ref_rewards:
        return Outcome(False, error="2-worker collect differs from the in-process collect")

    timed = built[-1][0]

    def on_worker_path(result) -> bool:
        return registry_values(timed)["workers.degraded"] == 0.0

    run = timed_pass(timed.collect, on_worker_path, seconds / 2 if trace else seconds,
                     MIN_TRACED_COLLECTS if trace else MIN_COLLECTS)
    workers = registry_values(timed)
    timed.close()
    outcome = Outcome(True, run.attempted, run.failed)
    expected = (len(run.seconds) + 1) * ROLLOUT_WORKERS
    if workers.get("workers.shard_collects", 0.0) < expected:
        return Outcome(False, error=f"worker path did not run: {workers}")
    outcome.report.update(user_steps_per_collect=work, mode=mode, collect=timing_report(run))
    if run.failed:
        outcome.report["first_failure"] = repr(run.results[-1])
        return outcome
    if not trace:
        outcome.values = dict(
            timing_values(run, work), setup_s=setup_s, peak_rss_mb=peak_rss_mb()
        )
        return outcome

    recorder = Recorder()
    with instrument(recorder):
        traced_trainer = build(make_config(ROLLOUT_SCENARIO, seed, **overrides), True, stack)[0]
        traced = timed_pass(
            traced_trainer.collect, lambda result: True, seconds / 2, MIN_TRACED_COLLECTS,
            recorder,
        )
        values = layer_values(recorder, traced)
        values.update(registry_values(traced_trainer))
        traced_trainer.close()
    outcome.attempted += traced.attempted
    outcome.failed += traced.failed
    if traced.failed:
        return outcome
    values.pop("workers.shard_collects", None)
    # Multi-env rounds must run in the workers. Parent-side act calls
    # remain only for rounds holding a single env (an env sampled twice
    # in one collect), which the trainer collects in-process by design.
    if values["workers.parent_steps"] != 0.0 or values["workers.degraded"] != 0.0:
        return Outcome(
            False,
            error=f"traced run left the worker path: parent-driven worker steps "
            f"{values['workers.parent_steps']}, degraded {values['workers.degraded']}",
        )
    common = min(len(run.results), len(traced.results))
    if [r[1] for r in run.results[:common]] != [r[1] for r in traced.results[:common]]:
        return Outcome(False, error="tracing changed the collected rewards")
    values["trace.overhead_frac"] = (
        statistics.median(traced.seconds) / statistics.median(run.seconds) - 1.0
    )
    outcome.values = values
    outcome.report["self_s_per_collect"] = self_time_report(recorder, len(traced.seconds))
    outcome.spans = recorder.spans
    return outcome
