"""In-memory span recorder and the class-level wrappers that feed it.

Tracing is done from outside the program: :func:`instrument` replaces a
fixed list of public methods, one per layer boundary, with wrappers that
record ``(name, start, end, parent)`` into a :class:`Recorder` and then
call the original. Wrappers sit on *classes*, never on instances, so
every object still pickles exactly as before (a closure on a policy
instance would make it unshippable to rollout workers and silently
change the collection path). Worker processes forked while tracing is
on inherit the wrappers but record nothing: the recorder switches
itself off in every forked child.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (public module, class, method, span name) for every traced boundary.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core", "PolicyTrainer", "collect", "trainer.collect"),
    ("repro.scenarios", "ScenarioTrainer", "post_process_segment", "trainer.post_process"),
    ("repro.scenarios", "ScenarioTrainer", "after_update", "sadae.update"),
    ("repro.scenarios", "ScenarioTrainer", "pretrain_sadae", "sadae.pretrain"),
    ("repro.rl", "RolloutBuffer", "finalize", "buffer.finalize"),
    ("repro.rl", "PPO", "update", "ppo.update"),
    ("repro.rl", "RecurrentActorCritic", "evaluate_segments_batched", "policy.forward"),
    ("repro.rl", "RecurrentActorCritic", "evaluate_segment", "policy.forward"),
    ("repro.rl", "RecurrentActorCritic", "act", "policy.act"),
    ("repro.rl", "VecEnvPool", "step", "env.step"),
    ("repro.nn", "Tensor", "backward", "nn.backward"),
    ("repro.nn", "Adam", "step", "nn.optim_step"),
    ("repro.rl", "ShardedVecEnvPool", "sync_policy", "workers.sync_policy"),
    ("repro.rl", "ShardedVecEnvPool", "collect_rollouts", "workers.collect_rollouts"),
    ("repro.rl", "ShardedVecEnvPool", "fetch_member_envs", "workers.fetch_envs"),
    ("repro.rl", "ShardedVecEnvPool", "load_envs", "workers.load_envs"),
    ("repro.rl", "ShardedVecEnvPool", "__init__", "workers.spawn"),
    ("repro.rl", "ShardedVecEnvPool", "close", "workers.close"),
    # Parent-driven stepping of worker-held envs: the step-server path a
    # policy that cannot be shipped to the workers falls back to.
    ("repro.rl", "ShardedVecEnvPool", "step_async", "workers.parent_step"),
)

#: Constructions of this class are counted (the autodiff graph-node proxy).
COUNTED = ("repro.nn", "Tensor", "nn.tensors")

_ACTIVE: Optional["Recorder"] = None


def _forget_in_child() -> None:
    global _ACTIVE
    _ACTIVE = None


os.register_at_fork(after_in_child=_forget_in_child)


class Recorder:
    """Spans and counts of one traced pass, kept in memory until written out.

    ``spans`` holds ``[name, start, end, parent, op]`` lists: ``parent``
    indexes the enclosing span (``-1`` at the root) and ``op`` is the id
    shared by every span of one timed operation (an iteration, a
    collect), ``None`` during set-up.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self.op: Optional[int] = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1


def _resolve(module: str, cls: str):
    import importlib

    return getattr(importlib.import_module(module), cls)


def _timed(method: Callable, name: str) -> Callable:
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        recorder = _ACTIVE
        if recorder is None:
            return method(*args, **kwargs)
        index = recorder.open(name)
        try:
            return method(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _counted(init: Callable, name: str) -> Callable:
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        recorder = _ACTIVE
        if recorder is not None:
            recorder.count(name)
        init(self, *args, **kwargs)

    return wrapper


@contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Record into ``recorder`` while the block runs; restore every method after."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already on")
    originals = []
    for module, cls_name, attr, name in LAYERS:
        cls = _resolve(module, cls_name)
        if attr not in vars(cls):
            raise RuntimeError(f"{cls_name}.{attr} is not defined on the class itself")
        originals.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, _timed(vars(cls)[attr], name))
    module, cls_name, name = COUNTED
    counted = _resolve(module, cls_name)
    originals.append((counted, "__init__", vars(counted)["__init__"]))
    counted.__init__ = _counted(vars(counted)["__init__"], name)
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = None
        for cls, attr, original in reversed(originals):
            setattr(cls, attr, original)
