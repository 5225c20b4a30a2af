"""A fixed reference computation that measures the host's current speed.

The shared two-CPU hosts this benchmark runs on change speed by up to 2x
for seconds to minutes at a time (a neighbour's load, not this process's).
A single-threaded, CPU-bound figure such as the time of one training
iteration swings with them, far beyond any useful regression bound.

:func:`sample` times a small recurrent network's forward and backward
pass through a minimal reverse-mode autodiff written here, in the same
grain as the program's own ``repro.nn`` work (graph nodes with backward
closures over small numpy arrays) but sharing none of its code, so no
change to the program can change it. Timing it right next to each
measured operation gives that operation's *host factor*
``REFERENCE_S / sample()``; a time multiplied by its host factor is what
the operation takes on a host where :func:`sample` takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About what one :func:`sample` takes on an uncontended core of the
#: 2-vCPU x86-64 box the benchmark was tuned on (numpy 2.4, OpenBLAS);
#: a fixed constant, so scaled figures stay comparable across commits.
REFERENCE_S = 0.0035
REPEATS = 5
STEPS = 20


class _Node:
    __slots__ = ("data", "grad", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data, self.grad, self.parents, self.backward = data, None, parents, backward

    def accumulate(self, grad) -> None:
        self.grad = grad if self.grad is None else self.grad + grad


def _matmul(a: _Node, b: _Node) -> _Node:
    def backward(grad):
        a.accumulate(grad @ b.data.T)
        b.accumulate(a.data.T @ grad)

    return _Node(a.data @ b.data, (a, b), backward)


def _add(a: _Node, b: _Node) -> _Node:
    def backward(grad):
        a.accumulate(grad)
        b.accumulate(grad)

    return _Node(a.data + b.data, (a, b), backward)


def _tanh(a: _Node) -> _Node:
    out = np.tanh(a.data)
    return _Node(out, (a,), lambda grad: a.accumulate(grad * (1.0 - out * out)))


def _backprop(root: _Node) -> None:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)


_rng = np.random.default_rng(0)
_W = _Node(_rng.standard_normal((32, 32)) * 0.1)
_U = _Node(_rng.standard_normal((8, 32)) * 0.1)
_XS = [_Node(_rng.standard_normal((20, 8))) for _ in range(STEPS)]


def _step() -> None:
    hidden = _Node(np.zeros((20, 32)))
    for x in _XS:
        hidden = _tanh(_add(_matmul(hidden, _W), _matmul(x, _U)))
    _backprop(hidden)
    _W.grad = _U.grad = None


def sample() -> float:
    """Seconds the reference computation takes right now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _step()
    return time.perf_counter() - start


def host_factor(samples: int = 5) -> float:
    """``REFERENCE_S`` over the median of ``samples`` reference timings."""
    return REFERENCE_S / statistics.median(sample() for _ in range(samples))
