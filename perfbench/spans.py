"""Outside-in instrumentation: wrap public calls of ``repro`` without editing it.

Two instruments share one patching helper:

* :class:`Stopwatch` times the runners' ``run`` method (the stepping loop,
  after set-up) and keeps the last runner so output checks can read its
  final state. It is the only wrapper active in an untraced run.
* :class:`Tracer` wraps every target of :data:`layers.LAYERS`. Each call
  becomes a span (name, start, end, parent, run id) kept in memory; a
  layer's self time is its spans' durations minus their child spans.

Wrappers pass through untouched in any other process than the one that
installed them, so forked engine workers never record (their work shows as
``engine.worker_busy_ms`` instead).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from layers import LAYERS


def _resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type) and attr not in vars(owner):
        raise AttributeError(f"{target}: {attr} is not defined on {owner.__name__}")
    return owner, attr


@contextmanager
def patched(wrappers: dict[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Replace each target with ``make(original)``; restore on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for target, make in wrappers.items():
            owner, attr = _resolve(target)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


RUNNER_RUNS = (
    "repro.core.runner:ParallelMDRunner.run",
    "repro.core.runner:DrivenLoadRunner.run",
)


class Stopwatch:
    """Times each runner ``run`` call; keeps the most recent runner."""

    def __init__(self) -> None:
        self.run_seconds: list[float] = []
        self.runner = None

    def _make(self, fn: Callable) -> Callable:
        watch = self

        @functools.wraps(fn)
        def timed(runner, *args, **kwargs):
            start = time.perf_counter()
            result = fn(runner, *args, **kwargs)
            watch.run_seconds.append(time.perf_counter() - start)
            watch.runner = runner
            return result

        return timed

    def installed(self):
        return patched({target: self._make for target in RUNNER_RUNS})


# -- per-target counters ------------------------------------------------------


def _count_pairs(counters, args, kwargs, result, duration_ns) -> None:
    candidates = args[2] if len(args) > 2 else kwargs["candidates"]
    counters["md.kernels.pairs"] += len(candidates)


def _count_moves(counters, args, kwargs, result, duration_ns) -> None:
    counters["dlb.rounds"] += 1
    counters["dlb.moves"] += len(result)


def _count_event(counters, args, kwargs, result, duration_ns) -> None:
    counters["obs.events"] += 1


def _count_engine_pass(counters, args, kwargs, result, duration_ns) -> None:
    engine = args[0]
    per_pe = result.per_pe_seconds
    workers = max(1, engine.workers)
    # Shards are strided over PE ranks ({w, w+W, ...}); the busiest shard is
    # the critical path the parent process waits for.
    busiest = max(float(per_pe[w::workers].sum()) for w in range(workers))
    counters["engine.busy_s"] += float(per_pe.sum())
    counters["engine.wait_s"] += max(0.0, duration_ns * 1e-9 - busiest)


COUNTERS: dict[str, Callable] = {
    "repro.md.kernels:NumpyKernel.evaluate": _count_pairs,
    "repro.md.kernels:HalfListKernel.evaluate": _count_pairs,
    "repro.md.kernels:JitKernel.evaluate": _count_pairs,
    "repro.dlb.balancer:DynamicLoadBalancer.step": _count_moves,
    "repro.obs.events:EventLog.emit": _count_event,
    "repro.obs.events:EventLog.emit_host": _count_event,
    "repro.engine.sequential:SequentialEngine.force_pass": _count_engine_pass,
    "repro.engine.multiprocess:MultiprocessEngine.force_pass": _count_engine_pass,
}


class Tracer:
    """In-memory span recorder over every layer target."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: (name, start_ns, end_ns, parent index or -1, run id)
        self.spans: list[tuple | None] = []  # None while a span is open
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        # Open spans: [child_ns, span index].
        self._stack: list[list[int]] = []

    def _make(self, layer: str, target: str) -> Callable[[Callable], Callable]:
        tracer = self
        name = f"{layer}:{target.split(':')[1]}"
        count = COUNTERS.get(target)

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if os.getpid() != tracer.pid:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                parent = stack[-1][1] if stack else -1
                index = len(tracer.spans)
                tracer.spans.append(None)
                frame = [0, index]
                stack.append(frame)
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    duration = end - start
                    tracer.self_ns[layer] += duration - frame[0]
                    tracer.calls[layer] += 1
                    if stack:
                        stack[-1][0] += duration
                    tracer.spans[index] = (name, start, end, parent, tracer.run_id)
                if count is not None:
                    count(tracer.counters, args, kwargs, result, duration)
                return result

            return traced

        return make

    def installed(self):
        return patched(
            {
                target: self._make(layer.name, target)
                for layer in LAYERS
                for target in layer.targets
            }
        )

    def write(self, path: Path) -> Path:
        """Write the spans as JSON lines (times in ns from the first start)."""
        origin = min((s[1] for s in self.spans), default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start - origin,
                          "end_ns": end - origin, "parent": parent, "run": run_id}
                fh.write(json.dumps(record) + "\n")
        return path
