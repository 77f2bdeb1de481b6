#!/usr/bin/env python3
"""End-to-end benchmark of the repro library.

    python3 perfbench/run.py --workload fig5b-dlb --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the library is imported from ``src/``).
One run prepares the workload's inputs from ``--seed``, makes one warm-up
call whose final state the output checks inspect, then repeats the
workload's call for about ``--seconds``, timing set-up alone (zero-step
calls) before and between the calls.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with no instrumentation but a stopwatch on the runner's stepping loop.
``--trace 1`` alternates untraced calls with calls traced by
:mod:`spans`, and reports per-layer self time, call counts and shares, the
``unattributed`` residual and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (output checks run and failed) and
``metrics``. Each run also leaves a result file with the host stamp under
``perfbench/out/`` (and, traced, the spans as JSON lines); compare two with
``python3 perfbench/compare.py A.json B.json``. ``--tiny`` shrinks every
workload for the smoke test (``python3 perfbench/smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import layers
import spans
from host import pin_threads, processes, stamp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up calls (setup_s is their median) come in bursts: one before the
#: timed calls and one after each, so the samples span the whole run. A
#: burst lasts at least MIN calls, then continues while within its budget.
SETUP_FIRST = (5, 0.5)  # (min calls, budget in s)
SETUP_BETWEEN = (1, 0.15)
SETUP_BURST_MAX = 50

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "sim_tt_ms": "ms",
    "sim_imbalance": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a few steps, one sweep")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped engine worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def sample_setup(workload, setup: list[float], burst: tuple[int, float]) -> None:
    at_least, budget = burst
    spent = 0.0
    for n in range(SETUP_BURST_MAX):
        if n >= at_least and spent >= budget:
            break
        setup.append(workload.setup_once())
        spent += setup[-1]


def measure(workload, args):
    """Warm-up, then timed calls for about ``args.seconds`` with set-up
    samples before and between them."""
    stopwatch = spans.Stopwatch()
    tracer = spans.Tracer() if args.trace else None
    setup: list[float] = []
    untraced, traced = [], []
    min_calls = 1 if args.trace or workload.kind == "sweep" else 3
    with stopwatch.installed():
        warm = workload.warmup(stopwatch)
        warm_runner = stopwatch.runner
        start = time.perf_counter()
        sample_setup(workload, setup, (1, 0.0) if args.tiny else SETUP_FIRST)
        while True:
            untraced.append(workload.call(stopwatch))
            if tracer is not None:
                tracer.run_id = len(traced)
                with tracer.installed():
                    traced.append(workload.call(stopwatch))
            if not args.tiny:
                sample_setup(workload, setup, SETUP_BETWEEN)
            elapsed = time.perf_counter() - start
            if len(untraced) >= min_calls and elapsed * (1 + 1 / len(untraced)) > args.seconds:
                break
    return setup, warm, warm_runner, untraced, traced, tracer


def run_checks(workload, args, warm, warm_runner, untraced, traced):
    import checks

    found = [checks.bound_selftest()]
    if workload.kind == "md":
        found.extend(checks.force_check(warm_runner, args.seed))
    digests = defaultdict(list)
    for call in (warm, *untraced, *traced):
        for label, result in zip(call.labels, call.results):
            digests[label].append(result.digest())
    found.append(checks.digest_check(digests))
    ratios = []
    if workload.kind == "sweep":
        for m, result in zip(untraced[0].labels, untraced[0].results):
            sweep, ratio = checks.sweep_checks(m, result, workload.DETECTOR)
            found.extend(sweep)
            if ratio is not None:
                ratios.append(ratio)
    # The engine joins its workers on close; any worker still running here
    # is a leak: report it, then stop it.
    leaked = [c.pid for c in multiprocessing.active_children()]
    stray = stop_children()
    found.append(checks.Check("processes.reaped", not leaked and not stray,
                              f"workers left running: {leaked}; "
                              f"other children left running: {stray}"))
    return found, ratios


def stop_children() -> list[int]:
    """Stop every process this run started and wait for each to end.

    Engine workers are terminated and joined. The shared-memory segments of
    the multiprocess engine start multiprocessing's resource tracker, a
    helper process that would otherwise outlive this one by a moment: it
    is stopped and waited for here. Returns the pids of any other children
    found, after killing and reaping them.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    stray = [pid for pid, parent, _ in processes() if parent == os.getpid()]
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return stray


def end_to_end(workload, setup, untraced) -> dict[str, float]:
    """End-to-end metrics; the simulated-machine ones over each result's
    balanced records (all of an MD run; a sweep up to its boundary)."""
    import numpy as np

    tt, load = [], []
    for result in untraced[0].results:
        end = workload.balanced_records(result)
        timing = result.timing
        tt.append(timing.tt[:end].mean())
        load.append((timing.fmax / timing.fave)[:end].mean())
    return {
        "steps_per_s": statistics.median(c.steps / c.run_s for c in untraced),
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(c.wall_s for c in untraced),
        "peak_rss_mb": peak_rss_mb(),
        "sim_tt_ms": float(np.mean(tt)) * 1e3,
        "sim_imbalance": float(np.mean(load)),
    }


def per_layer(tracer, untraced, traced, ratios) -> dict[str, tuple[float, str]]:
    steps = sum(c.steps for c in traced)
    wall_ns = sum(c.wall_s for c in traced) * 1e9
    per_call = 1.0 / len(traced)
    out: dict[str, tuple[float, str]] = {}
    attributed = 0
    for layer in layers.LAYERS:
        self_ns = tracer.self_ns.get(layer.name, 0)
        attributed += self_ns
        out[f"{layer.name}.self_ms"] = (self_ns / 1e6 / steps, "ms/step")
        out[f"{layer.name}.calls"] = (tracer.calls.get(layer.name, 0) * per_call, "count")
        out[f"{layer.name}.share"] = (self_ns / wall_ns, "ratio")
    counters = tracer.counters
    stats = [r.meta.get("neighbor_stats") for c in traced for r in c.results]
    stats = [s for s in stats if s]
    kernel_s = tracer.self_ns.get("md.kernels", 0) / 1e9
    rounds = counters["dlb.rounds"]
    out.update({
        "md.neighbors.acceptance_ratio": (
            statistics.mean(s["acceptance_ratio"] for s in stats) if stats else 0.0, "ratio"),
        "md.neighbors.rebuilds": (
            statistics.mean(s["rebuilds"] for s in stats) if stats else 0.0, "count"),
        "md.kernels.mpairs_per_s": (
            counters["md.kernels.pairs"] / kernel_s / 1e6 if kernel_s else 0.0, "Mpairs/s"),
        "dlb.rounds": (rounds * per_call, "count"),
        "dlb.moves_per_round": (counters["dlb.moves"] / rounds if rounds else 0.0, "count"),
        "dlb.boundary_over_bound": (statistics.mean(ratios) if ratios else 0.0, "ratio"),
        "obs.events_per_step": (counters["obs.events"] / steps, "count"),
        "engine.worker_busy_ms": (counters["engine.busy_s"] * 1e3 / steps, "ms/step"),
        "engine.wait_ms": (counters["engine.wait_s"] * 1e3 / steps, "ms/step"),
        "unattributed.self_ms": ((wall_ns - attributed) / 1e6 / steps, "ms/step"),
        "unattributed.share": ((wall_ns - attributed) / wall_ns, "ratio"),
        "trace_overhead": (
            statistics.median(c.wall_s for c in traced)
            / statistics.median(c.wall_s for c in untraced), "ratio"),
    })
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    # The benchmark names its strategies; the environment must not swap them.
    for var in ("REPRO_KERNEL", "REPRO_BALANCER"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workload.prepare(args.seed, args.tiny)
    setup, warm, warm_runner, untraced, traced, tracer = measure(workload, args)
    found, ratios = run_checks(workload, args, warm, warm_runner, untraced, traced)

    if args.trace:
        metrics = per_layer(tracer, untraced, traced, ratios)
    else:
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(workload, setup, untraced).items()
        }

    host = stamp()
    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced calls of {untraced[0].steps} steps")
    for check in found:
        print(f"check {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace:
        share = metrics["unattributed.share"][0]
        if share > layers.UNATTRIBUTED_BUDGET:
            print(f"FLAG: unattributed is {share:.1%} of traced wall on {args.workload}, "
                  f"over the {layers.UNATTRIBUTED_BUDGET:.0%} budget")

    failed = sum(not c.ok for c in found)
    line = {
        "correct": failed == 0,
        "attempted": len(found),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "checks": [c.__dict__ for c in found],
        "calls": [{"wall_s": c.wall_s, "run_s": c.run_s, "steps": c.steps}
                  for c in untraced],
        "result": line,
    }, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
