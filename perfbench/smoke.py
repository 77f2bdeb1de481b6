#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny size (about a minute).

    python3 perfbench/smoke.py

Runs every workload with ``--tiny`` in both trace modes and asserts that:

* every output check passes;
* the untraced run prints every end-to-end metric of BENCHMARK.json, and
  the traced run every per-layer metric, by name with its declared unit;
* each layer records calls on the workloads where ``layers.LAYERS`` says it
  is heavy, and none where it is predicted absent;
* ``unattributed`` stays within its budget of traced wall;
* no process the run started is left once it has exited;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  fails without printing a result.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from host import processes
from layers import LAYERS, UNATTRIBUTED_BUDGET

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, list[int]]:
    """One run in a process group of its own, and the pids of that group
    still present once it has exited: processes the run left behind."""
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    with subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            raise
    left = [pid for pid, _, group in processes() if group == child.pid]
    if left:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr), left


def check_run(workload: str, trace: int) -> list[str]:
    proc, left = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    errors = []
    if left:
        errors.append(f"{where}: processes left running after exit: {left}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        errors.append(f"{where}: {line['failed']} of {line['attempted']} checks failed")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in line["metrics"].items()}
    if printed != declared:
        errors.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                      f"printed {printed}, declared {declared}")
    if trace:
        metrics = line["metrics"]
        for layer in LAYERS:
            calls = metrics[f"{layer.name}.calls"]["value"]
            if workload in layer.heavy_on and calls <= 0:
                errors.append(f"{where}: {layer.name} recorded no calls")
            if workload in layer.absent_on and calls != 0:
                errors.append(f"{where}: {layer.name} recorded {calls} calls, predicted none")
        share = metrics["unattributed.share"]["value"]
        if share > UNATTRIBUTED_BUDGET:
            errors.append(f"{where}: unattributed {share:.1%} over budget")
    return errors


def check_bare_directory() -> list[str]:
    """Without the library's sources the benchmark must refuse to run."""
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    try:
        proc, _ = run(bare, next(iter(w["name"] for w in SPEC["workloads"])), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    errors = check_bare_directory()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            errors.extend(found)
    for error in errors:
        print(error, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
