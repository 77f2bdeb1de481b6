"""Host stamp recorded with every result, and the thread budget."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: Thread-pool variables pinned to 1 before numpy loads, so the benchmark
#: process and the engine workers it forks never run more threads than the
#: host has cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def processes() -> list[tuple[int, int, int]]:
    """(pid, parent pid, process group) of every process, zombies included,
    from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The command name may hold spaces: the fields after its closing
            # parenthesis are state, parent pid, process group, ...
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        found.append((int(stat.parent.name), int(fields[1]), int(fields[2])))
    return found


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": _threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
