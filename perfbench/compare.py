#!/usr/bin/env python3
"""Compare two benchmark result files written by ``perfbench/run.py``.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Prints each metric of both results with the ratio B/A. Refuses (exit 2)
when the results come from different workloads or trace modes, or from
hosts whose ``cpu_count`` differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def comparable(a: dict, b: dict) -> tuple[bool, str]:
    """Results are only comparable from one host class. The coarsest guard
    is the CPU count: the engine workload's speed-up and the thread budget
    both depend on it."""
    if a.get("cpu_count") != b.get("cpu_count"):
        return False, f"cpu_count differs: {a.get('cpu_count')} vs {b.get('cpu_count')}"
    return True, ""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    ok, why = comparable(a["host"], b["host"])
    if not ok:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} differs: {a[key]} vs {b[key]}",
                  file=sys.stderr)
            return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in (n for n in ma if n in mb):
        va, vb = ma[name]["value"], mb[name]["value"]
        ratio = f"{vb / va:8.3f}x" if va else "      n/a"
        print(f"{name:<40} {va:>14.6g} {vb:>14.6g} {ratio} {ma[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
