#!/usr/bin/env python3
"""Quickstart: run a small DLB-DDM simulation and inspect the results.

Builds the paper's supercooled-gas workload at laptop scale, runs it twice --
once as plain domain decomposition (DDM), once with the permanent-cell
dynamic load balancer (DLB-DDM) -- and prints the comparison the paper's
Figure 5 makes: DDM's per-step time grows as the gas concentrates, DLB-DDM's
stays nearly flat.

Run:  python examples/quickstart.py
"""

from repro import RunConfig, api, get_preset
from repro.reporting import comparison_report, series_preview


def main() -> None:
    preset = get_preset("bench-m2")
    print(f"Workload: {preset.description}")
    print(f"  N = {preset.n_particles} particles, P = {preset.n_pes} PEs, "
          f"m = {preset.m}, steps = {preset.steps}")
    print()

    results = {}
    for dlb_enabled in (False, True):
        label = "DLB-DDM" if dlb_enabled else "DDM"
        print(f"running {label} ...")
        results[label] = api.simulate(
            preset.simulation_config(dlb_enabled=dlb_enabled),
            run=RunConfig(steps=preset.steps, seed=7, record_interval=10),
        )

    print()
    print(comparison_report(results["DDM"], results["DLB-DDM"]))
    print()
    print(series_preview(results["DDM"].steps, results["DDM"].tt, label="DDM Tt [s]"))
    print()
    print(series_preview(results["DLB-DDM"].steps, results["DLB-DDM"].tt,
                         label="DLB-DDM Tt [s]"))


if __name__ == "__main__":
    main()
