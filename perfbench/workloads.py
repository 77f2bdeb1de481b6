"""The four benchmark workloads, driven through ``repro.api`` only.

A workload turns ``--seed`` into its inputs once (``prepare``), then
offers three operations the harness times:

* ``setup_once`` -- a call that stops before the first step (zero steps, or
  an empty configuration sequence), measuring set-up alone;
* ``warmup`` -- one call whose runner the output checks inspect;
* ``call`` -- one call at the workload's stated size.

``balanced_records`` says how many records of a result lie within the
balancer's effective range. The same seed always produces the same run
digests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro import api
from repro.config import MDConfig, RunConfig
from repro.errors import AnalysisError
from repro.experiments.common import droplets_for, geometry_for, simulation_config_for
from repro.experiments.fig10 import auto_rounds
from repro.md.lattice import maxwell_boltzmann_velocities
from repro.md.system import ParticleSystem
from repro.obs import Observability
from repro.rng import repetition_seeds
from repro.theory.boundary import detect_divergence_step
from repro.units import PAPER_RHO
from repro.workloads.concentration import ConcentrationSchedule
from repro.workloads.supercooled import supercooled_simulation_config

import layers


@dataclass
class Call:
    """One timed call into the API."""

    wall_s: float
    run_s: float
    steps: int
    results: list = field(default_factory=list)
    #: Label of each result: the sweep's m, or the MD workload's name.
    labels: list = field(default_factory=list)


def seeded_gas(md: MDConfig, seed: int, min_separation: float = 0.95) -> ParticleSystem:
    """A uniform gas at the config's density, no two particles closer than
    ``min_separation``, with Maxwell-Boltzmann velocities at its temperature.

    Random sequential addition on a periodic k-d tree: candidates near an
    accepted particle, or near a lower-indexed candidate, are dropped.
    Unlike the presets' lattice start, cell and PE loads fluctuate from the
    first step, so the short timed runs see a real imbalance.
    """
    rng = np.random.default_rng(seed)
    box = md.box_length
    kept = np.empty((0, 3))
    while len(kept) < md.n_particles:
        cand = rng.uniform(0.0, box, size=(2 * (md.n_particles - len(kept)), 3))
        if len(kept):
            dist, _ = cKDTree(kept, boxsize=box).query(
                cand, distance_upper_bound=min_separation
            )
            cand = cand[np.isinf(dist)]
        clash = cKDTree(cand, boxsize=box).query_pairs(
            min_separation, output_type="ndarray"
        )
        keep = np.ones(len(cand), dtype=bool)
        keep[clash[:, 1]] = False
        kept = np.concatenate([kept, cand[keep]])[: md.n_particles]
    velocities = maxwell_boltzmann_velocities(md.n_particles, md.temperature, rng)
    return ParticleSystem(kept, velocities, box)


class MDWorkload:
    """Parallel MD via :func:`repro.api.simulate`: K steps per call."""

    kind = "md"

    def __init__(
        self,
        name: str,
        *,
        steps: int,
        tiny_steps: int,
        dlb: bool,
        preset: str | None = None,
        observability: bool = False,
        engine_workers: int | None = None,
    ) -> None:
        self.name = name
        self._steps = (steps, tiny_steps)
        self.dlb = dlb
        self.preset = preset
        self.observability = observability
        self.engine_workers = engine_workers

    def prepare(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.steps = self._steps[1] if tiny else self._steps[0]
        if self.preset is not None:
            self.config = self.preset
            self.system = None
        else:
            # N=8000 on 16 PEs over 12^3 cells: pillar cross-section m=3.
            self.config = supercooled_simulation_config(
                n_particles=8000, n_pes=16, cells_per_side=12,
                dlb_enabled=self.dlb, attraction=0.3, n_attractors=12,
            )
            self.system = seeded_gas(self.config.md, seed)

    def _simulate(self, steps: int) -> tuple[float, object]:
        obs = (
            Observability.create(trace=False, metrics=True, profiler=False, events=True)
            if self.observability
            else None
        )
        engine = {}
        if self.engine_workers is not None:
            engine = {"engine": "multiprocess", "engine_workers": self.engine_workers}
        system = self.system.copy() if self.system is not None else None
        start = time.perf_counter()
        result = api.simulate(
            self.config,
            run=RunConfig(steps=steps, seed=self.seed),
            dlb=self.dlb,
            balancer="permanent",
            observability=obs,
            system=system,
            **engine,
        )
        return time.perf_counter() - start, result

    def setup_once(self) -> float:
        return self._simulate(0)[0]

    def balanced_records(self, result) -> int:
        """The short MD runs stay within the balancer's effective range."""
        return len(result.records)

    def call(self, stopwatch) -> Call:
        before = len(stopwatch.run_seconds)
        wall, result = self._simulate(self.steps)
        run_s = sum(stopwatch.run_seconds[before:])
        return Call(wall, run_s, self.steps, [result], [self.name])

    warmup = call


class SweepWorkload:
    """Fig. 10 boundary repetitions via :func:`repro.api.simulate_driven`.

    One call runs one quasi-static concentration sweep per pillar
    cross-section m, each with the permanent-cell balancer and the Fig. 10
    experiment's geometry, schedule length and rounds per configuration.
    """

    kind = "sweep"
    N_PES = 16
    SCHEDULE_STEPS = 130
    #: The Fig. 10 experiment's boundary detector settings.
    DETECTOR = {"factor": 2.5, "sustain": 15}

    def __init__(self, name: str) -> None:
        self.name = name

    def prepare(self, seed: int, tiny: bool) -> None:
        ms = (2,) if tiny else (2, 3, 4)
        self.sweeps = []
        for m, schedule_seed in zip(ms, repetition_seeds(seed, len(ms))):
            geometry = geometry_for(m, self.N_PES, PAPER_RHO)
            self.sweeps.append(
                (
                    m,
                    simulation_config_for(geometry, dlb_enabled=True),
                    auto_rounds(geometry),
                    ConcentrationSchedule(
                        n_particles=geometry.n_particles,
                        box_length=geometry.box_length,
                        n_steps=self.SCHEDULE_STEPS,
                        n_droplets=droplets_for(geometry),
                        seed=schedule_seed,
                    ),
                )
            )

    def _drive(self, sweeps, stopwatch, empty: bool = False) -> Call:
        call = Call(0.0, 0.0, 0)
        for m, config, rounds, schedule in sweeps:
            before = len(stopwatch.run_seconds) if stopwatch is not None else 0
            start = time.perf_counter()
            result = api.simulate_driven(
                config, [] if empty else schedule,
                rounds_per_config=rounds, balancer="permanent",
            )
            call.wall_s += time.perf_counter() - start
            if stopwatch is not None:
                call.run_s += sum(stopwatch.run_seconds[before:])
            call.steps += len(result.records) * rounds
            call.results.append(result)
            call.labels.append(m)
        return call

    def setup_once(self) -> float:
        return self._drive(self.sweeps, None, empty=True).wall_s

    def balanced_records(self, result) -> int:
        """Records before the boundary of the balancer's effective range:
        past it, the load is set by the droplets, not by the balancer."""
        try:
            return detect_divergence_step(result.spread, **self.DETECTOR)
        except AnalysisError:
            return len(result.records)

    def call(self, stopwatch) -> Call:
        return self._drive(self.sweeps, stopwatch)

    def warmup(self, stopwatch) -> Call:
        """The smallest sweep only: primes imports and caches cheaply."""
        return self._drive(self.sweeps[:1], stopwatch)


#: Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        MDWorkload(
            layers.FIG5B,
            steps=200, tiny_steps=4, dlb=True, preset="fig5b-scaled", observability=True,
        ),
        MDWorkload(
            layers.M3_DDM,
            steps=30, tiny_steps=3, dlb=False,
        ),
        MDWorkload(
            layers.M3_MP2,
            steps=30, tiny_steps=3, dlb=True, engine_workers=2,
        ),
        SweepWorkload(layers.FIG10),
    )
}
