"""Top-level simulation runners: DDM and DLB-DDM.

:class:`ParallelMDRunner` evolves real LJ dynamics while accounting the
parallel execution on the virtual machine -- the DDM vs DLB-DDM comparison of
Figures 5 and 6 is two instances of it differing only in ``dlb.enabled``.

:class:`DrivenLoadRunner` feeds an externally generated sequence of
configurations through the same decomposition/accounting/DLB machinery --
the quasi-static concentration sweeps behind Figures 9-10 and Table 1
(see DESIGN.md, substitutions).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..config import RunConfig, SimulationConfig
from ..decomp.assignment import CellAssignment
from ..dlb.strategies import create_balancer, resolve_balancer_name
from ..engine.base import Engine, EngineContext
from ..engine.forcefield import EngineForceField
from ..errors import CheckpointError, ConfigurationError
from ..md.celllist import CellList
from ..md.forces import ForceField
from ..md.integrator import VelocityVerlet
from ..md.kernels import resolve_kernel_name
from ..md.observables import temperature
from ..md.potential import LennardJones
from ..md.simulation import attractor_sites, build_system
from ..md.system import ParticleSystem
from ..md.thermostat import VelocityRescale
from ..obs import (
    ImbalanceTracker,
    Observability,
    collect_balancer,
    collect_imbalance,
    collect_neighbor_stats,
    collect_timing,
    collect_traffic,
)
from ..obs.events import EventLog
from ..parallel.instrumentation import StepTiming
from ..rng import generator
from ..theory.concentration import measure_concentration
from .accounting import StepAccountant
from .checkpoint import CheckpointManager
from .ddm import decomposed_force_pass
from .results import RunResult, StepRecord

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..faults.audit import InvariantAuditor
    from ..faults.injector import FaultInjector


#: Span names of the per-PE phase timeline, in within-step order.
_PHASE_SPANS = ("dlb", "force", "halo-comm", "integrate")


class _ObservedRunner:
    """What the two runners share: the balancer round and observability.

    :meth:`_rebalance` is the one balancer round both step loops run. The
    observability hooks are no-ops unless an
    :class:`~repro.obs.Observability` bundle was supplied: the disabled path
    is a single ``None`` check per step, with no allocation.
    """

    observability: Observability | None
    trace_pid: int
    sim_time: float
    accountant: StepAccountant

    def _init_balancer(self, requested: str | None, faults) -> None:
        #: Resolved balancer strategy name; like the kernel, "auto"/env
        #: resolution happens here, once, on the driver, so engine workers,
        #: events, checkpoints and result metadata inherit a concrete name.
        self.balancer_name = resolve_balancer_name(requested)
        self.balancer = (
            create_balancer(
                self.assignment,
                self.config.dlb,
                injector=faults,
                strategy=self.balancer_name,
            )
            if self.config.dlb.enabled
            else None
        )

    @property
    def dlb_enabled(self) -> bool:
        """Whether this runner balances load (DLB-DDM) or not (plain DDM)."""
        return self.balancer is not None

    def _rebalance(self, counts: np.ndarray) -> list:
        """One balancer round, when the interval gate opens at this step.

        Decides and applies the moves from the previous step's times, logs
        the decision and charges the migration cost; ``counts`` are the
        per-cell particle counts the round weighs. Returns the moves.
        """
        if self.balancer is None or self.step_count == 0:
            return []
        if self.step_count % self.config.dlb.interval != 0:
            return []
        # The pre-round lent set must be captured before apply() mutates the
        # holder map; the decision event records the round's exact inputs.
        lent_before = self._lent_pairs() if self.events is not None else []
        moves = self.balancer.step(
            self._last_times, step=self.step_count, counts=counts
        )
        if self.events is not None:
            self._emit_decision(
                self.step_count, self._last_times, lent_before, moves,
                counts=counts,
            )
        self.accountant.charge_moves(
            moves, counts, self.assignment, step=self.step_count
        )
        return moves

    def _init_observability(
        self,
        observability: Observability | None,
        trace_pid: int,
        dlb_enabled: bool,
        n_pes: int,
        kind: str,
    ) -> None:
        if trace_pid < 0:
            raise ConfigurationError(
                f"trace_pid must be non-negative, got {trace_pid}"
            )
        if observability is not None and observability.trace is not None:
            # Fail loudly when two runners share a recorder and a pid: the
            # old behavior silently interleaved their spans on one track.
            observability.trace.claim_pid(trace_pid)
        self.observability = observability
        self.trace_pid = int(trace_pid)
        #: Simulated-clock position (sum of barrier times so far).
        self.sim_time = 0.0
        self._mode_label = "dlb" if dlb_enabled else "ddm"
        #: Nullable flight recorder (the bundle's, shared with the injector
        #: and auditor) and the imbalance analytics fed from every step.
        self.events: EventLog | None = (
            observability.events if observability is not None else None
        )
        self.imbalance: ImbalanceTracker | None = None
        if observability is not None and (
            observability.metrics is not None or observability.events is not None
        ):
            self.imbalance = ImbalanceTracker(n_pes)
        self._emit_run_start(kind)

    def _emit_run_start(self, kind: str) -> None:
        events = self.events
        if events is None:
            return
        dec = self.config.decomposition
        dlb = self.config.dlb
        events.emit(
            0, "run.start",
            runner=kind,
            mode=self._mode_label,
            n_pes=dec.n_pes,
            cells_per_side=dec.cells_per_side,
            dlb={
                "enabled": dlb.enabled,
                "policy": dlb.policy,
                "threshold": dlb.threshold,
                "max_sends_per_step": dlb.max_sends_per_step,
                "interval": dlb.interval,
                "balancer": self.balancer_name,
            },
        )

    def _lent_pairs(self) -> list[list[int]]:
        """``[cell, holder]`` pairs of every currently-lent cell."""
        holder = self.assignment.holder
        away = np.flatnonzero(holder != self.assignment.home)
        return [[int(cell), int(holder[cell])] for cell in away]

    def _emit_decision(
        self,
        step: int,
        times: np.ndarray,
        lent_before: list[list[int]],
        moves: list,
        counts: np.ndarray | None = None,
    ) -> None:
        """Record one balancer round: its full inputs and the chosen moves.

        ``times`` and the timing-view snapshot are exactly what
        :meth:`~repro.dlb.balancer.DynamicLoadBalancer.decide` consumed
        (the view is captured *after* the round's refresh), so the decision
        can be replayed offline from the event alone — see
        :mod:`repro.dlb.explain`. Strategies that weight cells by particle
        counts (``sfc``) additionally record the counts, completing the
        replay inputs; count-blind strategies skip the field to keep their
        events byte-identical to pre-seam logs.
        """
        events = self.events
        if events is None:
            return
        view = self.balancer.view
        extra: dict = {}
        if self.balancer.strategy.needs_counts and counts is not None:
            # Flatten the cell list's (nc, nc, nc) grid to the cell-id order.
            extra["counts"] = [int(c) for c in np.asarray(counts).reshape(-1)]
        events.emit(
            step, "dlb.decision",
            times=[float(t) for t in times],
            lent=lent_before,
            view=view.state_dict() if view is not None else None,
            **extra,
            moves=[
                {
                    "cell": int(m.cell),
                    "src": int(m.src),
                    "dst": int(m.dst),
                    "case": getattr(m.kind, "value", m.kind),
                }
                for m in moves
            ],
        )
        for m in moves:
            events.emit(
                step, "cell.migrate",
                cell=int(m.cell), src=int(m.src), dst=int(m.dst),
                case=getattr(m.kind, "value", m.kind),
            )

    def _observe_step(self, timing: StepTiming, moves: list) -> None:
        """Emit one step's trace spans, migration instants and step metrics.

        Called with the step's start position still in ``self.sim_time``;
        the caller advances the simulated clock by ``timing.tt`` afterwards.
        """
        obs = self.observability
        if obs is None:
            return
        trace = obs.trace
        if trace is not None:
            components = self.accountant.last_components
            base = self.sim_time
            pid = self.trace_pid
            step_args = {"step": timing.step}
            for move in moves:
                trace.migration(base, move.cell, move.src, move.dst, pid=pid)
            for pe in range(components.n_pes):
                cursor = base
                durations = (
                    components.dlb_time,
                    float(components.force_times[pe]),
                    float(components.comm_times[pe]),
                    float(components.other_times[pe]),
                )
                for name, duration in zip(_PHASE_SPANS, durations):
                    if duration > 0.0:
                        trace.span(
                            name, cursor, duration, pe=pe, pid=pid,
                            category="phase", args=step_args,
                        )
                    cursor += duration
        registry = obs.metrics
        if registry is not None:
            mode = self._mode_label
            registry.counter("repro_steps_total", "simulated steps executed").inc(
                1, mode=mode
            )
            if moves:
                registry.counter(
                    "repro_cell_migrations_total", "cells moved by the balancer"
                ).inc(len(moves), mode=mode)
        obs.maybe_flush(timing.step)

    def _observe_totals(
        self, timing: StepTiming, totals: np.ndarray, counts: np.ndarray
    ) -> None:
        """Feed the imbalance analytics (and its DLB counterfactual) one step."""
        tracker = self.imbalance
        if tracker is None:
            return
        counterfactual = None
        if self.dlb_enabled:
            counterfactual = self.accountant.counterfactual_step_time(
                timing.step, counts, self.assignment
            )
        tracker.observe(timing.step, totals, timing.tt, counterfactual)

    def _emit_run_end(self) -> None:
        events = self.events
        if events is None:
            return
        events.emit(
            self.step_count, "run.end",
            steps=self.step_count,
            sim_time=self.sim_time,
            imbalance=self.imbalance.summary() if self.imbalance is not None else None,
        )

    def _restore_observed(self, state: dict) -> None:
        """Restore the flight recorder and analytics from a runner snapshot.

        The sim buffer is replaced wholesale: the resumed run inherits the
        killed run's events — including its original ``run.start`` — and
        drops anything this runner emitted at construction, so the final
        file is byte-identical to an uninterrupted run's.
        """
        if self.events is not None and state.get("events") is not None:
            self.events.load_state_dict(state["events"])
        if self.imbalance is not None and state.get("imbalance") is not None:
            self.imbalance.load_state_dict(state["imbalance"])

    def collect_metrics(self, result: RunResult | None = None) -> None:
        """Snapshot the run's stats objects into the metrics registry.

        Call once at the end of a run; feeds the pair-search counters (when
        the runner has them), the traffic log, the balancer stats and the
        timing series, all labelled with the runner's mode.
        """
        obs = self.observability
        if obs is None or obs.metrics is None:
            return
        registry = obs.metrics
        mode = self._mode_label
        stats = getattr(self, "neighbor_stats", None)
        if stats is not None:
            collect_neighbor_stats(registry, stats, mode=mode)
        collect_traffic(registry, self.accountant.traffic, mode=mode)
        balancer = getattr(self, "balancer", None)
        if balancer is not None:
            collect_balancer(registry, balancer.stats, mode=mode)
        if result is not None and len(result.timing):
            collect_timing(registry, result.timing, mode=mode)
        if self.imbalance is not None:
            collect_imbalance(registry, self.imbalance, mode=mode)


class ParallelMDRunner(_ObservedRunner):
    """A parallel MD simulation (real physics + simulated machine).

    ``observability`` (nullable, default off) attaches the trace recorder /
    metrics registry bundle; ``trace_pid`` selects which trace process the
    per-PE tracks land under, so one recorder can hold a DDM and a DLB-DDM
    run side by side.
    """

    def __init__(
        self,
        config: SimulationConfig,
        run_config: RunConfig,
        system: ParticleSystem | None = None,
        observability: Observability | None = None,
        trace_pid: int = 0,
        faults: "FaultInjector | None" = None,
        auditor: "InvariantAuditor | None" = None,
        engine: Engine | None = None,
    ) -> None:
        if config.decomposition.shape != "pillar":
            raise ConfigurationError(
                "ParallelMDRunner implements the square-pillar decomposition "
                f"(DLB's shape); got {config.decomposition.shape!r}"
            )
        self.config = config
        self.run_config = run_config
        md = config.md
        dec = config.decomposition

        #: Nullable :class:`~repro.faults.injector.FaultInjector` /
        #: :class:`~repro.faults.audit.InvariantAuditor`; with both ``None``
        #: the step path is unchanged (one branch per hook).
        self.faults = faults
        self.auditor = auditor
        #: Nullable execution engine; ``None`` keeps the classic in-process
        #: force path (global pair kernel + optional measured-mode DDM pass).
        self.engine = engine
        self.cell_list = CellList(md.box_length, dec.cells_per_side)
        self.assignment = CellAssignment(dec.cells_per_side, dec.n_pes)
        self.accountant = StepAccountant(
            config.machine,
            self.cell_list,
            dec.n_pes,
            faults=faults,
            profiler=observability.profiler if observability is not None else None,
        )
        self._init_balancer(run_config.balancer, faults)

        rng = generator(run_config.seed)
        self.system = system if system is not None else build_system(md, rng)
        if abs(self.system.box_length - md.box_length) > 1e-9:
            raise ConfigurationError(
                f"system box {self.system.box_length} != config box {md.box_length}"
            )
        self.potential = LennardJones(cutoff=md.cutoff)
        attractors = attractor_sites(md, rng)
        #: Resolved force-kernel tier name ("numpy", "half" or "jit"); "auto"
        #: is resolved here, once, so engine workers inherit a concrete name.
        self.kernel_name = resolve_kernel_name(run_config.kernel)
        if engine is not None:
            if run_config.force_backend != "kdtree":
                raise ConfigurationError(
                    "execution engines run the decomposed per-PE pass with "
                    "kd-tree pair search; force_backend must be 'kdtree', "
                    f"got {run_config.force_backend!r}"
                )
            # Observability must be attached before bind so the engine's
            # bind-time lifecycle events (worker spawns) reach the recorder.
            engine.attach_observability(observability)
            engine.bind(
                EngineContext(
                    n_particles=self.system.n,
                    n_pes=dec.n_pes,
                    box_length=md.box_length,
                    cells_per_side=dec.cells_per_side,
                    potential=self.potential,
                    kernel=self.kernel_name,
                    balancer=self.balancer_name,
                )
            )
            self.force_field = EngineForceField(
                engine,
                self.assignment.cell_owner_map,
                attraction=md.attraction,
                attractors=attractors,
            )
        else:
            self.force_field = ForceField(
                self.potential,
                backend=run_config.force_backend,
                cells_per_side=dec.cells_per_side,
                attraction=md.attraction,
                attractors=attractors,
                skin=run_config.skin,
                max_reuse=run_config.neighbor_max_reuse,
                # Share the runner's grid instead of letting the force field
                # build its own copy per search (the seed rebuilt one per step).
                cell_list=self.cell_list,
                kernel=self.kernel_name,
            )
        self.integrator = VelocityVerlet(md.dt)
        self.thermostat = VelocityRescale(md.temperature, md.rescale_interval)
        self.integrator.initialize(self.system, self.force_field)

        self._last_times = np.zeros(dec.n_pes, dtype=np.float64)
        self._last_counts = self.cell_list.counts(self.system.positions)
        self.step_count = 0
        self._init_observability(
            observability, trace_pid, config.dlb.enabled, dec.n_pes, "parallel_md"
        )

    @property
    def neighbor_stats(self):
        """Pair-search counters (Verlet rebuilds/reuses, candidate ratios)."""
        return self.force_field.stats

    def step(self) -> StepRecord:
        """One full step: redistribution, physics, accounting."""
        moves = self._rebalance(self._last_counts)

        force_result = self.integrator.step(self.system, self.force_field)
        self.step_count += 1
        self.thermostat.maybe_rescale(self.system, self.step_count)

        counts = self.cell_list.counts(self.system.positions)
        override = None
        if self.run_config.timing_mode == "measured":
            if self.engine is not None:
                # The engine's force pass *is* the decomposed pass; reuse its
                # per-PE wall-clock instead of computing the forces twice.
                override = self.force_field.last_pass.per_pe_seconds
            else:
                # With the Verlet backend the integrator's force pass just
                # refreshed (or reused) the cached candidate list; hand it to
                # the decomposed pass so no PE repeats the pair search.
                verlet = self.force_field.verlet_list
                candidates = (
                    verlet.candidates(self.system.positions)
                    if verlet is not None
                    else None
                )
                decomposed = decomposed_force_pass(
                    self.system,
                    self.cell_list,
                    self.assignment.cell_owner_map(),
                    self.config.decomposition.n_pes,
                    self.potential,
                    candidate_pairs=candidates,
                )
                override = decomposed.per_pe_seconds
        timing, totals = self.accountant.account_step(
            self.step_count, counts, self.assignment, self.dlb_enabled, override
        )
        self._observe_totals(timing, totals, counts)
        if self.auditor is not None:
            self.auditor.maybe_audit(
                self.step_count,
                counts=counts,
                forces=self.system.forces,
                moves=moves,
            )
        if self.observability is not None:
            self._observe_step(timing, moves)
        self.sim_time += timing.tt
        self._last_times = totals
        self._last_counts = counts

        concentration = measure_concentration(counts, self.assignment)
        return StepRecord(
            step=self.step_count,
            timing=timing,
            concentration=concentration,
            n_moves=len(moves),
            temperature=temperature(self.system),
            potential_energy=force_result.potential_energy,
        )

    def run(
        self,
        steps: int | None = None,
        checkpoint: "CheckpointManager | None" = None,
        result: RunResult | None = None,
    ) -> RunResult:
        """Run ``steps`` steps (default: the run config's), collecting records.

        ``checkpoint`` (nullable) snapshots the full runner state at the
        manager's cadence; pass the partial ``result`` returned by
        :meth:`restore` to continue a run, with ``steps`` counting only the
        *remaining* steps.
        """
        steps = self.run_config.steps if steps is None else steps
        if result is None:
            result = RunResult(dlb_enabled=self.dlb_enabled)
        for _ in range(steps):
            record = self.step()
            if self.step_count % self.run_config.record_interval == 0:
                result.append(record)
            if checkpoint is not None and checkpoint.due(self.step_count):
                checkpoint.save(self.step_count, self.state_dict(result))
                if self.events is not None:
                    self.events.emit_host(self.step_count, "checkpoint.save")
        self._emit_run_end()
        self.collect_metrics(result)
        return result

    # -- checkpointing -------------------------------------------------------

    def _config_token(self) -> str:
        """Identity of the configuration a snapshot belongs to.

        Frozen-dataclass reprs are deterministic, so a snapshot can refuse
        to restore into a runner built from different settings. The
        *resolved* balancer name is included on top of the configs: a run
        configured with ``balancer=None`` resolves through the environment,
        and resuming it under a different ``REPRO_BALANCER`` must refuse.
        """
        return f"{self.config!r}|{self.run_config!r}|balancer={self.balancer_name}"

    def state_dict(self, result: RunResult | None = None) -> dict:
        """Everything mutable, deep-copied: system arrays, holder map,
        balancer ledger and timing view, pending accounting charges, Verlet
        cache (with pair order), clocks and the partial records."""
        return {
            "kind": "parallel_md",
            "config_token": self._config_token(),
            "step_count": self.step_count,
            "sim_time": self.sim_time,
            "positions": self.system.positions.copy(),
            "velocities": self.system.velocities.copy(),
            "forces": self.system.forces.copy(),
            "holder": self.assignment.holder.copy(),
            "last_times": self._last_times.copy(),
            "last_counts": self._last_counts.copy(),
            "balancer": self.balancer.state_dict() if self.balancer is not None else None,
            "accountant": self.accountant.state_dict(),
            "force_cache": self.force_field.cache_state(),
            "events": self.events.state_dict() if self.events is not None else None,
            "imbalance": (
                self.imbalance.state_dict() if self.imbalance is not None else None
            ),
            "records": list(result.records) if result is not None else [],
        }

    def restore(self, state: dict) -> RunResult:
        """Restore a :meth:`state_dict` snapshot; returns the partial result.

        Raises :class:`~repro.errors.CheckpointError` when the snapshot was
        taken under a different configuration or for a different runner kind.
        """
        if state.get("kind") != "parallel_md":
            raise CheckpointError(
                f"snapshot is for runner kind {state.get('kind')!r}, not 'parallel_md'"
            )
        if state.get("config_token") != self._config_token():
            raise CheckpointError(
                "snapshot was taken under a different configuration; refusing "
                "to resume (same config + seed is what makes resume bit-identical)"
            )
        self.step_count = int(state["step_count"])
        self.sim_time = float(state["sim_time"])
        self.system.positions[...] = state["positions"]
        self.system.velocities[...] = state["velocities"]
        self.system.forces[...] = state["forces"]
        self.assignment.holder[...] = state["holder"]
        self._last_times = np.array(state["last_times"], copy=True)
        self._last_counts = np.array(state["last_counts"], copy=True)
        if state["balancer"] is not None and self.balancer is not None:
            self.balancer.load_state_dict(state["balancer"])
        self.accountant.load_state_dict(state["accountant"])
        self.force_field.restore_cache_state(
            state["force_cache"], self.system.box_length
        )
        self._restore_observed(state)
        result = RunResult(dlb_enabled=self.dlb_enabled)
        for record in state["records"]:
            result.append(record)
        return result


class DrivenLoadRunner(_ObservedRunner):
    """Load-balance dynamics driven by an external configuration sequence.

    No forces are integrated: each supplied configuration is binned into
    cells, the step is time-accounted on the virtual machine, and the
    balancer reacts. This isolates the DLB mechanism from the (slow) physics
    that produces concentration, which is exactly what the effective-range
    experiments need.

    The runner owns a single :class:`CellList` whose periodic stencil tables
    are computed once and cached, so the per-round halo accounting does not
    re-derive the grid geometry (the seed recomputed the 26-neighbour tables
    on every call).
    """

    def __init__(
        self,
        config: SimulationConfig,
        rounds_per_config: int = 1,
        observability: Observability | None = None,
        trace_pid: int = 0,
        faults: "FaultInjector | None" = None,
        auditor: "InvariantAuditor | None" = None,
        balancer: str | None = None,
    ) -> None:
        if config.decomposition.shape != "pillar":
            raise ConfigurationError("DrivenLoadRunner needs the pillar decomposition")
        if rounds_per_config <= 0:
            raise ConfigurationError(
                f"rounds_per_config must be positive, got {rounds_per_config}"
            )
        self.config = config
        dec = config.decomposition
        self.faults = faults
        self.auditor = auditor
        self.cell_list = CellList(config.md.box_length, dec.cells_per_side)
        self.assignment = CellAssignment(dec.cells_per_side, dec.n_pes)
        self._init_balancer(balancer, faults)
        self.accountant = StepAccountant(
            config.machine,
            self.cell_list,
            dec.n_pes,
            faults=faults,
            profiler=observability.profiler if observability is not None else None,
        )
        self.rounds_per_config = int(rounds_per_config)
        self._last_times = np.zeros(dec.n_pes, dtype=np.float64)
        self._last_counts: np.ndarray | None = None
        self.step_count = 0
        #: Configurations already fully processed (resume skips this many).
        self.configs_done = 0
        self._init_observability(
            observability, trace_pid, config.dlb.enabled, dec.n_pes, "driven_load"
        )

    def run(
        self,
        configurations: Iterable[np.ndarray],
        checkpoint: "CheckpointManager | None" = None,
        result: RunResult | None = None,
    ) -> RunResult:
        """Process configurations (position arrays) in order.

        ``checkpoint`` snapshots after each fully processed configuration at
        the manager's cadence (its ``every`` counts configurations here).
        After :meth:`restore`, pass the *same* configuration sequence and the
        returned partial ``result``: the first ``configs_done`` entries are
        skipped and processing continues exactly where the snapshot was taken.
        """
        if result is None:
            result = RunResult(dlb_enabled=self.dlb_enabled)
        skip = self.configs_done
        for index, positions in enumerate(configurations):
            if index < skip:
                continue
            counts = self.cell_list.counts(positions)
            n_moves = 0
            timing = None
            for _ in range(self.rounds_per_config):
                # No previous configuration yet: weigh the current one.
                moves = self._rebalance(
                    self._last_counts if self._last_counts is not None else counts
                )
                n_moves += len(moves)
                self.step_count += 1
                timing, totals = self.accountant.account_step(
                    self.step_count, counts, self.assignment, self.dlb_enabled
                )
                self._observe_totals(timing, totals, counts)
                if self.auditor is not None:
                    self.auditor.maybe_audit(self.step_count, counts=counts, moves=moves)
                if self.observability is not None:
                    self._observe_step(timing, moves)
                self.sim_time += timing.tt
                self._last_times = totals
                self._last_counts = counts
            concentration = measure_concentration(counts, self.assignment)
            assert timing is not None
            result.append(
                StepRecord(
                    step=self.step_count,
                    timing=timing,
                    concentration=concentration,
                    n_moves=n_moves,
                )
            )
            self.configs_done = index + 1
            if checkpoint is not None and checkpoint.due(self.configs_done):
                checkpoint.save(self.step_count, self.state_dict(result))
                if self.events is not None:
                    self.events.emit_host(self.step_count, "checkpoint.save")
        self._emit_run_end()
        self.collect_metrics(result)
        return result

    # -- checkpointing -------------------------------------------------------

    def _config_token(self) -> str:
        return (
            f"{self.config!r}|rounds={self.rounds_per_config}"
            f"|balancer={self.balancer_name}"
        )

    def state_dict(self, result: RunResult | None = None) -> dict:
        """Mutable state snapshot (see :meth:`ParallelMDRunner.state_dict`)."""
        return {
            "kind": "driven_load",
            "config_token": self._config_token(),
            "step_count": self.step_count,
            "configs_done": self.configs_done,
            "sim_time": self.sim_time,
            "holder": self.assignment.holder.copy(),
            "last_times": self._last_times.copy(),
            "last_counts": (
                self._last_counts.copy() if self._last_counts is not None else None
            ),
            "balancer": self.balancer.state_dict() if self.balancer is not None else None,
            "accountant": self.accountant.state_dict(),
            "events": self.events.state_dict() if self.events is not None else None,
            "imbalance": (
                self.imbalance.state_dict() if self.imbalance is not None else None
            ),
            "records": list(result.records) if result is not None else [],
        }

    def restore(self, state: dict) -> RunResult:
        """Restore a :meth:`state_dict` snapshot; returns the partial result."""
        if state.get("kind") != "driven_load":
            raise CheckpointError(
                f"snapshot is for runner kind {state.get('kind')!r}, not 'driven_load'"
            )
        if state.get("config_token") != self._config_token():
            raise CheckpointError(
                "snapshot was taken under a different configuration; refusing to resume"
            )
        self.step_count = int(state["step_count"])
        self.configs_done = int(state["configs_done"])
        self.sim_time = float(state["sim_time"])
        self.assignment.holder[...] = state["holder"]
        self._last_times = np.array(state["last_times"], copy=True)
        self._last_counts = (
            np.array(state["last_counts"], copy=True)
            if state["last_counts"] is not None
            else None
        )
        if state["balancer"] is not None and self.balancer is not None:
            self.balancer.load_state_dict(state["balancer"])
        self.accountant.load_state_dict(state["accountant"])
        self._restore_observed(state)
        result = RunResult(dlb_enabled=self.dlb_enabled)
        for record in state["records"]:
            result.append(record)
        return result
