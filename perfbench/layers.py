"""The layer table: which public calls each layer owns, and what it predicts.

Every layer is named after the ``repro`` module that holds it. ``targets``
are the public calls the traced run wraps, written ``module:qualname``; a
plain function is wrapped where its caller looks it up (``compute_halo`` as
bound in ``repro.core.accounting``), so the wrapper sees every call the
program makes. ``heavy_on`` lists the workloads on which the layer must
record spans; ``absent_on`` those on which it must record none (the smoke
test asserts both). ``moves`` is the prediction written before measuring:
which end-to-end metric the layer should move, on which workload, and where
no change is expected.
"""

from __future__ import annotations

from dataclasses import dataclass

FIG5B = "fig5b-dlb"
M3_DDM = "m3-ddm"
M3_MP2 = "m3-dlb-mp2"
FIG10 = "fig10-sweep"
ALL = (FIG5B, M3_DDM, M3_MP2, FIG10)


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]
    heavy_on: tuple[str, ...]
    absent_on: tuple[str, ...]
    moves: str


LAYERS: tuple[Layer, ...] = (
    Layer(
        "md.neighbors",
        (
            "repro.md.forces:pairs_kdtree",
            "repro.md.forces:pairs_celllist",
            "repro.md.neighbors:VerletList.candidates",
        ),
        heavy_on=(FIG5B, M3_DDM),
        # On m3-dlb-mp2 the pair search runs inside the engine workers, which
        # the parent-process trace does not see: it shows as engine.worker_busy_ms.
        absent_on=(FIG10, M3_MP2),
        moves="steps_per_s on m3-ddm and fig5b-dlb; worker busy time on "
        "m3-dlb-mp2; no change on fig10-sweep",
    ),
    Layer(
        "md.kernels",
        (
            "repro.md.kernels:NumpyKernel.evaluate",
            "repro.md.kernels:HalfListKernel.evaluate",
            "repro.md.kernels:JitKernel.evaluate",
        ),
        heavy_on=(FIG5B, M3_DDM),
        absent_on=(FIG10, M3_MP2),
        moves="steps_per_s on m3-ddm; no change on fig10-sweep",
    ),
    Layer(
        "md.forces",
        (
            "repro.md.forces:ForceField.compute",
            "repro.md.forces:apply_attraction",
            "repro.engine.forcefield:apply_attraction",
        ),
        heavy_on=(FIG5B, M3_DDM, M3_MP2),
        absent_on=(FIG10,),
        moves="steps_per_s on m3-ddm (the attraction term)",
    ),
    Layer(
        "md.integrator",
        (
            "repro.md.integrator:VelocityVerlet.step",
            "repro.md.thermostat:VelocityRescale.maybe_rescale",
        ),
        heavy_on=(FIG5B, M3_DDM, M3_MP2),
        absent_on=(FIG10,),
        moves="steps_per_s on fig5b-dlb",
    ),
    Layer(
        "md.celllist",
        ("repro.md.celllist:CellList.counts",),
        heavy_on=ALL,
        absent_on=(),
        moves="steps_per_s on fig5b-dlb and fig10-sweep",
    ),
    Layer(
        "core.accounting",
        (
            "repro.core.accounting:StepAccountant.account_step",
            "repro.core.accounting:StepAccountant.charge_moves",
            "repro.core.accounting:StepAccountant.counterfactual_step_time",
        ),
        heavy_on=ALL,
        absent_on=(),
        moves="steps_per_s on fig10-sweep",
    ),
    Layer(
        "decomp.halo",
        ("repro.core.accounting:compute_halo",),
        heavy_on=ALL,
        absent_on=(),
        moves="steps_per_s on fig10-sweep and fig5b-dlb; small on m3-ddm",
    ),
    Layer(
        "parallel.costmodel",
        ("repro.parallel.costmodel:ComputeCostModel.per_pe_work",),
        heavy_on=ALL,
        absent_on=(),
        moves="steps_per_s on fig10-sweep",
    ),
    Layer(
        "dlb",
        ("repro.dlb.balancer:DynamicLoadBalancer.step",),
        heavy_on=(FIG5B, M3_MP2, FIG10),
        absent_on=(M3_DDM,),
        moves="steps_per_s, sim_tt_ms and sim_imbalance on fig10-sweep and "
        "fig5b-dlb; no change on m3-ddm",
    ),
    Layer(
        "theory.concentration",
        ("repro.core.runner:measure_concentration",),
        heavy_on=ALL,
        absent_on=(),
        moves="steps_per_s on fig5b-dlb",
    ),
    Layer(
        "obs",
        (
            "repro.obs.events:EventLog.emit",
            "repro.obs.events:EventLog.emit_host",
            "repro.obs.imbalance:ImbalanceTracker.observe",
            "repro.obs.imbalance:ImbalanceTracker.summary",
            "repro.obs.metrics:MetricsRegistry.counter",
            "repro.obs.metrics:MetricsRegistry.gauge",
            "repro.obs.metrics:MetricsRegistry.histogram",
            "repro.obs.metrics:Counter.inc",
            "repro.obs.metrics:Gauge.set",
            "repro.obs.metrics:Histogram.observe",
            "repro.core.runner:collect_balancer",
            "repro.core.runner:collect_imbalance",
            "repro.core.runner:collect_neighbor_stats",
            "repro.core.runner:collect_timing",
            "repro.core.runner:collect_traffic",
        ),
        heavy_on=(FIG5B,),
        absent_on=(M3_DDM, M3_MP2, FIG10),
        moves="steps_per_s and peak_rss_mb on fig5b-dlb only",
    ),
    Layer(
        "engine",
        (
            "repro.engine.base:Engine.bind",
            "repro.engine.base:Engine.close",
            "repro.engine.sequential:SequentialEngine.force_pass",
            "repro.engine.multiprocess:MultiprocessEngine.force_pass",
            "repro.engine.forcefield:EngineForceField.compute",
        ),
        heavy_on=(M3_MP2,),
        absent_on=(FIG5B, M3_DDM, FIG10),
        moves="steps_per_s and setup_s on m3-dlb-mp2 only",
    ),
    Layer(
        "core.runner",
        (
            "repro.core.runner:ParallelMDRunner.__init__",
            "repro.core.runner:ParallelMDRunner.run",
            "repro.core.runner:ParallelMDRunner.step",
            "repro.core.runner:DrivenLoadRunner.__init__",
            "repro.core.runner:DrivenLoadRunner.run",
        ),
        heavy_on=ALL,
        absent_on=(),
        moves="residual loop cost on every workload",
    ),
)

#: Traced wall time no layer accounts for must stay within this share.
UNATTRIBUTED_BUDGET = 0.10
