"""Distributed (SPMD) implementation of the redistribution protocol.

The paper's protocol is a distributed algorithm: step 1 sends each PE's
execution time to its 8 neighbours, steps 2-3 decide locally, step 4
broadcasts the new assignment. :class:`repro.dlb.balancer.DynamicLoadBalancer`
computes the same decisions centrally for speed; this module runs the
message-passing version on the BSP :class:`~repro.parallel.spmd.SPMDExecutor`.

Both run the same decision code: the strategy's per-rank rule
(:meth:`~repro.dlb.strategies.Balancer.decide_for_rank`), which here sees
only the times its rank received. Tests assert the two produce *identical*
move lists, which is the evidence that the centralised shortcut is faithful
to the local protocol.
"""

from __future__ import annotations

import numpy as np

from ..config import DLBConfig
from ..decomp.assignment import CellAssignment
from ..errors import ConfigurationError
from ..parallel.spmd import SPMDExecutor
from ..parallel.topology import Torus2D
from .protocol import Move
from .strategies import DecisionView, create_strategy
from .views import TimingView


def spmd_decide(
    assignment: CellAssignment,
    per_pe_times: np.ndarray,
    injector=None,
    step: int = 0,
    view: "TimingView | None" = None,
    strategy: str = "permanent",
    config: DLBConfig = DLBConfig(),
) -> list[Move]:
    """One distributed decision round; returns the moves in PE order.

    Superstep 1: every rank posts its last-step time to its 8 neighbours.
    Superstep 2: every rank reads its inbox into a :class:`DecisionView` of
    what it knows -- its own time and the times it received -- and runs the
    strategy's per-rank rule on it.

    With an ``injector``, the broadcast goes through the executor's fault
    hook: a dropped report simply never appears in the receiver's inbox, and
    the receiver falls back to the bounded-staleness last-known value in
    ``view`` (pass the same ``view`` across steps to carry staleness over).
    The hook consults ``injector.report_delivered(step, src, dst)`` -- the
    exact query the centralised balancer makes -- so the two implementations
    observe identical drop patterns and stay move-for-move equivalent.

    ``strategy`` names any registered strategy with a per-rank rule; a
    global one (``sfc``) raises :class:`~repro.errors.ConfigurationError`.
    ``config`` carries the policy gate and ``max_sends_per_step``.
    """
    times = np.asarray(per_pe_times, dtype=np.float64)
    n_pes = assignment.n_pes
    if times.shape != (n_pes,):
        raise ConfigurationError(f"times shape {times.shape} != ({n_pes},)")
    if assignment.pe_side < 3:
        raise ConfigurationError("SPMD protocol needs a torus side of at least 3")
    rule = create_strategy(strategy)
    if not rule.per_rank:
        raise ConfigurationError(
            f"balancer {strategy!r} has no distributed formulation (it is "
            "global, with no per-rank rule) -- run it on a centralised engine"
        )

    topology = Torus2D(assignment.pe_side)
    fault_hook = None
    if injector is not None:
        if view is None:
            view = TimingView(n_pes, injector.max_staleness)

        def fault_hook(_superstep: int, src: int, dst: int) -> int:
            return 1 if injector.report_delivered(step, src, dst) else 0

    executor = SPMDExecutor(n_pes, fault_hook=fault_hook)

    def broadcast_times(rank: int, ex: SPMDExecutor) -> None:
        for neighbor in topology.neighbors(rank):
            ex.send(rank, neighbor, float(times[rank]))

    executor.superstep(broadcast_times)

    moves: list[Move] = []

    def decide(rank: int, ex: SPMDExecutor) -> None:
        received = dict(ex.inbox(rank))
        known = np.full(n_pes, np.inf)
        known[rank] = times[rank]
        for src, value in received.items():
            known[src] = value
        if view is not None:
            # Fold this round's inbox into the rank's persistent view:
            # delivered reports refresh it, holes age the last-known value.
            view.observe(rank, rank, float(times[rank]))
            for neighbor in topology.neighbors(rank):
                if neighbor in received:
                    view.observe(rank, neighbor, received[neighbor])
                else:
                    view.miss(rank, neighbor)
        rank_view = DecisionView(
            times=known,
            assignment=assignment,
            topology=topology,
            config=config,
            timing=view,
        )
        moves.extend(rule.decide_for_rank(rank_view, rank))

    executor.superstep(decide)
    return moves
