"""Distributed vs centralised protocol equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DLBConfig
from repro.decomp.assignment import CellAssignment
from repro.dlb.protocol import Case, Move
from repro.dlb.spmd_protocol import spmd_decide
from repro.dlb.strategies import create_balancer
from repro.errors import ConfigurationError


def permanent(assignment, config=None):
    return create_balancer(assignment, config, strategy="permanent")


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_centralised_balancer_on_fresh_assignment(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.1, 2.0, 9)
        a = CellAssignment(9, 9)
        b = CellAssignment(9, 9)
        central = permanent(a).decide(times)
        distributed = spmd_decide(b, times)
        assert central == distributed

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_after_history(self, seed):
        """Equivalence must also hold mid-run, with cells already lent."""
        rng = np.random.default_rng(seed)
        a = CellAssignment(9, 9)
        balancer = permanent(a)
        for _ in range(30):
            balancer.step(rng.uniform(0.1, 2.0, 9))
        b = CellAssignment(9, 9)
        b.holder[...] = a.holder  # same world state
        times = rng.uniform(0.1, 2.0, 9)
        assert permanent(a).decide(times) == spmd_decide(b, times)

    def test_matches_with_multiple_sends(self):
        times = np.ones(9)
        times[0] = 0.01
        config = DLBConfig(max_sends_per_step=3)
        a = CellAssignment(9, 9)
        b = CellAssignment(9, 9)
        central = permanent(a, config).decide(times)
        distributed = spmd_decide(b, times, config=config)
        assert central == distributed
        assert len(central) > 0


#: The decision settings the strategy matrix runs under: both policies, and
#: a burst of sends so the per-rank exclude sets matter.
POLICIES = {
    "fastest": DLBConfig(policy="fastest", max_sends_per_step=2),
    "threshold": DLBConfig(policy="threshold", threshold=0.3, max_sends_per_step=2),
}


class TestEveryPerRankStrategy:
    """SPMD == centralised for every strategy with a per-rank rule, under
    both policies, over an evolving holder map."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("strategy", ["permanent", "diffusion", "none"])
    def test_spmd_matches_centralised_round_by_round(self, strategy, policy):
        config = POLICIES[policy]
        rng = np.random.default_rng(17)
        a = CellAssignment(9, 9)
        b = CellAssignment(9, 9)
        central = create_balancer(a, config, strategy=strategy)
        moved = 0
        for step in range(1, 31):
            times = rng.uniform(0.1, 2.0, 9)
            central_moves = central.step(times, step=step)
            spmd_moves = spmd_decide(
                b, times, step=step, strategy=strategy, config=config
            )
            assert central_moves == spmd_moves
            transfer = b.transfer if central.strategy.constrained else b.transfer_any
            for move in spmd_moves:  # spmd_decide is decision-only
                transfer(move.cell, move.dst)
            assert np.array_equal(a.holder, b.holder)
            moved += len(spmd_moves)
        if strategy == "none":
            assert moved == 0
        else:
            assert moved > 0

    def test_threshold_gate_applies_in_spmd(self):
        """A 10% imbalance stays under a 0.5 threshold on both paths.

        Before the SPMD path ran the strategy's own per-rank rule it skipped
        the policy gate and lent a cell here.
        """
        times = np.ones(9)
        times[4] = 1.1
        config = DLBConfig(policy="threshold", threshold=0.5)
        central = create_balancer(
            CellAssignment(9, 9), config, strategy="permanent"
        ).decide(times)
        distributed = spmd_decide(CellAssignment(9, 9), times, config=config)
        assert central == []
        assert distributed == []
        # The same times under the fastest policy do move a cell.
        assert spmd_decide(CellAssignment(9, 9), times) == [
            Move(cell=270, src=4, dst=0, kind=Case.SEND_OWN)
        ]


class TestValidation:
    def test_rejects_wrong_times_shape(self):
        with pytest.raises(ConfigurationError):
            spmd_decide(CellAssignment(9, 9), np.zeros(4))

    def test_rejects_tiny_torus(self):
        with pytest.raises(ConfigurationError):
            spmd_decide(CellAssignment(4, 4), np.zeros(4))

    def test_balanced_world_is_quiet(self):
        assert spmd_decide(CellAssignment(9, 9), np.ones(9)) == []

    def test_rejects_strategy_without_per_rank_rule(self):
        with pytest.raises(ConfigurationError, match="no distributed formulation"):
            spmd_decide(CellAssignment(9, 9), np.ones(9), strategy="sfc")
