"""The maximum-domain bound: no PE can ever exceed C' cells.

Section 4.1 derives ``C' = [m^2 + 3(m-1)^2] C^(1/3)`` as the largest domain
DLB can create (a PE's own cells plus every movable cell of its three
lenders). Because lending is structurally restricted to those three
neighbours, *no sequence of protocol moves* can take any PE beyond C' --
this suite checks that bound holds under adversarial balancing pressure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decomp.assignment import CellAssignment
from repro.dlb.limits import dlb_limit_ratio, max_domain_cells
from repro.dlb.strategies import create_balancer


@pytest.mark.parametrize("nc,n_pes,m", [(6, 9, 2), (9, 9, 3), (12, 9, 4)])
def test_flooding_one_pe_saturates_at_max_domain(nc, n_pes, m):
    """Make one PE permanently fastest: it accumulates exactly C' cells."""
    assignment = CellAssignment(nc, n_pes)
    balancer = create_balancer(assignment, strategy="permanent")
    target = 4  # centre PE
    times = np.ones(n_pes)
    times[target] = 0.0
    for _ in range(5 * nc**2):
        balancer.step(times)
    held = int(assignment.cell_counts_per_pe()[target])
    assert held == max_domain_cells(m, nc)
    assert held / (m * m * nc) == pytest.approx(dlb_limit_ratio(m))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_no_pe_exceeds_max_domain_under_random_pressure(seed):
    nc, n_pes, m = 9, 9, 3
    assignment = CellAssignment(nc, n_pes)
    balancer = create_balancer(assignment, strategy="permanent")
    rng = np.random.default_rng(seed)
    cap = max_domain_cells(m, nc)
    for _ in range(120):
        balancer.step(rng.uniform(0.0, 1.0, n_pes))
        assert assignment.cell_counts_per_pe().max() <= cap


def test_minimum_domain_is_the_permanent_wall():
    """A PE that lends everything keeps exactly its 2m-1 wall columns."""
    nc, n_pes, m = 9, 9, 3
    assignment = CellAssignment(nc, n_pes)
    lender = 4
    receiver = assignment.pe_flat(0, 1)
    for cell in list(assignment.movable_at_home(lender)):
        assignment.transfer(int(cell), receiver)
    held = int(assignment.cell_counts_per_pe()[lender])
    assert held == (2 * m - 1) * nc
