"""Fixtures shared by more than one test module."""

import pytest

from neumannlab.dual import oracle_dual_smallgrid
from neumannlab.exponents import ExponentPair
from neumannlab.grid import interval_grid


@pytest.fixture(scope="session")
def smallgrid_oracle():
    """The brute-force dual level on the interval with n = 9 for
    (p, q) = (1, 1), (2, 3) and (0.5, 2), keyed by (p, q)."""
    grid = interval_grid(1.0, n=9)
    pairs = [(1.0, 1.0), (2.0, 3.0), (0.5, 2.0)]
    return {pq: oracle_dual_smallgrid(ExponentPair(*pq, 1), grid) for pq in pairs}
