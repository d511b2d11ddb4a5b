"""Exact equivalence of the row-blocking kernel with its frozen reference.

``partition_rows`` decides every slave's row share, and the paper's tables
are built from those shares, so a rewrite of the kernel must return the
*same list* as the reference in ``blocking_reference.py`` (not merely one
that sums to ``nrows``), and ``water_level`` the same float bit for bit.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.scheduling import BlockingConstraints, partition_rows, water_level

from blocking_reference import reference_partition_rows, reference_water_level

UNBOUNDED = BlockingConstraints().kmax

#: Level shapes the solver produces: spread-out loads, loads that differ by
#: a few ulps-to-units around one value (many idle ranks), and exact ties.
_levels = st.one_of(
    st.lists(st.floats(0, 1e7, allow_subnormal=False), min_size=1, max_size=140),
    st.builds(
        lambda base, offs: [base + o for o in offs],
        st.floats(0, 1e7, allow_subnormal=False),
        st.lists(st.floats(0, 50, allow_subnormal=False), min_size=1, max_size=140),
    ),
    st.lists(st.integers(0, 6).map(float), min_size=1, max_size=140),
)


@st.composite
def cases(draw):
    levels = draw(_levels)
    cost = draw(st.sampled_from([1.0, 3.0, 0.5])
                | st.floats(1.0, 1e5, allow_subnormal=False))
    nrows = draw(st.integers(0, 500))
    kmin = draw(st.integers(1, 16))
    kmax = draw(st.sampled_from([UNBOUNDED]) | st.integers(kmin, kmin + 40))
    return levels, cost, nrows, kmin, kmax


def _near_equal(n, base=1.0e6, step=1e-3):
    return [base + step * (i % 7) for i in range(n)]


def _idle_ranks(n, seed):
    """Loads as at P=128 with every rank idle: one value plus small noise."""
    return list(1.0e8 + np.random.default_rng(seed).normal(0.0, 5.0, n))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestPartitionRowsMatchesReference:
    @given(case=cases())
    @example(case=(_near_equal(127), 1.0, 50, 4, UNBOUNDED))
    @example(case=(_near_equal(127), 1.0, 200, 4, UNBOUNDED))
    @example(case=(_near_equal(127), 1.0, 400, 4, UNBOUNDED))
    @example(case=(_near_equal(127), 1.0, 400, 16, 21))
    @example(case=(_idle_ranks(127, 50), 11.0, 50, 4, UNBOUNDED))
    @example(case=(_idle_ranks(127, 200), 11.0, 200, 4, UNBOUNDED))
    @example(case=(_idle_ranks(127, 400), 11.0, 400, 4, UNBOUNDED))
    # kmax binds while kmin rounds run: receivers fill up and re-sort.
    @example(case=(_idle_ranks(127, 400), 11.0, 400, 8, 13))
    @example(case=(_idle_ranks(31, 1), 1.0, 50, 8, 13))
    @example(case=([50.0, 3.0, 70.0, 3.0], 1.0, 2, 8, UNBOUNDED))  # nrows < kmin
    @example(case=([5.0] * 40, 1.0, 123, 4, UNBOUNDED))  # all-equal levels
    @example(case=([5.0] * 9, 1.0, 90, 2, 10))  # kmax saturated exactly
    @example(case=([0.0, 1.0, 2.0, 40.0], 1.0, 30, 3, 10))  # kmax binds some
    @example(case=([0.0, 1.0], 1.0, 100, 1, 10))  # infeasible: raises
    @settings(max_examples=400, deadline=None)
    def test_shares_equal_reference(self, case):
        levels, cost, nrows, kmin, kmax = case
        cons = BlockingConstraints(kmin=kmin, kmax=kmax)
        got = _outcome(partition_rows, levels, cost, nrows, cons)
        want = _outcome(reference_partition_rows, levels, cost, nrows, cons)
        assert got == want
        if isinstance(got, list):
            assert all(type(s) is int for s in got)

    @given(case=cases())
    @example(case=(_near_equal(127), 1.0, 400, 4, UNBOUNDED))
    @example(case=([5.0] * 9, 1.0, 90, 2, 10))
    @example(case=([3.0], 1.0, 0, 1, UNBOUNDED))
    @settings(max_examples=300, deadline=None)
    def test_water_level_bit_identical(self, case):
        levels, cost, nrows, _, kmax = case
        arr = np.asarray(levels, dtype=np.float64)
        got = water_level(arr, cost, nrows, kmax)
        want = reference_water_level(arr, cost, nrows, kmax)
        assert got.hex() == want.hex()
