"""Exact equivalence of the symbolic-analysis loops with their frozen oracle.

Column counts, BFS level structures and spectral splits decide every
permutation and assembly tree behind the paper's tables, so the fast
versions must return the *same arrays* as ``symbolic_reference.py`` (and
leave the same scratch state and RNG state behind), not merely valid ones.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from repro.matrices import generators as gen
from repro.symbolic.etree import column_counts, elimination_tree
from repro.symbolic.graph import adjacency_from_matrix, symmetrize_pattern
from repro.symbolic.ordering import _bfs_levels, _spectral_split

from symbolic_reference import (
    reference_bfs_levels,
    reference_column_counts,
    reference_spectral_split,
)

#: (order, seed, density): a random pattern, often disconnected when sparse.
_patterns = st.tuples(
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.02, 0.06, 0.15, 0.4]),
)


def _random_pattern(n, seed, density):
    """Unsymmetric random pattern with a full diagonal and duplicates."""
    rng = np.random.default_rng(seed)
    m = int(density * n * n)
    r = rng.integers(0, n, size=m)
    c = rng.integers(0, n, size=m)
    A = sp.coo_matrix((np.ones(m), (r, c)), shape=(n, n)) + sp.eye(n)
    return sp.csr_matrix(A)


def _increasing_forest(n, seed):
    """A parent array with parent[j] > j or -1 (any elimination forest)."""
    rng = np.random.default_rng(seed)
    parent = np.array([rng.integers(j + 1, n + 1) for j in range(n)],
                      dtype=np.int64)
    parent[parent == n] = -1
    return parent


def _same_split(got, want):
    if got is None or want is None:
        return got is None and want is None
    return all(np.array_equal(g, w) and g.dtype == w.dtype
               for g, w in zip(got, want))


class TestColumnCountsMatchReference:
    @given(case=_patterns)
    @example(case=(0, 0, 0.1))
    @example(case=(1, 0, 0.1))
    @example(case=(1, 0, 1.0))
    @example(case=(2, 3, 0.0))
    @example(case=(40, 7, 0.02))  # a forest of small trees
    @example(case=(40, 7, 0.4))
    @settings(max_examples=150, deadline=None)
    def test_unsymmetric_pattern(self, case):
        A = _random_pattern(*case)
        parent = elimination_tree(A)
        got = column_counts(A, parent)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_column_counts(A, parent))

    @given(case=_patterns)
    @example(case=(0, 0, 0.1))
    @example(case=(1, 0, 0.1))
    @example(case=(33, 11, 0.06))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_pattern(self, case):
        A = symmetrize_pattern(_random_pattern(*case))
        parent = elimination_tree(A)
        assert np.array_equal(column_counts(A, parent),
                              reference_column_counts(A, parent))

    @given(case=_patterns)
    @example(case=(1, 0, 0.0))
    @example(case=(25, 4, 0.15))
    @settings(max_examples=100, deadline=None)
    def test_any_increasing_forest(self, case):
        """Equal for any parent array with parent[j] > j, not only the
        etree of the pattern."""
        n, seed, _ = case
        A = _random_pattern(*case)
        parent = _increasing_forest(n, seed)
        assert np.array_equal(column_counts(A, parent),
                              reference_column_counts(A, parent))

    def test_grid(self):
        A = symmetrize_pattern(gen.grid_laplacian((6, 5, 4)))
        parent = elimination_tree(A)
        assert np.array_equal(column_counts(A, parent),
                              reference_column_counts(A, parent))


def _package_bfs(adj, start, inset, level):
    return _bfs_levels(adj.indptr.tolist(), memoryview(adj.indices), start,
                       inset, level)


class TestBfsLevelsMatchReference:
    @given(case=_patterns.filter(lambda c: c[0] > 0),
           marks=st.integers(0, 2**32 - 1))
    @example(case=(1, 0, 0.0), marks=0)
    @example(case=(40, 5, 0.02), marks=1)  # disconnected
    @example(case=(40, 5, 0.06), marks=2)
    @example(case=(30, 9, 0.4), marks=3)
    @settings(max_examples=200, deadline=None)
    def test_levels_and_scratch_equal(self, case, marks):
        """``inset`` is a random subset holding ``start``; some of its
        vertices already carry a level (visited), and vertices outside it
        carry stale levels."""
        n = case[0]
        adj = adjacency_from_matrix(_random_pattern(*case))
        rng = np.random.default_rng(marks)
        inset = rng.random(n) < rng.choice([0.3, 0.7, 1.0])
        start = int(rng.integers(0, n))
        inset[start] = True
        level = np.full(n, -1, dtype=np.int64)
        preset = rng.random(n) < rng.choice([0.0, 0.2])
        level[preset] = rng.integers(0, 5, size=int(preset.sum()))
        level_ref = level.copy()
        want = reference_bfs_levels(adj, start, inset.copy(), level_ref)
        got = _package_bfs(adj, start, inset.copy(), level)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)
        assert np.array_equal(level, level_ref)


class TestSpectralSplitMatchesReference:
    @given(case=st.tuples(st.integers(8, 120), st.integers(0, 2**32 - 1),
                          st.sampled_from([0.03, 0.06, 0.15])),
           subset=st.booleans())
    @example(case=(8, 0, 0.03), subset=False)
    @example(case=(100, 17, 0.03), subset=True)
    @settings(max_examples=60, deadline=None)
    def test_random_graph(self, case, subset):
        S = symmetrize_pattern(_random_pattern(*case))
        n = S.shape[0]
        rng = np.random.default_rng(case[1])
        verts = (np.flatnonzero(rng.random(n) < 0.7) if subset
                 else np.arange(n, dtype=np.int64))
        if len(verts) < 2:
            verts = np.arange(n, dtype=np.int64)
        rng_got = np.random.default_rng(case[1] + 1)
        rng_want = np.random.default_rng(case[1] + 1)
        got = _spectral_split(S, verts, rng_got)
        want = reference_spectral_split(S, verts, rng_want)
        assert _same_split(got, want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_grid_splits_like_reference(self):
        """A grid is split (not rejected), so the boundary path runs."""
        S = symmetrize_pattern(gen.grid_laplacian((14, 11, 3)))
        verts = np.arange(S.shape[0], dtype=np.int64)[::-1].copy()
        want = reference_spectral_split(S, verts, np.random.default_rng(3))
        assert want is not None
        got = _spectral_split(S, verts, np.random.default_rng(3))
        assert _same_split(got, want)
