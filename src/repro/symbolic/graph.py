"""Adjacency-structure utilities for symbolic analysis.

The multifrontal analysis works on the *symmetrized* pattern of the matrix
(MUMPS factorizes unsymmetric matrices on the structure of ``A + Aᵀ``).
This module converts SciPy sparse matrices into the compact CSR adjacency
(indptr/indices, no diagonal) used by the ordering and elimination-tree
code.  Building it and permuting a matrix are NumPy/SciPy work,
O(nnz log nnz); :meth:`Adjacency.edges_from` gathers a vertex subset's
edges in O(edges) array work with no Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Adjacency:
    """Undirected graph in CSR form, diagonal-free, sorted indices."""

    indptr: np.ndarray
    indices: np.ndarray
    n: int

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def nedges(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges_from(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, w)`` arrays of every edge ``u → w`` with ``u`` in
        ``vertices``, grouped by ``u`` in the order of ``vertices``."""
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        u = np.repeat(vertices, counts)
        # each edge's offset from its vertex's first edge
        within = np.arange(len(u)) - np.repeat(np.cumsum(counts) - counts, counts)
        return u, self.indices[np.repeat(starts, counts) + within]


def symmetrize_pattern(A: sp.spmatrix) -> sp.csr_matrix:
    """Pattern of ``A + Aᵀ`` as a boolean CSR matrix (values discarded)."""
    A = A.tocsr()
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    B = A + A.T
    B.data[:] = 1.0
    B.sum_duplicates()
    return B.tocsr()


def adjacency_from_matrix(A: sp.spmatrix) -> Adjacency:
    """Symmetrized, diagonal-free adjacency of a (possibly unsym.) matrix."""
    B = symmetrize_pattern(A).tocoo()
    mask = B.row != B.col
    r, c = B.row[mask], B.col[mask]
    n = B.shape[0]
    order = np.lexsort((c, r))
    r, c = r[order], c[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Adjacency(indptr=indptr, indices=c.astype(np.int64), n=n)


def permute_symmetric(A: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """Symmetric permutation ``A[perm][:, perm]`` with sorted indices.

    ``perm[k]`` is the original index of the k-th permuted row/column (i.e.
    new order = old labels listed in elimination order).
    """
    n = A.shape[0]
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm is not a permutation")
    P = sp.csr_matrix(
        (np.ones(n), (np.arange(n), perm)), shape=(n, n)
    )
    M = (P @ A @ P.T).tocsr()
    M.sort_indices()
    return M
