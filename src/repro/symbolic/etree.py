"""Elimination tree, postorder, and column counts.

Classic symbolic-factorization machinery (Liu's elimination-tree algorithm
with path compression, iterative postorder, column counts by merging each
child's column structure into its parent).
Everything operates on the *permuted* symmetric pattern: entry ``(j, k)``
with ``k < j`` means variables j and k interact before j's elimination.

Complexities: etree O(nnz·α) Python steps over plain lists; postorder
O(n); column counts O(n) Python steps, each a NumPy merge, for
O(nnz(L) log) array work in total (a child's rows are carried into its
parent once).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp


def elimination_tree(A_perm: sp.csr_matrix) -> np.ndarray:
    """Parent array of the elimination tree of a symmetric-pattern matrix.

    ``parent[j] == -1`` marks a root.  Liu's algorithm with ancestor path
    compression.
    """
    A = A_perm.tocsr()
    n = A.shape[0]
    parent = [-1] * n
    ancestor = [-1] * n
    indptr, indices = A.indptr.tolist(), memoryview(A.indices)
    for j in range(n):
        for k in indices[indptr[j]: indptr[j + 1]]:
            if k >= j:
                continue
            # climb from k to the current root, compressing the path to j
            while True:
                a = ancestor[k]
                if a == j:
                    break
                ancestor[k] = j
                if a == -1:
                    parent[k] = j
                    break
                k = a
    return np.array(parent, dtype=np.int64)


def children_lists(parent: np.ndarray) -> List[List[int]]:
    """Children of each node (ordered by node number), roots excluded."""
    n = len(parent)
    ch: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        p = parent[v]
        if p >= 0:
            ch[p].append(v)
    return ch


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder of the forest: children before parents, iterative DFS."""
    n = len(parent)
    ch = children_lists(parent)
    post = np.empty(n, dtype=np.int64)
    k = 0
    roots = [v for v in range(n) if parent[v] == -1]
    for root in roots:
        # iterative DFS emitting on exit
        stack: List[Tuple[int, int]] = [(root, 0)]
        while stack:
            v, ci = stack.pop()
            if ci < len(ch[v]):
                stack.append((v, ci + 1))
                stack.append((ch[v][ci], 0))
            else:
                post[k] = v
                k += 1
    if k != n:
        raise ValueError("parent array is not a forest (cycle detected)")
    return post


def column_counts(A_perm: sp.csr_matrix, parent: np.ndarray) -> np.ndarray:
    """``cc[j]`` = number of nonzeros in column j of the Cholesky factor L
    (diagonal included), by merging children's column structures.

    For j ascending, the rows below the diagonal of L[:, j] are those of
    column j of ``tril(A, -1)`` joined with every child's rows greater
    than j.  This is the row-subtree definition (row i of L is the union
    of etree paths from each k with A[i, k] ≠ 0, k < i, up toward i) for
    any forest with ``parent[j] > j``, unsymmetric patterns included.  A
    child's structure is dropped once merged, so only the structures of
    not-yet-merged subtrees are alive at any time.
    """
    A = A_perm.tocsc()
    n = A.shape[0]
    cc = np.ones(n, dtype=np.int64)  # diagonal entries
    indptr, indices = A.indptr.tolist(), A.indices
    children = children_lists(parent)
    struct: List[Optional[np.ndarray]] = [None] * n
    for j in range(n):
        rows = indices[indptr[j]: indptr[j + 1]]
        parts = [rows[rows > j]]
        for c in children[j]:
            child = struct[c]
            struct[c] = None
            parts.append(child[child > j])
        struct[j] = merged = np.unique(np.concatenate(parts))
        cc[j] += len(merged)
    return cc


def factor_nnz(cc: np.ndarray) -> int:
    """Total nonzeros of L (sum of column counts)."""
    return int(cc.sum())


def tree_depth(parent: np.ndarray) -> int:
    """Height of the elimination forest (longest root-to-leaf path)."""
    n = len(parent)
    depth = np.zeros(n, dtype=np.int64)
    # process in postorder-reverse: parents after children... simplest is to
    # compute by walking up with memoization over a topological order.
    order = postorder(parent)
    best = 0
    for v in order:
        p = parent[v]
        if p >= 0:
            depth[p] = max(depth[p], depth[v] + 1)
        best = max(best, int(depth[v]))
    return best + 1 if n else 0


def validate_etree(A_perm: sp.csr_matrix, parent: np.ndarray) -> bool:
    """Check the defining property: parent[j] = min{i > j : L[i,j] ≠ 0}.

    Used by property-based tests; O(n²) worst-case, test-sized inputs only.
    """
    n = A_perm.shape[0]
    # build L's pattern column-by-column via the row-subtree definition
    cols: List[set] = [set() for _ in range(n)]
    A = A_perm.tocsr()
    for i in range(n):
        for k in A.indices[A.indptr[i]: A.indptr[i + 1]]:
            if k >= i:
                continue
            j = int(k)
            while j < i and i not in cols[j]:
                cols[j].add(i)
                j = int(parent[j])
                if j == -1:
                    break
    for j in range(n):
        below = [i for i in cols[j] if i > j]
        expected = min(below) if below else -1
        if parent[j] != expected:
            return False
    return True
