"""Frozen copies of the symbolic-analysis loops before their fast rewrite.

The equivalence tests in ``test_symbolic_equivalence.py`` hold the
package's column counts, BFS level structures and spectral splits to
these functions exactly: every permutation and assembly tree of the
paper's tables is derived from them.  Do not edit this file to follow
the package; it is the oracle.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.symbolic.graph import Adjacency


def reference_column_counts(A_perm: sp.csr_matrix,
                            parent: np.ndarray) -> np.ndarray:
    """Column counts of L by row-subtree traversal (diagonal included)."""
    A = A_perm.tocsr()
    n = A.shape[0]
    cc = np.ones(n, dtype=np.int64)  # diagonal entries
    mark = np.full(n, -1, dtype=np.int64)
    indptr, indices = A.indptr, A.indices
    for i in range(n):
        mark[i] = i
        for t in range(indptr[i], indptr[i + 1]):
            k = indices[t]
            if k >= i:
                continue
            j = k
            while j != -1 and j < i and mark[j] != i:
                cc[j] += 1
                mark[j] = i
                j = parent[j]
    return cc


def reference_bfs_levels(adj: Adjacency, start: int, inset: np.ndarray,
                         level: np.ndarray) -> List[np.ndarray]:
    """Level structure of the subgraph marked by ``inset`` from ``start``;
    writes each reached vertex's depth into ``level``."""
    levels = [np.array([start], dtype=np.int64)]
    level[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for w in adj.neighbors(v):
                if inset[w] and level[w] == -1:
                    level[w] = depth
                    nxt.append(int(w))
        if nxt:
            levels.append(np.array(nxt, dtype=np.int64))
        frontier = nxt
    return levels


def reference_spectral_split(S: sp.csr_matrix, verts: np.ndarray,
                             rng: np.random.Generator):
    """Fiedler-vector bisection with the per-vertex cut-boundary loop."""
    from scipy.sparse.linalg import lobpcg

    nsub = len(verts)
    sub = S[verts][:, verts].tocsr()
    sub.setdiag(0)
    sub.eliminate_zeros()
    deg = np.asarray(sub.sum(axis=1)).ravel()
    lap = sp.diags(deg) - sub
    X = rng.standard_normal((nsub, 1))
    Y = np.ones((nsub, 1))
    try:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _vals, vecs = lobpcg(
                lap.tocsr(), X, Y=Y, largest=False, maxiter=120, tol=1e-5
            )
        f = vecs[:, 0]
    except Exception:
        return None
    if not np.all(np.isfinite(f)) or np.allclose(f, f[0]):
        return None
    med = np.median(f)
    in_b = f >= med
    if in_b.all() or (~in_b).all():
        return None
    indptr, indices = sub.indptr, sub.indices
    boundary_a = np.zeros(nsub, dtype=bool)
    boundary_b = np.zeros(nsub, dtype=bool)
    for u in range(nsub):
        ub = in_b[u]
        for t in range(indptr[u], indptr[u + 1]):
            if in_b[indices[t]] != ub:
                (boundary_b if ub else boundary_a)[u] = True
                break
    if boundary_a.sum() == 0 and boundary_b.sum() == 0:
        return None
    use_b = boundary_b.sum() <= boundary_a.sum()
    sep_mask = boundary_b if use_b else boundary_a
    a_mask = ~in_b & ~sep_mask
    b_mask = in_b & ~sep_mask
    na, nb = int(a_mask.sum()), int(b_mask.sum())
    if min(na, nb) < 0.15 * nsub:
        return None
    return verts[a_mask], verts[b_mask], verts[sep_mask]
