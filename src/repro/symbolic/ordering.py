"""Fill-reducing orderings.

The paper orders with METIS (nested dissection).  METIS is not available
offline, so we implement:

* :func:`nested_dissection` — recursive graph bisection with BFS level-set
  separators (George–Liu style): find a pseudo-peripheral vertex, build its
  level structure, cut at the median level, order the separator last and
  recurse on the halves.  This produces the balanced elimination trees with
  large top separators that characterize METIS orderings — which is all the
  downstream mapping/scheduling machinery observes.
* :func:`reverse_cuthill_mckee` — profile-reducing ordering (via SciPy),
  kept as a contrast ordering for tests and ablations (long skinny trees).
* :func:`natural` — identity ordering, for tests.

All functions return ``perm`` with the convention of
:func:`repro.symbolic.graph.permute_symmetric`: ``perm[k]`` is the original
label of the k-th eliminated variable.

Cost of :func:`nested_dissection`: each level-set split is O(V + E) of its
subgraph — the BFS walks Python ints (a list indptr and a memoryview of
the indices, no per-vertex arrays), and separator thinning and the
spectral cut boundary are single NumPy passes over edge arrays.  The
Fiedler vectors (LOBPCG) are most of the remaining time.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee as _rcm

from .graph import adjacency_from_matrix, symmetrize_pattern


def natural(A: sp.spmatrix) -> np.ndarray:
    """Identity permutation."""
    return np.arange(A.shape[0], dtype=np.int64)


def reverse_cuthill_mckee(A: sp.spmatrix) -> np.ndarray:
    """Reverse Cuthill–McKee ordering of the symmetrized pattern."""
    return np.asarray(_rcm(symmetrize_pattern(A), symmetric_mode=True),
                      dtype=np.int64)


def _bfs_levels(ptr: List[int], nbrs: memoryview, start: int,
                inset: np.ndarray, level: np.ndarray) -> List[np.ndarray]:
    """Level structure of the subgraph marked by ``inset`` from ``start``.

    ``ptr``/``nbrs`` are the adjacency's indptr as a list and its indices
    as a memoryview, so the walk touches only Python ints.  Vertices of
    ``inset`` whose ``level`` is already set count as visited; every
    vertex reached gets its depth written into ``level``.
    """
    unseen = set(np.flatnonzero(inset & (level == -1)).tolist())
    unseen.discard(start)
    level[start] = 0
    levels = [np.array([start], dtype=np.int64)]
    frontier = [start]
    while True:
        nxt = []
        for v in frontier:
            for w in nbrs[ptr[v]: ptr[v + 1]]:
                if w in unseen:
                    unseen.remove(w)
                    nxt.append(w)
        if not nxt:
            return levels
        frontier = nxt
        lev = np.array(nxt, dtype=np.int64)
        level[lev] = len(levels)
        levels.append(lev)


def _pseudo_peripheral(ptr: List[int], nbrs: memoryview, degs: np.ndarray,
                       vertices: np.ndarray, inset: np.ndarray,
                       level: np.ndarray) -> int:
    """A vertex of (near) maximal eccentricity in the induced subgraph."""
    start = int(vertices[np.argmin(degs[vertices[:64]])])
    best_depth = -1
    for _ in range(4):  # few sweeps converge in practice
        level[vertices] = -1
        levels = _bfs_levels(ptr, nbrs, start, inset, level)
        if len(levels) <= best_depth:
            break
        best_depth = len(levels)
        last = levels[-1]
        start = int(last[np.argmin(degs[last])])
    return start


def _spectral_split(
    S: sp.csr_matrix,
    verts: np.ndarray,
    rng: np.random.Generator,
):
    """Fiedler-vector bisection of the subgraph induced by ``verts``.

    Returns ``(part_a, part_b, sep)`` of global vertex ids, or ``None`` when
    the eigensolve fails or the cut is too unbalanced (caller falls back to
    level-set separators).  The vertex separator is the smaller boundary of
    the median edge-cut.
    """
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
    # vertex separator: boundary of the smaller side of the edge cut
    rows = np.repeat(np.arange(nsub), np.diff(sub.indptr))
    on_cut = np.zeros(nsub, dtype=bool)
    on_cut[rows[in_b[sub.indices] != in_b[rows]]] = True
    boundary_a = on_cut & ~in_b
    boundary_b = on_cut & in_b
    if boundary_a.sum() == 0 and boundary_b.sum() == 0:
        return None  # already disconnected along the cut
    use_b = boundary_b.sum() <= boundary_a.sum()
    sep_mask = boundary_b if use_b else boundary_a
    a_mask = ~in_b & ~sep_mask
    b_mask = in_b & ~sep_mask
    na, nb = int(a_mask.sum()), int(b_mask.sum())
    if min(na, nb) < 0.15 * nsub:
        return None
    return verts[a_mask], verts[b_mask], verts[sep_mask]


def nested_dissection(
    A: sp.spmatrix,
    *,
    leaf_size: int = 64,
    spectral_min: int = 192,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Recursive bisection ordering (METIS stand-in).

    Subgraphs larger than ``spectral_min`` are split with a Fiedler-vector
    bisection (small, flat separators, like METIS); smaller ones — and any
    subgraph where the eigensolve fails — use BFS level-set separators
    thinned to their boundary (George–Liu).  Separators are numbered after
    both halves; recursion leaves (≤ ``leaf_size``) are ordered by degree.
    """
    rng = rng or np.random.default_rng(12345)
    S = symmetrize_pattern(A)
    adj = adjacency_from_matrix(A)
    n = adj.n
    perm_out = np.empty(n, dtype=np.int64)
    pos = n  # we fill from the back: separators last
    inset = np.zeros(n, dtype=bool)
    level = np.full(n, -1, dtype=np.int64)
    is_boundary = np.zeros(n, dtype=bool)
    ptr = adj.indptr.tolist()
    nbrs = memoryview(adj.indices)
    degs = adj.degrees()
    # Work stack of vertex subsets; emitted blocks are written back-to-front,
    # so process order: push children *after* writing separator.
    stack: List[np.ndarray] = [np.arange(n, dtype=np.int64)]
    out_blocks: List[np.ndarray] = []

    def order_leaf(vertices: np.ndarray) -> np.ndarray:
        return vertices[np.argsort(degs[vertices], kind="stable")]

    while stack:
        verts = stack.pop()
        if len(verts) == 0:
            continue
        if len(verts) <= leaf_size:
            out_blocks.append(order_leaf(verts))
            continue
        if len(verts) >= spectral_min:
            split = _spectral_split(S, verts, rng)
            if split is not None:
                part_a, part_b, sep = split
                out_blocks.append(order_leaf(sep))
                stack.append(part_a)
                stack.append(part_b)
                continue
        inset[verts] = True
        level[verts] = -1
        start = _pseudo_peripheral(ptr, nbrs, degs, verts, inset, level)
        level[verts] = -1
        levels = _bfs_levels(ptr, nbrs, start, inset, level)
        inset[verts] = False
        # The subset may be disconnected (separators split parts into
        # several components): vertices unreached from `start` are handled
        # as an independent sub-problem.
        reached = sum(len(l) for l in levels)
        if reached < len(verts):
            unreached = verts[level[verts] == -1]
            stack.append(unreached)
            verts = np.concatenate(levels)
        if len(levels) < 3:
            # Dense / tiny-diameter subgraph: no useful separator.
            out_blocks.append(order_leaf(verts))
            continue
        # Thin separators: within level k, only vertices with a neighbour in
        # level k+1 must be removed to disconnect the halves (BFS levels
        # differ by at most 1 across any edge).  Compute per-level boundary
        # counts in one edge pass, then pick the cut minimizing
        # |boundary| weighted by the imbalance of the halves.
        inset[verts] = True
        u, w = adj.edges_from(verts)
        is_boundary[u[inset[w] & (level[w] == level[u] + 1)]] = True
        inset[verts] = False
        sizes = np.array([len(l) for l in levels])
        bsizes = np.bincount(level[verts[is_boundary[verts]]],
                             minlength=len(levels))
        csum = np.cumsum(sizes)
        total = csum[-1]
        best, best_score = None, None
        for k in range(1, len(levels) - 1):
            below = csum[k] - bsizes[k]  # levels ≤ k minus the separator
            above = total - csum[k]
            imbalance = abs(below - above) / total
            score = (bsizes[k] + 1) * (1.0 + 4.0 * imbalance)
            if best_score is None or score < best_score:
                best, best_score = k, score
        cut = levels[best]
        sep = cut[is_boundary[cut]]
        rest_k = cut[~is_boundary[cut]]
        part_a_blocks = ([rest_k] if len(rest_k) else []) + list(levels[:best])
        part_a = (np.concatenate(part_a_blocks)
                  if part_a_blocks else np.array([], dtype=np.int64))
        part_b = (np.concatenate(levels[best + 1:])
                  if best + 1 < len(levels) else np.array([], dtype=np.int64))
        is_boundary[verts] = False
        # Separator eliminated last: emit now (blocks are reversed at the end).
        out_blocks.append(order_leaf(sep))
        stack.append(part_a)
        stack.append(part_b)

    # Blocks were produced "last eliminated first": a block must appear
    # *after* everything beneath it.  Reversing the emission order yields a
    # valid elimination order (children before separators).
    pos = 0
    for block in reversed(out_blocks):
        perm_out[pos: pos + len(block)] = block
        pos += len(block)
    assert pos == n
    return perm_out


def minimum_degree(A: sp.spmatrix, *, dense_threshold: float = 0.5) -> np.ndarray:
    """Greedy minimum-degree ordering (symbolic elimination on sets).

    Classic Markowitz/Tinney scheme: repeatedly eliminate a vertex of
    minimum current degree, connecting its neighbours into a clique.  This
    is the plain O(Σ deg²) variant (no quotient graph, no supervariables):
    perfectly fine at this reproduction's matrix sizes (≤ ~10⁴), used as an
    ordering alternative in tests and ablations.

    ``dense_threshold``: once a vertex's degree exceeds this fraction of the
    remaining vertices, elimination stops and the rest is ordered by degree
    (the tail is effectively dense — standard practice, and it avoids the
    quadratic blow-up on matrices like GUPTA3).
    """
    adj = adjacency_from_matrix(A)
    n = adj.n
    neighbors: List[set] = [set(adj.neighbors(v).tolist()) for v in range(n)]
    alive = np.ones(n, dtype=bool)
    import heapq

    heap = [(len(neighbors[v]), v) for v in range(n)]
    heapq.heapify(heap)
    perm = np.empty(n, dtype=np.int64)
    pos = 0
    remaining = n
    while heap:
        deg, v = heapq.heappop(heap)
        if not alive[v] or deg != len(neighbors[v]):
            continue  # stale heap entry
        if remaining > 8 and deg > dense_threshold * remaining:
            break  # dense tail
        alive[v] = False
        perm[pos] = v
        pos += 1
        remaining -= 1
        nbrs = neighbors[v]
        for w in nbrs:
            neighbors[w].discard(v)
        # clique among the neighbours (the fill of eliminating v)
        nbrs_list = list(nbrs)
        for w in nbrs_list:
            nw = neighbors[w]
            nw.update(x for x in nbrs_list if x != w)
            heapq.heappush(heap, (len(nw), w))
        neighbors[v] = set()
    # order any dense tail by increasing degree
    tail = [v for v in range(n) if alive[v]]
    tail.sort(key=lambda v: len(neighbors[v]))
    for v in tail:
        perm[pos] = v
        pos += 1
    assert pos == n
    return perm


ORDERINGS = {
    "nd": nested_dissection,
    "rcm": reverse_cuthill_mckee,
    "md": minimum_degree,
    "natural": natural,
}


def compute_ordering(A: sp.spmatrix, method: str = "nd", **kw) -> np.ndarray:
    """Dispatch by name ('nd', 'rcm', 'natural')."""
    try:
        fn = ORDERINGS[method]
    except KeyError:
        raise KeyError(f"unknown ordering {method!r}; have {sorted(ORDERINGS)}")
    return fn(A, **kw) if method == "nd" else fn(A)
