"""Symbolic analysis driver: matrix → assembly tree.

Chains the full pipeline (symmetrize → order → elimination tree → column
counts → supernodes → relaxed amalgamation → assembly tree) behind one
function, with a process-wide cache keyed by problem name so experiment
grids analyze each matrix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..matrices.collection import Problem
from .etree import column_counts, elimination_tree, postorder
from .graph import permute_symmetric, symmetrize_pattern
from .ordering import compute_ordering
from .supernodes import fundamental_supernodes, relaxed_amalgamation
from .tree import AssemblyTree


@dataclass(frozen=True)
class AnalysisParams:
    """Knobs of the symbolic analysis (defaults tuned for the test suite)."""

    ordering: str = "nd"
    nd_leaf_size: int = 16
    amalg_small_child: int = 2
    amalg_fill_tolerance: float = 0.02
    amalg_max_npiv: int = 24


def analyze_matrix(
    A: sp.spmatrix,
    *,
    sym: bool = False,
    name: str = "",
    params: Optional[AnalysisParams] = None,
) -> AssemblyTree:
    """Run the full symbolic analysis of a sparse matrix."""
    params = params or AnalysisParams()
    B = symmetrize_pattern(A)
    if params.ordering == "nd":
        perm = compute_ordering(B, "nd", leaf_size=params.nd_leaf_size)
    else:
        perm = compute_ordering(B, params.ordering)
    Bp = permute_symmetric(B, perm)
    parent = elimination_tree(Bp)
    # Postorder the matrix so supernodes are contiguous pivot blocks — the
    # standard trick: relabel columns by postorder position, which preserves
    # fill and makes fundamental supernodes consecutive.
    post = postorder(parent)
    perm2 = perm[post]
    Bp2 = permute_symmetric(B, perm2)
    # A postorder is an equivalent reordering: the etree of Bp2 is the
    # same tree with its nodes renumbered by postorder position.
    ipost = np.empty_like(post)
    ipost[post] = np.arange(len(post))
    up = parent[post]
    parent2 = np.where(up >= 0, ipost[up], -1)
    cc = column_counts(Bp2, parent2)
    snodes = fundamental_supernodes(parent2, cc)
    snodes = relaxed_amalgamation(
        snodes,
        small_child=params.amalg_small_child,
        fill_tolerance=params.amalg_fill_tolerance,
        max_npiv=params.amalg_max_npiv,
    )
    tree = AssemblyTree.from_supernodes(snodes, sym=sym, name=name)
    return tree


def analyze_problem(
    problem: Problem, params: Optional[AnalysisParams] = None
) -> AssemblyTree:
    """Analyze a registry problem (cached per (name, params))."""
    key = (problem.name, params or AnalysisParams())
    tree = _TREE_CACHE.get(key)
    if tree is None:
        tree = analyze_matrix(
            problem.matrix, sym=problem.sym, name=problem.name, params=params
        )
        _TREE_CACHE[key] = tree
    return tree


_TREE_CACHE: Dict[Tuple[str, AnalysisParams], AssemblyTree] = {}


def cached_tree(
    problem_name: str, params: Optional[AnalysisParams] = None
) -> Optional[AssemblyTree]:
    """The already-analyzed tree for a registry problem, if any."""
    return _TREE_CACHE.get((problem_name, params or AnalysisParams()))


def seed_tree(
    tree: AssemblyTree, problem_name: str,
    params: Optional[AnalysisParams] = None,
) -> None:
    """Install an externally computed tree (e.g. analyzed in a worker
    process) so later :func:`analyze_problem` calls are cache hits."""
    _TREE_CACHE[(problem_name, params or AnalysisParams())] = tree


def clear_cache() -> None:
    _TREE_CACHE.clear()
