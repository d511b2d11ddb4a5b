"""Irregular 1D row blocking (paper §4.2: "irregular 1D-blocking by rows").

Both dynamic strategies distribute the ``border`` rows of a type-2 front
over the selected slaves so as to equalize a per-process metric after the
assignment (workload in flops, or memory in entries).  The common kernel is
a *water-fill*: given current levels ``l_i`` and a per-row cost ``c``, find
the water level T with  Σ_i clamp((T − l_i)/c, 0, kmax) = B  and give each
process ``rows_i = clamp((T − l_i)/c, 0, kmax)`` rows, then round to
integers under the granularity constraints kmin ≤ rows_i ≤ kmax (the
paper's buffer-size / performance constraints).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class BlockingConstraints:
    """Granularity constraints on slave row shares."""

    kmin: int = 4  # minimum rows per slave (performance)
    kmax: int = 10**9  # maximum rows per slave (communication buffers)

    def __post_init__(self):
        if self.kmin < 1 or self.kmax < self.kmin:
            raise ValueError(f"invalid constraints kmin={self.kmin} kmax={self.kmax}")


def water_level(levels: np.ndarray, cost_per_row: float, nrows: int,
                kmax: int) -> float:
    """Water level T such that Σ clamp((T−l)/c, 0, kmax) == nrows.

    Monotone in T ⇒ bisection, at most 80 halvings.  ``filled(lo) < nrows``
    holds throughout, so once the midpoint rounds onto either end of the
    bracket no later step can move ``hi``: the search stops there.
    """
    if nrows <= 0:
        return float(levels.min(initial=0.0))
    c = float(cost_per_row)
    lo = float(levels.min())
    hi = float(levels.max()) + c * nrows + c
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        filled = np.minimum(np.maximum((mid - levels) / c, 0.0), kmax).sum()
        if filled < nrows:
            lo = mid
        else:
            hi = mid
    return hi


def partition_rows(
    levels: Sequence[float],
    cost_per_row: float,
    nrows: int,
    constraints: BlockingConstraints = BlockingConstraints(),
) -> List[int]:
    """Integer row shares per candidate (aligned with ``levels`` order).

    Properties (tested):
    * shares sum exactly to ``nrows``;
    * every nonzero share is in [kmin, kmax] whenever feasible
      (kmin is relaxed only if nrows < kmin — a single small assignment);
    * lower-level candidates never get fewer rows than higher-level ones
      by more than the rounding unit.
    """
    levels = np.asarray(levels, dtype=np.float64)
    ncand = len(levels)
    if ncand == 0:
        raise ValueError("no candidates")
    if nrows <= 0:
        return [0] * ncand
    kmin, kmax = constraints.kmin, constraints.kmax
    if nrows < kmin:
        # One small share, to the least-loaded candidate.
        out = [0] * ncand
        out[int(np.argmin(levels))] = nrows
        return out
    if nrows > ncand * kmax:
        raise ValueError(
            f"cannot place {nrows} rows on {ncand} candidates with kmax={kmax}"
        )
    T = water_level(levels, cost_per_row, nrows, kmax)
    ideal = np.minimum(np.maximum((T - levels) / cost_per_row, 0.0), kmax)
    floors = np.floor(ideal)
    shares: List[int] = floors.astype(np.int64).tolist()
    # Distribute the remainder by largest fractional part, respecting kmax.
    rem = nrows - sum(shares)
    if rem > 0:
        for idx in np.argsort(-(ideal - floors), kind="stable").tolist():
            if rem == 0:
                break
            if shares[idx] < kmax:
                shares[idx] += 1
                rem -= 1
        # If still remaining (everything at kmax-ties), sweep again.
        i = 0
        while rem > 0:
            if shares[i % ncand] < kmax:
                shares[i % ncand] += 1
                rem -= 1
            i += 1
    elif rem < 0:  # pragma: no cover - floor never overshoots
        raise AssertionError("rounding overshoot")
    _enforce_kmin(levels.tolist(), cost_per_row, shares, kmin, kmax)
    assert sum(shares) == nrows
    return shares


def _enforce_kmin(levels: List[float], cost_per_row: float, shares: List[int],
                  kmin: int, kmax: int) -> None:
    """Drop undersized shares, feeding their rows to the least-loaded
    candidates that still have kmax headroom (in place).

    Each round zeroes the smallest share under kmin (lowest index on ties)
    and hands its rows out in order of ``level + cost·share``, ties by
    index.  Rows no candidate can take go back to it and end the pass.  A
    giver holds fewer than kmin rows, so an empty candidate can never take
    them: only candidates with 0 < share < kmax can receive.  ``open_``
    keeps exactly those as sorted ``(key, index)`` pairs, and a round
    re-inserts only the entries whose share it moved.  Receiving never
    makes a share undersized, so each round shrinks ``small`` by one.
    """
    small = sorted((s, i) for i, s in enumerate(shares) if 0 < s < kmin)
    if not small:
        return
    c = float(cost_per_row)
    open_ = sorted((levels[j] + c * s, j) for j, s in enumerate(shares)
                   if 0 < s < kmax)
    while small:
        give, i = small.pop(0)
        shares[i] = 0
        del open_[bisect_left(open_, (levels[i] + c * give, i))]
        moved = 0
        for _key, j in open_:
            take = min(kmax - shares[j], give)
            if shares[j] < kmin:
                # A receiver can only leave the undersized list, never join.
                del small[bisect_left(small, (shares[j], j))]
                if shares[j] + take < kmin:
                    insort(small, (shares[j] + take, j))
            shares[j] += take
            give -= take
            moved += 1
            if give == 0:
                break
        if give > 0:
            # Could not respect kmin strictly: give back to i (relaxation).
            shares[i] = give
            return
        receivers = open_[:moved]
        del open_[:moved]
        for _key, j in receivers:
            if shares[j] < kmax:
                insort(open_, (levels[j] + c * shares[j], j))
