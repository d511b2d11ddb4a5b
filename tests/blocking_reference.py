"""Frozen copy of the row-blocking kernel before its kmin pass was rewritten.

The equivalence test in ``test_blocking_equivalence.py`` holds
``repro.scheduling.blocking.partition_rows`` and ``water_level`` to these
functions share for share: any rounding change there would move the
paper's tables.  Do not edit this file to follow the package; it is the
oracle.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.scheduling.blocking import BlockingConstraints


def reference_water_level(levels: np.ndarray, cost_per_row: float,
                          nrows: int, kmax: int) -> float:
    """Water level T such that Σ clamp((T−l)/c, 0, kmax) == nrows.

    Monotone in T ⇒ binary search; exact enough at 1e-9 relative tolerance.
    """
    if nrows <= 0:
        return float(levels.min(initial=0.0))
    c = float(cost_per_row)
    lo = float(levels.min())
    hi = float(levels.max()) + c * nrows + c
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        filled = np.minimum(np.maximum((mid - levels) / c, 0.0), kmax).sum()
        if filled < nrows:
            lo = mid
        else:
            hi = mid
    return hi


def reference_partition_rows(
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
    T = reference_water_level(levels, cost_per_row, nrows, kmax)
    ideal = np.minimum(np.maximum((T - levels) / cost_per_row, 0.0), kmax)
    shares = np.floor(ideal).astype(np.int64)
    shares = np.minimum(shares, kmax)
    # Distribute the remainder by largest fractional part, respecting kmax.
    rem = nrows - int(shares.sum())
    if rem > 0:
        frac_order = np.argsort(-(ideal - shares), kind="stable")
        for idx in frac_order:
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
    # Enforce kmin: drop undersized shares, feeding their rows to the
    # least-loaded candidates that still have kmax headroom.
    for _ in range(ncand):
        small = [i for i in range(ncand) if 0 < shares[i] < kmin]
        if not small:
            break
        i = min(small, key=lambda j: shares[j])
        give = int(shares[i])
        shares[i] = 0
        order = np.argsort(levels + cost_per_row * shares, kind="stable")
        for j in order:
            if give == 0:
                break
            if j == i or shares[j] == 0 and give < kmin:
                continue
            room = kmax - int(shares[j])
            if room <= 0:
                continue
            take = min(room, give)
            # keep receiving shares >= kmin
            if shares[j] == 0 and take < kmin:
                continue
            shares[j] += take
            give -= take
        if give > 0:
            # Could not respect kmin strictly: give back to i (relaxation).
            shares[i] = give
            break
    assert int(shares.sum()) == nrows
    return [int(s) for s in shares]
