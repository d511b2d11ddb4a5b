"""The benchmark's workloads: which grid points each one runs, and how.

Pure data, importable without the program, so ``run.py`` can plan a run
before any worker process starts.  Why each workload exists, and which
layer it stresses or bypasses, is recorded in the root ``BENCHMARK.json``
and in ``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

#: The --fast grids of Tables 5-7 (``repro.experiments.parallel``).
LARGE_SUITE = ("AUDIKW_1", "CONV3D64", "ULTRASOUND80")
FAST_LARGE_PROCS = (16, 32)

#: Mechanisms whose results move with ``SolverConfig.seed`` (gossip picks
#: its push targets from seeded RNG streams).  Their runs are checked for
#: repeatability within a run instead of against the stored reference.
SEED_DEPENDENT = frozenset({"gossip"})


@dataclass(frozen=True)
class Point:
    """One simulated factorization of a workload's grid."""

    problem: str
    nprocs: int
    mechanism: str
    strategy: str = "workload"
    threaded: bool = False

    @property
    def label(self) -> str:
        thr = "/threaded" if self.threaded else ""
        return (f"{self.problem}/P{self.nprocs}/{self.mechanism}/"
                f"{self.strategy}{thr}")


@dataclass(frozen=True)
class Workload:
    name: str
    points: Tuple[Point, ...]
    #: Attach a ``DiskCache`` to the runner (a fresh directory per rep).
    disk_cache: bool = False
    #: Run with ``SolverConfig.metrics`` on (repro.obs telemetry).
    metrics: bool = False
    #: Workload whose untimed run fills the cache directory each rep
    #: starts from.
    prefill: Optional[str] = None

    def problems(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(p.problem for p in self.points))

    def tiny(self) -> "Workload":
        """The first grid point only: the self-check's size."""
        return replace(self, points=self.points[:1])


def _table_grid(threaded: bool) -> Tuple[Point, ...]:
    return tuple(
        Point(problem, nprocs, mech, threaded=threaded)
        for nprocs in FAST_LARGE_PROCS
        for problem in LARGE_SUITE
        for mech in ("increments", "snapshot")
    )


WORKLOADS = {
    w.name: w
    for w in (
        # `repro-experiments table5 table6 --fast` from an empty cache.
        Workload("cold-sweep", _table_grid(threaded=False), disk_cache=True),
        # `repro-experiments table7 --fast` over the cache cold-sweep left.
        Workload("rerun-threaded", _table_grid(threaded=True),
                 disk_cache=True, prefill="cold-sweep"),
        # Trimmed to one matrix so a rep stays near the others' length;
        # both mechanisms broadcast state on every load change.
        Workload("broadcast-p128", tuple(
            Point("AUDIKW_1", 128, mech) for mech in ("naive", "increments")
        )),
        Workload("fanout-p128-metrics", tuple(
            Point("AUDIKW_1", 128, mech)
            for mech in ("snapshot", "gossip", "tree_agg", "neighborhood")
        ), metrics=True),
    )
}
