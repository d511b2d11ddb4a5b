"""One rep of one workload, in a fresh interpreter.

``run.py`` starts this file once per rep with ``PYTHONPATH`` pointing at
the checkout's ``src`` and one JSON argument (see ``run.py:run_rep``).
It sets up the workload's inputs, runs its grid through
``ExperimentRunner`` with ``jobs=1``, validates every result and prints
one JSON line: clock marks, peak RSS, per-run fingerprints and, for a
traced rep, the per-layer figures.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, Optional

from workloads import WORKLOADS


def fingerprint(result) -> Dict:
    """What a speed-up must not change: the figures the paper's tables
    and §4.5 read off one run."""
    return {
        "makespan": result.factorization_time,
        "messages_by_type": dict(sorted(result.messages_by_type.items())),
        "decisions": result.decisions,
        "snapshot_count": result.snapshot_count,
        "events_executed": result.events_executed,
        "peak_active": hashlib.sha256(
            repr(result.peak_active.tolist()).encode()).hexdigest()[:16],
    }


def tree_bytes(path: Optional[str]) -> int:
    if path is None:
        return 0
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path) for f in files
    )


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    if spec["tiny"]:
        workload = workload.tiny()
    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    from repro.experiments.diskcache import DiskCache
    from repro.experiments.runner import ExperimentRunner, ExperimentScale
    from repro.matrices import collection
    from repro.solver.driver import SolverConfig
    from repro.solver.validate import validate_result
    from repro.symbolic import analyze_problem

    config = SolverConfig(seed=spec["seed"])
    cache_dir = spec["cache_dir"]
    runner = ExperimentRunner(
        base_config=config,
        scale=ExperimentScale(fast=True),
        disk_cache=DiskCache(cache_dir) if cache_dir else None,
        metrics=spec["metrics"],
    )
    trees = {
        name: analyze_problem(collection.get(name), config.analysis)
        for name in workload.problems()
    }
    run_ids = [
        repr(runner.key_for(p.problem, p.nprocs, p.mechanism, p.strategy,
                            threaded=p.threaded))
        for p in workload.points
    ] if tracer else []
    cache_bytes_before = tree_bytes(cache_dir)
    setup_self = dict(tracer.self_s) if tracer else {}

    setup_end = time.monotonic()
    results = []
    for i, p in enumerate(workload.points):
        if tracer:
            tracer.run_id = run_ids[i]
        simulated_before = runner.runs_simulated
        result = runner.run(p.problem, p.nprocs, p.mechanism, p.strategy,
                            threaded=p.threaded)
        results.append((p, result, runner.runs_simulated > simulated_before))
    last_result = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    out = {
        "setup_end": setup_end,
        "last_result": last_result,
        "sim_s": last_result - setup_end,
        "rss_kb": rss_kb,
        "points": [
            {
                "label": p.label,
                "mechanism": p.mechanism,
                "problems": validate_result(
                    r, trees[p.problem], proc_speed=config.proc_speed
                ).failures,
                "fingerprint": fingerprint(r),
            }
            for p, r, _ in results
        ],
    }
    if tracer:
        sim_self = sum(tracer.self_s.values()) - sum(setup_self.values())
        out["layers"] = layer_figures(
            tracer, [r for _, r, simulated in results if simulated], runner,
            tree_bytes(cache_dir) - cache_bytes_before,
        )
        out["layers"]["trace.covered_pct"] = 100.0 * sim_self / out["sim_s"]
        if spec["spans_path"]:
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(out))
    return 0


def layer_figures(tracer, simulated, runner, cache_bytes: int) -> Dict:
    """Per-layer figures of a traced rep: self seconds and call counts
    from the spans, work counts from the results the rep simulated."""
    s, n = tracer.self_s, tracer.calls
    return {
        "matrices.generate_s": s["matrices.generate"],
        "symbolic.analyses": n["symbolic.analyze"],
        "symbolic.ordering_s": s["symbolic.ordering"],
        "symbolic.etree_s": s["symbolic.etree"],
        "symbolic.column_counts_s": s["symbolic.column_counts"],
        "symbolic.amalgamation_s": s["symbolic.amalgamation"],
        "symbolic.tree_build_s": s["symbolic.tree_build"],
        "mapping.compute_s": s["mapping.compute"],
        "mapping.calls": n["mapping.compute"],
        "topology.builds": n["topology.build"],
        "topology.build_s": s["topology.build"],
        "simcore.events": sum(r.events_executed for r in simulated),
        "simcore.sends": n["simcore.send"],
        "simcore.bytes": sum(sum(r.bytes_by_type.values()) for r in simulated),
        "simcore.send_s": s["simcore.send"],
        "simcore.broadcasts": n["simcore.broadcast"],
        "simcore.run_self_s": s["simcore.run"],
        "mechanisms.handled": n["mechanisms.handle"],
        "mechanisms.handle_s": s["mechanisms.handle"],
        "mechanisms.state_msgs": sum(r.state_messages for r in simulated),
        "mechanisms.snapshots": sum(r.snapshot_count for r in simulated),
        "scheduling.selections": n["scheduling.select"],
        "scheduling.select_s": s["scheduling.select"],
        "solver.decisions": sum(r.decisions for r in simulated),
        "solver.truth_s": s["solver.truth"],
        "solver.run_self_s": s["solver.run"],
        "obs.finalize_s": s["obs.finalize"],
        "experiments.run_self_s": s["experiments.run"],
        "experiments.cache_get_s": s["experiments.cache_get"],
        "experiments.cache_put_s": s["experiments.cache_put"],
        "experiments.cache_bytes": cache_bytes,
        "experiments.disk_hits": runner.disk_hits,
        "experiments.runs_simulated": runner.runs_simulated,
    }


if __name__ == "__main__":
    sys.exit(main())
