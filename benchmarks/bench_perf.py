"""Perf benchmark + regression floor for the simulation engine.

Two jobs in one file:

* ``python benchmarks/bench_perf.py`` measures (1) the engine hot loop in
  isolation, (2) one representative table run at fast scale, and (3) the
  fast-scale Table-5 suite executed serially vs fanned out with
  ``--jobs 4`` — and writes the numbers to ``BENCH_perf.json`` at the repo
  root, so the perf trajectory accumulates in git history PR over PR.

* under pytest (CI) the ``test_*`` functions assert *generous* floors —
  an order of magnitude below today's measurements — so a PR that makes the
  simulator 3–10× slower fails loudly, while shared-runner noise never does.
"""

import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.parallel import grid_for_targets, prefetch
from repro.experiments.runner import ExperimentRunner, ExperimentScale
from repro.matrices import collection
from repro.simcore.engine import Simulator
from repro.symbolic import analyze_problem

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_perf.json"

#: Regression floors (events/second).  Today's numbers are ~10× higher even
#: on a slow shared runner; these only catch order-of-magnitude regressions.
ENGINE_FLOOR_EPS = 50_000
SOLVER_FLOOR_EPS = 2_000

#: Telemetry budget: a metrics-on run must keep at least this fraction of
#: the metrics-off floor (docs/observability.md documents the 5% budget;
#: the floor-relative form stays immune to shared-runner noise).
METRICS_FLOOR_FRACTION = 0.95

#: The hot-path telemetry budget (docs/observability.md): the committed
#: paired-median ``overhead_pct`` in BENCH_perf.json must stay below this.
METRICS_BUDGET_PCT = 5.0

#: Metric families the representative metrics-on run must export — the
#: budget only counts if the full catalogue is still being fed.
METRICS_MIN_FAMILIES = 21


# --------------------------------------------------------------- measurements


def engine_hot_loop(n_events: int = 200_000, chains: int = 8):
    """Pure engine throughput: self-rescheduling callback chains.

    No network, no solver — this isolates EventQueue push/pop plus the
    ``Simulator.run`` dispatch loop, the code the slotted ``Event`` and the
    ``(time, priority, seq, event)`` heap entries target.
    """
    sim = Simulator(max_events=n_events + chains + 1)
    budget = n_events

    def make_chain(period: float):
        def cb() -> None:
            nonlocal budget
            budget -= 1
            if budget > 0:
                sim.schedule(period, cb)
            else:
                sim.stop("budget")
        return cb

    for c in range(chains):
        sim.schedule(0.0, make_chain(1e-6 * (c + 1)))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "events": sim.events_executed,
        "wall_s": wall,
        "events_per_sec": sim.events_executed / wall,
    }


def representative_run(problem: str = "AUDIKW_1", nprocs: int = 16):
    """One real factorization at fast scale: solver + network + mechanism."""
    runner = ExperimentRunner(scale=ExperimentScale(fast=True))
    t0 = time.perf_counter()
    r = runner.run(problem, nprocs, "increments", "workload")
    wall = time.perf_counter() - t0
    return {
        "problem": problem,
        "nprocs": nprocs,
        "mechanism": "increments",
        "strategy": "workload",
        "wall_s": wall,
        "events_executed": r.events_executed,
        "events_per_sec": r.events_executed / wall,
    }


def metrics_overhead(
    problem: str = "AUDIKW_1", nprocs: int = 16, pairs: int = 7
):
    """Telemetry tax of the representative run, off vs on (repro.obs).

    Methodology (shared runners drift ±10% over minutes, which swamps a
    single back-to-back comparison):

    * the symbolic-analysis cache is warmed first, and one throwaway
      off/on pair warms code paths and allocators;
    * ``gc.collect()`` runs before every timed region so collector debt
      accumulated by a previous run never lands inside the next one;
    * off and on runs alternate in tightly interleaved pairs, and the
      reported ``overhead_pct`` is the **median** of the per-pair relative
      differences — drift moves both halves of a pair together, and the
      median discards the pairs an OS hiccup still ruins.
    """
    analyze_problem(collection.get(problem))

    def run_once(metrics: bool):
        runner = ExperimentRunner(
            scale=ExperimentScale(fast=True), metrics=metrics
        )
        gc.collect()
        t0 = time.perf_counter()
        r = runner.run(problem, nprocs, "increments", "workload")
        return time.perf_counter() - t0, r

    run_once(False)
    _, r_on = run_once(True)
    diffs = []
    walls_off = []
    walls_on = []
    r_off = None
    for _ in range(pairs):
        w_off, r_off = run_once(False)
        w_on, r_on = run_once(True)
        walls_off.append(w_off)
        walls_on.append(w_on)
        diffs.append(100.0 * (w_on - w_off) / w_off)
    wall_off = statistics.median(walls_off)
    wall_on = statistics.median(walls_on)
    return {
        "problem": problem,
        "nprocs": nprocs,
        "mechanism": "increments",
        "strategy": "workload",
        "pairs": pairs,
        "off_wall_s": wall_off,
        "on_wall_s": wall_on,
        "off_events_per_sec": r_off.events_executed / wall_off,
        "on_events_per_sec": r_on.events_executed / wall_on,
        "overhead_pct": statistics.median(diffs),
        "metric_families": len((r_on.metrics or {}).get("families", {})),
    }


def suite_serial_vs_parallel(jobs: int = 4, target: str = "table5"):
    """Fast-scale suite wall time: serial baseline vs ``--jobs N`` fan-out.

    The symbolic-analysis cache is warmed first so both passes time the
    *simulations* (workers inherit the warm cache via fork where available).
    """
    scale = ExperimentScale(fast=True)
    specs = grid_for_targets([target], scale)
    for name in sorted({s.problem for s in specs}):
        analyze_problem(collection.get(name))

    serial = ExperimentRunner(scale=scale)
    t0 = time.perf_counter()
    for s in specs:
        serial.run(s.problem, s.nprocs, s.mechanism, s.strategy,
                   threaded=s.threaded)
    serial_wall = time.perf_counter() - t0

    par = ExperimentRunner(scale=scale)
    t0 = time.perf_counter()
    prefetch(par, [target], jobs, specs=specs)
    parallel_wall = time.perf_counter() - t0

    return {
        "target": target,
        "scale": "fast",
        "runs": len(specs),
        "serial_wall_s": serial_wall,
        "parallel_jobs": jobs,
        "parallel_wall_s": parallel_wall,
        "speedup": serial_wall / parallel_wall,
    }


def collect(jobs: int = 4):
    return {
        "schema": 1,
        "generated_by": "benchmarks/bench_perf.py",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "engine_hot_loop": engine_hot_loop(),
        "representative_run": representative_run(),
        "metrics_overhead": metrics_overhead(),
        "suite_fast": suite_serial_vs_parallel(jobs=jobs),
    }


def main(argv=None) -> int:
    jobs = int(argv[0]) if argv else 4
    data = collect(jobs=jobs)
    BENCH_FILE.write_text(json.dumps(data, indent=1) + "\n")
    eng = data["engine_hot_loop"]
    suite = data["suite_fast"]
    print(f"engine hot loop : {eng['events_per_sec']:,.0f} events/s "
          f"({eng['events']} events in {eng['wall_s']:.2f}s)")
    rep = data["representative_run"]
    print(f"representative  : {rep['problem']} P={rep['nprocs']} "
          f"{rep['events_per_sec']:,.0f} events/s ({rep['wall_s']:.2f}s)")
    mo = data["metrics_overhead"]
    print(f"metrics overhead: {mo['overhead_pct']:+.1f}% wall "
          f"({mo['off_events_per_sec']:,.0f} -> "
          f"{mo['on_events_per_sec']:,.0f} events/s, "
          f"{mo['metric_families']} families)")
    print(f"suite ({suite['target']}, {suite['runs']} runs): "
          f"serial {suite['serial_wall_s']:.1f}s vs "
          f"-j{suite['parallel_jobs']} {suite['parallel_wall_s']:.1f}s "
          f"(speedup {suite['speedup']:.2f}x on {data['cpu_count']} CPUs)")
    print(f"written to {BENCH_FILE}")
    return 0


# ----------------------------------------------------- pytest regression floor


def test_engine_hot_loop_floor():
    """The dispatch loop must stay within an order of magnitude of today."""
    m = engine_hot_loop(n_events=100_000)
    assert m["events_per_sec"] >= ENGINE_FLOOR_EPS, (
        f"engine hot loop collapsed to {m['events_per_sec']:,.0f} events/s "
        f"(floor {ENGINE_FLOOR_EPS:,}); see BENCH_perf.json for trajectory"
    )


def test_representative_run_floor():
    m = representative_run()
    assert m["events_per_sec"] >= SOLVER_FLOOR_EPS, (
        f"full-stack simulation collapsed to {m['events_per_sec']:,.0f} "
        f"events/s (floor {SOLVER_FLOOR_EPS:,})"
    )


def test_metrics_overhead_floor():
    """A metrics-on run must stay within the telemetry overhead budget.

    Two-sided: the committed paired-median in BENCH_perf.json enforces the
    <5% budget exactly (see :func:`test_metrics_overhead_budget`); this
    live guard is deliberately noise-tolerant — a couple of quick pairs on
    a noisy shared runner cannot resolve 5%, but a median above 3× the
    budget means the hot path regressed for real, not that the runner
    hiccupped.
    """
    m = metrics_overhead(pairs=3)
    floor = METRICS_FLOOR_FRACTION * SOLVER_FLOOR_EPS
    assert m["on_events_per_sec"] >= floor, (
        f"metrics-on run at {m['on_events_per_sec']:,.0f} events/s is below "
        f"{floor:,.0f} ({METRICS_FLOOR_FRACTION:.0%} of the "
        f"{SOLVER_FLOOR_EPS:,} floor); MetricsMonitor is no longer cheap"
    )
    assert m["overhead_pct"] < 3 * METRICS_BUDGET_PCT, (
        f"live paired-median telemetry overhead {m['overhead_pct']:+.1f}% is "
        f"over 3x the {METRICS_BUDGET_PCT:.0f}% budget — the hot path "
        "regressed beyond what runner noise explains"
    )
    assert m["metric_families"] >= METRICS_MIN_FAMILIES, (
        f"metrics-on run exported {m['metric_families']} families "
        f"(expected >= {METRICS_MIN_FAMILIES}); the catalogue shrank"
    )


def test_metrics_overhead_budget():
    """The committed BENCH_perf.json honors the <5% telemetry budget.

    ``python benchmarks/bench_perf.py`` must be re-run (on a quiet machine,
    paired-median protocol) whenever the hot path changes; this test makes
    an over-budget measurement un-commitable without also making CI depend
    on the runner's wall clock.
    """
    mo = json.loads(BENCH_FILE.read_text())["metrics_overhead"]
    assert mo["overhead_pct"] < METRICS_BUDGET_PCT, (
        f"committed telemetry overhead {mo['overhead_pct']:+.2f}% breaks "
        f"the {METRICS_BUDGET_PCT:.0f}% budget; re-optimize the hot path "
        "and re-run benchmarks/bench_perf.py"
    )
    assert mo["metric_families"] >= METRICS_MIN_FAMILIES, (
        f"committed run exported {mo['metric_families']} metric families "
        f"(expected >= {METRICS_MIN_FAMILIES})"
    )


def test_bench_file_schema():
    """BENCH_perf.json (committed at the repo root) stays well-formed."""
    data = json.loads(BENCH_FILE.read_text())
    assert data["schema"] == 1
    assert data["engine_hot_loop"]["events_per_sec"] > 0
    assert data["engine_hot_loop"]["wall_s"] > 0
    assert data["representative_run"]["events_per_sec"] > 0
    mo = data["metrics_overhead"]
    assert mo["on_events_per_sec"] > 0 and mo["off_events_per_sec"] > 0
    assert mo["metric_families"] > 0
    suite = data["suite_fast"]
    assert suite["runs"] > 0
    assert suite["serial_wall_s"] > 0 and suite["parallel_wall_s"] > 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
