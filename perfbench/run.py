#!/usr/bin/env python3
"""The repository benchmark: what the experiment harness costs, end to end
and per layer.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 15 --trace 0

Each rep of a workload is a fresh ``python3 perfbench/worker.py`` process
(``jobs=1``); a run makes reps for ``--seconds`` seconds, at least
``MIN_REPS`` of them, and reports medians.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced reps and reports its per-layer metrics.  Every run of
every rep is validated and fingerprinted (see README.md).  The last line
of standard output is the JSON result.

``--write-reference`` re-records ``reference.json`` after a change that
is meant to move the paper's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from workloads import SEED_DEPENDENT, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

#: Fewest reps a run medians over, however short ``--seconds`` is.
MIN_REPS = 3
MAX_REPS = 30
#: Wall budget of one run; a rep still running past it is killed.
RUN_BUDGET_S = 170.0
#: Pinned to one thread so the two CPUs of a small machine do not
#: contend with the rep; recorded in the machine line.
BLAS_ENV = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    """A rep could not produce a result (crash, timeout, missing program)."""


def run_rep(run_dir: Path, workload: Workload, seed: int, tiny: bool, *,
            deadline: float, trace: bool = False,
            metrics: Optional[bool] = None,
            cache_dir: Optional[Path] = None,
            spans_path: Optional[Path] = None) -> Dict:
    """Start one worker process, wait for it, return its figures."""
    spec = {
        "workload": workload.name,
        "tiny": tiny,
        "seed": seed,
        "trace": trace,
        "metrics": workload.metrics if metrics is None else metrics,
        "cache_dir": str(cache_dir) if cache_dir else None,
        "spans_path": str(spans_path) if spans_path else None,
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the minimum reps")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=run_dir, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload.name} rep exceeded the run budget")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload.name} rep exited {proc.returncode}:\n"
            + proc.stderr[-3000:])
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["setup_end"] - spawned
    rep["total_s"] = rep["last_result"] - spawned
    rep["peak_rss_mb"] = rep["rss_kb"] / 1024.0
    return rep


class Checker:
    """Correctness gate over every run of every rep.

    A run fails when ``validate_result`` reports a failure, when its
    fingerprint differs from the stored reference (results that cannot
    depend on the seed), or when two reps of the same seed disagree.
    """

    def __init__(self, reference: Dict) -> None:
        self.reference = reference
        self.first: Dict[str, Dict] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, rep: Dict) -> None:
        for pt in rep["points"]:
            label, fp = pt["label"], pt["fingerprint"]
            why = list(pt["problems"])
            if pt["mechanism"] not in SEED_DEPENDENT:
                ref = self.reference.get(label)
                if ref is None:
                    why.append("no reference fingerprint")
                elif ref != fp:
                    why.append("fingerprint differs from reference in "
                               + ", ".join(k for k in fp if fp[k] != ref.get(k)))
            if self.first.setdefault(label, fp) != fp:
                why.append("fingerprint differs between reps of one seed")
            self.attempted += 1
            if why:
                self.failures.append(f"{label}: {'; '.join(why)}")


def machine_record() -> Dict:
    """Where the figures were measured; no -jN figure is ever reported
    (every rep runs ``jobs=1``)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": BLAS_ENV,
        "jobs": 1,
        "commit": commit,
    }


def median(reps: List[Dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def measure(args: argparse.Namespace, run_dir: Path, checker: Checker):
    """Make the run's reps; returns them grouped by kind."""
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    template = None
    if workload.prefill:
        # Untimed: leave the cache directory the way the prefill
        # workload's own run leaves it; every rep starts from a copy.
        template = run_dir / "template"
        run_rep(run_dir, WORKLOADS[workload.prefill], args.seed, args.tiny,
                deadline=deadline, cache_dir=template)
    kinds = ["plain"]
    if args.trace:
        kinds.append("traced")
        if workload.metrics:
            kinds.append("twin")  # the metrics-off twin, for obs overhead
    min_reps = MIN_REPS if not args.trace else len(kinds)
    reps: Dict[str, List[Dict]] = {k: [] for k in kinds}
    measuring_until = time.monotonic() + args.seconds
    i = 0
    while i < min_reps or (time.monotonic() < measuring_until
                           and i < MAX_REPS):
        kind = kinds[i % len(kinds)]
        cache_dir = None
        if workload.disk_cache:
            cache_dir = run_dir / f"cache-{i}"
            if template is not None:
                shutil.copytree(template, cache_dir)
        spans = None
        if kind == "traced":
            spans = WORK / "spans" / (
                f"{args.workload}-seed{args.seed}-rep{i}.json")
            spans.parent.mkdir(parents=True, exist_ok=True)
        rep = run_rep(run_dir, workload, args.seed, args.tiny,
                      deadline=deadline, trace=kind == "traced",
                      metrics=(not workload.metrics) if kind == "twin"
                      else None,
                      cache_dir=cache_dir, spans_path=spans)
        checker.check(rep)
        reps[kind].append(rep)
        i += 1
    return reps


def end_to_end(reps: Dict[str, List[Dict]]) -> Dict[str, float]:
    plain = reps["plain"]
    return {k: median(plain, k)
            for k in ("setup_s", "sim_s", "total_s", "peak_rss_mb")}


def per_layer(reps: Dict[str, List[Dict]]) -> Dict[str, float]:
    traced = reps["traced"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    plain_sim = median(reps["plain"], "sim_s")
    traced_sim = median(traced, "sim_s")
    out["simcore.events_per_s"] = out["simcore.events"] / plain_sim
    out["trace.sim_s"] = traced_sim
    out["trace.overhead_pct"] = 100.0 * (traced_sim - plain_sim) / plain_sim
    out["obs.overhead_pct"] = 0.0
    if reps.get("twin"):
        off = median(reps["twin"], "sim_s")
        out["obs.overhead_pct"] = 100.0 * (plain_sim - off) / off
    return out


def write_reference(args: argparse.Namespace, run_dir: Path) -> int:
    """Record the fingerprints of every seed-independent run."""
    fingerprints: Dict[str, Dict] = {}
    deadline = time.monotonic() + 10 * RUN_BUDGET_S
    for workload in WORKLOADS.values():
        cache_dir = run_dir / f"ref-{workload.name}"
        rep = run_rep(run_dir, workload, args.seed, False, deadline=deadline,
                      cache_dir=cache_dir if workload.disk_cache else None)
        for pt in rep["points"]:
            if pt["problems"]:
                print(f"{pt['label']}: {pt['problems']}", file=sys.stderr)
                return 1
            if pt["mechanism"] not in SEED_DEPENDENT:
                fingerprints[pt["label"]] = pt["fingerprint"]
    REFERENCE.write_text(json.dumps(fingerprints, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {len(fingerprints)} fingerprints to {REFERENCE}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="first grid point only (the self-check's size)")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="fingerprints to check against")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"re-record {REFERENCE.name} and exit")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(args, run_dir)
        checker = Checker(json.loads(args.reference.read_text()))
        reps = measure(args, run_dir, checker)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values, section = per_layer(reps), declared["per_layer"]
    else:
        values, section = end_to_end(reps), declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    failed = len(checker.failures)
    nreps = sum(len(v) for v in reps.values())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}: {nreps} reps, "
          f"{checker.attempted} runs checked")
    print("machine: " + json.dumps(machine_record()))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':28s} {failed / checker.attempted:14.6g} "
          f"runs failed / runs attempted ({failed}/{checker.attempted})")
    for line in checker.failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
