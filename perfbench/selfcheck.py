#!/usr/bin/env python3
"""Self-check of the benchmark itself (about a minute on two CPUs).

    python3 perfbench/selfcheck.py

Checks that:

1. a tiny run (first grid point) of every workload, untraced and traced,
   prints every metric ``BENCHMARK.json`` declares, with its unit, and
   passes the correctness gate;
2. a reference fingerprint perturbed on purpose makes the run incorrect,
   with runs failed above 0;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selfcheck"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> Optional[Dict]:
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return last if isinstance(last, dict) else None


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed: List[str] = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failed.append(what)

    for w in declared["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", w["name"], "--trace", str(trace),
                         "--tiny")
            r = result(proc) if proc.returncode == 0 else None
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in (r or {}).get("metrics", {}).items()}
            expect(r is not None and set(r) == RESULT_KEYS and got == want
                   and r["correct"] and r["failed"] == 0,
                   f"{w['name']} --trace {trace}: every {section} metric "
                   "with its unit, all runs correct")
            if r is None:
                print(proc.stderr[-2000:], file=sys.stderr)

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        reference = json.loads((HERE / "reference.json").read_text())
        reference[WORKLOADS["cold-sweep"].points[0].label][
            "events_executed"] += 1
        perturbed = WORK / "perturbed-reference.json"
        perturbed.write_text(json.dumps(reference))
        proc = bench("--workload", "cold-sweep", "--trace", "0", "--tiny",
                     "--reference", str(perturbed))
        r = result(proc)
        expect(proc.returncode == 0 and r is not None and not r["correct"]
               and r["failed"] > 0,
               "a perturbed reference fingerprint fails the run")

        bare = WORK / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "cold-sweep", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and result(proc) is None,
               "without the program the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("selfcheck: " + ("FAILED: " + "; ".join(failed) if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
