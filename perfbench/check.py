#!/usr/bin/env python3
"""Self-check of the benchmark: run every workload's generator, pass and
oracle at reduced size, untraced and traced, and confirm that each run is
correct and emits exactly the metrics BENCHMARK.json names.

    python3 perfbench/check.py

Takes about a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from spans import Tracer


def main():
    if not run.use_checkout_sources():
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    from workloads import SMALL_WORKLOADS, WORKLOADS

    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    run.OUT.mkdir(exist_ok=True)
    for name, workload in SMALL_WORKLOADS.items():
        for trace in (0, 1):
            work_dir = Path(tempfile.mkdtemp(prefix="check-", dir=run.OUT))
            try:
                result = run.measure(workload, 7, 0, work_dir,
                                     Tracer() if trace else None)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            label = f"{name} trace={trace}"
            if result is None or not result["correct"] or result["failed"]:
                problems.append(f"{label}: run failed or its oracle failed")
                continue
            emitted = list(result["metrics"])
            if sorted(emitted) != sorted(wanted[trace]):
                problems.append(f"{label}: emits {sorted(set(emitted) ^ set(wanted[trace]))} "
                                "differently from BENCHMARK.json")
            print(f"{label}: ok, {len(emitted)} metrics, {result['info']['passes']} passes")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
