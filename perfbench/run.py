#!/usr/bin/env python3
"""Benchmark of the vh2kg batch job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
``src/`` of the checkout this file sits in; nothing is installed.

One process, one thread, one caller in a closed loop: set up the workload
(import, fixture loading, seeded input generation) five times, then run
passes until their summed time reaches ``--seconds`` (at least two), each
on the inputs of a fresh set-up, checking each pass's outputs with the
workload's oracle.  setup_s is the median of all set-ups.

Every reported time is read from the process CPU clock, with numerical
libraries held to one thread.  For this single-threaded job, which never
waits on I/O, that is its wall time without the time a virtual machine's
vCPU was descheduled by the hypervisor (steal).  Steal episodes slowed
passes by up to 70% on the machine this was written on.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` every pass runs with the outside-in wrappers installed
and the per-layer metrics are printed instead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Spans of a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from spans import LAYER_UNITS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Set-ups before the first pass; setup_s is the median of these and of
#: the one made after every pass.
SETUPS = 5
MIN_PASSES = 2
MODULES = ("analytics", "cluster", "errors", "fixtures", "home", "pipeline",
           "rdf", "risk", "schema", "simulate", "skipgram", "synth", "walks")

END_TO_END_UNITS = {
    "pass_s": "s", "events_per_s": "1/s", "time_to_findings_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path and hold the
    numerical libraries to one thread; False when the checkout has no
    package sources."""
    src = ROOT / "src"
    if not (src / "vh2kg" / "__init__.py").is_file():
        print(f"perfbench: no vh2kg sources under {src}", file=sys.stderr)
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return True


def import_package():
    """Import vh2kg afresh from the checkout, so each setup pays for it."""
    for name in [m for m in sys.modules if m == "vh2kg" or m.startswith("vh2kg.")]:
        del sys.modules[name]
    importlib.import_module("vh2kg")
    return SimpleNamespace(**{m: importlib.import_module(f"vh2kg.{m}") for m in MODULES})


def timed_setup(workload, seed, work_dir, times):
    """Import the package and set the workload up; appends the time taken."""
    gc.collect()
    start = process_time()
    inputs = workload.setup(import_package(), seed, work_dir)
    times.append(process_time() - start)
    return inputs


def measure(workload, seed, seconds, work_dir, tracer=None):
    """Set up, run passes and check them; returns the result object, or
    None when not one pass completed.  With a tracer, every pass is traced
    and the metrics are per-layer."""
    trace = tracer is not None
    setup_times = []
    for _ in range(SETUPS):
        inputs = timed_setup(workload, seed, work_dir, setup_times)
    passes, walls, layer_rows = [], [], []
    attempted = failed = 0
    correct = True
    while len(passes) < MIN_PASSES or sum(walls) < seconds:
        gc.collect()
        start = perf_counter()
        try:
            if trace:
                result, spans = tracer.traced_pass(
                    inputs["vh"], lambda: workload.run_pass(inputs))
            else:
                result = workload.run_pass(inputs)
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            correct = False
            break
        walls.append(perf_counter() - start)
        attempted += result.operations
        try:
            failures = workload.check(inputs, result, passes[-1] if passes else None)
        except Exception:
            traceback.print_exc()
            failures = ["the oracle could not read the pass's outputs"]
        result.outputs.clear()
        for message in failures:
            print(f"oracle: {message}", file=sys.stderr)
        if failures:
            failed += 1
            correct = False
        passes.append(result)
        if trace:
            layer_rows.append(layer_metrics(spans))
        # A fresh set-up for every pass, so setup_s samples the whole run
        # and not one moment of it.
        inputs = timed_setup(workload, seed, work_dir, setup_times)

    if not passes:
        return None
    if trace:
        metrics = {name: {"value": statistics.median(row[name] for row in layer_rows),
                          "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        values = {
            "pass_s": statistics.median(p.pass_s for p in passes),
            "events_per_s": statistics.median(p.events / p.pass_s for p in passes),
            "time_to_findings_s": statistics.median(p.findings_s for p in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    info = {"passes": len(passes), "failed_share": failed / attempted,
            "events": passes[-1].events,
            "pass_cpu_s": " ".join(f"{p.pass_s:.3f}" for p in passes),
            "pass_wall_s": " ".join(f"{w:.3f}" for w in walls)}
    if passes[-1].embed_loss is not None:
        info["embed_loss"] = statistics.median(p.embed_loss for p in passes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         work_dir, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if tracer is not None:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()) + "\n")

    info = result.pop("info", {})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"  {key:<28} {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
