"""One benchmark process: set a workload up in a fresh interpreter, then measure it.

``--mode setup`` times ``import repro`` plus building the workload's engine
and inputs plus one untimed warm-up unit, and prints that as JSON.
``--mode measure`` does the same set-up, then

* with ``--trace 0`` runs steps for ``--seconds`` with no tracing and no
  telemetry, and reports units, wall time and per-unit latencies;
* with ``--trace 1`` runs steps untraced for half of ``--seconds``, then
  re-runs the workload's fixed number of trace steps with every layer
  wrapped and ``repro.obs`` telemetry on, and reports the per-layer metrics.

Either way the workload's output checks run after timing.  The last line of
standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path
from typing import Any, Dict, List

from tracing import STEP_SPAN, Tracer

START = time.perf_counter()


def timed_phase(
    workload: Any, first: int, seconds: float = 0.0, steps: int = 0, tracer: Any = None
) -> Dict[str, Any]:
    """Run steps ``first, first + 1, ...`` for ``seconds`` (or exactly ``steps`` of them)."""
    latencies: List[float] = []
    step_units: List[int] = []
    step_s: List[float] = []
    units = failed = index = 0
    start = time.perf_counter()
    while (index < steps) if steps else (time.perf_counter() - start < seconds):
        if tracer is not None:
            tracer.step = first + index
            span = tracer.open(STEP_SPAN)
        step_start = time.perf_counter()
        result = workload.step(first + index)
        elapsed = time.perf_counter() - step_start
        if tracer is not None:
            tracer.close(span)
        units += result.units
        failed += result.failed
        latencies.extend(result.latencies_s if result.latencies_s is not None else [elapsed])
        step_units.append(result.units)
        step_s.append(elapsed)
        index += 1
    return {
        "wall_s": time.perf_counter() - start,
        "units": units,
        "failed": failed,
        "latencies_s": latencies,
        "step_units": step_units,
        "step_s": step_s,
    }


def step_throughput(phase: Dict[str, Any], steps: int) -> float:
    """Units per second over the phase's first ``steps`` steps."""
    return sum(phase["step_units"][:steps]) / sum(phase["step_s"][:steps])


def environment() -> Dict[str, Any]:
    import os
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-step", type=int, default=0, help="index of the first timed step")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = parser.parse_args()

    import_start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - import_start
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    setup = {"import_s": import_s, "setup_s": time.perf_counter() - START}
    if args.mode == "setup":
        print(json.dumps(setup))
        return

    out: Dict[str, Any] = {**setup, "unit": workload.unit, "environment": environment()}
    if args.trace:
        from repro import Telemetry, telemetry_capture

        import layers

        untraced = timed_phase(workload, args.first_step, seconds=args.seconds / 2)
        tracer = Tracer()
        layers.install(tracer)
        workload.counts.clear()
        try:
            with telemetry_capture(Telemetry()) as telemetry:
                traced = timed_phase(workload, args.first_step, steps=workload.trace_steps, tracer=tracer)
                counters = dict(telemetry.snapshot(include_spans=False)["counters"])
        finally:
            tracer.unpatch()
        shared = min(workload.trace_steps, len(untraced["step_s"]))
        overhead = step_throughput(traced, shared) / step_throughput(untraced, shared)
        out["per_layer"] = layers.layer_metrics(
            tracer, counters, workload.counts, traced["wall_s"], traced["units"], overhead
        )
        if args.spans is not None:
            tracer.write(args.spans)
        phases = [untraced, traced]
    else:
        phase = timed_phase(workload, args.first_step, seconds=args.seconds)
        out["wall_s"] = phase["wall_s"]
        out["units"] = phase["units"]
        out["latencies_s"] = phase["latencies_s"]
        phases = [phase]

    checks = workload.checks()
    out["checks"] = [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks]
    out["attempted"] = sum(phase["units"] for phase in phases) + len(checks)
    out["failed"] = sum(phase["failed"] for phase in phases) + sum(not ok for _, ok, _ in checks)
    out["correct"] = all(ok for _, ok, _ in checks)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
