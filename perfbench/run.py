"""Benchmark driver: one seeded workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload attack-sweep --seed 1 --seconds 25 --trace 0

The driver itself imports nothing from ``repro``.  It runs the workload in
``PROCESSES`` fresh interpreters (``perfbench/child.py``), one after another,
each in its own working directory under ``.perfbench-work/`` (also its
``TMPDIR``) with ``REPRO_FAULTS`` stripped and the BLAS/OpenMP pools pinned to
one thread.  Each sets the workload up once; ``setup_s`` is the median of
those set-ups.

The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The line before it records the seed and the environment; the
full record, check results included, is written to
``.perfbench-out/<workload>-seed<seed>-trace<trace>.json`` and the traced
run's spans to ``.perfbench-out/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attack-sweep", "fullarray-mc", "anchored-mc", "campaign-replay")
#: Fresh interpreters per run; each one sets the workload up once.
PROCESSES = 3
#: Step offset between measuring processes, so each times its own inputs.
STEP_STRIDE = 100_000
#: Wall-clock budget of one run, all child processes included [s].
DEADLINE_S = 170.0
#: Thread-pool variables pinned for every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """A run that cannot produce a result (missing program, child failure)."""


def child_env(workdir: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "REPRO_FAULTS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_OBS_DIR"] = str(workdir / "obs")
    # Python's tempfile and SQLite put scratch files under TMPDIR: keep them
    # inside the checkout with everything else the run writes.
    env["TMPDIR"] = str(workdir / "tmp")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(
    args: argparse.Namespace, mode: str, workdir: Path, deadline: float, extra: List[str]
) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
        "--mode", mode, "--trace", str(args.trace), *extra,
    ]
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            command, cwd=workdir, env=child_env(workdir), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_children(args: argparse.Namespace, work: Path, spans: Path) -> List[Dict[str, Any]]:
    """All child processes of one run, one after another; the measuring ones last.

    ``--trace 0`` splits ``--seconds`` over ``PROCESSES`` measuring processes,
    each starting at its own step offset, so one slow or fast process cannot
    set the result alone.  ``--trace 1`` runs ``PROCESSES - 1`` set-up-only
    processes and one traced process.
    """
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        children = [
            run_child(args, "setup", work / f"setup-{index}", deadline, [])
            for index in range(PROCESSES - 1)
        ]
        extra = ["--seconds", str(args.seconds), "--spans", str(spans)]
        return children + [run_child(args, "measure", work / "traced", deadline, extra)]
    return [
        run_child(args, "measure", work / f"measure-{index}", deadline, [
            "--seconds", str(args.seconds / PROCESSES), "--first-step", str(index * STEP_STRIDE),
        ])
        for index in range(PROCESSES)
    ]


def source_digest() -> str:
    """SHA-256 over ``src/repro/**/*.py``: identifies the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        children = run_children(args, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    measured = [child for child in children if "correct" in child]

    if args.trace:
        values = dict(measured[0]["per_layer"])
        values["import.repro_s"] = statistics.median(child["import_s"] for child in children)
        values["bench.failed_ratio"] = measured[0]["failed"] / measured[0]["attempted"]
        latency_samples = None
    else:
        # Throughput and p50 are medians over the measuring processes, so one
        # process caught in a slow spell of a shared machine cannot set them;
        # p90 pools every process's units so that more samples lie beyond it.
        latencies = [value for child in measured for value in child["latencies_s"]]
        latency_samples = len(latencies)
        values = {
            "setup_s": statistics.median(child["setup_s"] for child in children),
            "throughput_per_s": statistics.median(child["units"] / child["wall_s"] for child in measured),
            "unit_p50_ms": statistics.median(1e3 * statistics.median(child["latencies_s"]) for child in measured),
            "unit_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": max(child["peak_rss_mb"] for child in measured),
        }
    # BENCHMARK.json is the metric catalogue: every metric it names, in its order.
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in catalogue["per_layer" if args.trace else "end_to_end"]
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": measured[0]["unit"],
        "latency_samples": latency_samples,
        "setup_samples_s": [child["setup_s"] for child in children],
        "environment": {**measured[0]["environment"], "commit": commit(), "source_sha256": source_digest()},
        "checks": [check for child in measured for check in child["checks"]],
        "correct": all(child["correct"] for child in measured),
        "attempted": sum(child["attempted"] for child in measured),
        "failed": sum(child["failed"] for child in measured),
        "metrics": metrics,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one seeded benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for check in record["checks"]:
        if not check["ok"]:
            print(f"perfbench: check failed: {check['name']}: {check['detail']}", file=sys.stderr)
    print("# " + json.dumps({key: record[key] for key in ("workload", "seed", "unit", "latency_samples", "environment")}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
