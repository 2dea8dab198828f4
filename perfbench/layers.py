"""Which ``repro`` entry points the traced run wraps, and the per-layer metrics.

:func:`install` wraps the public functions and methods that bound each layer
(see the table in ``README.md``); :func:`layer_metrics` turns the recorded
spans, the ``repro.obs`` telemetry counters of the traced phase and the
workload's own counts into the ``per_layer`` metrics of ``BENCHMARK.json``
(``run.py`` adds ``import.repro_s`` and ``bench.failed_ratio``).
"""

from __future__ import annotations

from typing import Any, Dict

from tracing import STEP_SPAN, Tracer


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; ``tracer.unpatch()`` undoes it."""
    from repro.attack.neurohammer import NeuroHammer
    from repro.campaign.runner import CampaignRunner, run_campaign_job
    from repro.circuit.solver import CrossbarSolver
    from repro.devices.thermal import solve_operating_point
    from repro.montecarlo.engine import MonteCarloEngine
    from repro.montecarlo.sampling import PopulationSampler
    from repro.montecarlo.vectorized import pulses_to_switch_batch
    from repro.store.store import ResultStore
    from repro.thermal.operator import DenseCrosstalkOperator, FftCrosstalkOperator, StencilCrosstalkOperator

    def count_fft(tr: Tracer, args: Any, kwargs: Any, result: Any) -> None:
        if isinstance(args[0], FftCrosstalkOperator):
            tr.count("thermal.crosstalk.fft_calls")

    def count_lanes(tr: Tracer, args: Any, kwargs: Any, result: Any) -> None:
        tr.count("montecarlo.kernel.lanes", result.pulses.size)

    def count_hits(tr: Tracer, args: Any, kwargs: Any, result: Any) -> None:
        if result is not None:
            tr.count("store.get.hits")

    tracer.patch_method(CrossbarSolver, "solve", "circuit.solve")
    for operator in (FftCrosstalkOperator, StencilCrosstalkOperator, DenseCrosstalkOperator):
        tracer.patch_method(operator, "apply", "thermal.crosstalk", count_fft)
    tracer.patch_function(solve_operating_point, "devices.operating_point")
    tracer.patch_method(NeuroHammer, "run", "attack.run")
    tracer.patch_method(MonteCarloEngine, "run_batch", "montecarlo.batch")
    tracer.patch_method(PopulationSampler, "sample", "montecarlo.sample")
    tracer.patch_method(PopulationSampler, "sample_cells", "montecarlo.sample")
    tracer.patch_function(pulses_to_switch_batch, "montecarlo.kernel", count_lanes)
    tracer.patch_method(CampaignRunner, "run", "campaign.run")
    tracer.patch_function(run_campaign_job, "campaign.job")
    tracer.patch_method(ResultStore, "get", "store.get", count_hits)
    tracer.patch_method(ResultStore, "put", "store.put")


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the base is 0 (layer unused)."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    workload_counts: Dict[str, float],
    traced_wall_s: float,
    traced_units: int,
    tracing_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric except those ``run.py`` adds."""
    layers = tracer.layer_times()
    metrics: Dict[str, float] = {}
    for layer in (
        "circuit.solve", "thermal.crosstalk", "devices.operating_point", "attack.run",
        "montecarlo.batch", "montecarlo.sample", "montecarlo.kernel",
        "campaign.run", "campaign.job", "store.get", "store.put",
    ):
        times = layers.get(layer, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = times["calls"]
        metrics[f"{layer}.busy_s"] = times["busy_s"]
        metrics[f"{layer}.self_s"] = times["self_s"]

    iterations = counters.get("solver.iterations", 0.0)
    metrics["circuit.solve.iterations"] = iterations
    metrics["circuit.solve.linear_sparse"] = counters.get("solver.linear.sparse", 0.0)
    metrics["circuit.solve.linear_dense"] = counters.get("solver.linear.dense", 0.0)
    metrics["circuit.solve.ms_per_iteration"] = 1e3 * _ratio(metrics["circuit.solve.busy_s"], iterations)
    metrics["circuit.solve.failures"] = tracer.counts.get("circuit.solve.raised.ConvergenceError", 0.0)
    metrics["thermal.crosstalk.fft_calls"] = tracer.counts.get("thermal.crosstalk.fft_calls", 0.0)
    metrics["thermal.crosstalk.operators_built"] = sum(
        value for name, value in counters.items() if name.startswith("crosstalk.operator.built.")
    )
    metrics["attack.steps_per_point"] = _ratio(
        metrics["devices.operating_point.calls"], metrics["attack.run.calls"]
    )
    lanes = tracer.counts.get("montecarlo.kernel.lanes", 0.0)
    metrics["montecarlo.kernel.lanes"] = lanes
    metrics["montecarlo.kernel.lanes_per_s"] = _ratio(lanes, metrics["montecarlo.kernel.busy_s"])
    metrics["montecarlo.invalid_lanes"] = workload_counts.get("montecarlo.invalid_lanes", 0.0)
    metrics["campaign.points_failed"] = workload_counts.get("campaign.points_failed", 0.0)
    metrics["campaign.cache_hits"] = counters.get("campaign.cache.hits", 0.0)
    metrics["campaign.cache_misses"] = counters.get("campaign.cache.misses", 0.0)
    metrics["store.get.hit_ratio"] = _ratio(tracer.counts.get("store.get.hits", 0.0), metrics["store.get.calls"])
    metrics["obs.tracing_overhead"] = tracing_overhead

    # The benchmark's own unattributed time: step self time plus the loop
    # between steps.
    steps = layers.get(STEP_SPAN, {"busy_s": 0.0, "self_s": 0.0})
    own = steps["self_s"] + max(0.0, traced_wall_s - steps["busy_s"])
    metrics["bench.traced_units"] = float(traced_units)
    metrics["bench.traced_wall_s"] = traced_wall_s
    metrics["bench.self_s"] = own
    metrics["bench.self_share"] = _ratio(own, traced_wall_s)
    return metrics
