"""The four benchmark workloads: inputs from a seed, one step, output checks.

Each workload builds its engine and inputs from ``--seed`` in the
constructor, runs one *step* per call of :meth:`Workload.step` and checks
its outputs afterwards in :meth:`Workload.checks`.  Step ``i`` always draws
the same inputs for a given seed, whatever ran before it, so a traced re-run
of steps ``0..N-1`` repeats exactly the work of the untraced run.

A step is one unit of work, except on ``attack-sweep`` where one step is a
pass of 39 Fig. 3a-3d attack points and each point is a unit.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    CampaignRunner,
    CampaignSpec,
    MonteCarloConfig,
    MonteCarloEngine,
    ResultCache,
    SimulationConfig,
    hammer_once,
)
from repro.campaign import runner as campaign_runner
from repro.campaign.aggregate import to_experiment_result
from repro.config import AttackConfig
from repro.experiments import (
    decades_spanned,
    fig3a_pulse_length,
    fig3b_electrode_spacing,
    fig3c_ambient_temperature,
    fig3d_attack_patterns,
    monotonically_decreasing,
    monotonically_increasing,
)

#: Step index of the untimed warm-up unit; never used by a timed step.
WARMUP_STEP = 999_999

#: Pulses to flip of the paper's default attack point (``hammer_once()``).
DEFAULT_POINT_PULSES = 5655

#: Committed digest of the full-array reference arrays.
FULLARRAY_REFERENCE = Path(__file__).resolve().parent / "reference_fullarray.json"

Check = Tuple[str, bool, str]


@dataclass
class StepResult:
    """Outcome of one step: units done, units failed, per-unit latencies."""

    units: int = 1
    failed: int = 0
    #: Per-unit latencies [s] when a step holds several units; None means
    #: the step is one unit and the caller times it.
    latencies_s: Optional[List[float]] = None


class Workload:
    """Base class: subclasses build inputs in ``__init__`` and define a step."""

    #: What one unit is, for the report.
    unit = "step"
    #: Steps re-run under tracing (about half a run at today's speed).
    trace_steps = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: Layer counts only the workload sees (invalid lanes, failed points).
        self.counts: Dict[str, float] = {}

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def warm_up(self) -> None:
        self.step(WARMUP_STEP)

    def step(self, index: int) -> StepResult:
        raise NotImplementedError

    def checks(self) -> List[Check]:
        raise NotImplementedError

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# attack-sweep
# ---------------------------------------------------------------------------


def _ns(values) -> List[float]:
    return [float(v) * 1e-9 for v in values]


def _interior(rng: np.random.Generator, low: float, high: float, n: int) -> List[float]:
    """Endpoints fixed (the paper's range), ``n`` sorted interior draws."""
    return [low, *sorted(float(v) for v in rng.uniform(low, high, n)), high]


class AttackSweep(Workload):
    """Fig. 3a-3d points drawn across the paper's axes, run serially per pass.

    Every pass draws the interior values of each axis (the paper's end points
    stay fixed, so the figure-shape checks keep their meaning) and runs the
    four figure campaigns through :class:`CampaignRunner` into a fresh shared
    store.  Unit: one attack point, timed by ``JobRecord.duration_s``.
    """

    unit = "attack point"
    trace_steps = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.passes = 0
        self.figures: List[Tuple[int, str, Any]] = []

    def specs(self, index: int) -> List[Tuple[str, Any]]:
        rng = self.rng(index)
        return [
            ("fig3a", fig3a_pulse_length.campaign_spec(pulse_lengths_s=_ns(_interior(rng, 10.0, 100.0, 8)))),
            ("fig3b", fig3b_electrode_spacing.campaign_spec(
                spacings_m=_ns(_interior(rng, 10.0, 90.0, 1)),
                pulse_lengths_s=_ns(_interior(rng, 50.0, 100.0, 1)),
            )),
            ("fig3c", fig3c_ambient_temperature.campaign_spec(
                temperatures_k=_interior(rng, 273.0, 373.0, 3),
                pulse_lengths_s=_ns(_interior(rng, 10.0, 50.0, 1)),
            )),
            ("fig3d", fig3d_attack_patterns.campaign_spec(pulse_length_s=float(rng.uniform(40.0, 60.0)) * 1e-9)),
        ]

    def warm_up(self) -> None:
        # One point (the paper's default attack) through the same runner and
        # store path, so lazy imports and the store's first open are paid here.
        spec = fig3a_pulse_length.campaign_spec(pulse_lengths_s=[50e-9])
        store = ResultCache(self.workdir / "warm-up", backend="store")
        CampaignRunner(spec, cache=store, job_fn=campaign_runner.run_campaign_job).run()

    def step(self, index: int) -> StepResult:
        # A fresh store per pass, also when a traced re-run repeats the pass.
        self.passes += 1
        store = ResultCache(self.workdir / f"pass-{self.passes}", backend="store")
        result = StepResult(units=0, latencies_s=[])
        for name, spec in self.specs(index):
            report = CampaignRunner(spec, cache=store, job_fn=campaign_runner.run_campaign_job).run()
            failed = [record for record in report.records if not record.ok]
            result.units += len(report.records)
            result.failed += len(failed)
            result.latencies_s.extend(record.duration_s for record in report.records)
            self.count("campaign.points_failed", len(failed))
            self.figures.append((index, name, None if failed else to_experiment_result(spec, report)))
        return result

    def checks(self) -> List[Check]:
        default = hammer_once()
        out = [_check(
            "default point gives 5655 pulses",
            default.flipped and default.pulses == DEFAULT_POINT_PULSES,
            f"pulses={default.pulses} flipped={default.flipped}",
        )]
        seen = set()
        for index, name, figure in self.figures:
            if (index, name) in seen:
                continue  # a traced re-run of the same pass repeats its inputs
            seen.add((index, name))
            if figure is None:
                out.append(_check(f"pass {index} {name}: every point ok", False, "failed points"))
                continue
            problems = FIGURE_CHECKS[name](figure.rows)
            out.append(_check(f"pass {index} {name} shape", not problems, "; ".join(problems)))
        return out


def _series(rows, key: str, by: str, value: float) -> List[float]:
    pairs = sorted((row[by], float(row["pulses_to_flip"])) for row in rows if row[key] == value)
    return [pulses for _, pulses in pairs]


def _grid_shape(rows, outer: str, inner: str, trend: Callable, span: Tuple[float, float]) -> List[str]:
    """Trend and decade span along ``outer`` per ``inner`` value; longer pulses need fewer."""
    problems = []
    if not all(row["flipped"] for row in rows):
        problems.append("not every point flipped")
    for value in sorted({row[inner] for row in rows}):
        pulses = _series(rows, inner, outer, value)
        if not trend(pulses, tolerance=0.05):
            problems.append(f"{inner}={value}: trend broken {pulses}")
        decades = decades_spanned(pulses)
        if not span[0] <= decades <= span[1]:
            problems.append(f"{inner}={value}: spans {decades:.2f} decades")
    for value in sorted({row[outer] for row in rows}):
        by_length = _series(rows, outer, "pulse_length_ns", value)
        if any(b > a for a, b in zip(by_length, by_length[1:])):
            problems.append(f"{outer}={value}: longer pulses need more pulses {by_length}")
    return problems


def _fig3a_shape(rows) -> List[str]:
    pulses = [float(row["pulses_to_flip"]) for row in rows]
    problems = []
    if not all(row["flipped"] for row in rows):
        problems.append("not every point flipped")
    if not monotonically_decreasing(pulses, tolerance=0.05):
        problems.append(f"not decreasing {pulses}")
    if not 0.6 <= decades_spanned(pulses) <= 1.6:
        problems.append(f"spans {decades_spanned(pulses):.2f} decades")
    if not (3_000 <= pulses[0] <= 100_000 and 300 <= pulses[-1] <= 30_000):
        problems.append(f"end points {pulses[0]}, {pulses[-1]}")
    return problems


def _fig3d_shape(rows) -> List[str]:
    pulses = {row["pattern"]: float(row["pulses_to_flip"]) for row in rows}
    temperature = {row["pattern"]: float(row["victim_temperature_k"]) for row in rows}
    ok = (
        all(row["flipped"] for row in rows)
        and pulses["double_row"] < pulses["single"]
        and pulses["double_column"] < pulses["single"]
        and pulses["quad"] < pulses["single"]
        and pulses["row_sweep"] <= pulses["double_row"]
        and temperature["double_row"] > temperature["single"]
        and temperature["row_sweep"] >= temperature["double_row"]
    )
    return [] if ok else [f"pattern ordering broken {pulses}"]


FIGURE_CHECKS: Dict[str, Callable] = {
    "fig3a": _fig3a_shape,
    "fig3b": lambda rows: _grid_shape(rows, "electrode_spacing_nm", "pulse_length_ns", monotonically_increasing, (1.0, 3.0)),
    "fig3c": lambda rows: _grid_shape(rows, "ambient_temperature_k", "pulse_length_ns", monotonically_decreasing, (2.0, 4.5)),
    "fig3d": _fig3d_shape,
}


# ---------------------------------------------------------------------------
# fullarray-mc
# ---------------------------------------------------------------------------

#: Seed of the committed full-array reference digest.
FULLARRAY_REFERENCE_SEED = 20220314
#: Arrays (batch indices) of the reference digest.
FULLARRAY_REFERENCE_ARRAYS = (0, 1)
#: Digest tolerance: one victim lane of flip probability, and 0.1 % of the
#: summed pulse counts (a solver change may move the last digits).
FULLARRAY_FLIP_TOLERANCE = 1.0 / 126
FULLARRAY_PULSES_RTOL = 1e-3


def fullarray_engine(seed: int) -> MonteCarloEngine:
    """64x64 sampled arrays, within-die-correlated Ea, per-cell series R."""
    config = MonteCarloConfig(
        n_samples=1,
        seed=seed,
        mode="full_array",
        distributions=[
            {"path": "device.activation_energy_ev", "kind": "normal",
             "mean": 1.0, "sigma": 0.02, "relative": True, "within_die": 0.3},
            {"path": "device.series_resistance_ohm", "kind": "normal",
             "mean": 1.0, "sigma": 0.05, "relative": True},
        ],
    )
    return MonteCarloEngine(config, simulation=SimulationConfig(geometry={"rows": 64, "columns": 64}))


def fullarray_digest(engine: MonteCarloEngine, batch_index: int) -> Dict[str, Any]:
    result = engine.run_batch(1, batch_index)
    return {
        "batch_index": batch_index,
        "valid": int(result.valid_count),
        "flip_probability": float(result.flip_probability),
        "pulses_sum": int(result.pulses.sum()),
    }


class FullArrayMonteCarlo(Workload):
    """One sampled 64x64 array per step through ``run_batch(1, i)``."""

    unit = "sampled 64x64 array"
    trace_steps = 14

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.engine = fullarray_engine(seed)
        self.engine.nominal_conditions()
        self.first: Optional[Tuple[int, Any]] = None
        self.invalid: List[int] = []

    def step(self, index: int) -> StepResult:
        result = self.engine.run_batch(1, index)
        invalid_lanes = int(result.n_samples - result.valid_count)
        self.count("montecarlo.invalid_lanes", invalid_lanes)
        failed = int(not result.array_valid.all() or invalid_lanes > 0)
        if failed:
            self.invalid.append(index)
        if self.first is None and index != WARMUP_STEP:
            self.first = (index, result)
        return StepResult(failed=failed)

    def checks(self) -> List[Check]:
        out = [_check("every array valid", not self.invalid, f"invalid arrays {self.invalid}")]
        if self.first is not None:
            index, timed = self.first
            again = self.engine.run_batch(1, index)
            out.append(_check(
                f"array {index} repeats exactly",
                np.array_equal(again.pulses, timed.pulses) and np.array_equal(again.flipped, timed.flipped),
                "",
            ))
        reference = json.loads(FULLARRAY_REFERENCE.read_text(encoding="utf-8"))
        engine = fullarray_engine(FULLARRAY_REFERENCE_SEED)
        engine.set_nominal_conditions(self.engine.nominal_conditions())
        for expected in reference["arrays"]:
            got = fullarray_digest(engine, expected["batch_index"])
            ok = (
                got["valid"] == expected["valid"]
                and abs(got["flip_probability"] - expected["flip_probability"]) <= FULLARRAY_FLIP_TOLERANCE
                and math.isclose(got["pulses_sum"], expected["pulses_sum"], rel_tol=FULLARRAY_PULSES_RTOL)
            )
            out.append(_check(f"reference array {expected['batch_index']} digest", ok, f"got {got}, expected {expected}"))
        return out


def write_fullarray_reference() -> Dict[str, Any]:
    """Recompute the committed reference digest (run only on purpose)."""
    engine = fullarray_engine(FULLARRAY_REFERENCE_SEED)
    payload = {
        "seed": FULLARRAY_REFERENCE_SEED,
        "flip_probability_tolerance": FULLARRAY_FLIP_TOLERANCE,
        "pulses_sum_rtol": FULLARRAY_PULSES_RTOL,
        "arrays": [fullarray_digest(engine, index) for index in FULLARRAY_REFERENCE_ARRAYS],
    }
    FULLARRAY_REFERENCE.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


# ---------------------------------------------------------------------------
# anchored-mc
# ---------------------------------------------------------------------------

#: Lanes per batch; with the budget below flip probability is about 0.5.
ANCHORED_LANES = 4096
ANCHORED_MAX_PULSES = 5600
#: Lanes compared element for element against the scalar reference path.
ANCHORED_SCALAR_LANES = 16


class AnchoredMonteCarlo(Workload):
    """The paper's 5x5 array: one nominal solve, then fixed-size lane batches."""

    unit = f"batch of {ANCHORED_LANES} lanes"
    trace_steps = 50

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        config = MonteCarloConfig(
            n_samples=ANCHORED_LANES,
            seed=seed,
            distributions=[
                {"path": "device.activation_energy_ev", "kind": "normal",
                 "mean": 1.0, "sigma": 0.01, "relative": True},
                {"path": "device.series_resistance_ohm", "kind": "normal",
                 "mean": 1.0, "sigma": 0.05, "relative": True},
            ],
        )
        self.engine = MonteCarloEngine(config, attack=AttackConfig(max_pulses=ANCHORED_MAX_PULSES))
        self.engine.nominal_conditions()
        self.first: Optional[Tuple[int, Any]] = None
        self.probabilities: List[float] = []
        self.invalid: List[int] = []

    def step(self, index: int) -> StepResult:
        result = self.engine.run_batch(ANCHORED_LANES, index)
        invalid_lanes = int(result.n_samples - result.valid_count)
        self.count("montecarlo.invalid_lanes", invalid_lanes)
        if invalid_lanes:
            self.invalid.append(index)
        if index != WARMUP_STEP:
            self.probabilities.append(result.flip_probability)
            if self.first is None:
                self.first = (index, result)
        return StepResult(failed=int(invalid_lanes > 0))

    def checks(self) -> List[Check]:
        out = [_check("every lane valid", not self.invalid, f"batches with invalid lanes {self.invalid}")]
        low, high = min(self.probabilities), max(self.probabilities)
        out.append(_check(
            "flipped and budget-exhausted branches both run",
            0.3 <= low and high <= 0.7,
            f"flip probability per batch in [{low:.3f}, {high:.3f}]",
        ))
        index, timed = self.first
        n = ANCHORED_SCALAR_LANES
        scalar = self.engine.run_batch(n, index, vectorized=False)
        same = (
            np.array_equal(scalar.pulses, timed.pulses[:n])
            and np.array_equal(scalar.flipped, timed.flipped[:n])
            and np.array_equal(scalar.valid, timed.valid[:n])
            and np.allclose(scalar.final_x, timed.final_x[:n], rtol=1e-9, atol=1e-12)
        )
        out.append(_check(f"first {n} lanes of batch {index} match the scalar path", same, ""))
        return out


# ---------------------------------------------------------------------------
# campaign-replay
# ---------------------------------------------------------------------------


class CampaignReplay(Workload):
    """A 240-point sweep published once in set-up, then replayed fully cached."""

    unit = "replay of 240 cached points"
    trace_steps = 100

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = self.rng(0)
        self.spec = CampaignSpec(
            name="replay",
            mode="grid",
            simulation={"geometry": {"rows": 3, "columns": 3}},
            attack={"aggressors": [[1, 1]], "victim": [1, 2], "max_pulses": 2000},
            axes=[
                {"path": "attack.pulse.length_s", "values": _ns(sorted(rng.uniform(10.0, 100.0, 8)))},
                {"path": "attack.ambient_temperature_k", "values": sorted(float(v) for v in rng.uniform(273.0, 373.0, 6))},
                {"path": "simulation.geometry.electrode_spacing_m", "values": _ns(sorted(rng.uniform(10.0, 90.0, 5)))},
            ],
        )
        root = workdir / "replay-store"
        shutil.rmtree(root, ignore_errors=True)
        self.cache = ResultCache(root, backend="store")
        cold = CampaignRunner(self.spec, cache=self.cache, job_fn=campaign_runner.run_campaign_job).run()
        self.cold = {record.key: record.result for record in cold.records}
        self.cold_failed = sum(not record.ok for record in cold.records)
        self.last: Optional[Any] = None
        self.bad_replays: List[int] = []

    def step(self, index: int) -> StepResult:
        report = CampaignRunner(self.spec, cache=self.cache, job_fn=campaign_runner.run_campaign_job).run()
        total = len(report.records)
        failed = int(report.cached_count != total or report.computed_count != 0 or len(report.failed_records) != 0)
        self.count("campaign.points_failed", len(report.failed_records))
        if failed:
            self.bad_replays.append(index)
        self.last = report
        return StepResult(failed=failed)

    def checks(self) -> List[Check]:
        records = self.last.records
        same = len(records) == len(self.cold) and all(
            record.result == self.cold.get(record.key) for record in records
        )
        return [
            _check("cold publish ok", self.cold_failed == 0, f"{self.cold_failed} failed points"),
            _check("every replay fully cached, nothing computed", not self.bad_replays,
                   f"replays with misses or computed points {self.bad_replays[:10]}"),
            _check("replayed payloads equal the cold publish", same, ""),
        ]


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    "attack-sweep": AttackSweep,
    "fullarray-mc": FullArrayMonteCarlo,
    "anchored-mc": AnchoredMonteCarlo,
    "campaign-replay": CampaignReplay,
}
