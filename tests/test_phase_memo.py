"""The attack-point phase memo of :mod:`repro.campaign.runner`.

Attack points that differ only in kinetics-only fields (pulse length, duty
cycle, flip threshold, pulse budget) share one electro-thermal phase solve.
These tests pin the three properties that make that safe:

* a memo hit is bit-for-bit what a recompute gives, on the Fig. 3a-3d
  campaigns, and builds no crossbar;
* every other configuration field keys the memo, so changing it misses;
* the memo stays within its bound and callers cannot reach its entries.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import threading

import pytest

from repro.campaign import CampaignRunner
from repro.campaign import runner
from repro.circuit import CrossbarArray
from repro.config import AttackConfig, CrossbarGeometry, PulseConfig, SimulationConfig
from repro.experiments import (
    fig3a_pulse_length,
    fig3b_electrode_spacing,
    fig3c_ambient_temperature,
    fig3d_attack_patterns,
)
from repro.obs import telemetry_capture

NS = 1e-9

SPECS = {
    "fig3a": [fig3a_pulse_length.campaign_spec(pulse_lengths_s=[10 * NS, 35 * NS, 100 * NS])],
    "fig3b": [fig3b_electrode_spacing.campaign_spec(
        spacings_m=[10 * NS, 50 * NS, 90 * NS], pulse_lengths_s=[50 * NS, 100 * NS]
    )],
    "fig3c": [fig3c_ambient_temperature.campaign_spec(
        temperatures_k=[273.0, 323.0, 373.0], pulse_lengths_s=[10 * NS, 50 * NS]
    )],
    # One pulse length per spec: the second campaign hits every phase solve
    # the first one filled in.
    "fig3d": [
        fig3d_attack_patterns.campaign_spec(pulse_length_s=40 * NS),
        fig3d_attack_patterns.campaign_spec(pulse_length_s=60 * NS),
    ],
}


def _cold_job(payload):
    """The campaign job with the memo cleared first: every phase recomputed."""
    runner.clear_phase_memo()
    return runner.run_campaign_job(payload)


def _results(specs, job_fn):
    out = []
    for spec in specs:
        report = CampaignRunner(spec, job_fn=job_fn).run()
        assert all(record.ok for record in report.records)
        out.extend(record.result for record in sorted(report.records, key=lambda r: r.index))
    return out


def _job(simulation: SimulationConfig, attack: AttackConfig):
    return {"simulation": simulation.to_dict(), "attack": attack.to_dict()}


def _small_simulation() -> SimulationConfig:
    return SimulationConfig(geometry=CrossbarGeometry(rows=3, columns=3))


def _small_attack(**fields) -> AttackConfig:
    fields.setdefault("aggressors", [(1, 1)])
    fields.setdefault("victim", (1, 2))
    return AttackConfig(**fields)


def _memo_counts(jobs):
    """(hits, misses) of running the jobs one after another."""
    with telemetry_capture() as tel:
        for job in jobs:
            runner.execute_attack_point(job)
    return (
        tel.counter_value("attack.phase_memo.hits"),
        tel.counter_value("attack.phase_memo.misses"),
    )


class TestHitsEqualRecomputes:
    @pytest.mark.parametrize("figure", sorted(SPECS))
    def test_figure_payloads_identical_with_and_without_memo(self, figure):
        with telemetry_capture() as tel:
            memoized = _results(SPECS[figure], runner.run_campaign_job)
        assert tel.counter_value("attack.phase_memo.hits") > 0
        cold = _results(SPECS[figure], _cold_job)
        assert memoized == cold

    def test_default_point_still_needs_5655_pulses_on_a_hit(self):
        simulation = SimulationConfig()
        attack = AttackConfig(aggressors=[(2, 2)], victim=(2, 3))
        other_length = dataclasses.replace(attack, pulse=PulseConfig(length_s=20 * NS))
        runner.execute_attack_point(_job(simulation, other_length))
        with telemetry_capture() as tel:
            payload = runner.execute_attack_point(_job(simulation, attack))
        assert tel.counter_value("attack.phase_memo.hits") == 1
        assert payload["flipped"] and payload["pulses"] == 5655


class TestHitsBuildNoCrossbar:
    def test_pulse_length_sweep_builds_one_crossbar(self, monkeypatch):
        built = []
        original = CrossbarArray.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CrossbarArray, "__init__", counting_init)
        spec = fig3a_pulse_length.campaign_spec(pulse_lengths_s=[k * 10 * NS for k in range(1, 11)])
        with telemetry_capture() as tel:
            results = _results([spec], runner.run_campaign_job)
        assert len(results) == 10 and all(result["flipped"] for result in results)
        assert len(built) == 1
        assert tel.counter_value("attack.phase_memo.hits") == 9
        assert tel.counter_value("attack.phase_memo.misses") == 1


def _leaf_paths(tree, prefix=()):
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (name,))
        else:
            yield prefix + (name,)


def _perturbed(config, path):
    """A deep copy of ``config`` with the leaf at ``path`` set to a sentinel."""
    config = copy.deepcopy(config)
    parent = config
    for name in path[:-1]:
        parent = getattr(parent, name)
    # Plain setattr skips validation on purpose: only the key is computed.
    object.__setattr__(parent, path[-1], ["perturbed", getattr(parent, path[-1])])
    return config


class TestMemoKey:
    def test_every_non_kinetic_field_keys_the_memo(self):
        simulation, attack = SimulationConfig(), AttackConfig()
        base = runner.phase_memo_key(simulation, attack)
        for path in _leaf_paths(simulation.to_dict()):
            assert runner.phase_memo_key(_perturbed(simulation, path), attack) != base, path
        checked = 0
        for path in _leaf_paths(attack.to_dict()):
            key = runner.phase_memo_key(simulation, _perturbed(attack, path))
            if path in runner.KINETICS_ONLY_FIELDS:
                assert key == base, path
            else:
                assert key != base, path
                checked += 1
        assert checked >= 6  # aggressors, victim, pattern, amplitude, scheme, ambient

    def test_kinetics_only_fields_exist(self):
        leaves = set(_leaf_paths(AttackConfig().to_dict()))
        assert set(runner.KINETICS_ONLY_FIELDS) <= leaves

    def test_kinetics_only_change_hits(self):
        simulation = _small_simulation()
        base = _small_attack()
        variants = [
            base,
            dataclasses.replace(base, pulse=PulseConfig(length_s=80 * NS)),
            dataclasses.replace(base, pulse=PulseConfig(duty_cycle=0.25)),
            dataclasses.replace(base, flip_threshold=0.4),
            dataclasses.replace(base, max_pulses=1000),
        ]
        assert _memo_counts([_job(simulation, attack) for attack in variants]) == (4, 1)

    @pytest.mark.parametrize(
        "change",
        [
            {"pulse": PulseConfig(amplitude_v=1.0)},
            {"bias_scheme": "v_third"},
            {"ambient_temperature_k": 320.0},
            {"victim": (1, 0)},
            {"aggressors": [(0, 1)], "victim": (0, 2)},
        ],
        ids=["amplitude", "scheme", "ambient", "victim", "aggressor"],
    )
    def test_non_kinetic_attack_change_misses(self, change):
        simulation = _small_simulation()
        base = _small_attack()
        jobs = [_job(simulation, base), _job(simulation, dataclasses.replace(base, **change))]
        assert _memo_counts(jobs) == (0, 2)

    def test_simulation_change_misses(self):
        base = _small_simulation()
        wider = SimulationConfig(geometry=CrossbarGeometry(rows=3, columns=3, electrode_spacing_m=80 * NS))
        attack = _small_attack()
        assert _memo_counts([_job(base, attack), _job(wider, attack)]) == (0, 2)


class TestMemoBounds:
    def test_lru_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(runner, "PHASE_MEMO_SIZE", 3)
        simulation = _small_simulation()
        jobs = [_job(simulation, _small_attack(ambient_temperature_k=t)) for t in (280.0, 290.0, 300.0, 310.0, 320.0)]
        assert _memo_counts(jobs) == (0, 5)
        assert len(runner._phase_memo) == 3
        # The two oldest keys were evicted; the three newest still hit.
        assert _memo_counts(jobs[2:]) == (3, 0)
        assert _memo_counts(jobs[:1]) == (0, 1)
        assert len(runner._phase_memo) == 3

    def test_clear_empties_the_memo(self):
        runner.execute_attack_point(_job(_small_simulation(), _small_attack()))
        assert runner._phase_memo
        runner.clear_phase_memo()
        assert not runner._phase_memo

    def test_cached_entries_are_isolated_from_callers(self):
        config = _small_attack()
        key = runner.phase_memo_key(_small_simulation(), config)

        def run():
            crossbar = CrossbarArray(geometry=CrossbarGeometry(rows=3, columns=3))
            return runner._PhaseMemoHammer(crossbar, key).run(config=config)

        first = run()
        expected = copy.deepcopy(first.phase_points)
        point = first.phase_points[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.victim_voltage_v = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.phase.aggressors = ((0, 0),)
        first.phase_points.clear()
        with telemetry_capture() as tel:
            second = run()
        assert tel.counter_value("attack.phase_memo.hits") == 1
        assert second.phase_points == expected
        assert second.pulses == run().pulses

    def test_concurrent_jobs_keep_the_bound_and_the_results(self, monkeypatch):
        monkeypatch.setattr(runner, "PHASE_MEMO_SIZE", 2)
        simulation = _small_simulation()
        jobs = [
            _job(simulation, _small_attack(ambient_temperature_k=t, pulse=PulseConfig(length_s=length)))
            for t in (290.0, 300.0, 310.0)
            for length in (20 * NS, 60 * NS)
        ]
        expected = []
        for job in jobs:
            runner.clear_phase_memo()
            expected.append(runner.execute_attack_point(job))
        runner.clear_phase_memo()
        results = {}
        sizes = []

        def worker(offset):
            for step in range(2 * len(jobs)):
                index = (offset + step) % len(jobs)
                results[(offset, step)] = (index, runner.execute_attack_point(jobs[index]))
                sizes.append(len(runner._phase_memo))

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * 2 * len(jobs)
        assert all(payload == expected[index] for index, payload in results.values())
        assert max(sizes) <= 2
