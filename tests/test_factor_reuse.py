"""Factorization reuse in the sparse nodal solver and the shared netlist.

A sparse :class:`CrossbarSolver` factors its first Jacobian once and runs
every later linear solve as preconditioned CG with that factorization,
refactoring when CG stalls.  These tests pin that the reuse path agrees with
a fresh direct solve per Newton iteration (the previous sparse path), that a
Monte-Carlo batch factors exactly once, that a stale factorization still
converges, that batch results do not depend on what ran before, and that
crossbars with equal geometry and wires share one netlist and structure.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.circuit import CrossbarArray, CrossbarSolver, build_crossbar_netlist, write_bias
from repro.circuit import solver as solver_module
from repro.config import CrossbarGeometry, SimulationConfig, WireParameters
from repro.devices import DeviceStateArrays, JartVcmModel
from repro.montecarlo import (
    MonteCarloConfig,
    MonteCarloEngine,
    SampledArrayJartModel,
    VectorizedJartVcm,
)
from repro.obs import numerics_capture, telemetry_capture

RTOL = 1e-9
ATOL_V = 1e-12
ATOL_A = 1e-15


class SpsolveSolver(CrossbarSolver):
    """Reference: a fresh ``spsolve`` direct solve for every Newton iteration."""

    def _solve_sparse(self, data, rhs):
        n = self.netlist.node_count
        structure = self._structure
        matrix = sparse.csr_matrix((data, structure.csr_indices, structure.csr_indptr), shape=(n, n))
        return np.asarray(spsolve(matrix, rhs))


def assert_same_operating_point(got, expected):
    np.testing.assert_allclose(got.device_voltages_v, expected.device_voltages_v, rtol=RTOL, atol=ATOL_V)
    np.testing.assert_allclose(got.device_currents_a, expected.device_currents_a, rtol=RTOL, atol=ATOL_A)


def random_states(rng, size, x_choices=(0.0, 1.0, 0.3, 0.8), t_range=(300.0, 700.0)):
    states = DeviceStateArrays(size, size)
    states.x[...] = rng.choice(x_choices, size=states.shape)
    states.temperature_k[...] = rng.uniform(*t_range, size=states.shape)
    return states


def full_array_engine(size: int, seed: int = 5) -> MonteCarloEngine:
    engine = MonteCarloEngine(
        MonteCarloConfig(
            n_samples=1,
            seed=seed,
            mode="full_array",
            distributions=[
                {"path": "device.activation_energy_ev", "kind": "normal",
                 "mean": 1.0, "sigma": 0.02, "relative": True, "within_die": 0.3},
                {"path": "device.series_resistance_ohm", "kind": "normal",
                 "mean": 1.0, "sigma": 0.05, "relative": True},
            ],
        ),
        simulation=SimulationConfig(geometry={"rows": size, "columns": size}),
    )
    engine.nominal_conditions()
    return engine


class TestReuseAgreement:
    def test_sampled_64x64_arrays_match_a_fresh_direct_solve(self):
        """One solver across sampled arrays vs. a fresh spsolve per iteration."""
        size = 64
        rng = np.random.default_rng(12)
        geometry = CrossbarGeometry(rows=size, columns=size)
        netlist = build_crossbar_netlist(geometry)
        cells = size * size
        model = SampledArrayJartModel(VectorizedJartVcm(cells), (size, size))
        bias = write_bias(geometry, [(size // 2, size // 2)], 1.05)
        reused = CrossbarSolver(netlist, model)
        with telemetry_capture() as tel:
            for _ in range(3):
                model.set_population(
                    VectorizedJartVcm(
                        cells,
                        overrides={"series_resistance_ohm": rng.normal(650.0, 30.0, cells)},
                    )
                )
                states = random_states(rng, size)
                got = reused.solve(bias, states)
                expected = SpsolveSolver(netlist, model).solve(bias, states)
                assert_same_operating_point(got, expected)
        counters = tel.snapshot()["counters"]
        assert reused.last_backend == "sparse"
        assert counters["solver.linear.pcg_iterations"] > 0
        # The reuse solver factored once; every reference solve is a spsolve.
        assert counters["solver.linear.factorizations"] == 1.0
        assert counters.get("solver.linear.refactors", 0.0) == 0.0

    def test_one_factorization_per_run_batch(self):
        engine = full_array_engine(32)
        with telemetry_capture() as tel:
            result = engine.run_batch(3, 0)
        counters = tel.snapshot()["counters"]
        assert result.n_arrays == 3 and result.array_valid.all()
        assert counters["solver.linear.factorizations"] == 1.0
        assert counters.get("solver.linear.refactors", 0.0) == 0.0
        # Still one sparse count per linear solve (one per Newton iteration).
        assert counters["solver.linear.sparse"] == counters["solver.iterations"]


class TestStaleFactor:
    def _switch(self, size=32):
        """A factor from one bias/state picture, reused on a very different one."""
        geometry = CrossbarGeometry(rows=size, columns=size)
        netlist = build_crossbar_netlist(geometry)
        model = JartVcmModel()
        rng = np.random.default_rng(3)
        first = (write_bias(geometry, [(2, 3)], 1.05), random_states(rng, size, (0.0,), (300.0, 301.0)))
        second = (
            write_bias(geometry, [(size - 3, size - 5)], -1.2, scheme="v_third"),
            random_states(rng, size, (1.0, 0.9), (600.0, 900.0)),
        )
        return netlist, model, first, second

    def test_stale_factor_converges_through_pcg_or_a_counted_refactor(self):
        netlist, model, first, second = self._switch()
        solver = CrossbarSolver(netlist, model)
        with telemetry_capture() as tel:
            solver.solve(*first)
            got = solver.solve(*second)
        counters = tel.snapshot()["counters"]
        refactors = counters.get("solver.linear.refactors", 0.0)
        assert counters["solver.linear.pcg_iterations"] > 0 or refactors > 0
        assert counters["solver.linear.factorizations"] == 1.0 + refactors
        assert_same_operating_point(got, SpsolveSolver(netlist, model).solve(*second))

    def test_exhausted_budget_refactors_and_matches(self, monkeypatch):
        monkeypatch.setattr(solver_module, "PCG_MAX_ITERATIONS", 1)
        netlist, model, first, second = self._switch()
        solver = CrossbarSolver(netlist, model)
        with telemetry_capture() as tel, numerics_capture():
            solver.solve(*first)
            got = solver.solve(*second)
        counters = tel.snapshot()["counters"]
        assert counters["solver.linear.refactors"] >= 1.0
        assert counters["solver.linear.factorizations"] == 1.0 + counters["solver.linear.refactors"]
        # The watchdog reports the exhausted PCG budget.
        stages = {event["stage"] for event in tel.events["numerics.iteration_pressure"]}
        assert "solver.pcg" in stages
        assert_same_operating_point(got, SpsolveSolver(netlist, model).solve(*second))


class TestHistoryIndependence:
    def test_run_batch_is_bitwise_equal_whatever_ran_before(self):
        fresh = full_array_engine(32).run_batch(1, 2)
        engine = full_array_engine(32)
        engine.run_batch(1, 0)
        engine.run_batch(2, 1)
        after = engine.run_batch(1, 2)
        for name in ("flipped", "pulses", "stress_time_s", "final_x", "victim_temperature_k", "valid"):
            np.testing.assert_array_equal(getattr(after, name), getattr(fresh, name), err_msg=name)


class TestSharedNetlist:
    def test_equal_geometry_and_wires_share_one_netlist_and_structure(self):
        # Wire values no other test uses, so the process-level cache is cold.
        wires = dict(segment_resistance_ohm=2.71828, driver_resistance_ohm=47.0)
        with telemetry_capture() as tel:
            a = CrossbarArray(CrossbarGeometry(rows=4, columns=6), wires=WireParameters(**wires))
            b = CrossbarArray(CrossbarGeometry(rows=4, columns=6), wires=WireParameters(**wires))
        assert a.netlist is b.netlist
        assert a.solver._structure is b.solver._structure
        assert tel.snapshot()["counters"]["solver.jacobian.structure_builds"] == 1.0

    def test_different_wires_do_not_share(self):
        geometry = CrossbarGeometry(rows=4, columns=6)
        with telemetry_capture() as tel:
            a = CrossbarArray(geometry, wires=WireParameters(segment_resistance_ohm=3.14159))
            b = CrossbarArray(geometry, wires=WireParameters(segment_resistance_ohm=1.41421))
        assert a.netlist is not b.netlist
        assert a.netlist.resistors[0].resistance_ohm != b.netlist.resistors[0].resistance_ohm
        assert tel.snapshot()["counters"]["solver.jacobian.structure_builds"] == 2.0

    def test_cached_netlist_is_isolated_from_caller_edits(self):
        geometry = CrossbarGeometry(rows=3, columns=7)
        wires = WireParameters(segment_resistance_ohm=1.73205)
        netlist = CrossbarArray(geometry, wires=wires).netlist
        geometry.rows = 4
        assert netlist.geometry.rows == 3
        assert CrossbarArray(geometry, wires=wires).netlist is not netlist

