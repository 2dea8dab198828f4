"""Shared fixtures for the test suite.

The fixtures favour small geometries and coarse grids so the whole suite
stays fast while still exercising every code path of the full-size setup.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import clear_phase_memo
from repro.circuit import CrossbarArray
from repro.config import CrossbarGeometry, PulseConfig, ThermalSolverConfig, WireParameters
from repro.devices import JartVcmModel, LinearIonDriftModel
from repro.thermal import AnalyticCouplingModel


@pytest.fixture(autouse=True)
def _obs_dir_in_tmp(tmp_path, monkeypatch):
    """Point the run ledger at a per-test tmp dir.

    CLI invocations now record every run under the obs dir; without this,
    tests calling ``main()`` would litter ``.repro-obs`` into the repo
    working directory.
    """
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "repro-obs"))


@pytest.fixture(autouse=True)
def _no_inherited_faults(monkeypatch):
    """Strip any ambient fault-injection plan (see :mod:`repro.faults`).

    A ``REPRO_FAULTS`` value leaking in from the environment (e.g. a chaos
    run in the same shell) would make unrelated campaign tests raise, hang
    or kill their workers.  Tests that *want* injection set the variable
    themselves via ``monkeypatch.setenv``.
    """
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture(autouse=True)
def _fresh_phase_memo():
    """Start every test with an empty attack phase memo.

    The memo (see :func:`repro.campaign.runner.execute_attack_point`) lives
    for the whole process, so without this a test's attack points would hit
    phase solves an earlier test filled in, and telemetry assertions about
    solver work would depend on test order.  Isolation only: a hit is
    bit-for-bit what a recompute gives.
    """
    clear_phase_memo()
    yield
    clear_phase_memo()


@pytest.fixture(scope="session")
def jart_model() -> JartVcmModel:
    """The default JART-style VCM model (stateless, safe to share)."""
    return JartVcmModel()


@pytest.fixture(scope="session")
def drift_model() -> LinearIonDriftModel:
    """The linear-ion-drift baseline model."""
    return LinearIonDriftModel()


@pytest.fixture
def paper_geometry() -> CrossbarGeometry:
    """The paper's 5x5 / 50 nm spacing crossbar."""
    return CrossbarGeometry()


@pytest.fixture
def small_geometry() -> CrossbarGeometry:
    """A 3x3 crossbar for fast structural tests."""
    return CrossbarGeometry(rows=3, columns=3)


@pytest.fixture
def coarse_thermal_config() -> ThermalSolverConfig:
    """A coarse finite-volume grid for fast thermal tests."""
    return ThermalSolverConfig(lateral_resolution_m=40e-9, vertical_resolution_m=40e-9)


@pytest.fixture
def thin_stack_geometry() -> CrossbarGeometry:
    """A 3x3 crossbar with a thin substrate to keep the voxel count small."""
    return CrossbarGeometry(
        rows=3,
        columns=3,
        substrate_thickness_m=80e-9,
        insulator_thickness_m=40e-9,
    )


@pytest.fixture
def paper_crossbar(paper_geometry) -> CrossbarArray:
    """A 5x5 crossbar array with the default device model and coupling."""
    return CrossbarArray(geometry=paper_geometry)


@pytest.fixture
def small_crossbar(small_geometry) -> CrossbarArray:
    """A 3x3 crossbar array for fast circuit tests."""
    return CrossbarArray(geometry=small_geometry)


@pytest.fixture
def default_pulse() -> PulseConfig:
    """The paper's default hammer pulse (1.05 V, 50 ns, 50 % duty cycle)."""
    return PulseConfig(length_s=50e-9)
