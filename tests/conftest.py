"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import atexit
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, settings

# Simulation-backed property tests vary in runtime (and CI machines in
# speed); wall-clock deadlines would only add flakes.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

# The C kernel's shared object is cached per user (repro.core.ckernel).
# The suite keeps a cache of its own, set before anything can load the
# kernel and inherited by every child it spawns: tier-1 neither reads
# nor writes ~/.cache, and compiles once per session rather than once
# per fresh interpreter.
os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(prefix="repro-test-xdg-")
atexit.register(shutil.rmtree, os.environ["XDG_CACHE_HOME"], ignore_errors=True)

from repro import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run_child(code: str, *args: str, env: dict[str, str] | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR), **(env or {})},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    report["stdout"] = proc.stdout
    return report


@pytest.fixture(scope="session")
def run_child():
    """``run_child(code, *argv, env=None)``: run *code* in a fresh
    interpreter (``PYTHONPATH=src`` only, *env* on top of this process's
    environment) and return the JSON object it prints last, plus its
    whole ``stdout`` — for what this process, with the simulator long
    imported, can no longer observe."""
    return _run_child


#: Short but statistically usable run for integration tests.
TEST_SIM = SimulationParams(batch_cycles=600, batches=3, seed=7)

#: Very short run for smoke-level assertions.
TINY_SIM = SimulationParams(batch_cycles=250, batches=2, seed=7)


@pytest.fixture
def test_sim() -> SimulationParams:
    return TEST_SIM


@pytest.fixture
def tiny_sim() -> SimulationParams:
    return TINY_SIM


@pytest.fixture
def light_workload() -> WorkloadConfig:
    """Low offered load: near-zero contention."""
    return WorkloadConfig(locality=1.0, miss_rate=0.005, outstanding=1)


@pytest.fixture
def heavy_workload() -> WorkloadConfig:
    """The paper's default no-locality workload."""
    return WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4)


@pytest.fixture
def small_ring_config() -> RingSystemConfig:
    return RingSystemConfig(topology="6", cache_line_bytes=32)


@pytest.fixture
def small_hierarchy_config() -> RingSystemConfig:
    return RingSystemConfig(topology="2:3", cache_line_bytes=32)


@pytest.fixture
def small_mesh_config() -> MeshSystemConfig:
    return MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)
