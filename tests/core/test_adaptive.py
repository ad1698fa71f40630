"""Tests for precision-driven (sequential batch-means) simulation."""

from dataclasses import replace

import pytest

from repro import (
    ConfigurationError,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
    simulate,
)
from repro.core import ckernel
from repro.core.adaptive import simulate_to_precision
from repro.core.columnar import kernel_can_run
from repro.runtime.serialization import canonical_json, result_payload

CONFIG = RingSystemConfig(topology="6", cache_line_bytes=32)
LIGHT = WorkloadConfig(miss_rate=0.01, outstanding=1)
HEAVY = WorkloadConfig(miss_rate=0.04, outstanding=4)


class TestConvergence:
    def test_light_load_converges_quickly(self):
        adaptive = simulate_to_precision(
            CONFIG, LIGHT, relative_precision=0.1, batch_cycles=1200,
            min_batches=4, max_batches=20, seed=5,
        )
        assert adaptive.converged
        assert adaptive.relative_half_width <= 0.1
        assert adaptive.batches_run < 20
        assert adaptive.avg_latency > 0

    def test_tighter_precision_needs_more_batches(self):
        loose = simulate_to_precision(
            CONFIG, HEAVY, relative_precision=0.25, batch_cycles=600,
            min_batches=4, max_batches=40, seed=5,
        )
        tight = simulate_to_precision(
            CONFIG, HEAVY, relative_precision=0.04, batch_cycles=600,
            min_batches=4, max_batches=40, seed=5,
        )
        assert tight.batches_run >= loose.batches_run

    def test_budget_exhaustion_reported(self):
        adaptive = simulate_to_precision(
            RingSystemConfig(topology="4:8", cache_line_bytes=32),  # saturated
            HEAVY, relative_precision=0.001, batch_cycles=300,
            min_batches=4, max_batches=5, seed=5,
        )
        assert not adaptive.converged
        assert adaptive.batches_run == 5

    def test_result_params_reflect_actual_run(self):
        adaptive = simulate_to_precision(
            CONFIG, LIGHT, relative_precision=0.2, batch_cycles=800,
            min_batches=4, max_batches=12, seed=5,
        )
        assert adaptive.result.params.batches == adaptive.batches_run
        assert adaptive.result.cycles == adaptive.batches_run * 800


class TestSameBytesAsSimulate:
    """A precision run is ``simulate()``'s schedule with a stop rule: its
    result is ``simulate()``'s at the batch count it stopped at, on
    whichever route ``simulate()`` takes for the point."""

    @pytest.mark.parametrize(
        "system, workload, kwargs, kernel_models, converges",
        [
            pytest.param(
                CONFIG, LIGHT,
                {"relative_precision": 0.1, "batch_cycles": 1200, "max_batches": 20},
                True, True, id="ring-kernel",
            ),
            pytest.param(
                MeshSystemConfig(side=8), WorkloadConfig(miss_rate=0.02, outstanding=4),
                {"relative_precision": 0.1, "batch_cycles": 1000, "max_batches": 20},
                True, True, id="mesh8x8-kernel",
            ),
            pytest.param(
                replace(CONFIG, switching="slotted"), LIGHT,
                {"relative_precision": 0.1, "batch_cycles": 1200, "max_batches": 20},
                False, True, id="slotted-ring-compiled-fallback",
            ),
            pytest.param(
                RingSystemConfig(topology="4:8", cache_line_bytes=32), HEAVY,
                {"relative_precision": 0.001, "batch_cycles": 300, "max_batches": 5},
                True, False, id="budget-exhausted",
            ),
        ],
    )
    def test_result_is_simulate_at_the_batches_run(
        self, system, workload, kwargs, kernel_models, converges
    ):
        assert kernel_can_run(system, workload) == (kernel_models and ckernel.available())
        adaptive = simulate_to_precision(system, workload, seed=5, **kwargs)
        assert adaptive.converged == converges
        if not converges:
            assert adaptive.batches_run == kwargs["max_batches"]
        fixed = simulate(
            system,
            workload,
            SimulationParams(
                batch_cycles=kwargs["batch_cycles"], batches=adaptive.batches_run, seed=5
            ),
        )
        assert canonical_json(result_payload(adaptive.result)) == canonical_json(
            result_payload(fixed)
        )
        # the steady-state range, which the payload leaves out, is set too
        assert adaptive.result.latency_range is not None
        assert adaptive.result.latency_range == fixed.latency_range
        assert "latency range" in adaptive.result.describe()

    def test_default_scheduler_is_the_simulation_default(self):
        adaptive = simulate_to_precision(
            CONFIG, LIGHT, relative_precision=0.2, batch_cycles=800,
            min_batches=4, max_batches=12, seed=5,
        )
        assert adaptive.result.params.scheduler == SimulationParams().scheduler


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"relative_precision": 0.0},
            {"relative_precision": 1.5},
            {"min_batches": 2},
            {"min_batches": 10, "max_batches": 5},
        ],
    )
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ConfigurationError):
            simulate_to_precision(CONFIG, LIGHT, **kwargs)
