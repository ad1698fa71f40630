"""The arbitration and flow-control choices the paper asserts, flipped
one at a time on loaded rings.

The paper gives in-ring packets priority over injection "for best
performance", orders responses ahead of requests, and lets a full
buffer that drains accept a flit in the same cycle.  Each knob has an
ablation switch; these cases pin what flipping it actually does.
"""

from dataclasses import replace

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.errors import DeadlockError
from repro.core.simulation import simulate

PARAMS = SimulationParams(
    batch_cycles=800, batches=4, seed=31, deadlock_threshold=2000
)
SATURATING = WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4)


def ring(topology, **knobs):
    return RingSystemConfig(topology=topology, cache_line_bytes=32, **knobs)


@pytest.mark.parametrize("topology", ["8", "2:8", "3:8"])
def test_injection_first_deadlocks_a_loaded_ring(topology):
    """Transit-over-injection is a progress condition, not a tuning choice.

    With injection served first, NICs keep filling the ring at the
    paper's C=0.04/T=4 until every transit buffer is full behind an
    output link held by an injecting worm — a cyclic wait: flit
    movement stops within ~250 cycles on one-, two- and three-level
    rings alike.
    """
    with pytest.raises(DeadlockError):
        simulate(ring(topology, transit_priority=False), SATURATING, PARAMS)


def test_injection_first_is_harmless_under_light_load():
    """Far from saturation the two orders collide too rarely to matter."""
    light = WorkloadConfig(locality=1.0, miss_rate=0.01, outstanding=2)
    transit_first = simulate(ring("3:8"), light, PARAMS)
    injection_first = simulate(ring("3:8", transit_priority=False), light, PARAMS)
    assert injection_first.remote_transactions == transit_first.remote_transactions
    assert injection_first.avg_latency == pytest.approx(
        transit_first.avg_latency, rel=0.05
    )


def test_request_first_keeps_flowing():
    """Requests ahead of responses costs latency but never wedges."""
    result = simulate(ring("3:8", response_priority=False), SATURATING, PARAMS)
    assert result.remote_transactions > 100


def test_conservative_flow_control_is_no_faster_than_bypass():
    """Admission on cycle-start occupancy can only add waiting.

    Light load keeps conservative admission away from the full-ring
    wedge (tests/properties) so the latency cost is isolated.
    """
    workload = WorkloadConfig(locality=1.0, miss_rate=0.02, outstanding=2)
    bypass = simulate(ring("2:8"), workload, PARAMS)
    conservative = simulate(
        ring("2:8"), workload, replace(PARAMS, flow_control="conservative")
    )
    assert conservative.avg_latency >= bypass.avg_latency
