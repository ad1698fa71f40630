"""Multi-replica lockstep batches: decorrelation, identity, integration.

The kernel equivalence matrix (test_kernel_equivalence.py) already
proves a *batch of one* is byte-identical to the other schedulers; this
module covers what is new with N > 1:

* seed decorrelation — every replica of a batch equals the same seed
  run individually (lockstep neighbours leak nothing into each other);
* per-replica accounting — ``BatchedEngine.replica_flits`` splits the
  merged ``flits_moved`` exactly;
* the per-replica deadlock watchdog — a wedged replica raises at the
  same cycle and stall count as its solo run, batch mates or not;
* runner/cache integration — ``run_replica_batch`` results are
  interchangeable cache currency with solo ``run_point`` entries.
"""

import math
from dataclasses import replace

import pytest

from repro.core.batched import BatchedEngine
from repro.core.buffers import FlitBuffer
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.engine import Component, Engine
from repro.core.errors import ConfigurationError, DeadlockError
from repro.core.packet import Packet, PacketType
from repro.core.simulation import simulate, simulate_batch
from repro.runtime.serialization import canonical_json, result_payload

#: The lockstep engine under test, named: the default scheduler is the
#: kernel tier.  Solo reference runs name the closure engine.
PARAMS = SimulationParams(batch_cycles=300, batches=3, seed=21, scheduler="batched")
SOLO = replace(PARAMS, scheduler="compiled")


def payload(result):
    return canonical_json(result_payload(result))


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(
            RingSystemConfig(topology="2:4", cache_line_bytes=32), id="ring-2level"
        ),
        pytest.param(
            RingSystemConfig(
                topology="2:2:4", cache_line_bytes=32, global_ring_speed=2
            ),
            id="ring-3level-fast-global",
        ),
        pytest.param(
            MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=1),
            id="mesh-buf1",
        ),
    ],
)
def test_replicas_equal_individual_seeds(system):
    """Seed decorrelation: batch results == the same seeds run solo."""
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    batch = simulate_batch(system, workload, replace(PARAMS, replicas=3))
    for result, seed in zip(batch, (21, 22, 23)):
        solo = simulate(system, workload, replace(SOLO, seed=seed))
        assert payload(result) == payload(solo), f"replica seed {seed} diverged"
        assert result.params.seed == seed
        assert result.latency_range == solo.latency_range


def test_explicit_seed_list_orders_results():
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    seeds = (40, 2, 17)
    batch = simulate_batch(system, workload, PARAMS, seeds=seeds)
    assert [result.params.seed for result in batch] == list(seeds)
    for result, seed in zip(batch, seeds):
        assert payload(result) == payload(
            simulate(system, workload, replace(SOLO, seed=seed))
        )


def test_replica_flits_partition_the_total():
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.1, outstanding=4)
    batch = simulate_batch(system, workload, replace(PARAMS, replicas=4))
    solo_total = sum(
        simulate(system, workload, replace(SOLO, seed=s)).flits_moved
        for s in (21, 22, 23, 24)
    )
    assert sum(result.flits_moved for result in batch) == solo_total
    assert solo_total > 0


def test_empty_seed_list_rejected():
    system = RingSystemConfig(topology="8", cache_line_bytes=32)
    with pytest.raises(ConfigurationError):
        simulate_batch(system, None, PARAMS, seeds=())


def test_replicas_validated():
    with pytest.raises(ConfigurationError):
        SimulationParams(replicas=0).validate()
    assert SimulationParams(replicas=8).validate().replicas == 8


# ----------------------------------------------------------------------
# engine-level behavior via toy components
# ----------------------------------------------------------------------
class Pipe(Component):
    """Propose the head of ``source`` into ``dest`` every subcycle."""

    def __init__(self, source, dest):
        self.source = source
        self.dest = dest

    def propose(self, engine):
        flit = self.source.peek()
        if flit is not None:
            engine.propose(flit, self.source, self.dest, None, self)


def flits(n):
    return list(Packet(PacketType.READ_RESPONSE, 0, 1, max(n, 1), 0, 0).flits)


def add_wedged_replica(engine):
    """One proposer into a permanently full destination: stalls forever."""
    source = FlitBuffer("src", capacity=2)
    dest = FlitBuffer("dst", capacity=1)
    supply = flits(2)
    source.push(supply[0])
    dest.push(supply[1])
    engine.add_component(Pipe(source, dest))
    engine.seal_replica()


def add_spinning_replica(engine):
    """A full two-buffer cycle: rotates (commits) every cycle forever."""
    a = FlitBuffer("a", capacity=1)
    b = FlitBuffer("b", capacity=1)
    supply = flits(2)
    a.push(supply[0])
    b.push(supply[1])
    engine.add_component(Pipe(a, b))
    engine.add_component(Pipe(b, a))
    engine.seal_replica()


def test_watchdog_counts_per_replica():
    """A wedged replica raises at its solo threshold even while a batch
    mate commits every cycle (the merged engine never looks idle)."""
    threshold = 40
    solo = Engine(deadlock_threshold=threshold, scheduler="compiled")
    src = FlitBuffer("src", capacity=2)
    dst = FlitBuffer("dst", capacity=1)
    supply = flits(2)
    src.push(supply[0])
    dst.push(supply[1])
    solo.add_component(Pipe(src, dst))
    with pytest.raises(DeadlockError) as solo_info:
        solo.run(10 * threshold)

    batch = BatchedEngine(deadlock_threshold=threshold)
    add_spinning_replica(batch)
    add_wedged_replica(batch)
    with pytest.raises(DeadlockError) as batch_info:
        batch.run(10 * threshold)

    assert batch_info.value.cycle == solo_info.value.cycle
    assert batch_info.value.stalled_cycles == solo_info.value.stalled_cycles
    assert "replica 1 of 2" in str(batch_info.value)
    # the healthy replica kept committing right up to the raise
    assert int(batch.replica_flits[0]) > 0


def test_single_replica_deadlock_message_matches_solo():
    """A batch of one must raise the byte-identical solo message (the
    differential fuzzer compares error strings across schedulers)."""
    threshold = 25
    solo = Engine(deadlock_threshold=threshold, scheduler="compiled")
    src = FlitBuffer("src", capacity=2)
    dst = FlitBuffer("dst", capacity=1)
    supply = flits(2)
    src.push(supply[0])
    dst.push(supply[1])
    solo.add_component(Pipe(src, dst))
    with pytest.raises(DeadlockError) as solo_info:
        solo.run(10 * threshold)

    batch = BatchedEngine(deadlock_threshold=threshold)
    add_wedged_replica(batch)
    with pytest.raises(DeadlockError) as batch_info:
        batch.run(10 * threshold)
    assert str(batch_info.value) == str(solo_info.value)


def test_replica_flits_per_replica_engine_level():
    engine = BatchedEngine()
    add_spinning_replica(engine)
    add_wedged_replica(engine)
    add_spinning_replica(engine)
    engine.run(10)
    assert engine.replicas == 3
    assert list(engine.replica_flits) == [20, 0, 20]  # 2 commits/cycle spin
    assert engine.flits_moved == 40
    assert engine.occupancy_matrix().sum() == 6
    assert "3 replica(s)" in engine.describe()


def test_seal_replica_guards():
    engine = BatchedEngine()
    with pytest.raises(Exception):
        engine.seal_replica()  # nothing registered yet
    add_spinning_replica(engine)
    engine.run(1)
    with pytest.raises(Exception):
        engine.seal_replica()  # already finalized


def test_trailing_unsealed_components_form_a_replica():
    engine = BatchedEngine()
    add_spinning_replica(engine)
    # no seal after this one: implicit trailing replica
    a = FlitBuffer("a2", capacity=1)
    b = FlitBuffer("b2", capacity=1)
    supply = flits(2)
    a.push(supply[0])
    b.push(supply[1])
    engine.add_component(Pipe(a, b))
    engine.add_component(Pipe(b, a))
    assert engine.replicas == 2
    engine.run(5)
    assert list(engine.replica_flits) == [10, 10]


# ----------------------------------------------------------------------
# runner / cache integration
# ----------------------------------------------------------------------
def test_run_replica_batch_interchangeable_with_solo_cache(tmp_path):
    from repro.runtime.cache import ResultCache
    from repro.runtime.runner import run_point, run_replica_batch
    from repro.runtime.spec import PointSpec

    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    spec = PointSpec(system, workload, replace(PARAMS, replicas=3))
    cache = ResultCache(str(tmp_path))

    # Pre-populate the middle seed from a solo compiled run.
    solo_spec = PointSpec(system, workload, replace(PARAMS, seed=22, replicas=1))
    solo = run_point(solo_spec, cache=cache)

    results = run_replica_batch(spec, cache=cache)
    assert [r.params.seed for r in results] == [21, 22, 23]
    assert payload(results[1]) == payload(solo)

    # Every replica is now a solo-readable cache entry.
    for seed, result in zip((21, 22, 23), results):
        entry = cache.get(
            PointSpec(system, workload, replace(PARAMS, seed=seed, replicas=1))
        )
        assert entry is not None
        assert payload(entry) == payload(result)

    # Second call is served fully from cache.
    hits = []
    again = run_replica_batch(spec, cache=cache, progress=lambda p: hits.append(p.cache_hits))
    assert [payload(r) for r in again] == [payload(r) for r in results]
    assert hits[-1] == 3


def test_run_replica_batch_multiprocess_matches_serial():
    from repro.runtime.runner import run_replica_batch
    from repro.runtime.spec import PointSpec

    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    spec = PointSpec(system, workload, PARAMS)
    seeds = (5, 6, 7, 8)
    serial = run_replica_batch(spec, seeds=seeds, jobs=1, cache=None)
    pooled = run_replica_batch(spec, seeds=seeds, jobs=2, cache=None)
    assert [payload(r) for r in pooled] == [payload(r) for r in serial]


def test_simulate_batch_rejects_multi_replica_miss_sources():
    class NullSource:
        def poll(self, cycle, can_issue):
            return None

    system = RingSystemConfig(topology="8", cache_line_bytes=32)
    sources = [NullSource() for __ in range(8)]
    with pytest.raises(ConfigurationError):
        simulate_batch(
            system, None, replace(PARAMS, replicas=2), miss_sources=sources
        )


def test_batched_latency_summaries_are_finite_under_load():
    """Sanity on the statistics plumbing: a loaded batch produces real
    per-replica latency summaries, not NaN placeholders."""
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.1, outstanding=4)
    batch = simulate_batch(
        system, workload, replace(PARAMS, batch_cycles=400, replicas=2)
    )
    for result in batch:
        assert result.remote_transactions > 0
        assert not math.isnan(result.latency.mean)
