"""What a kernel point pays before its first cycle, and what it shares.

* the plan is one object per topology and target pattern per process
  (``core.plan.topology_plan``): shared across ``C``, ``T``, read
  fraction and seed, distinct across locality or pattern, frozen, and
  validated on every call;
* the replica-tiled static columns are one ``ColumnLayout`` per (plan,
  replica count), shared by reference and left byte for byte as they
  were by the engines that run on them;
* both caches stay within their bounds;
* ``seed_streams`` mixes columns in interleaved blocks and still leaves
  each column the state and first gap ``random.Random`` gives its key;
* the kernel is reentrant: its scratch lives in per-engine columns, so
  threads inside it at once (ctypes releases the GIL) get the bytes of
  serial runs, and its source keeps no mutable ``static`` state.
"""

import ctypes
import random
import re
import sys
import threading
from array import array
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ckernel, columnar, plan
from repro.core.ckernel import PRM, PTR
from repro.core.columnar import ColumnarEngine, ColumnLayout, column_layout
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.errors import ConfigurationError
from repro.core.plan import build_plan, topology_plan
from repro.core.processor import LOOKAHEAD_CHUNK
from repro.core.simulation import simulate, simulate_batch
from repro.runtime.serialization import canonical_json, result_payload

needs_kernel = pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")

RING = RingSystemConfig(topology="2:4", cache_line_bytes=32)
MESH = MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)
LOAD = WorkloadConfig(miss_rate=0.05)
RUN = SimulationParams(batch_cycles=200, batches=2, seed=5)


# ----------------------------------------------------------------------
# one plan per topology and target pattern
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", [RING, MESH], ids=["ring", "mesh"])
def test_plan_is_shared_across_load_and_seed(system):
    first = topology_plan(system, LOAD)
    for workload in (
        replace(LOAD, miss_rate=0.3),
        replace(LOAD, outstanding=1),
        replace(LOAD, read_fraction=0.2),
    ):
        assert topology_plan(system, workload) is first
    if ckernel.available():
        engines = [
            ColumnarEngine(system, replace(LOAD, miss_rate=c, outstanding=t), RUN, seeds)
            for c, t, seeds in ((0.05, 4, (1,)), (0.2, 2, (9, 10)), (0.01, 8, (-3,)))
        ]
        assert all(engine.plan is first for engine in engines)


@pytest.mark.parametrize("topology", [(2, 4), [2, 4]], ids=["tuple", "list"])
def test_plan_is_shared_across_spellings_of_one_hierarchy(topology):
    system = replace(RING, topology=topology)
    assert topology_plan(system, LOAD) is topology_plan(RING, LOAD)
    texts = {canonical_json(result_payload(simulate(s, LOAD, RUN))) for s in (system, RING)}
    assert len(texts) == 1


@pytest.mark.parametrize("system", [RING, MESH], ids=["ring", "mesh"])
def test_plan_differs_across_locality_and_pattern(system):
    plans = [
        topology_plan(system, workload)
        for workload in (
            LOAD,
            replace(LOAD, locality=0.5),
            replace(LOAD, pattern="uniform"),
            replace(LOAD, pattern="hotspot"),
            replace(LOAD, pattern="hotspot", hotspot_weight=4),
        )
    ]
    assert len({id(p) for p in plans}) == len(plans)
    assert plans[0] == build_plan(system, LOAD)


def test_a_plan_cannot_be_mutated():
    shared = topology_plan(RING, LOAD)
    with pytest.raises(FrozenInstanceError):
        shared.caps = ()  # type: ignore[misc]
    with pytest.raises(AttributeError):
        shared.routes.append(0)  # type: ignore[attr-defined]
    with pytest.raises(TypeError):
        shared.srcs[0][0] = 1  # type: ignore[index]
    with pytest.raises(TypeError):
        shared.opportunities_per_cycle["global"] = 0.0  # type: ignore[index]
    assert topology_plan(RING, LOAD) == build_plan(RING, LOAD)


def test_a_hit_still_validates_and_a_raising_call_caches_nothing():
    topology_plan(RING, LOAD)
    held = dict(plan._plans)
    bad = replace(LOAD, miss_rate=2.0)
    with pytest.raises(ConfigurationError) as cached:
        topology_plan(RING, bad)
    with pytest.raises(ConfigurationError) as fresh:
        build_plan(RING, bad)
    assert str(cached.value) == str(fresh.value)
    with pytest.raises(ConfigurationError):
        topology_plan(RingSystemConfig(topology="2:3"), WorkloadConfig(pattern="shuffle"))
    assert plan._plans == held


def test_the_plan_cache_keeps_its_bound_least_recently_used_first():
    kept = topology_plan(RING, LOAD)
    dropped = topology_plan(MESH, LOAD)
    for n in range(3, plan.PLAN_CACHE_SIZE + 8):
        topology_plan(RingSystemConfig(topology=(n,)), LOAD)
        topology_plan(RING, LOAD)  # stays the most recently used
        assert len(plan._plans) <= plan.PLAN_CACHE_SIZE
    assert topology_plan(RING, LOAD) is kept
    assert topology_plan(MESH, LOAD) is not dropped


def test_threads_racing_on_cold_keys_all_get_the_one_plan_and_layout():
    """More threads than cores asking for the same uncached topologies
    with a tiny switch interval: every caller of a key gets one object."""
    systems = [RingSystemConfig(topology=(n,), cache_line_bytes=64) for n in (5, 6, 7)]
    kernel = ckernel.load()
    got = [[] for _ in range(8)]

    def ask(sink):
        for system in systems:
            shared = topology_plan(system, LOAD)
            layout = column_layout(kernel, shared, 2) if kernel is not None else None
            sink.append((shared, layout))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(sink,)) for sink in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for index in range(len(systems)):
        assert len({id(sink[index][0]) for sink in got}) == 1
        assert len({id(sink[index][1]) for sink in got}) == 1


# ----------------------------------------------------------------------
# one column layout per (plan, replica count)
# ----------------------------------------------------------------------
def _shared(layout):
    return {
        name: getattr(layout, name)
        for name in ColumnLayout.__slots__
        if isinstance(getattr(layout, name), array)
    }


@needs_kernel
@pytest.mark.parametrize("system", [RING, MESH], ids=["ring", "mesh"])
def test_engines_share_the_layout_and_leave_it_as_it_was(system):
    seeds = (3, 4)
    first = ColumnarEngine(system, LOAD, RUN, seeds)
    layout = first._layout
    before = {name: bytes(column) for name, column in _shared(layout).items()}
    second = ColumnarEngine(system, replace(LOAD, miss_rate=0.3, outstanding=2), RUN, (7, 8))
    assert second._layout is layout
    assert second._is_sink is first._is_sink
    for engine in (first, second):
        engine.run(500)
    assert engine.remote_completed[0] > 0
    assert {name: bytes(column) for name, column in _shared(layout).items()} == before
    # another replica count, another layout
    assert ColumnarEngine(system, LOAD, RUN, (1,))._layout is not layout


@needs_kernel
def test_the_layout_cache_keeps_its_bound():
    kernel = ckernel.load()
    shared = topology_plan(MESH, LOAD)
    layouts = [column_layout(kernel, shared, r) for r in range(1, columnar.LAYOUT_CACHE_SIZE + 4)]
    assert len(columnar._layouts) <= columnar.LAYOUT_CACHE_SIZE
    assert column_layout(kernel, shared, len(layouts)) is layouts[-1]
    assert column_layout(kernel, shared, 1) is not layouts[0]  # evicted, rebuilt
    # a plan equal to a cached one but not the same object gets its own
    assert column_layout(kernel, build_plan(MESH, LOAD), 1) is not column_layout(kernel, shared, 1)


# ----------------------------------------------------------------------
# interleaved seeding
# ----------------------------------------------------------------------
def _addr(column):
    return column.buffer_info()[0]


def _seed_columns(keys, miss_rate):
    """``seed_streams`` on one column per key: (states, gaps, more flags)."""
    n = len(keys)
    words = max(1, (max(keys).bit_length() + 31) // 32)
    key_table = array("I", [(k >> 32 * w) & 0xFFFFFFFF for k in keys for w in range(words)])
    mt = array("I", [0]) * (625 * n)
    countdown = array("q", [0]) * n
    more = array("B", [0]) * n
    ptr = (ctypes.c_void_p * PTR.COUNT)()
    ptr[PTR.COUNTDOWN], ptr[PTR.MORE] = _addr(countdown), _addr(more)
    ptr[PTR.MT], ptr[PTR.MT_KEY] = _addr(mt), _addr(key_table)
    prm = (ctypes.c_int64 * PRM.COUNT)()
    prm[PRM.NPM], prm[PRM.KEY_WORDS] = n, words
    prm[PRM.MISS_THR] = ckernel.bernoulli_threshold(miss_rate)
    prm[PRM.CHUNK] = LOOKAHEAD_CHUNK
    ckernel.load().seed_streams(ptr, prm)
    states = [list(mt[625 * f : 625 * (f + 1)]) for f in range(n)]
    return states, list(countdown), list(more)


def _python_column(key, miss_rate):
    """What ``random.Random(key)`` holds after ``MissGenerator``'s first gap."""
    rng = random.Random(key)
    for gap in range(1, LOOKAHEAD_CHUNK + 1):
        if rng.random() < miss_rate:
            return list(rng.getstate()[1]), gap, 0
    return list(rng.getstate()[1]), LOOKAHEAD_CHUNK, 1


#: seeds whose keys ``abs(seed * 1_000_003 + pm)`` are one word, two
#: words, either side of 2**32, and negative
SEEDS = st.one_of(
    st.integers(-5, 4000),
    st.integers(4290, 4300),
    st.integers(2**20, 2**40),
    st.integers(-(2**40), -(2**20)),
)


@needs_kernel
@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 7, 9, 72]),
    seeds=st.lists(SEEDS, min_size=1, max_size=72),
    miss_rate=st.sampled_from([1.0, 0.3, 0.01]),
)
def test_interleaved_seeding_is_random_random(n, seeds, miss_rate):
    keys = [abs(seeds[f % len(seeds)] * 1_000_003 + f) for f in range(n)]
    states, gaps, more = _seed_columns(keys, miss_rate)
    for f, key in enumerate(keys):
        assert (states[f], gaps[f], more[f]) == _python_column(key, miss_rate), (f, key)


@needs_kernel
def test_seeding_covers_wide_and_mixed_width_keys():
    """Keys of one, two and many words in one table: blocks split where
    the width changes, and a vanishing miss rate continues a chunk."""
    keys = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 3**700, 7, 2**63] * 3 + [11]
    states, gaps, more = _seed_columns(keys, 0.0001)
    for f, key in enumerate(keys):
        assert (states[f], gaps[f], more[f]) == _python_column(key, 0.0001), (f, key)
    assert any(more)


# ----------------------------------------------------------------------
# reentrancy
# ----------------------------------------------------------------------
#: Four distinct kernel points, two replicas each: both fabrics, a
#: double-speed ring, one-flit mesh buffers.
THREAD_POINTS = [
    (RING, replace(LOAD, miss_rate=0.2), 11),
    (MESH, LOAD, 12),
    (RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2), LOAD, 13),
    (MeshSystemConfig(side=4, cache_line_bytes=32, buffer_flits=1), replace(LOAD, outstanding=1), 14),
]


def _point_bytes(system, workload, seed):
    params = SimulationParams(batch_cycles=1500, batches=2, seed=seed, replicas=2)
    return [canonical_json(result_payload(r)) for r in simulate_batch(system, workload, params)]


@needs_kernel
def test_threads_inside_the_kernel_at_once_get_the_serial_bytes(monkeypatch):
    serial = [_point_bytes(*point) for point in THREAD_POINTS]
    inside = [0, 0]  # engines running now, the most seen at once
    lock = threading.Lock()
    run = ColumnarEngine.run

    def counted(engine, cycles):
        with lock:
            inside[0] += 1
            inside[1] = max(inside)
        try:
            run(engine, cycles)
        finally:
            with lock:
                inside[0] -= 1

    monkeypatch.setattr(ColumnarEngine, "run", counted)
    start = threading.Barrier(len(THREAD_POINTS))
    got = [None] * len(THREAD_POINTS)

    def work(index):
        start.wait()
        got[index] = _point_bytes(*THREAD_POINTS[index])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(THREAD_POINTS))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == serial
    assert inside[1] >= 2, "the threads never overlapped inside the kernel"


def test_the_kernel_source_keeps_no_mutable_static_state():
    """Only ``static const`` tables and static functions: a writable
    file- or function-scope ``static`` would be shared by every thread
    inside the kernel at once."""
    code = re.sub(r"/\*.*?\*/", "", ckernel._SOURCE, flags=re.S)
    statics = [line.strip() for line in code.splitlines() if re.search(r"\bstatic\b", line)]
    function = re.compile(r"^static\s+[\w\s*]*?\b\w+\s*\([^;]*$")
    mutable = [line for line in statics if not line.startswith("static const ") and not function.match(line)]
    assert not mutable, mutable
    assert any(line.startswith("static const ") for line in statics)
    assert any(function.match(line) for line in statics)
