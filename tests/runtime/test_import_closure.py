"""The import closures of the two common paths (DESIGN.md §5).

``import repro``, ``import repro.runtime`` and everything a fully cached
sweep executes must load only the data model and the runtime's own
modules; the simulator and the process-pool stack load on the first
*miss*.  And the miss itself — a default ``simulate()``, on the C kernel
— must load neither numpy nor, once the kernel is cached, anything that
exists to run a compiler.  These are structural checks on
``sys.modules`` in child interpreters — this process imported the engine
long ago — not timings.
"""

import os
from pathlib import Path

import pytest

from repro.core import ckernel

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: What a process that only replays cached results must never load.
FORBIDDEN = (
    "repro.core.engine",
    "repro.core.pm",
    "repro.core.processor",
    "repro.core.adaptive",
    "repro.core.batched",
    "repro.core.columnar",
    "repro.core.ckernel",
    "repro.ring.network",
    "repro.mesh.network",
    "ctypes",
    "numpy",
    "multiprocessing",
    "concurrent.futures.process",
)

# Shared head of every child: `stage(label)` records which forbidden
# modules have appeared since start-up, `finish()` prints the report.
_PRELUDE = f"""
import json, sys
_at_start = set(sys.modules)
report = {{"stages": {{}}}}

def stage(label):
    report["stages"][label] = [
        name for name in {FORBIDDEN!r} if name in sys.modules and name not in _at_start
    ]

def finish():
    print(json.dumps(report))
"""

# Two tiny points to cache (one per fabric) and two that never are.
_POINTS = """
from repro.core.config import MeshSystemConfig, RingSystemConfig, SimulationParams, WorkloadConfig
from repro.runtime import PointSpec, ResultCache, run_point, run_points

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=100, batches=2, seed=7)

def point(system):
    return PointSpec.of(system, WORKLOAD, PARAMS)

cached = [point(RingSystemConfig(topology="2:4")), point(MeshSystemConfig(side=2))]
uncached = [point(RingSystemConfig(topology="4")), point(RingSystemConfig(topology="6"))]
"""

_FILL = _PRELUDE + _POINTS + """
run_points(cached, jobs=1, cache=ResultCache(sys.argv[1]))
finish()
"""

_REPLAY = _PRELUDE + """
import repro
stage("import repro")
import repro.runtime
stage("import repro.runtime")
""" + _POINTS + """
cache = ResultCache(sys.argv[1])
hits = []
run_points(cached, jobs=2, cache=cache, progress=lambda tracker: hits.append(tracker.cache_hits))
report["cache_hits"] = hits[-1]
report["entries"] = sum(cache.get_entry(spec) is not None for spec in cached)
stage("cached run_points")
run_point(uncached[0], cache=cache)
stage("uncached run_point")
finish()
"""

_POOLED_MISS = _PRELUDE + _POINTS + """
import concurrent.futures.process as pool_module

init = pool_module.ProcessPoolExecutor.__init__
report["engine_loaded_at_pool_creation"] = []
report["kernel_bound_at_pool_creation"] = []

def spy(self, *args, **kwargs):
    report["engine_loaded_at_pool_creation"].append("repro.core.engine" in sys.modules)
    kernel = sys.modules.get("repro.core.ckernel")
    report["kernel_bound_at_pool_creation"].append(kernel is not None and kernel._lib is not None)
    init(self, *args, **kwargs)

pool_module.ProcessPoolExecutor.__init__ = spy
# the all-kernel list first: the mixed one leaves the engine loaded
slotted = point(RingSystemConfig(topology="4", switching="slotted"))
report["results"] = [
    len(run_points(points, jobs=2, cache=None))
    for points in (uncached, [uncached[0], slotted])
]
from repro.core import ckernel
report["kernel_available"] = ckernel.available()
finish()
"""

_CLI = _PRELUDE + """
from repro.experiments.cli import main

report["status"] = main(
    ["fig7", "--scale", "quick", "--allow-saturated", "--cache-dir", sys.argv[1]]
)
stage("cli")
finish()
"""


#: One default ``simulate()`` per fabric, then what got imported for it.
_DEFAULT_SIMULATE = """
import json, sys
# Count only what appeared since start-up: a `.pth` file or
# `sitecustomize` can preload stdlib modules before any repro code runs.
_at_start = set(sys.modules)
from repro import MeshSystemConfig, RingSystemConfig, SimulationParams, WorkloadConfig, simulate

params = SimulationParams(batch_cycles=100, batches=2, seed=7)
for system in (RingSystemConfig(topology="2:4"), MeshSystemConfig(side=2)):
    simulate(system, WorkloadConfig(miss_rate=0.1), params)
wanted = ("ctypes", "repro.core.ckernel", "repro.core.columnar", "repro.core.plan")
unwanted = ("numpy", "subprocess", "tempfile", "shutil", "repro.core.batched") + OBJECT_MODEL
report = {
    "scheduler": params.scheduler,
    "loaded": [name for name in wanted if name in sys.modules],
    "leaked": [name for name in unwanted if name in sys.modules and name not in _at_start],
}

# ... and a point the kernel does not model loads the object model then
from repro.runtime.serialization import canonical_json, result_payload

def slotted(params):
    system = RingSystemConfig(topology="2:4", switching="slotted")
    return canonical_json(result_payload(simulate(system, WorkloadConfig(miss_rate=0.1), params)))

default = slotted(params)
report["slotted_loaded"] = [name for name in OBJECT_MODEL if name in sys.modules]
from dataclasses import replace
report["slotted_is_compiled"] = default == slotted(replace(params, scheduler="compiled"))
print(json.dumps(report))
"""

#: The object model: everything a default run used to build, walk for
#: its ids and wiring, and throw away.
OBJECT_MODEL = (
    "repro.core.engine",
    "repro.core.pm",
    "repro.core.buffers",
    "repro.ring.port",
    "repro.ring.iri",
    "repro.ring.nic",
    "repro.ring.network",
    "repro.mesh.router",
    "repro.mesh.network",
)
_DEFAULT_SIMULATE = f"OBJECT_MODEL = {OBJECT_MODEL!r}" + _DEFAULT_SIMULATE

#: One cold point through a served request, then what the parent holds.
_SERVED_MISS = _PRELUDE + _POINTS + """
from repro.runtime import MemCache
from repro.service import ServiceClient, SweepService, start_in_thread
stage("import repro.service")

service = SweepService(
    "127.0.0.1", 0, shards=1, workers_per_shard=1,
    cache=ResultCache(sys.argv[1]), mem=MemCache(),
)
handle = start_in_thread(service)
client = ServiceClient("127.0.0.1", service.port)
text, report["source"] = client.run_point(uncached[0].payload())
report["served"] = len(text)
stage("served miss")
client.shutdown()
handle.stop()
from repro.core import ckernel
report["kernel_available"] = ckernel.available()
finish()
"""


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
def test_default_simulate_loads_the_kernel_and_nothing_to_build_it(run_child):
    """On a warm kernel cache (this process just filled the session's)
    a fresh interpreter's default run is the stdlib plus one ``dlopen``:
    no numpy — the columns are ``array`` buffers — and none of the
    modules ``ckernel`` imports only to run the compiler."""
    report = run_child(_DEFAULT_SIMULATE)
    assert report["scheduler"] == "columnar"
    assert report["loaded"] == [
        "ctypes", "repro.core.ckernel", "repro.core.columnar", "repro.core.plan"
    ]
    assert report["leaked"] == []
    # Positive control: the fallback is where the object model loads,
    # and it still answers with ``compiled``'s bytes.
    assert "repro.core.engine" in report["slotted_loaded"]
    assert "repro.ring.network" in report["slotted_loaded"]
    assert report["slotted_is_compiled"]


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
def test_modules_preloaded_at_start_up_are_not_blamed_on_the_kernel(run_child, tmp_path):
    """A ``sitecustomize`` (or a ``.pth`` file) that imports ``tempfile``
    and ``shutil`` before any repro code runs puts them in the host's
    start-up, not in the kernel's import closure."""
    (tmp_path / "sitecustomize.py").write_text(
        "import shutil, tempfile\nopen(__file__ + '.ran', 'w').close()\n"
    )
    report = run_child(
        _DEFAULT_SIMULATE, env={"PYTHONPATH": f"{tmp_path}{os.pathsep}{SRC_DIR}"}
    )
    assert (tmp_path / "sitecustomize.py.ran").exists()  # the preload happened
    assert report["leaked"] == []
    assert report["loaded"] == [
        "ctypes", "repro.core.ckernel", "repro.core.columnar", "repro.core.plan"
    ]


def test_cached_replay_never_loads_the_simulator(run_child, tmp_path):
    run_child(_FILL, str(tmp_path))
    report = run_child(_REPLAY, str(tmp_path))
    assert report["cache_hits"] == 2 and report["entries"] == 2
    stages = report["stages"]
    assert stages["import repro"] == []
    assert stages["import repro.runtime"] == []
    assert stages["cached run_points"] == []
    # Positive control: the same process loads the simulator on its
    # first miss — in-process, so still no process-pool stack.
    assert "repro.core.columnar" in stages["uncached run_point"]
    assert "multiprocessing" not in stages["uncached run_point"]


def test_pooled_miss_loads_the_simulator_before_the_pool_exists(run_child):
    """The pool's parent loads what the pending points will run on: the
    kernel tier for an all-kernel list, the engine too as soon as one
    point (here a slotted ring) needs it — or the host has no kernel."""
    report = run_child(_POOLED_MISS)
    assert report["results"] == [2, 2]
    kernel = report["kernel_available"]
    assert report["engine_loaded_at_pool_creation"] == [not kernel, True]
    # ... and the C kernel, where the host has one, already bound: the
    # forked workers inherit the mapping instead of each building it
    assert report["kernel_bound_at_pool_creation"] == [kernel, kernel]


def test_served_miss_leaves_the_engine_out_of_the_service_parent(run_child, tmp_path):
    """The service cannot know what it will be asked, so its parent
    holds the kernel tier only; a cold point is simulated in a worker
    and the engine stays out of the process that serves."""
    report = run_child(_SERVED_MISS, str(tmp_path))
    assert report["source"] == "computed" and report["served"]
    loaded = report["stages"]["served miss"]
    assert "repro.core.columnar" in loaded and "repro.core.ckernel" in loaded
    if report["kernel_available"]:
        assert "repro.core.engine" not in loaded
        assert "repro.ring.network" not in loaded


def test_cached_cli_replay_never_loads_the_simulator(run_child, tmp_path):
    fill = run_child(_CLI, str(tmp_path))
    assert "repro.core.columnar" in fill["stages"]["cli"]
    replay = run_child(_CLI, str(tmp_path))
    assert replay["status"] == fill["status"]
    assert "cache hits (100%)" in replay["stdout"]
    assert replay["stages"]["cli"] == []
