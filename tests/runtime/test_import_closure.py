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

import pytest

from repro.core import ckernel

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
report["results"] = len(run_points(uncached, jobs=2, cache=None))
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
from repro import MeshSystemConfig, RingSystemConfig, SimulationParams, WorkloadConfig, simulate

params = SimulationParams(batch_cycles=100, batches=2, seed=7)
for system in (RingSystemConfig(topology="2:4"), MeshSystemConfig(side=2)):
    simulate(system, WorkloadConfig(miss_rate=0.1), params)
wanted = ("ctypes", "repro.core.ckernel", "repro.core.columnar")
unwanted = ("numpy", "subprocess", "tempfile", "shutil", "repro.core.batched")
print(json.dumps({
    "scheduler": params.scheduler,
    "loaded": [name for name in wanted if name in sys.modules],
    "leaked": [name for name in unwanted if name in sys.modules],
}))
"""


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
def test_default_simulate_loads_the_kernel_and_nothing_to_build_it(run_child):
    """On a warm kernel cache (this process just filled the session's)
    a fresh interpreter's default run is the stdlib plus one ``dlopen``:
    no numpy — the columns are ``array`` buffers — and none of the
    modules ``ckernel`` imports only to run the compiler."""
    report = run_child(_DEFAULT_SIMULATE)
    assert report["scheduler"] == "columnar"
    assert report["loaded"] == ["ctypes", "repro.core.ckernel", "repro.core.columnar"]
    assert report["leaked"] == []


def test_cached_replay_never_loads_the_simulator(run_child, tmp_path):
    run_child(_FILL, str(tmp_path))
    report = run_child(_REPLAY, str(tmp_path))
    assert report["cache_hits"] == 2 and report["entries"] == 2
    stages = report["stages"]
    assert stages["import repro"] == []
    assert stages["import repro.runtime"] == []
    assert stages["cached run_points"] == []
    # Positive control: the same process loads the engine on its first
    # miss — in-process, so still no process-pool stack.
    assert "repro.core.engine" in stages["uncached run_point"]
    assert "multiprocessing" not in stages["uncached run_point"]


def test_pooled_miss_loads_the_simulator_before_the_pool_exists(run_child):
    report = run_child(_POOLED_MISS)
    assert report["results"] == 2
    assert report["engine_loaded_at_pool_creation"] == [True]
    # ... and the C kernel, where the host has one, already bound: the
    # forked workers inherit the mapping instead of each building it
    assert report["kernel_bound_at_pool_creation"] == [report["kernel_available"]]


def test_cached_cli_replay_never_loads_the_simulator(run_child, tmp_path):
    fill = run_child(_CLI, str(tmp_path))
    assert "repro.core.engine" in fill["stages"]["cli"]
    replay = run_child(_CLI, str(tmp_path))
    assert replay["status"] == fill["status"]
    assert "cache hits (100%)" in replay["stdout"]
    assert replay["stages"]["cli"] == []
