"""The columnar C kernel must build, build clean, and run under sanitizers.

``ckernel._compile()`` never raises and keeps the compiler's stderr to
itself, and without a kernel the columnar tier quietly runs every seed
under ``compiled`` — so a ``_SOURCE`` that stopped compiling would turn
the whole suite green without the kernel running once.  Where a C
compiler exists these tests make that a failure instead, hold the
source to ``-Wall -Wextra -Werror``, and run it under AddressSanitizer
and UndefinedBehaviorSanitizer with every kernel column a separate heap
allocation (``PYTHONMALLOC=malloc``: no pooled small blocks), so an
index one past a column's end is a report rather than a silent write
into its neighbour.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ckernel

CC = ckernel._find_cc()
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def _libasan() -> str | None:
    """The compiler's ASan runtime, if it ships one as a shared object."""
    assert CC is not None
    found = subprocess.run(
        [CC, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    # a compiler without the file echoes the bare name back
    return found if os.path.isabs(found) and os.path.exists(found) else None


def test_kernel_builds_where_a_compiler_exists(monkeypatch):
    monkeypatch.delenv("REPRO_COLUMNAR_KERNEL", raising=False)
    assert ckernel.available()


def test_kernel_source_compiles_without_warnings(tmp_path):
    """The shipped build — ``ckernel._CFLAGS``, a real shared object, so
    the optimizer's own warnings (``-Wmaybe-uninitialized``,
    ``-Warray-bounds``, ``-Wstringop-overflow``) run — plus C99 and
    every warning as an error."""
    source = tmp_path / "kernel.c"
    source.write_text(ckernel._SOURCE, encoding="utf-8")
    assert CC is not None
    proc = subprocess.run(
        [
            CC,
            *ckernel._CFLAGS,
            "-std=c99",
            "-Wall",
            "-Wextra",
            "-Wvla",
            "-Werror",
            "-o",
            str(tmp_path / "kernel.so"),
            str(source),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "kernel.so").stat().st_size > 0


#: Runs in a fresh interpreter with the ASan runtime preloaded: rebuild
#: the kernel instrumented, then drive it through both fabrics, both
#: flow controls, a double-speed ring (second subcycle), one-flit mesh
#: buffers and 36-flit worms (long revocation chains and lock tenures),
#: multi-word live sets (8 replicas of 96 ring ports / 64 mesh routers),
#: a nearly idle network (quiet jumps; the live sets and the staging
#: list run empty), parked columns (T=1 under load: generate's full
#: sweep), packet-table growth, a draw-chunk continuation, seeding
#: blocks of 1- and 2-word keys (negative seeds among them) over column
#: counts that are not a multiple of the block, and, stepped one cycle
#: at a time on 16-B lines, a staging column that blocks and is freed
#: by a pop of its queue, a PM that parks and unparks on an ejection in
#: a later cycle, and a full buffer with cap == capm that is popped and
#: filled in the same subcycle.
_DRIVER = """
import random

from repro.core import ckernel

ckernel._CFLAGS += ["-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
assert ckernel.available(), "the instrumented kernel did not build"

from repro.core.columnar import ColumnarEngine
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.processor import LOOKAHEAD_CHUNK


def drive(system, miss_rate, cycles, seeds, outstanding=4):
    grown = False
    for flow_control in ("bypass", "conservative"):
        params = SimulationParams(scheduler="columnar", flow_control=flow_control)
        workload = WorkloadConfig(
            locality=0.9, miss_rate=miss_rate, outstanding=outstanding
        )
        engine = ColumnarEngine(system, workload, params, seeds)
        for _ in range(3):
            engine.run(cycles)
            engine.take_batch()
        assert engine.cycle == 3 * cycles
        assert min(engine.remote_completed) > 0, (system, flow_control)
        grown |= len(engine._pkt_dest) > 4096
    return grown


grown = False
for system in (
    RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2),
    RingSystemConfig(topology="3:3:8", cache_line_bytes=32),
    MeshSystemConfig(side=4, cache_line_bytes=32, buffer_flits=1),
    MeshSystemConfig(side=8, cache_line_bytes=128, buffer_flits=4),
):
    grown |= drive(system, 0.05, 400, range(1, 9))
assert grown, "no batch outgrew the initial packet table"

for system in (
    RingSystemConfig(topology="2:4", cache_line_bytes=32),
    MeshSystemConfig(side=3, cache_line_bytes=32),
):
    drive(system, 0.001, 2000, (1, 2))
    drive(system, 0.3, 400, range(1, 9), outstanding=1)

# A vanishing miss rate: first gaps that outrun the draw chunk, so those
# countdowns end a run of failures and the column must draw again.
engine = ColumnarEngine(
    RingSystemConfig(topology="2:4", cache_line_bytes=32),
    WorkloadConfig(miss_rate=0.0002),
    SimulationParams(scheduler="columnar"),
    (1, 2),
)
continued = [column for column, more in enumerate(engine._draw_more) if more]
assert continued, "no first gap outran the draw chunk"


def states():
    return [engine._mt[625 * column : 625 * (column + 1)] for column in continued]


before = states()
engine.run(LOOKAHEAD_CHUNK)
assert all(now != was for now, was in zip(states(), before)), "a continuation did not draw"

# Seeding blocks: 9, 18 and 27 columns, keys of one word and of two
# (seeds past 4,294: abs(seed * 1_000_003 + pm) >= 2**32), a negative
# seed, and widths that change inside a block.
mesh = MeshSystemConfig(side=3, cache_line_bytes=32)
for seeds in ((5000,), (-7, 4295), (1, 4294, -4296)):
    engine = ColumnarEngine(mesh, WorkloadConfig(miss_rate=1.0), SimulationParams(), seeds)
    for column in range(engine.replicas * 9):
        seed, pm = divmod(column, 9)
        stream = random.Random(seeds[seed] * 1_000_003 + pm)
        stream.random()
        assert list(engine._mt[625 * column : 625 * (column + 1)]) == list(
            stream.getstate()[1]
        ), (seeds, column)
    engine.run(200)


# Step one cycle at a time at T=1 under load: which of the three events
# the kernel's event-driven paths hinge on were seen.
def watch(system, cycles):
    engine = ColumnarEngine(
        system, WorkloadConfig(miss_rate=0.3, outstanding=1), SimulationParams(), range(1, 5)
    )
    lay = engine._layout
    queues = set(lay.stg_q)
    capm = engine._smask + 1
    turned = freed = woke = False
    waiting = {}  # blocked staging column -> its head packet
    for _ in range(cycles):
        occ, head = list(engine._occ), list(engine._head)
        pend, rem, out = list(engine._pend), list(engine._rem_open), list(engine._outstanding)
        for col, p in enumerate(engine._stg_head):
            if p and lay.stg_qcap[col] - occ[lay.stg_q[col]] < engine._pkt_size[p]:
                waiting.setdefault(col, p)
        engine.run(1)
        # one subcycle: full before and after with the head moved is one
        # pop and one fill (only a port fills a non-queue buffer)
        turned |= any(
            b not in queues
            and lay.cap[b] == capm == occ[b] == engine._occ[b]
            and engine._head[b] != head[b]
            for b in range(lay.sent)
        )
        for col, p in list(waiting.items()):
            if engine._stg_head[col] != p:  # only a pop makes room
                freed = True
                del waiting[col]
        # parked behind its one transaction, a remote one: its response
        # ejected
        woke |= any(
            pend[f] and out[f] == rem[f] == 1 and not engine._pend[f]
            for f in range(len(pend))
        )
    return turned, freed, woke


for system in (
    RingSystemConfig(topology="2:4", cache_line_bytes=16),
    MeshSystemConfig(side=3, cache_line_bytes=16, buffer_flits="cl"),
):
    turned, freed, woke = watch(system, 300)
    assert turned, ("no full cap == capm buffer popped and filled", system)
    assert freed, ("no blocked staging column freed by a pop", system)
    assert woke, ("no parked PM unparked on an ejection", system)
print("sanitized kernel ok")
"""


def test_kernel_runs_clean_under_asan_and_ubsan():
    libasan = _libasan()
    if libasan is None:
        pytest.skip("the compiler ships no shared ASan runtime")
    env = {
        **os.environ,
        "LD_PRELOAD": libasan,
        "ASAN_OPTIONS": "detect_leaks=0",
        # every column straight from malloc, where ASan can fence it
        "PYTHONMALLOC": "malloc",
        "PYTHONPATH": str(SRC_DIR),
    }
    env.pop("REPRO_COLUMNAR_KERNEL", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "sanitized kernel ok" in proc.stdout
    assert "ERROR: AddressSanitizer" not in proc.stderr
    assert "runtime error:" not in proc.stderr
