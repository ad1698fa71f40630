"""Configuration objects and derived packet geometry.

All paper constants live here:

* cache line sizes studied: 16, 32, 64, 128 bytes;
* ring channels are 128 bits wide (16-byte flits) with 1-flit headers,
  so a cache-line packet is 2, 3, 5 or 9 flits (Section 2.2);
* mesh channels are 32 bits wide (4-byte flits) with 4-flit headers,
  so a cache-line packet is 8, 12, 20 or 36 flits;
* the cache miss rate ``C`` defaults to 0.04 (one miss per 25 cycles),
  the read fraction to 0.7, and the outstanding-transaction limit ``T``
  to 4 (Section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Literal

from .errors import ConfigurationError
from .packet import PacketType

CACHE_LINE_SIZES: tuple[int, ...] = (16, 32, 64, 128)

#: Engine schedulers accepted by :class:`SimulationParams`; all five
#: are byte-identical to each other (see the class docstring).
SCHEDULERS: tuple[str, ...] = ("compiled", "active", "naive", "batched", "columnar")

#: Traffic patterns accepted by :class:`WorkloadConfig`.  ``"mmrp"`` is
#: the paper's locality workload; the rest are the standard NoC spatial
#: patterns built in :mod:`repro.workload.patterns`.
TRAFFIC_PATTERNS: tuple[str, ...] = (
    "mmrp",
    "uniform",
    "tornado",
    "transpose",
    "shuffle",
    "bitrev",
    "hotspot",
)

RING_FLIT_BYTES = 16  # 128-bit ring data path
RING_HEADER_FLITS = 1
MESH_FLIT_BYTES = 4  # 32-bit mesh channels
MESH_HEADER_FLITS = 4

#: Mesh router input buffer depth named "cl" in the paper: sized to hold
#: one full cache-line packet.
CL_BUFFER: Literal["cl"] = "cl"


@dataclass(frozen=True)
class PacketGeometry:
    """Flit counts for each packet type under one network's framing."""

    header_flits: int
    data_flits: int

    @property
    def cl_packet_flits(self) -> int:
        """Size of a packet carrying a cache line (the paper's ``cl``)."""
        return self.header_flits + self.data_flits

    def size_of(self, ptype: PacketType) -> int:
        if ptype.carries_data:
            return self.cl_packet_flits
        return self.header_flits


def _check_cache_line(cache_line_bytes: int) -> None:
    if cache_line_bytes not in CACHE_LINE_SIZES:
        raise ConfigurationError(
            f"cache line must be one of {CACHE_LINE_SIZES}, got {cache_line_bytes}"
        )


def ring_packet_geometry(cache_line_bytes: int) -> PacketGeometry:
    """Ring packet framing: 16-byte flits, 1-flit header."""
    _check_cache_line(cache_line_bytes)
    return PacketGeometry(RING_HEADER_FLITS, cache_line_bytes // RING_FLIT_BYTES)


def mesh_packet_geometry(cache_line_bytes: int) -> PacketGeometry:
    """Mesh packet framing: 4-byte flits, 4-flit header."""
    _check_cache_line(cache_line_bytes)
    return PacketGeometry(MESH_HEADER_FLITS, cache_line_bytes // MESH_FLIT_BYTES)


def parse_hierarchy(spec: "str | tuple[int, ...] | list[int]") -> tuple[int, ...]:
    """Parse the paper's ``"2:3:4"`` hierarchy notation into a tuple.

    The notation is top-down: ``"2:3:4"`` is a 3-level hierarchy whose
    global ring connects 2 intermediate rings, each connecting 3 local
    rings of 4 processing modules (24 processors total).  A single-level
    system is just ``"8"`` / ``(8,)``.
    """
    if isinstance(spec, str):
        parts = spec.split(":")
        try:
            branching = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ConfigurationError(f"bad hierarchy spec {spec!r}") from exc
    else:
        branching = tuple(int(b) for b in spec)
    if not branching:
        raise ConfigurationError("hierarchy spec must have at least one level")
    if any(b < 1 for b in branching):
        raise ConfigurationError(f"hierarchy branching factors must be >= 1: {branching}")
    if len(branching) > 1 and any(b < 2 for b in branching[:-1]):
        raise ConfigurationError(
            f"non-leaf levels need at least 2 children: {branching}"
        )
    return branching


def hierarchy_processors(branching: tuple[int, ...]) -> int:
    count = 1
    for b in branching:
        count *= b
    return count


def format_hierarchy(branching: tuple[int, ...]) -> str:
    return ":".join(str(b) for b in branching)


@dataclass(frozen=True)
class RingSystemConfig:
    """A hierarchical-ring multiprocessor system.

    Parameters
    ----------
    topology:
        Hierarchy in ``"2:3:4"`` notation or as a top-down branching
        tuple; see :func:`parse_hierarchy`.
    cache_line_bytes:
        16, 32, 64 or 128.
    global_ring_speed:
        1 for the base system; 2 clocks the global (top-level) ring at
        twice the PM clock (Section 6).
    memory_latency:
        Fixed pipelined memory access time in cycles.  The paper never
        states its value; it is an additive constant on every latency
        curve (see DESIGN.md).
    transit_priority, response_priority:
        The paper's NIC/IRI arbitration: transit packets first, then
        responses over requests (Section 2.1).  Exposed as ablation
        knobs; leave True to model the paper.
    switching:
        ``"wormhole"`` is the paper's model: a packet blocked at a full
        inter-ring queue stalls in place and back-pressures the ring.
        ``"slotted"`` models the non-blocking switching that Hector and
        NUMAchine actually built (paper footnote 3; Ravindran & Stumm,
        IEICE '96): a packet that finds its up/down queue full simply
        continues around the ring and retries next revolution, and a
        node only starts injecting when no transit packet is arriving.
    """

    topology: "str | tuple[int, ...]" = "2:3:4"
    cache_line_bytes: int = 32
    global_ring_speed: int = 1
    memory_latency: int = 10
    transit_priority: bool = True
    response_priority: bool = True
    switching: str = "wormhole"

    @property
    def branching(self) -> tuple[int, ...]:
        return parse_hierarchy(self.topology)

    @property
    def levels(self) -> int:
        return len(self.branching)

    @property
    def processors(self) -> int:
        return hierarchy_processors(self.branching)

    @property
    def geometry(self) -> PacketGeometry:
        return ring_packet_geometry(self.cache_line_bytes)

    @property
    def ring_buffer_flits(self) -> int:
        """Ring/NIC/IRI buffers hold exactly one cache-line packet."""
        return self.geometry.cl_packet_flits

    def validate(self) -> "RingSystemConfig":
        _check_cache_line(self.cache_line_bytes)
        parse_hierarchy(self.topology)
        if self.global_ring_speed not in (1, 2):
            raise ConfigurationError(
                f"global_ring_speed must be 1 or 2, got {self.global_ring_speed}"
            )
        if self.memory_latency < 0:
            raise ConfigurationError("memory_latency must be >= 0")
        if self.switching not in ("wormhole", "slotted"):
            raise ConfigurationError(
                f"switching must be 'wormhole' or 'slotted', got {self.switching!r}"
            )
        return self

    def with_topology(self, topology: "str | tuple[int, ...]") -> "RingSystemConfig":
        return replace(self, topology=topology)


@dataclass(frozen=True)
class MeshSystemConfig:
    """A square 2D bi-directional mesh multiprocessor system.

    Parameters
    ----------
    side:
        Mesh edge length; the system has ``side * side`` processors.
    cache_line_bytes:
        16, 32, 64 or 128.
    buffer_flits:
        Router input FIFO depth in flits: 1, 4 or :data:`CL_BUFFER`
        (one full cache-line packet, the paper's ``cl``).
    memory_latency:
        Fixed pipelined memory access time in cycles (see
        :class:`RingSystemConfig`).
    """

    side: int = 4
    cache_line_bytes: int = 32
    buffer_flits: "int | Literal['cl']" = 4
    memory_latency: int = 10

    @property
    def processors(self) -> int:
        return self.side * self.side

    @property
    def geometry(self) -> PacketGeometry:
        return mesh_packet_geometry(self.cache_line_bytes)

    @property
    def input_buffer_flits(self) -> int:
        if self.buffer_flits == CL_BUFFER:
            return self.geometry.cl_packet_flits
        return int(self.buffer_flits)

    def validate(self) -> "MeshSystemConfig":
        _check_cache_line(self.cache_line_bytes)
        if self.side < 1:
            raise ConfigurationError(f"mesh side must be >= 1, got {self.side}")
        if self.buffer_flits != CL_BUFFER and int(self.buffer_flits) < 1:
            raise ConfigurationError(
                f"buffer_flits must be >= 1 or 'cl', got {self.buffer_flits!r}"
            )
        if self.memory_latency < 0:
            raise ConfigurationError("memory_latency must be >= 0")
        return self

    @classmethod
    def for_processors(cls, processors: int, **kwargs: Any) -> "MeshSystemConfig":
        """Build the smallest square mesh holding *processors* nodes."""
        side = 1
        while side * side < processors:
            side += 1
        if side * side != processors:
            raise ConfigurationError(
                f"mesh systems must be square; {processors} is not a perfect square"
            )
        return cls(side=side, **kwargs)


@dataclass(frozen=True)
class WorkloadConfig:
    """The synthetic workload driving every processor.

    The default is the paper's M-MRP (Section 2.4): ``locality`` is the
    paper's ``R`` (memory region fraction), ``miss_rate`` is ``C``
    (per-cycle cache miss probability), and ``outstanding`` is ``T``
    (transactions in flight before the processor blocks).

    ``pattern`` swaps the *spatial* target distribution for one of the
    standard NoC patterns (:data:`TRAFFIC_PATTERNS`, built in
    :mod:`repro.workload.patterns`).  Non-M-MRP patterns define their
    own target distribution, so they require the locality knob left at
    its neutral ``R = 1.0`` — one spelling per workload keeps the
    cache/spec identity unambiguous.  ``hotspot_count`` /
    ``hotspot_weight`` shape the ``"hotspot"`` pattern only: K evenly
    spaced hot memory modules drawn W times more often than the rest
    (integer W, so the weighted draw is an exact finite pool).

    ``burst_on`` / ``burst_off`` (mean cycles in the ON / OFF state)
    enable *temporal* burstiness on top of any spatial pattern: an
    on/off Markov-modulated source that only injects while ON, with the
    ON-state miss rate scaled so the long-run average rate stays
    ``miss_rate``.  Both zero (the default) is plain Bernoulli
    injection.
    """

    locality: float = 1.0
    miss_rate: float = 0.04
    outstanding: int = 4
    read_fraction: float = 0.7
    pattern: str = "mmrp"
    hotspot_count: int = 2
    hotspot_weight: int = 8
    burst_on: float = 0.0
    burst_off: float = 0.0

    @property
    def bursty(self) -> bool:
        return self.burst_on > 0.0

    @property
    def burst_on_rate(self) -> float:
        """ON-state miss rate preserving ``miss_rate`` as the average."""
        if not self.bursty:
            return self.miss_rate
        duty = self.burst_on / (self.burst_on + self.burst_off)
        return self.miss_rate / duty

    def validate(self) -> "WorkloadConfig":
        if not 0.0 < self.locality <= 1.0:
            raise ConfigurationError(f"locality R must be in (0, 1], got {self.locality}")
        if not 0.0 < self.miss_rate <= 1.0:
            raise ConfigurationError(f"miss_rate C must be in (0, 1], got {self.miss_rate}")
        if self.outstanding < 1:
            raise ConfigurationError(f"outstanding T must be >= 1, got {self.outstanding}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        if self.pattern not in TRAFFIC_PATTERNS:
            raise ConfigurationError(
                f"pattern must be one of {TRAFFIC_PATTERNS}, got {self.pattern!r}"
            )
        if self.pattern != "mmrp" and self.locality != 1.0:
            raise ConfigurationError(
                f"pattern {self.pattern!r} defines its own target "
                f"distribution; locality must stay 1.0, got {self.locality}"
            )
        if self.hotspot_count < 1:
            raise ConfigurationError(
                f"hotspot_count must be >= 1, got {self.hotspot_count}"
            )
        if self.hotspot_weight < 2:
            raise ConfigurationError(
                f"hotspot_weight must be an integer >= 2 (1 would just be "
                f"'uniform' under another name), got {self.hotspot_weight}"
            )
        if (self.burst_on > 0.0) != (self.burst_off > 0.0):
            raise ConfigurationError(
                "burst_on and burst_off must be both zero (no burstiness) "
                f"or both positive, got {self.burst_on}/{self.burst_off}"
            )
        if self.bursty:
            if self.burst_on < 1.0 or self.burst_off < 1.0:
                raise ConfigurationError(
                    "burst_on/burst_off are mean state durations in cycles "
                    f"and must be >= 1, got {self.burst_on}/{self.burst_off}"
                )
            if self.burst_on_rate > 1.0:
                raise ConfigurationError(
                    f"bursty workload needs miss_rate * (on+off)/on <= 1 "
                    f"(the ON-state rate), got {self.burst_on_rate:.4f}"
                )
        return self


@dataclass(frozen=True)
class SimulationParams:
    """Run-length and output-analysis control.

    The paper uses the batch means method with the first batch discarded
    for initialization bias (Section 2.3); ``batches`` counts all
    batches *including* the discarded one.

    ``flow_control`` selects the engine's resolver: ``"bypass"`` models
    the paper's hardware (send and receive a flit in the same cycle);
    ``"conservative"`` is the occupancy-at-cycle-start ablation.

    ``scheduler`` selects what steps the point.  ``"columnar"``
    (default) is the kernel tier: the point — one seed, or ``replicas``
    seeds — becomes struct-of-arrays columns stepped by a C kernel that
    draws each PM's misses from the object model's own MT19937 stream
    (:mod:`repro.core.columnar`, :mod:`repro.core.ckernel`; stdlib
    only — the kernel is compiled once per host into
    ``$XDG_CACHE_HOME/repro/``, default ``~/.cache/repro/``, and
    ``dlopen`` ed from there; delete that directory to rebuild it).
    One fallback rule covers everything the kernel cannot run — no C
    compiler (or ``REPRO_COLUMNAR_KERNEL=0``), slotted ring switching,
    bursty injection, caller-supplied miss sources, an active profiling
    or audit context: that seed runs under ``"compiled"``, same bytes.
    The other four step the object engine, all through its one cycle
    step (``Engine._step``): ``"compiled"`` skips provably idle
    components *and* runs the propose/resolve/commit loop over flat
    integer arrays instead of Transfer objects — the kernel's oracle in
    the equivalence tests and its fallback; ``"active"`` skips idle
    components on the object datapath; ``"naive"`` scans everything
    every cycle; ``"batched"`` runs ``replicas`` seeds of the point in
    lockstep over one compiled datapath (see :mod:`repro.core.batched`;
    requires numpy).  The step's per-mode branches cost the compiled
    scheduler at most +2.3 % against separate branch-free copies.
    All five are
    behavior-identical (same per-replica ``SimulationResult`` for every
    config — enforced by the kernel equivalence test matrices), so the
    choice is an execution detail and deliberately not part of the
    cached-result identity.

    ``replicas`` is the lockstep batch width used by the batch entry
    points (:func:`repro.core.simulation.simulate_batch`,
    :func:`repro.runtime.runner.run_replica_batch`) when no explicit
    seed list is given: seeds ``seed, seed+1, ..., seed+replicas-1``.
    Like ``scheduler`` it is an execution detail — each replica's
    result is cached independently under its own seed — and therefore
    also excluded from the cached-result identity.

    ``deadlock_threshold`` is measured in *base* (PM) clock cycles: a
    cycle counts as stalled when none of its subcycles commits a flit
    despite proposals, so the threshold means the same thing on systems
    with a double-speed global ring (two subcycles per base cycle) as
    on single-speed ones.
    """

    batch_cycles: int = 3000
    batches: int = 6
    seed: int = 1
    deadlock_threshold: int = 50_000
    flow_control: str = "bypass"
    scheduler: str = "columnar"
    replicas: int = 1

    def validate(self) -> "SimulationParams":
        if self.batch_cycles < 1:
            raise ConfigurationError("batch_cycles must be >= 1")
        if self.batches < 2:
            raise ConfigurationError("need >= 2 batches (the first is discarded)")
        if self.deadlock_threshold < 1:
            raise ConfigurationError("deadlock_threshold must be >= 1")
        if self.flow_control not in ("bypass", "conservative"):
            raise ConfigurationError(
                f"flow_control must be 'bypass' or 'conservative', "
                f"got {self.flow_control!r}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"scheduler must be 'compiled', 'active', 'naive', "
                f"'batched' or 'columnar', got {self.scheduler!r}"
            )
        if self.replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {self.replicas}")
        return self

    @property
    def total_cycles(self) -> int:
        return self.batch_cycles * self.batches


#: Convenience presets for fast CI-style runs.
QUICK_SIM = SimulationParams(batch_cycles=800, batches=4)
DEFAULT_SIM = SimulationParams()
THOROUGH_SIM = SimulationParams(batch_cycles=8000, batches=9)
