"""JSON payloads for configs, summaries and simulation results.

The on-disk result cache and the parallel runner both need a stable,
content-addressable representation of a simulation point and its
result.  This module is the single place that knows how to turn the
frozen config dataclasses and :class:`~repro.core.simulation.SimulationResult`
into plain dictionaries and back.

Payloads are canonicalized (topology specs normalised to the paper's
``"a:b:c"`` notation, keys sorted on encode) so that two equal specs
always hash identically regardless of how the caller spelled them.
"""

from __future__ import annotations

import json
from typing import Any

from ..core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
    format_hierarchy,
    parse_hierarchy,
)
from ..core.errors import ConfigurationError
from ..core.simulation import SimulationResult
from ..core.statistics import Summary

#: Bumped whenever the payload schema changes; old cache entries with a
#: different version are treated as misses.
PAYLOAD_VERSION = 1

SystemConfig = RingSystemConfig | MeshSystemConfig


def canonical_json(payload: dict[str, Any]) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# configs
# ----------------------------------------------------------------------
def system_payload(system: SystemConfig) -> dict[str, Any]:
    if isinstance(system, RingSystemConfig):
        return {
            "kind": "ring",
            "topology": format_hierarchy(parse_hierarchy(system.topology)),
            "cache_line_bytes": system.cache_line_bytes,
            "global_ring_speed": system.global_ring_speed,
            "memory_latency": system.memory_latency,
            "transit_priority": system.transit_priority,
            "response_priority": system.response_priority,
            "switching": system.switching,
        }
    if isinstance(system, MeshSystemConfig):
        return {
            "kind": "mesh",
            "side": system.side,
            "cache_line_bytes": system.cache_line_bytes,
            "buffer_flits": system.buffer_flits,
            "memory_latency": system.memory_latency,
        }
    raise ConfigurationError(f"unknown system config type: {type(system).__name__}")


def system_from_payload(payload: dict[str, Any]) -> SystemConfig:
    kind = payload.get("kind")
    if kind == "ring":
        return RingSystemConfig(
            topology=payload["topology"],
            cache_line_bytes=payload["cache_line_bytes"],
            global_ring_speed=payload["global_ring_speed"],
            memory_latency=payload["memory_latency"],
            transit_priority=payload["transit_priority"],
            response_priority=payload["response_priority"],
            switching=payload["switching"],
        )
    if kind == "mesh":
        return MeshSystemConfig(
            side=payload["side"],
            cache_line_bytes=payload["cache_line_bytes"],
            buffer_flits=payload["buffer_flits"],
            memory_latency=payload["memory_latency"],
        )
    raise ConfigurationError(f"unknown system payload kind: {kind!r}")


def workload_payload(workload: WorkloadConfig) -> dict[str, Any]:
    # Pattern and burst keys appear only when they shape behavior:
    # plain M-MRP payloads are byte-identical to the pre-pattern schema,
    # so existing cached results stay valid, while any non-default
    # pattern (or burstiness) changes the canonical payload — and with
    # it the cache/spec hash and the derived per-point seed — so cached
    # M-MRP results can never cross-serve a pattern run (and vice
    # versa).  Hotspot shape knobs join only for "hotspot", where they
    # actually change the draw distribution.
    payload: dict[str, Any] = {
        "locality": workload.locality,
        "miss_rate": workload.miss_rate,
        "outstanding": workload.outstanding,
        "read_fraction": workload.read_fraction,
    }
    if workload.pattern != "mmrp":
        payload["pattern"] = workload.pattern
        if workload.pattern == "hotspot":
            payload["hotspot_count"] = workload.hotspot_count
            payload["hotspot_weight"] = workload.hotspot_weight
    if workload.bursty:
        payload["burst_on"] = workload.burst_on
        payload["burst_off"] = workload.burst_off
    return payload


def workload_from_payload(payload: dict[str, Any]) -> WorkloadConfig:
    return WorkloadConfig(**payload)


def params_payload(params: SimulationParams) -> dict[str, Any]:
    # ``params.scheduler`` and ``params.replicas`` are deliberately
    # omitted: all five schedulers are behavior-identical (enforced by
    # the kernel equivalence tests; ``"columnar"``, the default, joined
    # them when its kernel started drawing ``compiled``'s own miss
    # stream) and a
    # lockstep batch is just N independent seeds, so cache keys and
    # result payloads must not depend on which scheduler — or how wide
    # a batch — computed a point.
    return {
        "batch_cycles": params.batch_cycles,
        "batches": params.batches,
        "seed": params.seed,
        "deadlock_threshold": params.deadlock_threshold,
        "flow_control": params.flow_control,
    }


def params_from_payload(payload: dict[str, Any]) -> SimulationParams:
    # ``"fidelity": "statistical"`` is what columnar payloads carried
    # while the tier was only statistically equivalent.  Nothing writes
    # it any more, but frozen inputs do (the benchmark's ``columnar_mid``
    # points); it meant "run this on the kernel tier", which is what
    # every payload means now that the tier is the default scheduler.
    payload = dict(payload)
    payload.pop("fidelity", None)
    return SimulationParams(**payload)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def summary_payload(summary: Summary) -> dict[str, Any]:
    return {
        "mean": summary.mean,
        "half_width": summary.half_width,
        "batch_means": list(summary.batch_means),
    }


def summary_from_payload(payload: dict[str, Any]) -> Summary:
    return Summary(
        mean=payload["mean"],
        half_width=payload["half_width"],
        batch_means=tuple(payload["batch_means"]),
    )


def result_payload(result: SimulationResult) -> dict[str, Any]:
    return {
        "version": PAYLOAD_VERSION,
        "system": system_payload(result.system),
        "workload": workload_payload(result.workload),
        "params": params_payload(result.params),
        "cycles": result.cycles,
        "latency": summary_payload(result.latency),
        "local_latency": summary_payload(result.local_latency),
        "utilization": {
            level: summary_payload(s) for level, s in result.utilization.items()
        },
        "throughput": (
            summary_payload(result.throughput) if result.throughput is not None else None
        ),
        "remote_transactions": result.remote_transactions,
        "local_transactions": result.local_transactions,
        "flits_moved": result.flits_moved,
    }


def result_from_payload(payload: dict[str, Any]) -> SimulationResult:
    if payload.get("version") != PAYLOAD_VERSION:
        raise ValueError(f"unsupported result payload version: {payload.get('version')!r}")
    return SimulationResult(
        system=system_from_payload(payload["system"]),
        workload=workload_from_payload(payload["workload"]),
        params=params_from_payload(payload["params"]),
        cycles=payload["cycles"],
        latency=summary_from_payload(payload["latency"]),
        local_latency=summary_from_payload(payload["local_latency"]),
        utilization={
            level: summary_from_payload(s)
            for level, s in payload["utilization"].items()
        },
        throughput=(
            summary_from_payload(payload["throughput"])
            if payload["throughput"] is not None
            else None
        ),
        remote_transactions=payload["remote_transactions"],
        local_transactions=payload["local_transactions"],
        flits_moved=payload["flits_moved"],
    )
