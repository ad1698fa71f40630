"""Frozen workload inputs, generated from ``--seed`` and nothing else.

Every input is a plain payload dictionary in the ``PointSpec.payload()``
schema, written out literally here: topologies, buffer depths, rates and
run lengths are *copied* from the paper's figures, never imported from
``repro.experiments`` or ``repro.ring.topology``, so a later change to a
figure definition cannot move the ruler.  The same seed gives the same
payloads; the program under test only ever sees the payloads.

Run lengths are shorter than a publication sweep on purpose: one timed
operation takes 0.2-0.6 s (2.5 s for a cold sweep pass), so a ten-second
window yields 15-30 operations and the reported median shrugs off the
contention bursts of a small shared sandbox (see README "Noise").
"""

from __future__ import annotations

from typing import Any

Payload = dict[str, Any]

#: name -> one-line reason, in reporting order.  Names are fixed: later
#: issues cite (metric, workload) pairs by them.
WORKLOADS: dict[str, str] = {
    "ring_sat": (
        "3-level ring 3:3:8 at saturation (C=0.04 T=4), compiled scheduler: "
        "core.engine + ring.port/ring.iri do ~99% of the work"
    ),
    "mesh_sat": (
        "8x8 mesh, 4-flit buffers, same load: same engine used differently "
        "(5x5 routers, round-robin arbitration, propose is 75% of a step)"
    ),
    "idle_low": (
        "both systems at C=0.002: datapath nearly idle, so core.pm/core.processor "
        "miss generation, timers and fast-forward dominate; bypasses the hot datapath"
    ),
    "columnar_mid": (
        "simulate_batch(columnar, 8 replicas) at C=0.02 on both systems: core.ckernel C "
        "loop + core.columnar numpy glue + Philox draws; bypasses the object engine"
    ),
    "sweep_fig": (
        "22 fig-14-shaped points through run_points(jobs=2) in a fresh process on an "
        "empty cache dir: imports, salt, pool spawn, pickling, stragglers, cache write"
    ),
    "sweep_warm": (
        "the same 22-point sweep re-run in a fresh process on a filled cache dir: "
        "imports, salt, disk read, parse, re-canonicalize; the engine does nothing"
    ),
    "svc_cold": (
        "spawned repro.service, 2 closed-loop keep-alive clients POST never-seen 2:6-ring "
        "points: parse, tiers miss, shard dispatch/pickle, engine, store both tiers"
    ),
    "svc_warm": (
        "same service, 24 cached points re-requested round-robin: pure serving path "
        "(HTTP parse, PointSpec.from_payload/key, memcache); the engine does nothing"
    ),
}

#: What one timed operation is, per workload (printed next to p50_ms).
OPERATION: dict[str, str] = {
    "ring_sat": "one simulate() call",
    "mesh_sat": "one simulate() call",
    "idle_low": "one ring + one mesh simulate() call",
    "columnar_mid": "one ring + one mesh simulate_batch() call, 8 replicas each",
    "sweep_fig": "one cold 22-point sweep pass, process spawn to exit",
    "sweep_warm": "one all-cached 22-point sweep pass, process spawn to exit",
    "svc_cold": "one POST /points of a never-seen point, request to last body byte",
    "svc_warm": "one POST /points of a cached point, request to last body byte",
}

#: Replica width of the columnar batches.
COLUMNAR_REPLICAS = 8

#: Paper Table 2 ring hierarchies for 4, 8, 12, 18, 24 and 36 processors,
#: per cache-line size (frozen copy).
SWEEP_RINGS: dict[int, tuple[str, ...]] = {
    32: ("4", "8", "2:6", "3:6", "3:8", "2:3:6"),
    128: ("4", "2:4", "3:4", "3:2:3", "2:3:4", "3:3:4"),
}
SWEEP_MESH_SIDES = (2, 3, 4, 5, 6)

#: Points requested per svc_warm working set and per svc_cold check block.
SVC_POINTS = 24


def ring_system(topology: str, cache_line_bytes: int) -> Payload:
    return {
        "kind": "ring",
        "topology": topology,
        "cache_line_bytes": cache_line_bytes,
        "global_ring_speed": 1,
        "memory_latency": 10,
        "transit_priority": True,
        "response_priority": True,
        "switching": "wormhole",
    }


def mesh_system(side: int, cache_line_bytes: int) -> Payload:
    return {
        "kind": "mesh",
        "side": side,
        "cache_line_bytes": cache_line_bytes,
        "buffer_flits": 4,
        "memory_latency": 10,
    }


def mmrp(miss_rate: float) -> Payload:
    """The paper's M-MRP workload at R=1.0, T=4."""
    return {
        "locality": 1.0,
        "miss_rate": miss_rate,
        "outstanding": 4,
        "read_fraction": 0.7,
    }


def params(batch_cycles: int, batches: int, seed: int, *, columnar: bool = False) -> Payload:
    payload: Payload = {
        "batch_cycles": batch_cycles,
        "batches": batches,
        "seed": seed,
        "deadlock_threshold": 50000,
        "flow_control": "bypass",
    }
    if columnar:
        payload["fidelity"] = "statistical"
    return payload


def point(system: Payload, workload: Payload, run: Payload) -> Payload:
    return {"system": system, "workload": workload, "params": run}


def _length(batch_cycles: int, quick: bool) -> int:
    return max(batch_cycles // 4, 25) if quick else batch_cycles


RING_72 = ring_system("3:3:8", 32)
MESH_64 = mesh_system(8, 32)


#: Operations of a simulation workload cycle through this many variants
#: of its points, each with another simulation seed.  How long a point
#: takes to simulate depends on its seed (one saturated-ring seed in
#: eight moves a third fewer flits), so a window over one seed would
#: measure that seed's luck, not the simulator.
SIM_VARIANTS = 4


def sim_variants(name: str, seed: int, quick: bool = False) -> list[list[Payload]]:
    """SIM_VARIANTS versions of the workload's points, on disjoint seeds."""
    return [sim_points(name, seed * 1000 + 10 * k, quick) for k in range(SIM_VARIANTS)]


def sim_points(name: str, seed: int, quick: bool = False) -> list[Payload]:
    """The simulate() inputs of one in-process simulation workload
    (columnar replicas take *seed* .. *seed* + 7)."""
    q = quick
    if name == "ring_sat":
        return [point(RING_72, mmrp(0.04), params(_length(1000, q), 3, seed))]
    if name == "mesh_sat":
        return [point(MESH_64, mmrp(0.04), params(_length(300, q), 3, seed))]
    if name == "idle_low":
        return [
            point(RING_72, mmrp(0.002), params(_length(2000, q), 3, seed)),
            point(MESH_64, mmrp(0.002), params(_length(700, q), 3, seed)),
        ]
    if name == "columnar_mid":
        return [
            point(RING_72, mmrp(0.02), params(_length(1000, q), 3, seed, columnar=True)),
            point(MESH_64, mmrp(0.02), params(_length(400, q), 3, seed, columnar=True)),
        ]
    raise KeyError(f"not a simulation workload: {name}")


def sweep_points(name: str, seed: int, quick: bool = False) -> list[Payload]:
    """22 points shaped like fig. 14; ``params.seed`` is the sweep's base
    seed (the driver derives per-point seeds, ``PointSpec.of`` semantics).

    ``sweep_warm`` uses quarter-length points: a warm pass reads, parses
    and re-canonicalizes results whose size does not depend on how long
    the point ran, and the shorter fill keeps set-up cheap.
    """
    batch_cycles = {"sweep_fig": 400, "sweep_warm": 100}[name]
    run = params(_length(batch_cycles, quick), 4, seed)
    points = []
    for cache_line_bytes in (32, 128):
        for topology in SWEEP_RINGS[cache_line_bytes]:
            points.append(point(ring_system(topology, cache_line_bytes), mmrp(0.04), run))
        for side in SWEEP_MESH_SIDES:
            points.append(point(mesh_system(side, cache_line_bytes), mmrp(0.04), run))
    return points


def svc_point(name: str, seed: int, index: int, quick: bool = False) -> Payload:
    """The *index*-th served point: a 2:6 ring whose seed is unique per
    (``--seed``, index), so ``svc_cold`` can keep drawing never-seen
    points for as long as its window lasts.

    ``svc_warm`` points are a tenth as long: a warm reply does not
    depend on how long its point was simulated, only the fill does.
    """
    batch_cycles = {"svc_cold": 2500, "svc_warm": 250}[name]
    run = params(_length(batch_cycles, quick), 3, seed * 1_000_000 + index)
    return point(ring_system("2:6", 32), mmrp(0.04), run)


def simulated_cycles(payload: Payload) -> int:
    run = payload["params"]
    return int(run["batch_cycles"]) * int(run["batches"])
