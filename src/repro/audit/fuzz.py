"""Cross-scheduler differential fuzzer.

The simulator's central correctness claim is that the four schedulers
(``naive`` / ``active`` / ``compiled`` / ``batched``) are
*behavior-identical*: for any configuration they produce byte-identical
canonical result JSON (``batched`` runs the case as a lockstep batch of
one replica).  The hand-picked equivalence matrix
(tests/integration/test_kernel_equivalence.py) enforces that claim on
representative points; this module attacks it with randomized small
configurations instead:

1. draw a :class:`FuzzCase` — topology (1–3 ring levels or a 2–4 side
   mesh), switching mode, clock-domain layout, buffer depth, M-MRP
   workload and run schedule — from a seeded ``random.Random``;
2. gate the generated topology through the static CDG prover
   (:func:`repro.checkers.static_routing_problem`, cached per distinct
   shape): a topology whose routing spec cannot be certified
   deadlock-free fails immediately as kind ``"spec"`` — no simulation
   time is spent chasing what would surface as a confusing watchdog
   timeout;
3. run it under all four schedulers with the runtime invariant auditor
   (:class:`repro.audit.Auditor`) enabled, so every cycle of every run
   is also checked for conservation/protocol violations;
4. assert the four canonical result payloads are byte-identical (a
   raised error is accepted only if all four schedulers raise the
   *same* error);
5. for clean bypass-flow-control cases, re-run once more with packet
   generation cut after the measured cycles and assert the network
   drains to full quiescence (transaction lifecycle: every request got
   exactly one response, nothing left in any buffer);
6. on any failure, greedily *shrink* the case through monotone
   reductions (fewer levels, smaller radix, shallower buffers, shorter
   run, T=1, ...) while it keeps failing, and write the minimal
   reproducer as JSON (replayable via ``python -m repro.audit replay``).

With ``include_columnar=True`` (CLI ``--include-columnar``) each case
additionally runs under the ``columnar`` scheduler — the C kernel
tier — with the sampled materialization audit
(:mod:`repro.audit.stat_equiv`) hooked in.  The tables it runs on (the
case's topology plan, :mod:`repro.core.plan`) must equal, field by
field, what a walk of the object network yields
(:mod:`repro.audit.plan_check`).  The replica at the case's
seed is held to the same contract as the other four: its canonical
payload, or its ``DeadlockError``, must equal the baseline's byte for
byte; materialization invariant violations fail the case outright.
A case the kernel cannot run (:func:`repro.core.columnar.kernel_can_run`:
slotted switching, or no kernel loaded on this host) is skipped — the
tier then *is* ``compiled``, with no columns to audit — and a campaign
that ends up comparing no case at all fails: asked to vet the kernel, it
vetted nothing.

Everything is deterministic in ``--seed``: the case stream, the
per-case simulation seeds, and the shrink order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, Literal

from ..checkers.model import static_routing_problem
from ..core.config import (
    CACHE_LINE_SIZES,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
    format_hierarchy,
)
from ..core.engine import Engine
from ..core.errors import DeadlockError, SimulationError
from ..core.pm import MetricsHub
from ..core.simulation import SystemConfig, build_network, simulate
from ..runtime.serialization import (
    canonical_json,
    params_from_payload,
    params_payload,
    result_payload,
    system_from_payload,
    system_payload,
    workload_from_payload,
    workload_payload,
)
from .invariants import AuditError, Auditor
from .plan_check import plan_problem
from .runtime import enabled

SCHEDULERS = ("naive", "active", "compiled", "batched")

#: Mesh input-FIFO depths the fuzzer draws from (typed so a drawn
#: ``"cl"`` stays the literal the config field expects).
BUFFER_CHOICES: tuple[int | Literal["cl"], ...] = (1, 4, "cl")

#: Columnar run: replicas per case (the case's seed first; the
#: neighbours give the sampled audit a rotation to walk) and the audit
#: sampling interval in cycles.
COLUMNAR_SEEDS = 3
COLUMNAR_AUDIT_INTERVAL = 50

#: Drain budget for the lifecycle pass: chunks of cycles stepped after
#: generation is cut, polling for quiescence between chunks.
DRAIN_CHUNK_CYCLES = 250
DRAIN_CHUNKS = 60

#: Cap on shrink re-runs per failing case (each re-run is 4 audited
#: simulations, so this bounds shrink cost at ~240 small sims).
SHRINK_BUDGET = 60


@dataclass(frozen=True)
class FuzzCase:
    """One randomized configuration under test."""

    system: SystemConfig
    workload: WorkloadConfig
    params: SimulationParams

    def payload(self) -> dict[str, Any]:
        return {
            "system": system_payload(self.system),
            "workload": workload_payload(self.workload),
            "params": params_payload(self.params),
        }

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "FuzzCase":
        return FuzzCase(
            system=system_from_payload(payload["system"]),
            workload=workload_from_payload(payload["workload"]),
            params=params_from_payload(payload["params"]),
        )

    def describe(self) -> str:
        system = self.system
        if isinstance(system, RingSystemConfig):
            shape = (
                f"ring {system.topology} {system.switching}"
                f" cl={system.cache_line_bytes}"
                f" speed={system.global_ring_speed}"
            )
        else:
            shape = (
                f"mesh {system.side}x{system.side}"
                f" buf={system.buffer_flits} cl={system.cache_line_bytes}"
            )
        return (
            f"{shape} | C={self.workload.miss_rate} R={self.workload.locality}"
            f" T={self.workload.outstanding}"
            f" | {self.params.batches}x{self.params.batch_cycles}cyc"
            f" seed={self.params.seed} {self.params.flow_control}"
        )


@dataclass(frozen=True)
class CaseResult:
    """Outcome of running one case under every scheduler."""

    #: "ok" | "spec" | "divergence" | "violation" | "lifecycle" | "columnar"
    kind: str
    detail: str
    #: whether the case also ran on, and was compared with, the C kernel
    kernel_compared: bool = False

    @property
    def failed(self) -> bool:
        return self.kind != "ok"


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------
def random_case(rng: random.Random) -> FuzzCase:
    """Draw one small random configuration from *rng*."""
    cache_line = rng.choice(CACHE_LINE_SIZES)
    if rng.random() < 0.6:
        levels = rng.choice((1, 1, 2, 2, 3))
        if levels == 1:
            branching: tuple[int, ...] = (rng.randint(2, 8),)
        elif levels == 2:
            branching = (rng.randint(2, 3), rng.randint(2, 4))
        else:
            branching = (2, 2, rng.randint(2, 3))
        # Stored in the paper's "2:3:4" string form so a payload
        # round-trip (reproducer JSON) reproduces an equal dataclass.
        system: SystemConfig = RingSystemConfig(
            topology=format_hierarchy(branching),
            cache_line_bytes=cache_line,
            global_ring_speed=2 if levels > 1 and rng.random() < 0.3 else 1,
            switching="slotted" if rng.random() < 0.25 else "wormhole",
        )
    else:
        system = MeshSystemConfig(
            side=rng.randint(2, 4),
            cache_line_bytes=cache_line,
            buffer_flits=rng.choice(BUFFER_CHOICES),
        )
    workload = WorkloadConfig(
        locality=rng.choice((1.0, 1.0, 0.9, 0.5)),
        miss_rate=rng.choice((0.01, 0.05, 0.1, 0.2)),
        outstanding=rng.randint(1, 8),
        read_fraction=rng.choice((0.7, 0.7, 0.5, 1.0)),
    )
    params = SimulationParams(
        batch_cycles=rng.choice((150, 250, 400)),
        batches=rng.choice((3, 4)),
        seed=rng.randrange(1 << 16),
        deadlock_threshold=3000,
        flow_control="conservative" if rng.random() < 0.15 else "bypass",
    )
    return FuzzCase(system, workload, params)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _mesh_spec_problem(side: int) -> str | None:
    return static_routing_problem(
        MeshSystemConfig(side=side, cache_line_bytes=32)
    )


@lru_cache(maxsize=None)
def _ring_spec_problem(topology: str) -> str | None:
    return static_routing_problem(
        RingSystemConfig(topology=topology, cache_line_bytes=32)
    )


def static_spec_problem(case: FuzzCase) -> str | None:
    """The CDG prover's objection to the case's topology, or ``None``.

    Routing depends only on the topology shape (never on cache-line
    size, buffer depth, ring speed, or the workload), so proofs are
    cached per distinct mesh side / ring branching — a whole campaign
    pays for each shape once.
    """
    system = case.system
    if isinstance(system, MeshSystemConfig):
        return _mesh_spec_problem(system.side)
    return _ring_spec_problem(format_hierarchy(system.branching))


def _run_one(case: FuzzCase, scheduler: str) -> tuple[str, str]:
    """(status, payload) for one audited run: ``("ok", canonical_json)``
    on success, ``("audit", message)`` on an invariant violation,
    ``("error", "Type: message")`` on any other simulation error or a
    tripped watchdog."""
    params = replace(case.params, scheduler=scheduler)
    try:
        with enabled(Auditor()):
            result = simulate(case.system, case.workload, params)
    except AuditError as exc:
        return ("audit", f"{scheduler}: {exc}")
    except (SimulationError, DeadlockError) as exc:
        return ("error", f"{type(exc).__name__}: {exc}")
    return ("ok", canonical_json(result_payload(result)))


def _lifecycle_problem(case: FuzzCase) -> str | None:
    """Drain the network after the measured run; report what is left.

    Only meaningful under bypass flow control (the conservative ablation
    can legitimately wedge a full ring, which is exactly why it is an
    ablation).
    """
    auditor = Auditor()
    metrics = MetricsHub()
    network = build_network(
        case.system, case.workload, metrics, seed=case.params.seed
    )
    engine = Engine(
        deadlock_threshold=case.params.deadlock_threshold,
        flow_control=case.params.flow_control,
        scheduler="compiled",
    )
    network.register(engine)
    try:
        with enabled(auditor):
            engine.run(case.params.total_cycles)
            for pm in network.pms:
                pm.generation_enabled = False
            for _ in range(DRAIN_CHUNKS):
                if auditor.quiescence_problem(engine) is None:
                    return None
                engine.run(DRAIN_CHUNK_CYCLES)
            return auditor.quiescence_problem(engine)
    except SimulationError as exc:
        return f"{type(exc).__name__} while draining: {exc}"


def _columnar_problem(case: FuzzCase, baseline: tuple[str, str]) -> str | None:
    """Kernel run of *case* (one the kernel can run); ``None`` when clean.

    First holds the tables the kernel is about to run on — the case's
    topology plan — to the object network's own wiring
    (:func:`repro.audit.plan_check.plan_problem`).  Then runs
    :data:`COLUMNAR_SEEDS` replicas with the sampled materialization
    audit hooked in every :data:`COLUMNAR_AUDIT_INTERVAL` cycles and
    compares the replica at the case's seed with *baseline*, the
    bit-exact schedulers' common ``_run_one`` outcome.
    """
    from ..core.columnar import simulate_columnar
    from .stat_equiv import SamplingAuditor

    mismatch = plan_problem(case.system, case.workload)
    if mismatch is not None:
        return f"topology plan: {mismatch}"
    params = replace(case.params, scheduler="columnar")

    def outcome(replicas: int) -> tuple[str, str]:
        seeds = tuple(range(case.params.seed, case.params.seed + replicas))
        auditor = SamplingAuditor()
        try:
            results = simulate_columnar(
                case.system,
                case.workload,
                params,
                seeds=seeds,
                cycle_hook=auditor,
                hook_interval=COLUMNAR_AUDIT_INTERVAL,
            )
        except DeadlockError as exc:
            # the engine's message, without the replica the kernel names
            return ("error", f"DeadlockError: {DeadlockError(exc.cycle, exc.stalled_cycles)}")
        except SimulationError as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
        if auditor.samples == 0:
            # every case outlasts the interval, so a finished run that
            # was never sampled fell back to ``compiled`` on the way
            raise AuditError(
                "columnar_materialization", 0, "no cycle sampled: the kernel did not run"
            )
        return ("ok", canonical_json(result_payload(results[0])))

    try:
        got = outcome(COLUMNAR_SEEDS)
        if got != baseline and got[1].startswith("DeadlockError"):
            # a lockstep batch stops at whichever replica wedges first;
            # only the case's own seed has a baseline, so run it alone
            got = outcome(1)
    except AuditError as exc:
        return f"materialization audit: {exc}"
    if got != baseline:
        return (
            f"columnar disagrees with {SCHEDULERS[0]}: "
            f"{_divergence_detail(baseline, got)}"
        )
    return None


def run_case(
    case: FuzzCase, lifecycle: bool = True, include_columnar: bool = False
) -> CaseResult:
    """Differential run of *case* under every scheduler, audited.

    The static spec gate runs first: a topology the CDG prover cannot
    certify deadlock-free fails as ``"spec"`` without simulating.
    """
    spec_problem = static_spec_problem(case)
    if spec_problem is not None:
        return CaseResult("spec", spec_problem)
    outcomes = {scheduler: _run_one(case, scheduler) for scheduler in SCHEDULERS}
    for scheduler, (status, detail) in outcomes.items():
        if status == "audit":
            return CaseResult("violation", detail)
    baseline_scheduler = SCHEDULERS[0]
    baseline = outcomes[baseline_scheduler]
    for scheduler in SCHEDULERS[1:]:
        if outcomes[scheduler] != baseline:
            return CaseResult(
                "divergence",
                f"{scheduler} disagrees with {baseline_scheduler}: "
                f"{_divergence_detail(baseline, outcomes[scheduler])}",
            )
    if (
        lifecycle
        and baseline[0] == "ok"
        and case.params.flow_control == "bypass"
    ):
        problem = _lifecycle_problem(case)
        if problem is not None:
            return CaseResult("lifecycle", problem)
    if include_columnar:
        from ..core.columnar import kernel_can_run

        if kernel_can_run(case.system, case.workload):
            problem = _columnar_problem(case, baseline)
            return CaseResult(
                "columnar" if problem else "ok", problem or "", kernel_compared=True
            )
    return CaseResult("ok", "")


def _divergence_detail(a: tuple[str, str], b: tuple[str, str]) -> str:
    if a[0] != b[0] or a[0] != "ok":
        return f"{a[0]} ({a[1][:120]}) vs {b[0]} ({b[1][:120]})"
    # Both "ok" with different JSON: report the first differing key.
    da, db = json.loads(a[1]), json.loads(b[1])
    for key in sorted(set(da) | set(db)):
        if da.get(key) != db.get(key):
            return f"result[{key!r}]: {da.get(key)!r} vs {db.get(key)!r}"
    return "payloads differ"


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _reductions(case: FuzzCase) -> Iterator[FuzzCase]:
    """Candidate one-step reductions of *case*, most aggressive first.

    Every candidate is strictly "smaller" on some axis (fewer levels,
    smaller radix, shorter run, ...), so greedy adoption terminates.
    """
    system, workload, params = case.system, case.workload, case.params

    def with_system(new: SystemConfig) -> FuzzCase:
        return replace(case, system=new)

    if isinstance(system, RingSystemConfig):
        branching = system.branching
        if len(branching) > 1:
            yield with_system(
                replace(system, topology=format_hierarchy(branching[1:]))
            )
        if any(b > 2 for b in branching):
            yield with_system(
                replace(
                    system,
                    topology=format_hierarchy(tuple(min(b, 2) for b in branching)),
                )
            )
        for index, radix in enumerate(branching):
            if radix > 2:
                reduced = branching[:index] + (radix - 1,) + branching[index + 1:]
                yield with_system(
                    replace(system, topology=format_hierarchy(reduced))
                )
        if system.global_ring_speed == 2:
            yield with_system(replace(system, global_ring_speed=1))
        if system.switching == "slotted":
            yield with_system(replace(system, switching="wormhole"))
    else:
        if system.side > 2:
            yield with_system(replace(system, side=system.side - 1))
        if system.buffer_flits == "cl":
            yield with_system(replace(system, buffer_flits=4))
        if system.buffer_flits == 4:
            yield with_system(replace(system, buffer_flits=1))
    if system.cache_line_bytes > CACHE_LINE_SIZES[0]:
        smaller = max(c for c in CACHE_LINE_SIZES if c < system.cache_line_bytes)
        yield with_system(replace(system, cache_line_bytes=smaller))
    if params.batch_cycles > 50:
        yield replace(
            case, params=replace(params, batch_cycles=max(50, params.batch_cycles // 2))
        )
    if params.batches > 2:
        yield replace(case, params=replace(params, batches=2))
    if params.flow_control == "conservative":
        yield replace(case, params=replace(params, flow_control="bypass"))
    if workload.outstanding > 1:
        yield replace(
            case, workload=replace(workload, outstanding=workload.outstanding // 2)
        )
    if workload.locality != 1.0:
        yield replace(case, workload=replace(workload, locality=1.0))
    if workload.read_fraction != 0.7:
        yield replace(case, workload=replace(workload, read_fraction=0.7))


def shrink(
    case: FuzzCase,
    budget: int = SHRINK_BUDGET,
    log: Callable[[str], None] | None = None,
    include_columnar: bool = False,
) -> tuple[FuzzCase, CaseResult]:
    """Greedily reduce a failing *case* while it keeps failing.

    Accepts any failure kind as "still failing" (a reduction that turns
    a divergence into an invariant violation still reproduces the bug
    at a smaller size).  Returns the smallest failing case found and
    its result.
    """
    result = run_case(case, include_columnar=include_columnar)
    if not result.failed:
        raise ValueError("shrink() called on a passing case")
    attempts = 0
    improved = True
    while improved and attempts < budget:
        improved = False
        for candidate in _reductions(case):
            if attempts >= budget:
                break
            attempts += 1
            candidate_result = run_case(candidate, include_columnar=include_columnar)
            if candidate_result.failed:
                case, result = candidate, candidate_result
                if log is not None:
                    log(f"  shrunk to: {case.describe()}")
                improved = True
                break
    return case, result


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
def write_reproducer(
    directory: Path, index: int, case: FuzzCase, result: CaseResult
) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"repro-{index:04d}-{result.kind}.json"
    payload = {
        "case": case.payload(),
        "kind": result.kind,
        "detail": result.detail,
        "describe": case.describe(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_fuzz(
    cases: int,
    seed: int,
    out_dir: Path,
    log: Callable[[str], None] = print,
    lifecycle: bool = True,
    include_columnar: bool = False,
) -> int:
    """Run a fuzz campaign; returns the number of failing cases.

    Failures are shrunk and written to *out_dir* as reproducer JSON.
    With *include_columnar*, a campaign in which no case reached the
    kernel comparison counts as one more failure.
    """
    rng = random.Random(seed)
    failures = 0
    compared = 0
    for index in range(cases):
        case = random_case(rng)
        result = run_case(case, lifecycle=lifecycle, include_columnar=include_columnar)
        compared += result.kernel_compared
        if not result.failed:
            log(f"[{index + 1}/{cases}] ok   {case.describe()}")
            continue
        failures += 1
        log(f"[{index + 1}/{cases}] FAIL {case.describe()}")
        log(f"  {result.kind}: {result.detail}")
        case, result = shrink(case, log=log, include_columnar=include_columnar)
        path = write_reproducer(out_dir, index, case, result)
        log(f"  minimal reproducer: {path}")
    if include_columnar:
        log(f"columnar: {compared} case(s) compared with the C kernel")
        if not compared:
            log("  FAIL: nothing ran on the kernel (no C kernel loaded?)")
            failures += 1
    log(
        f"fuzz: {cases} case(s), {failures} failure(s)"
        + (f", reproducers in {out_dir}" if failures else "")
    )
    return failures


def replay(path: Path, log: Callable[[str], None] = print) -> CaseResult:
    """Re-run a reproducer JSON written by :func:`run_fuzz`."""
    payload = json.loads(Path(path).read_text())
    case = FuzzCase.from_payload(payload["case"])
    log(f"replaying: {case.describe()}")
    result = run_case(case, include_columnar=payload.get("kind") == "columnar")
    log(f"{result.kind}" + (f": {result.detail}" if result.detail else ""))
    return result
