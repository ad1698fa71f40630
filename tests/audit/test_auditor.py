"""The runtime invariant auditor: transparent when clean, loud when not.

Two properties make the auditor trustworthy:

* **Transparency** — an audited run produces byte-identical results to
  an unaudited one under every scheduler (the auditor only reads).
* **Sensitivity** — a datapath bug injected via monkeypatch (a lost
  dequeue count, a disabled resolver) is caught within one cycle as an
  :class:`~repro.audit.AuditError` naming the broken invariant, under
  the object and compiled datapaths alike.
"""

from dataclasses import replace

import pytest

from repro.audit import Auditor, AuditError, current, enabled
from repro.core.buffers import FlitBuffer
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.engine import Engine
from repro.core.packet import Packet, PacketType
from repro.core.pm import MetricsHub
from repro.core.simulation import build_network, simulate
from repro.mesh.router import INPUT_ORDER
from repro.runtime.serialization import canonical_json, result_payload

PARAMS = SimulationParams(batch_cycles=300, batches=3, seed=5)
WORKLOAD = WorkloadConfig(miss_rate=0.05, outstanding=4)
SCHEDULERS = ("naive", "active", "compiled")

SYSTEMS = [
    pytest.param(RingSystemConfig(topology="2:4", cache_line_bytes=32), id="ring"),
    pytest.param(
        RingSystemConfig(topology="2:2:2", cache_line_bytes=32, global_ring_speed=2),
        id="ring-fast-global",
    ),
    pytest.param(
        RingSystemConfig(topology="2:4", cache_line_bytes=32, switching="slotted"),
        id="ring-slotted",
    ),
    pytest.param(
        MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=1), id="mesh"
    ),
]


@pytest.mark.parametrize("system", SYSTEMS)
def test_audited_run_is_byte_identical(system):
    """Auditing observes, never perturbs — for every scheduler."""
    plain = {
        s: canonical_json(
            result_payload(simulate(system, WORKLOAD, replace(PARAMS, scheduler=s)))
        )
        for s in SCHEDULERS
    }
    auditor = Auditor()
    with enabled(auditor):
        audited = {
            s: canonical_json(
                result_payload(
                    simulate(system, WORKLOAD, replace(PARAMS, scheduler=s))
                )
            )
            for s in SCHEDULERS
        }
    assert audited == plain
    assert plain["naive"] == plain["active"] == plain["compiled"]
    assert auditor.cycles_audited > 0
    assert auditor.proposals_checked > 0
    assert auditor.engines_attached == len(SCHEDULERS)
    assert not auditor.violations


def test_disabled_auditing_is_ambiently_off():
    """No enable, no auditor: the engine attaches none."""
    assert current() is None
    metrics = MetricsHub()
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    network = build_network(system, WORKLOAD, metrics, seed=1)
    engine = Engine()
    network.register(engine)
    engine.run(10)
    assert engine._auditor is None


def test_enabled_is_scoped():
    auditor = Auditor()
    with enabled(auditor) as handle:
        assert handle is auditor
        assert current() is auditor
    assert current() is None


@pytest.mark.parametrize("scheduler", ["naive", "active"])
def test_lost_dequeue_count_is_caught(monkeypatch, scheduler):
    """An off-by-one in the FIFO counters trips buffer-conservation.

    ``pop()`` forgetting ``flits_dequeued`` is exactly the class of
    accounting bug the per-cycle conservation check exists for; inject
    it and the audited run must die on the first affected cycle.  (The
    compiled datapath fuses its pops into direct deque operations, so
    this particular injection only reaches the object path; the
    compiled resolver gets its own injection below.)"""

    def broken_pop(self):
        if not self._flits:
            raise IndexError(f"buffer {self.name!r} underflow")
        return self._flits.popleft()  # flits_dequeued not incremented

    monkeypatch.setattr(FlitBuffer, "pop", broken_pop)
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    with enabled(Auditor()) as auditor:
        with pytest.raises(AuditError) as excinfo:
            simulate(system, WORKLOAD, replace(PARAMS, scheduler=scheduler))
    assert excinfo.value.invariant == "buffer-conservation"
    assert auditor.violations and auditor.violations[0] is excinfo.value


@pytest.mark.parametrize("scheduler", ["naive", "active"])
def test_disabled_resolver_is_caught(monkeypatch, scheduler):
    """A resolver that never revokes leaves overflowing survivors; the
    after-resolve fixed-point check must catch them before commit."""
    monkeypatch.setattr(Engine, "_resolve", lambda self: None)
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = replace(WORKLOAD, miss_rate=0.2, outstanding=8)
    with enabled(Auditor()):
        with pytest.raises(AuditError) as excinfo:
            simulate(system, workload, replace(PARAMS, scheduler=scheduler))
    assert excinfo.value.invariant == "resolve-fixed-point"


def test_disabled_compiled_resolver_is_caught(monkeypatch):
    """Same injection against the compiled datapath's integer resolver."""
    monkeypatch.setattr(Engine, "_resolve_compiled", lambda self: None)
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = replace(WORKLOAD, miss_rate=0.2, outstanding=8)
    with enabled(Auditor()):
        with pytest.raises(AuditError) as excinfo:
            simulate(system, workload, replace(PARAMS, scheduler="compiled"))
    assert excinfo.value.invariant == "resolve-fixed-point"


def test_over_revoking_resolver_is_caught(monkeypatch):
    """A resolver that revokes *everything* violates GFP maximality."""

    def revoke_all(self):
        for transfer in self._transfers:
            transfer.committed = False

    monkeypatch.setattr(Engine, "_resolve", revoke_all)
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    with enabled(Auditor()):
        with pytest.raises(AuditError) as excinfo:
            simulate(system, WORKLOAD, replace(PARAMS, scheduler="naive"))
    assert excinfo.value.invariant == "resolve-maximality"


def _contended_centre_router(scheduler):
    """3x3 mesh, centre router: heads waiting on inputs N and W both
    route East — a fresh round-robin decision on an unlocked output."""
    metrics = MetricsHub()
    system = MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)
    network = build_network(
        system, replace(WORKLOAD, miss_rate=1e-9), metrics, seed=1
    )
    engine = Engine(scheduler=scheduler)
    network.register(engine)
    router = network.routers[4]
    for in_key, source in (("N", 1), ("W", 3)):
        worm = Packet(
            PacketType.WRITE_REQUEST, source, 5, 4, transaction_id=1, issue_cycle=0
        )
        for flit in worm.flits:
            router.input_buffers[in_key].push(flit)
    return engine, router


@pytest.mark.parametrize("scheduler", ["naive", "compiled"])
def test_mesh_arbitration_holds_on_a_contended_output(scheduler):
    """Control for the injection below: untouched, the contended grant
    conforms (and the loser wins the next round) under both datapaths."""
    with enabled(Auditor()) as auditor:
        engine, router = _contended_centre_router(scheduler)
        engine.run(12)
    assert not auditor.violations
    assert auditor.proposals_checked > 0
    assert router.input_buffers["N"].is_empty and router.input_buffers["W"].is_empty


@pytest.mark.parametrize("scheduler", ["naive", "compiled"])
def test_skewed_round_robin_pointer_is_caught(monkeypatch, scheduler):
    """Who wins an output is audited, not only where the winner goes.

    Skew the East output's round-robin pointer between propose and the
    after-propose check: the grant actually made (input N, pointer 0)
    is no longer the one the pointer dictates (input W), and the audit
    must say so — under the object path and the compiled closure alike.
    """
    check_proposals = Auditor.check_proposals
    with enabled(Auditor()) as auditor:
        engine, router = _contended_centre_router(scheduler)

        def skew_then_check(self, engine):
            router._rr_pointer["E"] = INPUT_ORDER.index("E")
            check_proposals(self, engine)

        monkeypatch.setattr(Auditor, "check_proposals", skew_then_check)
        with pytest.raises(AuditError) as excinfo:
            engine.step()
    assert excinfo.value.invariant == "mesh-arbitration"
    assert "router4" in excinfo.value.detail and "output E" in excinfo.value.detail
    assert auditor.violations and auditor.violations[0] is excinfo.value


def test_quiescence_after_drain():
    """With generation cut, a bypass network drains to full quiescence
    (transaction lifecycle: every request got exactly one response)."""
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    metrics = MetricsHub()
    network = build_network(system, WORKLOAD, metrics, seed=9)
    engine = Engine(deadlock_threshold=3000)
    network.register(engine)
    auditor = Auditor()
    with enabled(auditor):
        engine.run(900)
        for pm in network.pms:
            pm.generation_enabled = False
        for _ in range(40):
            if auditor.quiescence_problem(engine) is None:
                break
            engine.run(100)
        auditor.check_quiescent(engine)
    assert metrics.remote_issued == metrics.remote_completed
    assert metrics.remote_issued > 0


def test_audit_error_carries_context():
    err = AuditError("buffer-capacity", 42, "too many flits")
    assert err.invariant == "buffer-capacity"
    assert err.cycle == 42
    assert "cycle 42" in str(err) and "buffer-capacity" in str(err)
