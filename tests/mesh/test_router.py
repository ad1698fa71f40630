"""Behavioural tests for the 5x5 mesh crossbar router."""

import pytest

from repro.core.config import MeshSystemConfig, WorkloadConfig
from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.core.packet import Packet, PacketType
from repro.core.pm import MetricsHub
from repro.mesh.network import MeshNetwork
from repro.mesh.router import INPUT_ORDER, MeshRouter


def packet(dst, ptype=PacketType.WRITE_REQUEST, size=4, src=0):
    return Packet(ptype, src, dst, size, transaction_id=1, issue_cycle=0)


def build(side=3, buffer_flits=4, cache_line=32, scheduler="compiled"):
    config = MeshSystemConfig(
        side=side, cache_line_bytes=cache_line, buffer_flits=buffer_flits
    )
    network = MeshNetwork(config, WorkloadConfig(miss_rate=1e-9), MetricsHub())
    engine = Engine(scheduler=scheduler)
    network.register(engine)
    return network, engine


class BothDatapaths:
    """Mixin: the cases of a class run against ``self.scheduler``.

    Each behavioural class below runs under ``compiled`` (the
    finalize-built propose closure) and is subclassed once as
    ``...Naive`` to run the very same cases against the object-path
    ``propose()`` — the oracle the closure must match.  Subclassing,
    rather than parametrizing ``build``, keeps the original test ids.
    """

    scheduler = "compiled"

    def build(self, *args, **kwargs):
        return build(*args, scheduler=self.scheduler, **kwargs)


class TestWiring:
    def test_corner_router_outputs(self):
        network, __ = build(3)
        assert set(network.routers[0].connected_outputs) == {"E", "S", "L"}
        assert set(network.routers[4].connected_outputs) == {"N", "E", "S", "W", "L"}

    def test_channel_count(self):
        network, __ = build(3)
        assert len(network.channels) == 24

    def test_send_lands_in_opposite_buffer(self):
        network, engine = build(3)
        router = network.routers[0]
        incoming = packet(dst=2)  # routed East from node 0
        for flit in incoming.flits:
            router.input_buffers["W"].push(flit)  # pretend it came from the West edge
        engine.step()
        neighbor = network.routers[1]
        assert neighbor.input_buffers["W"].occupancy == 1


class TestOutputLocking(BothDatapaths):
    def test_output_held_until_tail(self):
        network, engine = self.build(3)
        router = network.routers[0]
        first = packet(dst=2, src=6)
        second = packet(dst=1, src=0, size=4)
        for flit in first.flits:
            router.input_buffers["S"].push(flit)
        engine.step()  # S wins output E (routes 0->1->2 East)
        assert router._output_lock["E"] == "S"
        # A local packet also wanting East must wait for the tail.
        pm = network.pms[0]
        for flit in second.flits:
            pm.out_req.push(flit)
        for _ in range(3):
            engine.step()
        assert router._output_lock["E"] is None  # tail passed, lock released
        assert pm.out_req.occupancy in (3, 4)  # local packet at most now starting

    def test_interleaving_never_happens(self):
        """Downstream West buffer receives the two packets contiguously."""
        network, engine = self.build(3, buffer_flits=8)
        router = network.routers[0]
        pm = network.pms[0]
        a = packet(dst=2, src=6)
        b = packet(dst=2, src=0)
        for flit in a.flits:
            router.input_buffers["S"].push(flit)
        for flit in b.flits:
            pm.out_req.push(flit)
        seen = []
        neighbor = network.routers[1]
        for _ in range(20):
            engine.step()
            while not neighbor.input_buffers["W"].is_empty:
                seen.append(neighbor.input_buffers["W"].pop())
        order = [flit.packet.packet_id for flit in seen]
        # Contiguous blocks: once a packet id stops, it never reappears.
        blocks = [order[0]]
        for pid in order[1:]:
            if pid != blocks[-1]:
                blocks.append(pid)
        assert len(blocks) == len(set(blocks))
        assert len(seen) == 8


class TestRoundRobinArbitration(BothDatapaths):
    def test_pointer_advances_after_grant(self):
        network, engine = self.build(3)
        router = network.routers[4]  # center node
        a = packet(dst=5, src=3)  # arrives from W, heads E
        b = packet(dst=5, src=1)  # arrives from N... also heads E
        for flit in a.flits:
            router.input_buffers["W"].push(flit)
        for flit in b.flits:
            router.input_buffers["N"].push(flit)
        engine.step()
        first_winner = router._output_lock["E"]
        assert first_winner in ("N", "W")
        # Drain the first packet fully, then the other input must win.
        for _ in range(10):
            engine.step()
        assert router.input_buffers["N"].is_empty
        assert router.input_buffers["W"].is_empty

    def test_rr_pointer_moves_past_winner(self):
        network, engine = self.build(3)
        router = network.routers[4]
        flit_packet = packet(dst=5, src=3, size=1)
        router.input_buffers["W"].push(flit_packet.head)
        engine.step()
        expected = (INPUT_ORDER.index("W") + 1) % len(INPUT_ORDER)
        assert router._rr_pointer["E"] == expected


class TestEjection(BothDatapaths):
    def test_packet_for_local_pm_ejects(self):
        network, engine = self.build(3)
        router = network.routers[4]
        incoming = packet(dst=4, src=0)
        for flit in incoming.flits:
            router.input_buffers["W"].push(flit)
        engine.run(6)
        # Memory absorbed it: the request is in service.
        assert network.pms[4].memory.in_service == 1

    def test_response_priority_at_injection(self):
        network, engine = self.build(3)
        pm = network.pms[0]
        request = packet(dst=2, src=0, ptype=PacketType.READ_REQUEST, size=4)
        response = packet(dst=2, src=0, ptype=PacketType.READ_RESPONSE, size=4)
        for flit in request.flits:
            pm.out_req.push(flit)
        for flit in response.flits:
            pm.out_resp.push(flit)
        engine.step()
        assert pm.out_resp.occupancy == 3  # response started first
        assert pm.out_req.occupancy == 4


class TestOneFlitBuffers(BothDatapaths):
    def test_pipeline_through_single_slot_buffers(self):
        network, engine = self.build(3, buffer_flits=1)
        router = network.routers[0]
        incoming = packet(dst=2, src=6)
        router.input_buffers["S"].push(incoming.flits[0])
        moved = []
        for cycle in range(12):
            engine.step()
            if len(moved) < len(incoming.flits) - 1 and router.input_buffers["S"].is_empty:
                nxt = incoming.flits[len(moved) + 1]
                router.input_buffers["S"].push(nxt)
                moved.append(nxt)
        assert network.pms[2].memory.in_service == 1


class TestErrorPaths(BothDatapaths):
    def test_idle_input_with_body_flit_rejected(self):
        network, engine = self.build(3)
        router = network.routers[0]
        body = packet(dst=2, src=6).flits[2]
        router.input_buffers["S"].push(body)
        with pytest.raises(SimulationError):
            engine.step()

    def test_idle_local_port_with_body_flit_rejected(self):
        network, engine = self.build(3)
        network.pms[0].out_req.push(packet(dst=2, src=0).flits[1])
        with pytest.raises(SimulationError, match="idle local port"):
            engine.step()

    def test_output_locked_to_input_with_no_active_buffer_rejected(self):
        network, engine = self.build(3)
        router = network.routers[0]
        engine.step()  # finalize while idle, so `compiled` installs the closure
        router._output_lock["E"] = "S"
        router._input_route["S"] = "E"
        # The idle router was swept to sleep; state poked from outside
        # the clock loop needs the explicit wake (a no-op under naive).
        engine.wake(router)
        with pytest.raises(SimulationError, match="locked to idle input"):
            engine.step()

    def test_unknown_direction_connect(self):
        network, __ = self.build(2)
        with pytest.raises(KeyError):
            network.routers[0].input_buffers["X"]


# The same cases against the object-path oracle.
class TestOutputLockingNaive(TestOutputLocking):
    scheduler = "naive"


class TestRoundRobinArbitrationNaive(TestRoundRobinArbitration):
    scheduler = "naive"


class TestEjectionNaive(TestEjection):
    scheduler = "naive"


class TestOneFlitBuffersNaive(TestOneFlitBuffers):
    scheduler = "naive"


class TestErrorPathsNaive(TestErrorPaths):
    scheduler = "naive"


class TestCompiledHandler:
    def test_idle_router_gets_a_closure(self):
        network, engine = build(3)
        engine.step()
        assert callable(network.routers[4].compiled_propose_handler(engine))

    def test_mid_packet_router_falls_back_and_still_routes(self):
        """A router holding a crossbar lock when a second engine
        finalizes it keeps the object path there (its pinned source was
        registered with the first engine) and still finishes the packet."""
        network, first = build(3)
        router = network.routers[0]
        for flit in packet(dst=2, src=6).flits:
            router.input_buffers["S"].push(flit)
        first.step()  # head crosses: output E is now locked to input S
        assert router._output_lock["E"] == "S"

        second = Engine(scheduler="compiled")
        network.register(second)
        second.step()
        assert router.compiled_propose_handler(second) is None
        assert callable(network.routers[4].compiled_propose_handler(second))
        second.run(12)
        assert router._output_lock["E"] is None
        assert router.input_buffers["S"].is_empty
        assert network.pms[2].memory.in_service == 1
