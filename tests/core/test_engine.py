"""Unit tests for the cycle engine and its flow-control resolver.

Built around toy ``Pipe`` components so resolver behaviour (greatest
fixed point, two-phase commit, clock domains, watchdog) is tested in
isolation from the real networks.
"""

import pytest

from repro.core.buffers import FlitBuffer
from repro.core.channel import Channel
from repro.core.engine import Component, Engine
from repro.core.errors import DeadlockError, SimulationError
from repro.core.packet import Packet, PacketType


def fresh_flits(n):
    return list(Packet(PacketType.READ_RESPONSE, 0, 1, n, 0, 0).flits)


class Pipe(Component):
    """Proposes moving the head flit of ``source`` into ``dest``."""

    def __init__(self, source, dest, channel=None, speed=1):
        self.source = source
        self.dest = dest
        self.channel = channel
        self.speed = speed
        self.commits = 0
        self.propose_calls = 0

    def propose(self, engine):
        self.propose_calls += 1
        flit = self.source.peek()
        if flit is not None:
            engine.propose(flit, self.source, self.dest, self.channel, self)

    def on_transfer_commit(self, transfer, engine):
        self.commits += 1


class Counter(Component):
    def __init__(self):
        self.updates = 0

    def update(self, engine):
        self.updates += 1


def buffers(*capacities):
    return [FlitBuffer(f"b{i}", capacity=c) for i, c in enumerate(capacities)]


class TestPipelineAdvance:
    def test_chain_advances_through_draining_buffer(self):
        """A full buffer that drains this cycle accepts a flit this cycle."""
        a, b, c = buffers(1, 1, 1)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        b.push(f2)
        engine = Engine()
        engine.add_components([Pipe(a, b), Pipe(b, c)])
        engine.step()
        assert a.is_empty
        assert b.peek() is f1
        assert c.peek() is f2

    def test_blocked_by_full_nondraining_buffer(self):
        a, b = buffers(1, 1)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        b.push(f2)  # b never drains: no pipe out of b
        engine = Engine()
        engine.add_component(Pipe(a, b))
        engine.step()
        assert a.peek() is f1  # revoked
        assert b.occupancy == 1

    def test_cascading_revocation(self):
        a, b, c = buffers(1, 1, 1)
        f1, f2, f3 = fresh_flits(3)
        a.push(f1)
        b.push(f2)
        c.push(f3)  # c full, never drains
        engine = Engine()
        engine.add_components([Pipe(a, b), Pipe(b, c)])
        engine.step()
        assert a.peek() is f1 and b.peek() is f2 and c.peek() is f3

    def test_unbounded_sink_always_accepts(self):
        a, = buffers(1)
        sink = FlitBuffer("sink", capacity=None)
        (f1,) = fresh_flits(1)
        a.push(f1)
        engine = Engine()
        engine.add_component(Pipe(a, sink))
        engine.step()
        assert sink.peek() is f1


class TestRingRotation:
    def test_full_ring_rotates(self):
        """The greatest fixed point lets a completely full cycle rotate.

        Three single-slot buffers in a loop, all full: a conservative
        resolver would deadlock; hardware (and this engine) shifts all
        three flits simultaneously.
        """
        ring = buffers(1, 1, 1)
        flits = fresh_flits(3)
        for buf, flit in zip(ring, flits):
            buf.push(flit)
        engine = Engine()
        for i in range(3):
            engine.add_component(Pipe(ring[i], ring[(i + 1) % 3]))
        engine.step()
        for i in range(3):
            assert ring[(i + 1) % 3].peek() is flits[i]
        engine.step()
        for i in range(3):
            assert ring[(i + 2) % 3].peek() is flits[i]

    def test_partial_ring_rotates(self):
        ring = buffers(1, 1, 1)
        f1, f2 = fresh_flits(2)
        ring[0].push(f1)
        ring[1].push(f2)
        engine = Engine()
        for i in range(3):
            engine.add_component(Pipe(ring[i], ring[(i + 1) % 3]))
        engine.step()
        assert ring[1].peek() is f1
        assert ring[2].peek() is f2
        assert ring[0].is_empty


class TestConservativeFlowControl:
    """The occupancy-at-cycle-start ablation (flow_control="conservative")."""

    def test_full_ring_cannot_rotate(self):
        ring = buffers(1, 1, 1)
        for buf, flit in zip(ring, fresh_flits(3)):
            buf.push(flit)
        engine = Engine(flow_control="conservative")
        for i in range(3):
            engine.add_component(Pipe(ring[i], ring[(i + 1) % 3]))
        heads = [buf.peek() for buf in ring]
        engine.step()
        assert [buf.peek() for buf in ring] == heads  # wedged

    def test_draining_buffer_not_entered_same_cycle(self):
        a, b, c = buffers(1, 1, 1)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        b.push(f2)
        engine = Engine(flow_control="conservative")
        engine.add_components([Pipe(a, b), Pipe(b, c)])
        engine.step()
        # b drained to c, but a could not enter b in the same cycle.
        assert a.peek() is f1
        assert b.is_empty
        assert c.peek() is f2
        engine.step()
        assert b.peek() is f1  # catches up one cycle later

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            Engine(flow_control="psychic")


class TestSchedulerNames:
    def test_kernel_tier_name_steps_compiled(self):
        """Callers that hand ``params.scheduler`` straight to an Engine
        (the benchmark's traced run) now hand it the default, the
        kernel tier's name: the engine that tier falls back to runs."""
        a, b = buffers(1, 1)
        (f1,) = fresh_flits(1)
        a.push(f1)
        engine = Engine(scheduler="columnar")
        assert engine.scheduler == "compiled"
        engine.add_component(Pipe(a, b))
        engine.step()
        assert b.peek() is f1

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            Engine(scheduler="batched")


@pytest.mark.parametrize("scheduler", ("compiled", "active", "naive"))
class TestProposalValidation:
    """The structural proposal checks hold under every scheduler.

    The compiled scheduler routes generic components through a
    compatibility shim that re-implements these checks inline over its
    index rows; parametrizing keeps the shim in lockstep with the
    object path.
    """

    def test_non_head_flit_rejected(self, scheduler):
        a, b = buffers(2, 2)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        a.push(f2)

        class BadPipe(Pipe):
            def propose(self, engine):
                engine.propose(f2, a, b, None, self)  # not the head

        engine = Engine(scheduler=scheduler)
        engine.add_component(BadPipe(a, b))
        with pytest.raises(SimulationError):
            engine.step()

    def test_two_writers_to_bounded_buffer_rejected(self, scheduler):
        a, b, c = buffers(1, 1, 2)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        b.push(f2)
        engine = Engine(scheduler=scheduler)
        engine.add_components([Pipe(a, c), Pipe(b, c)])
        with pytest.raises(SimulationError):
            engine.step()

    def test_two_readers_of_buffer_rejected(self, scheduler):
        a, b, c = buffers(1, 2, 2)
        (f1,) = fresh_flits(1)
        a.push(f1)
        engine = Engine(scheduler=scheduler)
        engine.add_components([Pipe(a, b), Pipe(a, c)])
        with pytest.raises(SimulationError):
            engine.step()

    def test_add_component_after_start_rejected(self, scheduler):
        engine = Engine(scheduler=scheduler)
        engine.add_component(Counter())
        engine.step()
        with pytest.raises(SimulationError):
            engine.add_component(Counter())


class TestCompiledShimValidation:
    def test_foreign_owner_rejected(self):
        """The compiled shim indexes commit handlers by the owner's
        registration index; a proposal owned by a component this engine
        never registered must raise, not index some other component's
        handler (the object path simply never calls back into a foreign
        owner, so only the compiled scheduler needs this check)."""
        a, b = buffers(1, 1)
        (f1,) = fresh_flits(1)
        a.push(f1)
        stranger = Pipe(a, b)  # never added to any engine

        class Delegator(Component):
            def propose(self, engine):
                flit = a.peek()
                if flit is not None:
                    engine.propose(flit, a, b, None, stranger)

        engine = Engine(scheduler="compiled")
        engine.add_component(Delegator())
        with pytest.raises(SimulationError):
            engine.step()


class TestCompiledObjectReuse:
    """Buffers and channels carry dense ids stamped by whichever compiled
    engine saw them last; a fresh engine must detect the stale ids (the
    identity check in the propose shim) and re-register rather than
    trust them."""

    def test_buffers_reused_across_engines(self):
        a, b, c = buffers(1, 1, 1)
        (f1,) = fresh_flits(1)
        a.push(f1)
        engine1 = Engine()
        engine1.add_components([Pipe(a, b), Pipe(b, c)])
        engine1.step()  # stamps dense ids owned by engine1
        assert b.peek() is f1
        # New engine, same buffers, different wiring: every stale id
        # must fail the identity check and be reassigned.
        engine2 = Engine()
        engine2.add_components([Pipe(b, c), Pipe(c, a)])
        engine2.step()
        assert c.peek() is f1
        engine2.step()
        assert a.peek() is f1

    def test_channel_reused_across_engines(self):
        a, b = buffers(1, 1)
        (f1,) = fresh_flits(1)
        a.push(f1)
        channel = Channel("ch", "test")
        engine1 = Engine()
        engine1.add_component(Pipe(a, b, channel=channel))
        engine1.step()
        assert channel.flits_carried == 1
        engine2 = Engine()
        engine2.add_component(Pipe(b, a, channel=channel))
        engine2.step()
        assert a.peek() is f1
        assert channel.flits_carried == 2


class TestWatchdog:
    def test_deadlock_detected(self):
        a, b = buffers(1, 1)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        b.push(f2)
        engine = Engine(deadlock_threshold=5)
        engine.add_component(Pipe(a, b))
        with pytest.raises(DeadlockError) as excinfo:
            engine.run(100)
        assert excinfo.value.stalled_cycles == 5

    def test_progress_resets_watchdog(self):
        a = FlitBuffer("a", capacity=1)
        sink = FlitBuffer("sink", capacity=None)
        engine = Engine(deadlock_threshold=3)

        class Feeder(Component):
            def __init__(self):
                self.supply = iter(fresh_flits(50))

            def update(self, engine):
                if a.is_empty:
                    a.push(next(self.supply))

        engine.add_components([Pipe(a, sink), Feeder()])
        engine.run(40)  # every cycle commits; watchdog never fires
        assert sink.occupancy > 30

    def test_idle_engine_never_deadlocks(self):
        engine = Engine(deadlock_threshold=2)
        engine.add_component(Counter())
        engine.run(50)  # no proposals at all -> no deadlock

    @pytest.mark.parametrize("scheduler", ("compiled", "active", "naive"))
    def test_threshold_counts_base_cycles_not_subcycles(self, scheduler):
        """A double-speed wedge stalls once per *base* cycle.

        A speed-2 component proposes (and fails to commit) in both
        subcycles of every base cycle; a watchdog that counted
        per-subcycle would fire after 5 base cycles.  The threshold is
        documented as base (PM) clock cycles, so the error must arrive
        at base cycle 10 with exactly 10 stalled cycles — under every
        scheduler.
        """
        a, b = buffers(1, 1)
        f1, f2 = fresh_flits(2)
        a.push(f1)
        b.push(f2)
        engine = Engine(deadlock_threshold=10, scheduler=scheduler)
        engine.add_component(Pipe(a, b, speed=2))
        with pytest.raises(DeadlockError) as excinfo:
            engine.run(100)
        assert excinfo.value.stalled_cycles == 10
        assert excinfo.value.cycle == 10


class TestClockDomains:
    def test_fast_component_proposes_twice_per_cycle(self):
        a = FlitBuffer("a", capacity=None)
        sink = FlitBuffer("sink", capacity=None)
        for flit in fresh_flits(10):
            a.push(flit)
        fast = Pipe(a, sink, speed=2)
        slow_src = FlitBuffer("s", capacity=None)
        for flit in fresh_flits(10):
            slow_src.push(flit)
        slow = Pipe(slow_src, FlitBuffer("sink2", capacity=None), speed=1)
        engine = Engine()
        engine.add_components([fast, slow])
        engine.run(3)
        assert fast.propose_calls == 6
        assert slow.propose_calls == 3
        assert sink.occupancy == 6

    def test_single_domain_has_one_subcycle(self):
        a = FlitBuffer("a", capacity=None)
        for flit in fresh_flits(5):
            a.push(flit)
        pipe = Pipe(a, FlitBuffer("sink", capacity=None), speed=1)
        engine = Engine()
        engine.add_component(pipe)
        engine.run(2)
        assert pipe.propose_calls == 2

    def test_unsupported_speed_rejected(self):
        pipe = Pipe(FlitBuffer("a", 1), FlitBuffer("b", 1))
        pipe.speed = 3
        engine = Engine()
        engine.add_component(pipe)
        with pytest.raises(SimulationError):
            engine.step()


class TestUpdatePhase:
    def test_update_called_once_per_cycle(self):
        counter = Counter()
        engine = Engine()
        engine.add_component(counter)
        engine.run(7)
        assert counter.updates == 7
        assert engine.cycle == 7

    def test_channel_counted_on_commit_only(self):
        a, b = buffers(1, 1)
        (f1,) = fresh_flits(1)
        a.push(f1)
        channel = Channel("ch", "test")
        blocked = FlitBuffer("blocked", capacity=1)
        blocked.push(fresh_flits(1)[0])
        engine = Engine()
        engine.add_components([Pipe(a, b, channel=channel), Pipe(b, blocked)])
        engine.step()  # a->b commits (b drains? no: b empty) ; b empty so only a->b
        assert channel.flits_carried == 1
