"""The cross-scheduler differential fuzzer: deterministic, and able to
shrink an injected bug down to a replayable minimal reproducer."""

import json

import pytest

from repro.audit.fuzz import (
    FuzzCase,
    random_case,
    replay,
    run_case,
    run_fuzz,
    shrink,
    static_spec_problem,
)
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.engine import Engine

import random


def test_case_stream_is_deterministic():
    a = [random_case(random.Random(123)).describe() for _ in range(10)]
    b = [random_case(random.Random(123)).describe() for _ in range(10)]
    assert a == b


def test_case_payload_round_trips():
    rng = random.Random(7)
    for _ in range(20):
        case = random_case(rng)
        clone = FuzzCase.from_payload(json.loads(json.dumps(case.payload())))
        assert clone == case


def test_generated_configs_validate():
    rng = random.Random(99)
    for _ in range(50):
        case = random_case(rng)
        case.system.validate()
        case.workload.validate()
        case.params.validate()


def test_small_campaign_is_clean(tmp_path):
    """A short seeded campaign finds no divergence on the real kernel
    (the lifecycle drain pass included)."""
    failures = run_fuzz(cases=3, seed=2, out_dir=tmp_path, log=lambda _m: None)
    assert failures == 0
    assert not list(tmp_path.iterdir())  # no reproducers written


def test_injected_bug_is_found_shrunk_and_replayable(tmp_path, monkeypatch):
    """End-to-end: a datapath bug (resolver never revokes, object path
    only) makes the audited fuzz fail, shrink to a minimal case, and
    write a reproducer that replays to the same failure."""
    monkeypatch.setattr(Engine, "_resolve", lambda self: None)
    logs = []
    failures = run_fuzz(
        cases=2, seed=0, out_dir=tmp_path, log=logs.append, lifecycle=False
    )
    assert failures >= 1
    reproducers = sorted(tmp_path.glob("repro-*.json"))
    assert reproducers
    payload = json.loads(reproducers[0].read_text())
    assert payload["kind"] in ("violation", "divergence")
    shrunk = FuzzCase.from_payload(payload["case"])
    # The shrinker drove the schedule axes to their floors.
    assert shrunk.params.batches == 2
    assert shrunk.params.batch_cycles <= 100
    assert shrunk.system.cache_line_bytes == 16
    # And the reproducer still reproduces under replay.
    result = replay(reproducers[0], log=lambda _m: None)
    assert result.failed
    assert result.kind == payload["kind"]


def test_shrink_rejects_passing_case():
    case = FuzzCase(
        system=RingSystemConfig(topology="2:2", cache_line_bytes=16),
        workload=WorkloadConfig(miss_rate=0.05, outstanding=2),
        params=SimulationParams(
            batch_cycles=100, batches=2, seed=1, deadlock_threshold=3000
        ),
    )
    with pytest.raises(ValueError):
        shrink(case)


def test_run_case_accepts_consistent_errors(monkeypatch):
    """If every scheduler raises the *same* error the case passes —
    differential testing compares behavior, it does not require
    success."""
    from repro.core.errors import SimulationError

    def explode(self, *args, **kwargs):
        raise SimulationError("synthetic failure")

    monkeypatch.setattr(Engine, "run", explode)
    case = FuzzCase(
        system=MeshSystemConfig(side=2, cache_line_bytes=16, buffer_flits=1),
        workload=WorkloadConfig(miss_rate=0.05, outstanding=1),
        params=SimulationParams(
            batch_cycles=60, batches=2, seed=3, deadlock_threshold=3000
        ),
    )
    result = run_case(case, lifecycle=False)
    assert not result.failed

def test_generated_topologies_pass_the_spec_gate():
    """Every topology the generator emits is certified deadlock-free by
    the CDG prover, so the gate never wastes a fuzz case."""
    rng = random.Random(11)
    for _ in range(30):
        assert static_spec_problem(random_case(rng)) is None


def test_run_case_fails_fast_on_spec_rejection(monkeypatch):
    """A topology the prover rejects fails the case *before* any
    simulation runs."""
    import repro.audit.fuzz as fuzz_module

    def reject(case):
        return "synthetic spec rejection"

    def no_simulation(case, scheduler):
        raise AssertionError("simulation must not run on a rejected spec")

    monkeypatch.setattr(fuzz_module, "static_spec_problem", reject)
    monkeypatch.setattr(fuzz_module, "_run_one", no_simulation)
    case = random_case(random.Random(5))
    result = run_case(case, lifecycle=True)
    assert result.failed
    assert result.kind == "spec"
    assert "synthetic spec rejection" in result.detail


def _kernel_case(switching):
    return FuzzCase(
        RingSystemConfig(topology="2:3", cache_line_bytes=32, switching=switching),
        WorkloadConfig(miss_rate=0.05, outstanding=2),
        SimulationParams(batch_cycles=150, batches=3, seed=11, deadlock_threshold=3000),
    )


def test_kernel_pass_skips_what_the_kernel_cannot_run(monkeypatch):
    """``include_columnar`` compares a case with the C kernel only where
    the kernel runs it (the tier's own rule): never a slotted ring, and
    nothing at all on a host without a kernel."""
    from repro.core import ckernel

    slotted = run_case(_kernel_case("slotted"), include_columnar=True)
    assert not slotted.failed and not slotted.kernel_compared
    wormhole = run_case(_kernel_case("wormhole"), include_columnar=True)
    assert not wormhole.failed
    assert wormhole.kernel_compared == ckernel.available()
    assert not run_case(_kernel_case("wormhole")).kernel_compared
    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    off = run_case(_kernel_case("wormhole"), include_columnar=True)
    assert not off.failed and not off.kernel_compared


def test_kernel_pass_holds_the_plan_to_the_network_walk(monkeypatch):
    """Every case compared with the kernel first has its topology plan
    — the tables the kernel is about to run on — held to a walk of the
    object network; a plan that mis-wires fails the case by name."""
    from repro.audit import fuzz as fuzz_module
    from repro.audit.plan_check import plan_problem
    from repro.core import ckernel
    from repro.ring.topology import ring_members

    if not ckernel.available():
        pytest.skip("no C kernel on this host")
    checked = []

    def spy(system, workload):
        checked.append(system)
        return plan_problem(system, workload)

    monkeypatch.setattr(fuzz_module, "plan_problem", spy)
    case = _kernel_case("wormhole")
    assert not run_case(case, include_columnar=True).failed
    assert checked == [case.system]
    run_case(_kernel_case("slotted"), include_columnar=True)
    assert checked == [case.system]  # no kernel run, no tables to vet

    # the plan sends every ring round the other way
    monkeypatch.setattr(
        "repro.core.plan.ring_members",
        lambda spec, prefix: ring_members(spec, prefix)[::-1],
    )
    broken = run_case(case, include_columnar=True)
    assert broken.kind == "columnar" and broken.kernel_compared
    assert broken.detail.startswith("topology plan: plan.routes differs")


def test_kernel_comparison_that_never_sampled_is_a_failure():
    """The materialization audit rides on ``cycle_hook``, which a run
    that fell back to ``compiled`` never calls: a comparison whose run
    finished unsampled did not look at the kernel, and says so."""
    from repro import audit
    from repro.audit import fuzz as fuzz_module
    from repro.core import ckernel

    if not ckernel.available():
        pytest.skip("no C kernel on this host")
    case = _kernel_case("wormhole")
    baseline = fuzz_module._run_one(case, "compiled")
    assert fuzz_module._columnar_problem(case, baseline) is None
    with audit.enabled(audit.Auditor()):  # routes the run off the kernel
        problem = fuzz_module._columnar_problem(case, baseline)
    assert "no cycle sampled" in problem


def test_kernel_campaign_that_compared_nothing_fails(tmp_path, monkeypatch):
    """Asked to vet the kernel on a host that has none, a campaign whose
    every case passed still fails — it vetted nothing."""
    lines = []
    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    failures = run_fuzz(
        cases=2, seed=2, out_dir=tmp_path, log=lines.append, include_columnar=True
    )
    assert failures == 1
    assert "columnar: 0 case(s) compared with the C kernel" in lines
    assert not list(tmp_path.iterdir())  # no case failed: no reproducer
    assert run_fuzz(cases=2, seed=2, out_dir=tmp_path, log=lines.append) == 0
