"""Paired-campaign gate and sampled materialization audit.

Two checks ride on running kernel-tier campaigns (see
``repro/audit/stat_equiv.py``): paired columnar-vs-baseline points
gated on byte-equal per-seed payloads (the cross-seed confidence
intervals they imply are still reported), and a sampled audit that
rebuilds one replica's columns as object-model buffers and packets and
re-checks the object layer's invariants against them.  Both must be
**sensitive** — a corrupted column or a differing payload must fail
loudly — and **quiet** on a healthy engine.
"""

import math

import pytest

from repro.audit.invariants import AuditError
from repro.audit.stat_equiv import (
    FLIT_RATIO_BAND,
    Interval,
    PairedReport,
    SamplingAuditor,
    audit_replica,
    cross_seed_interval,
    materialize_replica,
    paired_point,
    paper_points,
    run_campaign,
)
from repro.core import ckernel
from repro.core.buffers import FlitBuffer
from repro.core.columnar import ColumnarEngine, simulate_columnar
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.packet import Packet

PARAMS = SimulationParams(batch_cycles=300, batches=3, seed=3)
WORKLOAD = WorkloadConfig(locality=0.9, miss_rate=0.04, outstanding=4)
RING = RingSystemConfig(topology="2:4", cache_line_bytes=32)
MESH = MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)


def run_engine(system, cycles=400, seeds=(3, 4)):
    engine = ColumnarEngine(system, WORKLOAD.validate(), PARAMS.validate(), seeds)
    engine.run(cycles)
    return engine


class TestInterval:
    def test_overlap_geometry(self):
        a = Interval(mean=10.0, half_width=2.0, n=8)
        b = Interval(mean=13.0, half_width=1.5, n=8)   # [11.5, 14.5] vs [8, 12]
        c = Interval(mean=20.0, half_width=1.0, n=8)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)
        # Touching endpoints count as overlap (conservative gate).
        d = Interval(mean=14.0, half_width=2.0, n=8)   # lo == a.hi
        assert a.overlaps(d)

    def test_cross_seed_interval_basic(self):
        iv = cross_seed_interval([10.0, 12.0, 14.0, 16.0])
        assert iv.n == 4
        assert iv.mean == 13.0
        assert 0 < iv.half_width < math.inf
        assert iv.lo < 13.0 < iv.hi

    def test_nan_values_filtered(self):
        with_nan = cross_seed_interval([10.0, math.nan, 14.0, math.nan])
        clean = cross_seed_interval([10.0, 14.0])
        assert with_nan == clean
        assert with_nan.n == 2

    def test_degenerate_samples_are_unbounded(self):
        empty = cross_seed_interval([])
        assert empty.n == 0
        assert math.isnan(empty.mean)
        assert empty.half_width == math.inf
        single = cross_seed_interval([7.0])
        assert single.n == 1
        assert single.mean == 7.0
        assert single.half_width == math.inf
        # Unbounded intervals overlap everything: a one-seed campaign
        # can never report a spurious DISJOINT.
        assert single.overlaps(Interval(mean=1e9, half_width=0.0, n=8))


class TestPairedCampaign:
    def test_paired_point_passes_on_a_real_point(self):
        report = paired_point("ring-2level", RING, WORKLOAD, PARAMS, seeds=(3, 4, 5, 6))
        assert report.passed, report.describe()
        assert set(report.intervals) == {"latency", "throughput"}
        lo, hi = FLIT_RATIO_BAND
        assert lo <= report.flit_ratio <= hi
        assert "PASS" in report.describe()
        # the exact check, and what it implies
        assert report.mismatched == ()
        assert report.flit_ratio == 1.0
        assert all(col == base for col, base in report.intervals.values())
        assert "4/4 seeds byte-identical" in report.describe()

    def test_a_differing_payload_fails_the_point(self, monkeypatch):
        """Sensitivity of the exact check: nudge one columnar replica by
        a single flit — far inside every statistical gate."""
        from dataclasses import replace

        from repro.core import columnar

        real = columnar.simulate_columnar

        def nudged(*args, **kwargs):
            results = real(*args, **kwargs)
            results[1] = replace(results[1], flits_moved=results[1].flits_moved + 1)
            return results

        monkeypatch.setattr(columnar, "simulate_columnar", nudged)
        report = paired_point("ring-2level", RING, WORKLOAD, PARAMS, seeds=(3, 4, 5))
        assert not report.passed
        assert report.mismatched == (4,)
        assert "seeds [4] differ" in report.describe()

    def test_batched_baseline_is_accepted(self):
        report = paired_point(
            "mesh", MESH, WORKLOAD, PARAMS, seeds=(3, 4, 5), baseline="batched"
        )
        assert report.passed, report.describe()

    def test_failures_flip_the_verdict(self):
        disjoint = (
            Interval(mean=10.0, half_width=0.5, n=8),
            Interval(mean=20.0, half_width=0.5, n=8),
        )
        report = PairedReport(
            name="synthetic",
            seeds=(1, 2),
            intervals={"latency": disjoint},
            flit_ratio=1.0,
            failures=("latency: disjoint 95% CIs",),
        )
        assert not report.passed
        text = report.describe()
        assert "FAIL" in text and "DISJOINT" in text

    def test_paper_points_cover_both_families(self):
        points = paper_points()
        names = [name for name, _ in points]
        assert len(names) == len(set(names))
        assert any(isinstance(s, RingSystemConfig) for _, s in points)
        assert any(isinstance(s, MeshSystemConfig) for _, s in points)

    def test_run_campaign_custom_point(self):
        logged = []
        reports = run_campaign(
            points=[("ring-1level", RingSystemConfig(topology="8", cache_line_bytes=32))],
            workload=WORKLOAD,
            params=PARAMS,
            seeds=(3, 4, 5),
            log=logged.append,
        )
        assert len(reports) == 1
        assert reports[0].passed, reports[0].describe()
        assert logged  # progress was reported


@pytest.mark.skipif(not ckernel.available(), reason="no C kernel: no columns to audit")
class TestMaterialization:
    @pytest.mark.parametrize("system", [RING, MESH], ids=["ring", "mesh"])
    def test_audit_replica_clean_on_live_engine(self, system):
        engine = run_engine(system)
        for replica in range(engine.replicas):
            assert audit_replica(engine, replica) == []

    def test_materialize_rebuilds_object_vocabulary(self):
        engine = run_engine(RING)
        mat = materialize_replica(engine, 0)
        assert mat.replica == 0
        assert mat.cycle == engine.cycle
        assert set(mat.buffers) == set(engine.buffer_names)
        assert all(isinstance(fb, FlitBuffer) for fb in mat.buffers.values())
        assert all(isinstance(p, Packet) for p in mat.packets.values())
        # Buffer content mirrors the occupancy columns exactly.
        base = 0 * engine.buffers_per_replica
        for t, name in enumerate(engine.buffer_names):
            assert len(mat.buffers[name]) == int(engine._occ[base + t])
            assert mat.buffers[name].conservation_delta() == 0

    def test_audit_detects_corrupted_occupancy(self):
        """Sensitivity: bumping one occupancy column breaks the
        whole-engine flit-conservation check (and likely a local one)."""
        engine = run_engine(RING)
        # Find a non-sink buffer of replica 0 and inflate its occupancy.
        for t in range(engine.buffers_per_replica):
            if not engine._is_sink[t] and engine._t_caps[t] > engine._occ[t]:
                engine._occ[t] += 1
                break
        else:
            pytest.fail("no corruptible buffer found")
        problems = audit_replica(engine, 0)
        assert problems
        assert any("flit" in p or "conservation" in p or "net" in p for p in problems)

    def test_audit_detects_sink_occupancy(self):
        """Sink buffers eject on arrival: a nonzero sink occupancy means
        the commit path lost an ejection."""
        engine = run_engine(MESH)
        sinks = [t for t in range(engine.buffers_per_replica) if engine._is_sink[t]]
        assert sinks, "mesh network must have sink buffers"
        engine._occ[sinks[0]] += 1
        problems = audit_replica(engine, 0)
        assert any("sink" in p for p in problems)

    def test_sampling_auditor_rotates_and_raises(self):
        engine = run_engine(RING, seeds=(3, 4, 5))
        auditor = SamplingAuditor()
        auditor(engine)
        auditor(engine)
        assert auditor.samples == 2
        assert auditor._next_replica == 2  # rotated 0 -> 1 -> (2 next)
        engine._net_flits += 1  # corrupt the conservation counter
        with pytest.raises(AuditError) as exc:
            for _ in range(engine.replicas):
                auditor(engine)
        assert exc.value.invariant == "columnar_materialization"

    def test_sampling_auditor_rides_a_full_simulation(self):
        auditor = SamplingAuditor()
        results = simulate_columnar(
            RING, WORKLOAD, PARAMS, seeds=(3, 4),
            cycle_hook=auditor, hook_interval=25,
        )
        assert len(results) == 2
        assert auditor.samples >= PARAMS.batch_cycles * PARAMS.batches // 25 - 1
