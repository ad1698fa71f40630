"""In-process simulation workloads: ring_sat, mesh_sat, idle_low, columnar_mid.

One timed operation is a ``simulate()`` / ``simulate_batch()`` call per
input point.  The traced run unrolls ``simulate()`` with the public
pieces (``MetricsHub``, ``build_network``, ``Engine``, ``RateMeter``)
under ``repro.core.profiling`` so each layer gets a span; the unrolled
result must serialize byte-identical to ``simulate()``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import replace
from typing import Any

from . import proc, stats, workloads
from .digest import digest_of
from .outcome import Checks, Outcome, serial_window
from .trace import Tracer

#: Bit-exact schedulers priced against ``compiled`` in the traced run.
LADDER = ("naive", "active", "batched")


class SimWorkload:
    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.quick = quick
        self.columnar = name == "columnar_mid"
        self.payloads = workloads.sim_variants(name, seed, quick)
        #: one spec list per variant; operations take them in turn
        self.variants: list[list[Any]] = []
        self.turn = 0
        self.checks = Checks()
        self.digests: dict[int, str] = {}
        self.compile_s = 0.0
        #: latest results of each variant; counts are read off variant 0 so
        #: they do not depend on how many operations the window fitted
        self.results: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.runtime import PointSpec

        stats.pin_to_one_cpu()
        width = workloads.COLUMNAR_REPLICAS if self.columnar else 1
        self.variants = [
            [
                replace(spec, params=replace(spec.params, replicas=width))
                for spec in map(PointSpec.from_payload, payloads)
            ]
            for payloads in self.payloads
        ]
        if self.columnar:
            from repro.core import ckernel

            begin = time.perf_counter()
            ckernel.load()
            self.compile_s = time.perf_counter() - begin
        self.cycles_per_op = width * sum(workloads.simulated_cycles(p) for p in self.payloads[0])
        self.check(self.op())  # discarded warm-up repeat
        self.turn = 0

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    # the timed operation and its checks
    # ------------------------------------------------------------------
    @property
    def specs(self) -> list[Any]:
        """The points of the variant whose turn it is."""
        return self.variants[self.turn % len(self.variants)]

    @property
    def digest(self) -> str:
        """SHA-256 over the per-variant result digests seen so far."""
        joined = "".join(self.digests[k] for k in sorted(self.digests))
        return hashlib.sha256(joined.encode("ascii")).hexdigest()

    def op(self) -> list[Any] | None:
        from repro import ReproError, simulate
        from repro.core.simulation import simulate_batch

        results: list[Any] = []
        try:
            for spec in self.specs:
                if self.columnar:
                    results.extend(simulate_batch(spec.system, spec.workload, spec.params))
                else:
                    results.append(simulate(spec.system, spec.workload, spec.params))
        except ReproError as exc:  # DeadlockError included
            self.checks.fail(f"{type(exc).__name__}: {exc}")
            return None
        return results

    def check(self, results: list[Any] | None) -> None:
        """Same digest on every repeat of a variant; every point completed
        transactions.  Passes the turn to the next variant."""
        variant = self.turn % len(self.variants)
        self.turn += 1
        self.checks.attempted += 1
        if results is None:
            return
        self.results[variant] = results
        digest = digest_of(results)
        if self.digests.setdefault(variant, digest) != digest:
            self.checks.fail(f"result digest of variant {variant} changed between repeats: {digest}")
        elif any(r.remote_transactions <= 0 for r in results):
            self.checks.fail("a point completed no remote transaction")

    def check_flit_band(self) -> float:
        """Columnar flit volume vs ``compiled`` on the same (first two) seeds."""
        from repro import simulate
        from repro.audit.stat_equiv import FLIT_RATIO_BAND

        self.checks.attempted += 1
        width = workloads.COLUMNAR_REPLICAS
        columnar = exact = 0
        for i, spec in enumerate(self.variants[0]):
            # results are flattened spec-major, replicas in seed order
            for replica in self.results[0][i * width : i * width + 2]:
                run = replace(spec.params, scheduler="compiled", replicas=1, seed=replica.params.seed)
                exact += simulate(spec.system, spec.workload, run).flits_moved
                columnar += replica.flits_moved
        ratio = columnar / exact if exact else 0.0
        if not FLIT_RATIO_BAND[0] <= ratio <= FLIT_RATIO_BAND[1]:
            self.checks.fail(f"columnar/compiled flit ratio {ratio:.3f} outside {FLIT_RATIO_BAND}")
        return ratio

    # ------------------------------------------------------------------
    # untraced run
    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        metrics, detail = serial_window(
            *stats.timed_ops(self.op, seconds, self.check, min_ops=len(self.variants)), self.cycles_per_op
        )
        metrics["peak_rss_mb"] = proc.peak_rss_mb(children=False)
        detail["digest"] = self.digest
        if self.columnar:
            detail["flit_ratio"] = self.check_flit_band()
        return Outcome(metrics, self.checks, detail)

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        if self.columnar:
            return self._trace_columnar(seconds, tracer)
        return self._trace_engine(seconds, tracer)

    def _trace_engine(self, seconds: float, tracer: Tracer) -> Outcome:
        untraced: list[float] = []
        traced: list[float] = []
        per_op: list[dict[str, float]] = []
        started = time.perf_counter()
        # Interleave untraced and traced repeats so both see the same host
        # load; half the window, the ladder cells take the rest.
        while len(traced) < len(self.variants) or time.perf_counter() - started < seconds / 2:
            specs = self.specs
            begin = time.perf_counter()
            plain = self.op()
            untraced.append(time.perf_counter() - begin)
            self.check(plain)
            run_id = tracer.next_run()
            begin = time.perf_counter()
            with tracer.span("simulate"):
                results = [traced_simulate(spec, tracer) for spec in specs]
            traced.append(time.perf_counter() - begin)
            self.checks.attempted += 1
            if plain is not None and digest_of(results) != digest_of(plain):
                self.checks.fail("unrolled traced run is not byte-identical to simulate()")
            per_op.append(tracer.self_times(run_id))

        def layer(span: str) -> float:
            return statistics.median(op.get(span, 0.0) for op in per_op)

        cycles = self.cycles_per_op
        wall = statistics.median(untraced)
        counted = self.results[0]
        flits = sum(r.flits_moved for r in counted)
        engine_s = sum(layer(f"core.engine.{p}") for p in ("propose", "resolve", "commit", "update"))
        engine_s += layer("core.engine.run")
        step_s = engine_s / cycles
        metrics = {
            "core.simulation.build_network_s": layer("core.simulation.build_network"),
            # register + first run(1), minus the one steady cycle it stepped
            "core.engine.finalize_s": max(layer("core.engine.finalize") - step_s * len(self.specs), 0.0),
            "core.engine.propose_s": layer("core.engine.propose"),
            "core.engine.resolve_s": layer("core.engine.resolve"),
            "core.engine.commit_s": layer("core.engine.commit"),
            "core.engine.update_s": layer("core.engine.update"),
            "core.engine.step_us": 1e6 * step_s,
            "core.statistics.close_s": layer("core.statistics.close"),
            "runtime.serialization.encode_us": 1e6 * layer("runtime.serialization.encode") / len(self.specs),
            "core.engine.us_per_flit": 1e6 * wall / flits if flits else 0.0,
            "core.engine.flits_moved": flits,
            "core.pm.remote_transactions": sum(r.remote_transactions for r in counted),
            "core.statistics.latency_mean_cycles": statistics.fmean(r.latency.mean for r in counted),
            "core.channel.util_all": statistics.fmean(r.utilization["__all__"].mean for r in counted),
            "trace.overhead_ratio": statistics.median(traced) / wall,
        }
        metrics.update(self._ladder_cells())
        detail = {"untraced_op_s": stats.summarize(untraced), "traced_op_s": stats.summarize(traced),
                  "digest": self.digest}
        return Outcome(metrics, self.checks, detail)

    def _ladder_cells(self) -> dict[str, float]:
        """naive / active / batched at a third of the length, each
        byte-identical to ``compiled`` (not on a user path: these cells
        exist for the scheduler-collapse decision)."""
        from repro import simulate

        def short(spec: Any, scheduler: str) -> Any:
            run = replace(spec.params, scheduler=scheduler,
                          batch_cycles=max(spec.params.batch_cycles // 3, 10))
            return simulate(spec.system, spec.workload, run)

        specs = self.variants[0]
        reference = digest_of([short(spec, "compiled") for spec in specs])
        cells = {}
        for scheduler in LADDER:
            for __ in range(2):  # the first run pays the scheduler's lazy imports
                begin = time.perf_counter()
                results = [short(spec, scheduler) for spec in specs]
                wall = time.perf_counter() - begin
            self.checks.attempted += 1
            if digest_of(results) != reference:
                self.checks.fail(f"{scheduler} result differs from compiled")
            cells[f"core.engine.sched_{scheduler}_cycles_per_s"] = sum(r.cycles for r in results) / wall
        return cells

    def _trace_columnar(self, seconds: float, tracer: Tracer) -> Outcome:
        from repro.core.simulation import simulate_batch

        def double_length(specs: list[Any]) -> float:
            begin = time.perf_counter()
            for spec in specs:
                run = replace(spec.params, batch_cycles=2 * spec.params.batch_cycles)
                simulate_batch(spec.system, spec.workload, run)
            return time.perf_counter() - begin

        single: list[float] = []
        double: list[float] = []
        started = time.perf_counter()
        while len(single) < 2 or time.perf_counter() - started < seconds / 2:
            specs = self.specs
            tracer.next_run()
            with tracer.span("core.columnar.simulate_batch"):
                results = self.op()
            self.check(results)
            span = tracer.spans[-1]
            single.append(span["end"] - span["start"])
            double.append(double_length(specs))
        t_n, t_2n = statistics.median(single), statistics.median(double)
        cycles = self.cycles_per_op  # replica-cycles at length N
        per_cycle = max(t_2n - t_n, 0.0) / cycles
        metrics = {
            "core.ckernel.compile_s": self.compile_s,
            # same quarter-length input in a fresh child, C kernel on / off
            "core.ckernel.cycles_per_s": self._child_rate(kernel=True),
            "core.columnar.numpy_cycles_per_s": self._child_rate(kernel=False),
            # intercept / slope of wall at N and 2N cycles: column build,
            # Philox set-up and result materialization vs the kernel loop
            "core.columnar.fixed_s": max(t_n - per_cycle * cycles, 0.0),
            "core.columnar.per_cycle_us": 1e6 * per_cycle,
            "core.columnar.flit_ratio": self.check_flit_band(),
            "core.engine.flits_moved": sum(r.flits_moved for r in self.results[0]),
            "core.pm.remote_transactions": sum(r.remote_transactions for r in self.results[0]),
            "trace.overhead_ratio": 1.0,  # spans sit outside simulate_batch
        }
        return Outcome(metrics, self.checks, {"op_s": stats.summarize(single), "digest": self.digest})

    def _child_rate(self, kernel: bool) -> float:
        """Replica-cycles/s of a short batch in a fresh child."""
        code, out = proc.run_child(
            proc.python("-m", "bench.child", "columnar_rate", str(self.seed)),
            timeout=120,
            env=proc.child_env(REPRO_COLUMNAR_KERNEL="1" if kernel else "0"),
            cwd=str(proc.ROOT),
        )
        report = json.loads(out.splitlines()[-1]) if code == 0 else {}
        self.checks.expect(
            report.get("kernel") is kernel, f"columnar probe (kernel={kernel}) failed: exit {code}, {report}"
        )
        return float(report.get("cycles_per_s", 0.0))


def traced_simulate(spec: Any, tracer: Tracer) -> Any:
    """``simulate()`` unrolled with public pieces, one span per layer.

    Engine phases come from ``PhaseProfile`` (accumulated per batch) and
    are recorded as children of the ``core.engine.run`` span, whose self
    time is then the step loop's own overhead.
    """
    from repro.core import profiling
    from repro.core.engine import Engine
    from repro.core.pm import MetricsHub
    from repro.core.simulation import SimulationResult, build_network
    from repro.core.statistics import RateMeter
    from repro.runtime.serialization import canonical_json, result_payload

    system, workload, run = spec.system, spec.workload, spec.params
    profile = profiling.PhaseProfile()

    def phase_seconds() -> dict[str, float]:
        totals = dict.fromkeys(profiling.PHASES, 0.0)
        for (__, phase), seconds in profile.seconds.items():
            totals[phase] += seconds
        return totals

    with profiling.enabled(profile):
        with tracer.span("core.simulation.build_network"):
            metrics = MetricsHub()
            network = build_network(system, workload, metrics, seed=run.seed)
        with tracer.span("core.engine.finalize"):
            engine = Engine(
                deadlock_threshold=run.deadlock_threshold,
                flow_control=run.flow_control,
                scheduler=run.scheduler,
            )
            network.register(engine)
            engine.run(1)
        with tracer.span("core.statistics.close"):
            util_meters = {level: RateMeter(level) for level in network.levels_present}
            all_meter = RateMeter("__all__")
            throughput_meter = RateMeter("throughput")
        for batch in range(run.batches):
            before = phase_seconds()
            with tracer.span("core.engine.run") as run_span:
                engine.run(run.batch_cycles - (1 if batch == 0 else 0))
            begin = tracer.spans[run_span]["start"]
            after = phase_seconds()
            for phase in profiling.PHASES:
                tracer.add(f"core.engine.{phase}", begin, begin + after[phase] - before[phase], run_span)
            with tracer.span("core.statistics.close"):
                metrics.close_batch()
                for level, meter in util_meters.items():
                    meter.close_batch(
                        network.flits_carried(level), network.opportunities(engine.cycle, level)
                    )
                all_meter.close_batch(
                    network.flits_carried(None), network.opportunities(engine.cycle, None)
                )
                throughput_meter.close_batch(
                    metrics.remote_completed + metrics.local_completed, engine.cycle
                )
        with tracer.span("core.statistics.close"):
            utilization = {level: meter.summary() for level, meter in util_meters.items()}
            utilization["__all__"] = all_meter.summary()
            result = SimulationResult(
                system=system,
                workload=workload,
                params=run,
                cycles=engine.cycle,
                latency=metrics.remote_latency.batch.summary(),
                local_latency=metrics.local_latency.batch.summary(),
                utilization=utilization,
                throughput=throughput_meter.summary(),
                remote_transactions=metrics.remote_completed,
                local_transactions=metrics.local_completed,
                flits_moved=engine.flits_moved,
            )
    with tracer.span("runtime.serialization.encode"):
        canonical_json(result_payload(result))
    return result
