"""Sweep workloads: sweep_fig (cold) and sweep_warm (all cached).

One timed operation is a whole driver process (``bench.child sweep``),
spawn to exit, calling ``run_points(jobs=2, cache=ResultCache(dir))`` on
22 frozen fig-14-shaped points - what a researcher pays to produce, or
re-produce, one figure.  Cold passes each get an empty cache dir; warm
passes share one dir filled during set-up.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import shutil
import tempfile
import time
from typing import Any

from . import proc, stats, workloads
from .outcome import Checks, Outcome, serial_window
from .trace import Tracer

JOBS = 2


class SweepWorkload:
    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.warm = name == "sweep_warm"
        self.payloads = workloads.sweep_points(name, seed, quick)
        self.cycles_per_op = sum(workloads.simulated_cycles(p) for p in self.payloads)
        self.checks = Checks()
        self.digest: str | None = None
        self.dir = pathlib.Path()
        self.points_file = pathlib.Path()
        self.cache_dir = pathlib.Path()

    def setup(self) -> None:
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="sweep-"))
        self.points_file = self.dir / "points.json"
        self.points_file.write_text(json.dumps(self.payloads, sort_keys=True))
        self.cache_dir = self.dir / "cache"
        if self.warm:
            # Fill the dir, then one discarded warm pass.
            self._check(self._pass(self.cache_dir), expect_hits=0)
            self.check(self.op())
        else:
            # A cold pass has no cheap warm-up; one fresh-process import of
            # repro.runtime at least loads its files and byte-code.
            self._probe("salt")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _probe(self, *args: str) -> dict[str, Any] | None:
        code, out = proc.run_child(
            proc.python("-m", "bench.child", *args),
            timeout=170,
            env=proc.child_env(),
            cwd=str(proc.ROOT),
        )
        if code != 0 or not out.strip():
            return None
        return json.loads(out.splitlines()[-1])

    def _pass(self, cache_dir: pathlib.Path) -> dict[str, Any] | None:
        return self._probe("sweep", str(self.points_file), str(cache_dir), str(JOBS))

    def op(self) -> dict[str, Any] | None:
        if self.warm:
            return self._pass(self.cache_dir)
        return self._pass(pathlib.Path(tempfile.mkdtemp(prefix="cold-", dir=self.dir)))

    def check(self, report: dict[str, Any] | None) -> None:
        self._check(report, expect_hits=len(self.payloads) if self.warm else 0)

    def _check(self, report: dict[str, Any] | None, expect_hits: int) -> None:
        """Every pass: same digest (cached == computed), expected cache
        traffic, every point completed transactions."""
        self.checks.attempted += 1
        if report is None:
            self.checks.fail("sweep driver failed")
        elif report["points"] != len(self.payloads):
            self.checks.fail(f"driver returned {report['points']} points")
        elif report["cache_hits"] != expect_hits:
            self.checks.fail(f"{report['cache_hits']} cache hits, expected {expect_hits}")
        elif report["transactions"] <= 0:
            self.checks.fail("a point completed no remote transaction")
        elif self.digest not in (None, report["digest"]):
            self.checks.fail(f"result digest changed between passes: {report['digest']}")
        else:
            self.digest = report["digest"]

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        # A warm pass is one short single-process operation, so it is scaled
        # to reference host speed like the in-process workloads.  A cold pass
        # keeps both cores busy for seconds while this process sleeps: the two
        # probes around it say little about the host during it, and scaling by
        # them doubled the run-to-run spread (README "Noise"), so it stays raw.
        samples, raw = stats.timed_ops(self.op, seconds, self.check, scale_to_reference=self.warm)
        metrics, detail = serial_window(samples, raw, self.cycles_per_op)
        metrics["peak_rss_mb"] = proc.peak_rss_mb(children=True)
        detail["digest"] = self.digest
        return Outcome(metrics, self.checks, detail)

    # ------------------------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        tracer.next_run()
        with tracer.span("sweep_pass") as root:
            report = self.op()
        self.check(report)
        wall = tracer.spans[root]["end"] - tracer.spans[root]["start"]
        metrics: dict[str, float] = {"trace.overhead_ratio": 1.0}  # spans are the driver's own clock reads
        if report is not None:
            # The driver timed its own stages; what is left of the pass is
            # interpreter start-up, pool shutdown and exit.
            cursor = tracer.spans[root]["start"]
            for stage, span in (
                ("import_s", "runtime.import"),
                ("parse_s", "runtime.spec.from_payload"),
                ("salt_s", "runtime.cache.salt"),
                ("run_points_s", "runtime.runner.run_points"),
                ("encode_s", "runtime.serialization.encode"),
            ):
                tracer.add(span, cursor, cursor + report[stage], root)
                cursor += report[stage]
            metrics.update(
                {
                    "runtime.import_s": report["import_s"],
                    "runtime.cache.salt_s": report["salt_s"],
                    "runtime.runner.run_points_s": report["run_points_s"],
                    "runtime.runner.process_overhead_s": tracer.self_times(tracer.run_id)["sweep_pass"],
                }
            )
        metrics.update(self._warm_layers() if self.warm else self._cold_layers())
        return Outcome(metrics, self.checks, {"pass_s": wall, "digest": self.digest})

    def _specs(self) -> list[Any]:
        from repro.runtime import PointSpec

        return [PointSpec.from_payload(p, derive_seed=True) for p in self.payloads]

    def _cold_layers(self) -> dict[str, float]:
        """What a cold pass spends outside the engine: pool fan-out,
        pickling, serialization and the cache write."""
        from repro.runtime import ResultCache, run_points
        from repro.runtime.serialization import canonical_json, result_payload

        specs = self._specs()
        begin = time.perf_counter()
        results = run_points(specs, jobs=1, cache=None)
        serial = time.perf_counter() - begin
        begin = time.perf_counter()
        pooled = run_points(specs, jobs=JOBS, cache=None)
        parallel = time.perf_counter() - begin
        self.checks.expect(
            [canonical_json(result_payload(r)) for r in results]
            == [canonical_json(result_payload(r)) for r in pooled],
            "jobs=1 and jobs=2 results differ",
        )
        pairs = list(zip(specs, results))
        cache = ResultCache(self.dir / "layer-cache")
        texts = [canonical_json(result_payload(r)) for r in results]
        return {
            # ideal 2.0; the slowest point bounds it
            "runtime.runner.speedup_jobs2": serial / parallel,
            "runtime.runner.pickle_us": stats.per_call_us(lambda p: pickle.loads(pickle.dumps(p)), pairs),
            "runtime.cache.put_us": stats.per_call_us(lambda p: cache.put(*p), pairs, calls=200),
            "runtime.serialization.encode_us": stats.per_call_us(
                lambda r: canonical_json(result_payload(r)), results
            ),
            "runtime.serialization.result_bytes": sum(len(t) for t in texts) / len(texts),
        }

    def _warm_layers(self) -> dict[str, float]:
        """What a warm pass spends per point: hash, disk read, parse,
        re-canonicalize, memory tier."""
        from repro.runtime import GLOBAL_MEMCACHE, MemCache, PointSpec, ResultCache, run_points
        from repro.runtime.serialization import canonical_json, result_from_payload, result_payload

        specs = self._specs()
        cache = ResultCache(self.cache_dir)
        entries = [cache.get_entry(spec) for spec in specs]
        self.checks.expect(all(e is not None for e in entries), "filled cache dir misses a point")
        texts = [e[0] for e in entries if e is not None]
        mem = MemCache()
        keyed = [(spec.key(), e[0], e[1]) for spec, e in zip(specs, entries) if e is not None]

        def disk_pass(__: Any) -> None:
            GLOBAL_MEMCACHE.clear()
            run_points(specs, jobs=1, cache=cache)

        metrics = {
            "runtime.spec.from_payload_us": stats.per_call_us(PointSpec.from_payload, self.payloads),
            "runtime.spec.key_us": stats.per_call_us(lambda s: s.key(), specs),
            "runtime.cache.get_us": stats.per_call_us(cache.get_entry, specs),
            "runtime.serialization.decode_us": stats.per_call_us(
                lambda t: result_from_payload(json.loads(t)), texts
            ),
            "runtime.memcache.put_us": stats.per_call_us(lambda k: mem.put(*k), keyed),
            "runtime.memcache.get_us": stats.per_call_us(lambda k: mem.get(k[0]), keyed),
            # all-hit run_points from the disk tier, per point
            "runtime.runner.warm_hit_us": stats.per_call_us(disk_pass, [None], calls=20) / len(specs),
        }
        GLOBAL_MEMCACHE.clear()
        self.checks.expect(
            [canonical_json(result_payload(r)) for r in run_points(specs, jobs=1, cache=cache)] == texts,
            "warm run_points results differ from the cached texts",
        )
        return metrics
