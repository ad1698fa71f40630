"""Fresh-process probes: ``python -m bench.child <probe> <args...>``.

Each probe does one thing in a new interpreter, so imports, the
code-version salt and pool start-up are paid the way a user's script
pays them, and prints one JSON object as its last stdout line.

* ``sweep <points.json> <cache-dir> <jobs>`` - the researcher's path:
  load the frozen payloads, ``run_points`` them against the cache dir.
* ``salt`` - ``code_version_salt()`` with nothing memoized.
* ``columnar_rate <seed>`` - a short columnar batch; the parent runs it
  with and without ``REPRO_COLUMNAR_KERNEL=0`` to price the numpy
  fallback against the C kernel on the same input.
"""

from __future__ import annotations

import json
import sys
import time

T0 = time.perf_counter()


def sweep(points_file: str, cache_dir: str, jobs: str) -> dict:
    from repro.runtime import PointSpec, ResultCache, run_points

    from bench.digest import digest_of

    imported = time.perf_counter()
    with open(points_file, encoding="utf-8") as fh:
        payloads = json.load(fh)
    specs = [PointSpec.from_payload(p, derive_seed=True) for p in payloads]
    parsed = time.perf_counter()
    cache = ResultCache(cache_dir)  # computes the code-version salt
    salted = time.perf_counter()
    last = {}

    def progress(tracker) -> None:
        last["hits"] = tracker.cache_hits

    results = run_points(specs, jobs=int(jobs), cache=cache, progress=progress)
    ran = time.perf_counter()
    digest = digest_of(results)
    return {
        "import_s": imported - T0,
        "parse_s": parsed - imported,
        "salt_s": salted - parsed,
        "run_points_s": ran - salted,
        "encode_s": time.perf_counter() - ran,
        "points": len(results),
        "cache_hits": last.get("hits", 0),
        "transactions": min(r.remote_transactions for r in results),
        "digest": digest,
    }


def salt() -> dict:
    from repro.runtime import code_version_salt

    begin = time.perf_counter()
    value = code_version_salt()
    return {"salt_s": time.perf_counter() - begin, "salt": value}


def columnar_rate(seed: str) -> dict:
    from dataclasses import replace

    from repro.core import ckernel
    from repro.core.simulation import simulate_batch
    from repro.runtime import PointSpec

    from bench import workloads

    specs = [PointSpec.from_payload(p) for p in workloads.sim_points("columnar_mid", int(seed), quick=True)]

    def batch() -> int:
        cycles = 0
        for spec in specs:
            run = replace(spec.params, replicas=workloads.COLUMNAR_REPLICAS)
            cycles += sum(r.cycles for r in simulate_batch(spec.system, spec.workload, run))
        return cycles

    batch()  # compile, lazy imports and first-call costs stay outside the timed region
    begin = time.perf_counter()
    cycles = batch()
    return {
        "cycles_per_s": cycles / (time.perf_counter() - begin),
        "kernel": ckernel.available(),
    }


PROBES = {"sweep": sweep, "salt": salt, "columnar_rate": columnar_rate}

if __name__ == "__main__":
    print(json.dumps(PROBES[sys.argv[1]](*sys.argv[2:]), sort_keys=True))
