"""The noise protocol, in one place.

Timed operations run back to back inside a fixed window after one
discarded warm-up, with ``gc.collect()`` between them; every metric is
reported as median, quartiles and sample count.  Medians - not best-of,
not means - are the ruler: on the 2-core sandbox a single repeat
scatters by a third of its median (CPU time scatters as much as wall
time, so it is contention, not preemption).  Because whole windows
drift with the host, the single-process workloads also bracket every
timed operation with a fixed reference loop and report it at reference
host speed (``reference_probe``); raw times are kept in each record.

``compare`` applies the regression bounds of ``BENCHMARK.json`` to two
ledgers and labels every (metric, workload) row improved / unchanged /
regressed / unresolved.
"""

from __future__ import annotations

import gc
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def percentile(values: Sequence[float], percent: int) -> float:
    """Linear-interpolated percentile (1..99) of the observed samples."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half of *values* (interquartile mean): a
    throughput-friendly average that a few stalled operations cannot move."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def summarize(values: Sequence[float]) -> dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


#: Iterations of the reference loop, and what it takes on the sandbox the
#: bounds were set on when the host is calm.  Only the ratio matters.
REFERENCE_ITERATIONS = 300_000
REFERENCE_NOMINAL_S = 0.0145


def reference_probe() -> float:
    """Seconds the host takes for a fixed pure-Python loop, right now.

    The sandbox's speed drifts by up to 40 % in phases that last from a
    second to minutes (host-level contention: CPU time stretches with
    wall time, steal stays low), which no statistic inside a ten-second
    window can remove.  Single-process workloads therefore bracket every
    timed operation with two probes and report it at reference host
    speed (`speed_factor`).  The loop shares no code with ``repro``, so
    nothing a PR changes can move it.
    """
    begin = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i
    return time.perf_counter() - begin


def speed_factor(*probes: float) -> float:
    """Multiplier that rescales a wall time to reference host speed."""
    return REFERENCE_NOMINAL_S / statistics.fmean(probes)


def timed_ops(
    op: Callable[[], Any],
    seconds: float,
    check: Callable[[Any], None],
    min_ops: int = 3,
    scale_to_reference: bool = True,
) -> tuple[list[float], list[float]]:
    """Run *op* back to back for *seconds*.

    Returns per-operation wall times twice: scaled to reference host
    speed by the probes before and after each operation (the same list
    again when *scale_to_reference* is off), and raw.  ``check`` consumes
    each result outside the timed region, as do the probes and
    ``gc.collect()``.
    """
    samples: list[float] = []
    raw: list[float] = []
    started = time.perf_counter()
    before = reference_probe() if scale_to_reference else REFERENCE_NOMINAL_S
    while len(samples) < min_ops or time.perf_counter() - started < seconds:
        gc.collect()
        begin = time.perf_counter()
        out = op()
        wall = time.perf_counter() - begin
        after = reference_probe() if scale_to_reference else REFERENCE_NOMINAL_S
        raw.append(wall)
        samples.append(wall * speed_factor(before, after))
        before = after
        check(out)
    return samples, raw


def pin_to_one_cpu() -> int | None:
    """Pin this process (and children it later starts) to its last allowed CPU.

    Only single-process workloads call this; sweep and service parents
    never do, because their workers would inherit the mask.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_fingerprint() -> dict[str, Any]:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    compiler = ""
    cc = shutil.which("cc")
    if cc:
        try:
            out = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=10)
            compiler = out.stdout.splitlines()[0] if out.stdout else ""
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cc": compiler,
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "system": platform.system(),
    }


# ----------------------------------------------------------------------
# comparing two ledgers
# ----------------------------------------------------------------------
def worsening(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base* (< 0: better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
    noise: float,
) -> tuple[str, float]:
    """Label one (metric, workload) row; returns (label, worsening of the medians).

    *noise* is the run-to-run spread of the metric on this workload
    (inter-quartile distance over the median).  Where it is wider than
    the bound the row is *unresolved*, not *unchanged* - unless every
    new run reads better than every base run.  *improved* needs at least
    four runs a side, every new run better than every base run, and
    medians further apart than the noise; a gain is claimed from repeated
    runs or not at all.
    """
    worse = worsening(statistics.median(base), statistics.median(new), better)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    gained = min(len(base), len(new)) >= 4 and all_better and worse < -noise
    if gained:
        return "improved", worse
    if noise > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "unchanged", worse


def compare(
    base: dict[str, Any],
    new: dict[str, Any],
    metrics: Sequence[dict[str, Any]],
    noise_floor: dict[str, dict[str, float]],
) -> list[dict[str, Any]]:
    """One row per (end-to-end metric, workload) present in both ledgers.

    The noise of a row is the larger of the floor recorded when the
    bounds were set (``bench/noise.json``) and the spread across the
    base ledger's own sets when it holds at least four.
    """
    rows = []
    for name, base_entry in sorted(base["workloads"].items()):
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            continue
        for metric in metrics:
            key = metric["name"]
            a = base_entry["end_to_end"].get(key)
            b = new_entry["end_to_end"].get(key)
            if not a or not b:
                continue
            noise = noise_floor.get(name, {}).get(key, 0.0)
            if len(a) >= 4:
                noise = max(noise, spread(a))
            label, worse = verdict(a, b, metric["better"], metric["bound"], noise)
            rows.append(
                {
                    "workload": name,
                    "metric": key,
                    "unit": metric["unit"],
                    "base": statistics.median(a),
                    "new": statistics.median(b),
                    "worsening": worse,
                    "bound": metric["bound"],
                    "noise": noise,
                    "verdict": label,
                }
            )
        if base_entry.get("digest") != new_entry.get("digest"):
            rows.append(
                {
                    "workload": name,
                    "metric": "result_digest",
                    "unit": "sha256",
                    "base": base_entry.get("digest"),
                    "new": new_entry.get("digest"),
                    "verdict": "changed",
                }
            )
    return rows


def per_call_us(fn: Callable[[Any], Any], items: Sequence[Any], calls: int = 1000, rounds: int = 3) -> float:
    """Microseconds per ``fn(item)``: median over *rounds* of the mean of
    at least *calls* direct calls cycling through *items*."""
    loops = max(1, -(-calls // len(items)))
    means = []
    for __ in range(rounds):
        begin = time.perf_counter()
        for __ in range(loops):
            for item in items:
                fn(item)
        means.append((time.perf_counter() - begin) / (loops * len(items)))
    return 1e6 * statistics.median(means)
