"""What one workload run hands back to ``bench.run``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from . import stats


@dataclass
class Checks:
    """Operations and output checks attempted, and those that failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(reason)


@dataclass
class Outcome:
    metrics: dict[str, float]
    checks: Checks
    detail: dict[str, Any] = field(default_factory=dict)


def latency_metrics(samples_s: Sequence[float]) -> dict[str, float]:
    """Median per-operation wall time, in ms."""
    return {"p50_ms": 1e3 * stats.percentile(samples_s, 50)}


def serial_window(samples_s: Sequence[float], raw_s: Sequence[float], cycles_per_op: int) -> "tuple[dict[str, float], dict[str, Any]]":
    """Metrics and record detail of a window of back-to-back operations.

    *samples_s* are at reference host speed (what the metrics use);
    *raw_s* are the same operations as the clock read them.
    """
    metrics = latency_metrics(samples_s)
    metrics["sim_cycles_per_s"] = cycles_per_op / stats.midmean(samples_s)
    detail = {
        "op_s": stats.summarize(samples_s),
        "raw_op_s": stats.summarize(raw_s),
        "host_speed_factor": sum(samples_s) / sum(raw_s),
        "p90_ms": 1e3 * stats.percentile(samples_s, 90),
    }
    return metrics, detail
