"""Output analysis: batch means, latency and utilization recorders.

The paper (Section 2.3) uses the *batch means* method with the first
batch discarded to remove initialization bias.  :class:`BatchMeans`
implements exactly that, plus a Student-t confidence interval over the
retained batch means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Two-sided 95% Student-t critical values indexed by degrees of freedom.
_T_TABLE: dict[int, float] = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 25: 2.060, 30: 2.042, 40: 2.021, 60: 2.000, 120: 1.980,
}


def _t_critical(dof: int) -> float:
    """Two-sided 95% t critical value, conservative between table keys.

    For a dof between table keys the *nearest lower* key is used: t
    critical values shrink with dof, so rounding the dof down inflates
    the half-width slightly rather than understating it.  Beyond the
    table (dof > 120) the 120-dof value applies — still conservative
    relative to the normal-limit 1.96.
    """
    if dof <= 0:
        return math.inf
    if dof in _T_TABLE:
        return _T_TABLE[dof]
    floor_key = max((key for key in _T_TABLE if key < dof), default=min(_T_TABLE))
    return _T_TABLE[floor_key]


@dataclass
class Summary:
    """Point estimate with spread for a batch-means statistic."""

    mean: float
    half_width: float
    batch_means: tuple[float, ...]

    @property
    def confidence_interval(self) -> tuple[float, float]:
        return (self.mean - self.half_width, self.mean + self.half_width)

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean's magnitude.

        A zero or NaN mean (an idle link, or no retained batches at all)
        gives no scale to normalize against, so the relative width is
        reported as unbounded rather than dividing by it.
        """
        if math.isnan(self.mean) or self.mean == 0.0:
            return math.inf
        return self.half_width / abs(self.mean)


def _summarize(values: tuple[float, ...]) -> Summary:
    """Mean and 95% t half-width over the retained batch values."""
    if not values:
        return Summary(math.nan, math.nan, values)
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return Summary(mean, math.inf, values)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = _t_critical(n - 1) * math.sqrt(var / n)
    return Summary(mean, half, values)


class BatchMeans:
    """Accumulates per-batch means; the first closed batch is discarded."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._batch_sum = 0.0
        self._batch_count = 0
        self._means: list[float] = []
        self._total_observations = 0

    def observe(self, value: float) -> None:
        self._batch_sum += value
        self._batch_count += 1
        self._total_observations += 1

    def observe_many(self, total: float, count: int) -> None:
        """Fold *count* observations summing to *total* into the batch.

        ``count == 0`` is a no-op: there are no observations, and
        folding a stray *total* into the running sum would silently
        skew the mean of whatever lands in this batch later.
        """
        if count == 0:
            return
        self._batch_sum += total
        self._batch_count += count
        self._total_observations += count

    def close_batch(self) -> float | None:
        """End the current batch; returns its mean (``None`` if empty)."""
        if self._batch_count == 0:
            self._means.append(math.nan)
            self._batch_sum = 0.0
            return None
        mean = self._batch_sum / self._batch_count
        self._means.append(mean)
        self._batch_sum = 0.0
        self._batch_count = 0
        return mean

    @property
    def total_observations(self) -> int:
        return self._total_observations

    @property
    def retained_means(self) -> tuple[float, ...]:
        """Batch means with the first *non-empty* (warm-up) batch discarded.

        An empty leading batch (NaN mean) carries no observations, so
        discarding it would not remove any initialization bias — the
        warm-up data sits in the first batch that actually recorded
        something, and that is the one dropped.
        """
        kept = [m for m in self._means if not math.isnan(m)]
        return tuple(kept[1:])

    def summary(self) -> Summary:
        return _summarize(self.retained_means)


class RateMeter:
    """Batch-means over a *rate*: counter delta divided by a time delta.

    Used for utilization (flits carried / flit opportunities) and
    throughput (transactions completed / cycle).  The caller snapshots
    the counter at batch boundaries.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._last_numerator = 0.0
        self._last_denominator = 0.0
        self._batch_rates: list[float] = []

    def close_batch(self, numerator: float, denominator: float) -> float | None:
        """Record this batch's rate from the counter snapshots.

        A non-positive denominator delta (no time progressed) or a
        *negative* numerator delta (the counter went backwards — a reset
        or a miswired snapshot) yields a NaN batch rather than silently
        folding a negative "rate" into the summary; NaN batches are
        filtered out of :attr:`retained_rates`.
        """
        num = numerator - self._last_numerator
        den = denominator - self._last_denominator
        self._last_numerator = numerator
        self._last_denominator = denominator
        if den <= 0 or num < 0:
            self._batch_rates.append(math.nan)
            return None
        rate = num / den
        self._batch_rates.append(rate)
        return rate

    @property
    def retained_rates(self) -> tuple[float, ...]:
        """Batch rates with the first *measurable* (warm-up) batch discarded.

        Mirrors :meth:`BatchMeans.retained_means`: NaN rates (batches
        whose denominator made no progress) are filtered out first, and
        only then is the leading batch dropped.  Slicing before
        filtering would let a leading zero-denominator batch absorb the
        warm-up discard, leaking initialization bias into utilization
        and throughput summaries.
        """
        kept = [r for r in self._batch_rates if not math.isnan(r)]
        return tuple(kept[1:])

    def summary(self) -> Summary:
        return _summarize(self.retained_rates)


@dataclass
class LatencyStats:
    """Running latency tally for the current batch plus steady-state extremes.

    ``minimum`` / ``maximum`` follow the same policy as the batch means:
    they span exactly the retained (steady-state) observations.  Each
    batch's extremes are staged while the batch is open and only folded
    into ``minimum`` / ``maximum`` when :meth:`close_batch` retains the
    batch — so neither the discarded warm-up batch nor a trailing
    *unclosed* batch (whose observations never enter any retained batch
    mean) can pin the extremes.
    """

    batch: BatchMeans = field(default_factory=lambda: BatchMeans("latency"))
    minimum: float = math.inf
    maximum: float = -math.inf
    #: Latency of the most recent observation, regardless of batch
    #: retention — a diagnostic (zero-load timing tests read the round
    #: trip that just completed); never feeds the steady-state summary.
    last: float = math.nan
    _warmup_pending: bool = field(default=True, repr=False)
    _open_min: float = field(default=math.inf, repr=False)
    _open_max: float = field(default=-math.inf, repr=False)

    def record(self, latency: float) -> None:
        self.batch.observe(latency)
        self.last = latency
        if latency < self._open_min:
            self._open_min = latency
        if latency > self._open_max:
            self._open_max = latency

    def observe_batch(
        self,
        total: float,
        count: int,
        minimum: float,
        maximum: float,
        last: float,
    ) -> None:
        """Fold a pre-aggregated block of observations into the open batch.

        The columnar engine (:mod:`repro.core.columnar`) tallies each
        replica's latencies as array reductions — sum, count, min, max
        and the final observation — instead of calling :meth:`record`
        per transaction.  ``count == 0`` is a no-op (mirroring
        :meth:`BatchMeans.observe_many`): an empty block carries no
        observations, so neither ``last`` nor the staged extremes may
        move.  The staged extremes still only reach ``minimum`` /
        ``maximum`` when :meth:`close_batch` retains the batch, so the
        warm-up discard applies to array-fed batches exactly as to
        per-observation ones.
        """
        if count == 0:
            return
        self.batch.observe_many(total, count)
        self.last = last
        if minimum < self._open_min:
            self._open_min = minimum
        if maximum > self._open_max:
            self._open_max = maximum

    def close_batch(self) -> float | None:
        """Close the current batch; fold its extremes in iff retained."""
        mean = self.batch.close_batch()
        if mean is not None:
            if self._warmup_pending:
                # The batch that just closed is the discarded warm-up
                # batch: its observations leave the estimate, so they
                # never reach the extremes either.
                self._warmup_pending = False
            else:
                if self._open_min < self.minimum:
                    self.minimum = self._open_min
                if self._open_max > self.maximum:
                    self.maximum = self._open_max
            self._open_min = math.inf
            self._open_max = -math.inf
        return mean


class MetricsHub:
    """Shared collectors for all processing modules of one simulation."""

    def __init__(self) -> None:
        self.remote_latency = LatencyStats()
        self.local_latency = LatencyStats()
        self.remote_issued = 0
        self.remote_completed = 0
        self.local_issued = 0
        self.local_completed = 0
        self.reads_issued = 0
        self.writes_issued = 0

    def record_remote(self, latency: int) -> None:
        self.remote_latency.record(latency)
        self.remote_completed += 1

    def record_local(self, latency: int) -> None:
        self.local_latency.record(latency)
        self.local_completed += 1

    def close_batch(self) -> None:
        # Via LatencyStats.close_batch so the min/max extremes shed the
        # discarded warm-up batch along with the batch means.
        self.remote_latency.close_batch()
        self.local_latency.close_batch()
