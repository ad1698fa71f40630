"""Parallel sweep-point execution with caching and telemetry.

:func:`run_points` is the one chokepoint every sweep goes through.  It

* serves points from the on-disk :class:`~repro.runtime.cache.ResultCache`
  when one is active,
* runs the remaining points in-process with one job, or longest first
  on the pool of :mod:`repro.runtime.workers` with more (results are
  collected by index, so output order always matches input order
  regardless of completion order), and
* invokes a progress hook after every completed point.

Defaults come from an ambient :func:`runtime_context`, so the CLI can
set ``--jobs``/cache policy once and every nested sweep — including the
memoized runners in :mod:`repro.experiments._shared` — picks them up
without parameter plumbing.  Outside any context, ``REPRO_JOBS``
selects the job count (default 1: serial, exactly the old behavior)
and ``REPRO_CACHE_DIR`` activates the on-disk cache.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Final, Iterable, Iterator, Sequence, cast

from ..core.errors import ConfigurationError
from ..core.simulation import replica_seeds, simulate, simulate_batch
from .cache import ResultCache
from .memcache import GLOBAL_MEMCACHE, entry_key
from .serialization import result_from_payload
from .spec import PointSpec
from .telemetry import Progress, ProgressHook

if TYPE_CHECKING:
    from ..core.simulation import SimulationResult


class _UnsetType:
    """Sentinel type distinguishing "not passed" from an explicit ``None``."""


_UNSET: Final = _UnsetType()


@dataclass
class _Context:
    """Ambient defaults installed by :func:`runtime_context`."""

    jobs: int | None = None
    cache: ResultCache | None | _UnsetType = _UNSET
    progress: ProgressHook | None = None


_context = _Context()


@contextmanager
def runtime_context(
    jobs: int | None = None,
    cache: ResultCache | None | _UnsetType = _UNSET,
    progress: ProgressHook | None = None,
) -> Iterator[None]:
    """Set default jobs / cache / progress hook for nested ``run_points``.

    ``jobs=None``, ``cache=_UNSET`` or ``progress=None`` leave the
    corresponding outer setting untouched; ``cache=None`` explicitly
    disables caching inside the block.
    """
    saved = _Context(jobs=_context.jobs, cache=_context.cache, progress=_context.progress)
    if jobs is not None:
        _context.jobs = jobs
    if not isinstance(cache, _UnsetType):
        _context.cache = cache
    if progress is not None:
        _context.progress = progress
    try:
        yield
    finally:
        _context.jobs = saved.jobs
        _context.cache = saved.cache
        _context.progress = saved.progress


def resolve_jobs(jobs: int | None = None) -> int:
    """Explicit argument, else ambient context, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        jobs = _context.jobs
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    jobs = int(jobs)
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _resolve_cache(cache: ResultCache | None | _UnsetType) -> ResultCache | None:
    if not isinstance(cache, _UnsetType):
        return cache
    if not isinstance(_context.cache, _UnsetType):
        return _context.cache
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ResultCache(env) if env else None


def _tier_key(cache: ResultCache, spec_key: str) -> str:
    return entry_key(str(cache.root), cache.salt, spec_key)


def cache_lookup(
    cache: ResultCache, spec: PointSpec, spec_key: str | None = None
) -> "tuple[str, SimulationResult, str] | None":
    """Two-tier lookup: the process-wide memory tier first, then disk
    (promoting to memory).

    Returns ``(canonical_text, result, tier)`` with ``tier`` either
    ``"mem"`` or ``"disk"``, or ``None`` on a full miss.  The text is
    byte-identical to what a fresh ``run_point`` of the same spec would
    canonically serialize to, so services can return it verbatim.
    """
    if spec_key is None:
        spec_key = spec.key()
    key = _tier_key(cache, spec_key)
    if GLOBAL_MEMCACHE.enabled:
        hit = GLOBAL_MEMCACHE.get(key)
        if hit is not None:
            return hit[0], hit[1], "mem"
    entry = cache.get_entry(spec, spec_key)
    if entry is None:
        return None
    GLOBAL_MEMCACHE.put(key, entry[0])
    return entry[0], entry[1], "disk"


def cache_store(
    cache: ResultCache,
    spec: PointSpec,
    result: SimulationResult,
    spec_key: str | None = None,
) -> str:
    """Write *result* through both tiers; returns its canonical text."""
    if spec_key is None:
        spec_key = spec.key()
    text = cache.put(spec, result, spec_key)
    GLOBAL_MEMCACHE.put(_tier_key(cache, spec_key), text)
    return text


def _load_simulator(specs: "Iterable[PointSpec]" = ()) -> None:
    """Import what *specs* will run on into this process, ahead of a fork.

    Nothing this module imports at top level loads the simulator: a
    sweep served entirely from the cache tiers never pays for it, and
    ``simulate()`` imports it on the first miss.  A process about to
    fork pool workers calls this first, so the workers inherit the
    loaded modules — and the C kernel's mapping: on a host whose kernel
    cache is still empty this is where the one compile happens, instead
    of every worker racing its own — rather than each loading them
    inside its first point.

    That is the kernel tier (``ckernel``, ``columnar`` and with it the
    topology plan) always, and the object model — the engine stack —
    only where a point will step it: no loadable kernel on this host, a
    scheduler other than the default, or a point the kernel does not
    model (slotted switching, bursty injection).  A caller that cannot
    know its points (the service) passes none and lets the worker that
    first meets such a point import the engine.
    """
    from ..core import ckernel, columnar

    if ckernel.load() is None or any(
        spec.params.scheduler != "columnar"
        or not columnar._kernel_models(spec.system, spec.workload)
        for spec in specs
    ):
        from ..core import engine, pm  # noqa: F401


def _expected_cost(spec: PointSpec) -> int:
    """Relative run time of one point: PM count x simulated cycles."""
    params = spec.params
    return spec.system.processors * params.batch_cycles * params.batches


def _execute(spec: PointSpec) -> SimulationResult:
    """Run one fully-resolved simulation point, here or in a pool worker."""
    return simulate(spec.system, spec.workload, spec.params)


def _replica_spec(spec: PointSpec, seed: int) -> PointSpec:
    """The per-seed cache identity of one replica of *spec*.

    ``replicas`` is forced back to 1 (like ``scheduler`` it is excluded
    from the cache key anyway) so the spec equals the one a plain
    ``run_point`` of that seed would use — batch entries and solo
    entries are interchangeable cache currency.
    """
    return replace(spec, params=replace(spec.params, seed=seed, replicas=1))


def run_replica_batch(
    spec: PointSpec,
    seeds: Sequence[int] | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None | _UnsetType = _UNSET,
    progress: ProgressHook | None = None,
) -> list[SimulationResult]:
    """Run one point under N seeds as lockstep batches.

    Returns one :class:`SimulationResult` per seed, in seed order.
    ``seeds`` defaults to ``spec.params.seed .. seed + replicas - 1``.
    Each replica is a first-class cache citizen: its per-seed spec is
    exactly the one a solo ``run_point`` of that seed reads or writes,
    and :func:`run_points` serves and stores it as one.  With one job
    the missing seeds run in-process as one lockstep batch; with more,
    one point each on the pool.

    With ``spec.params.scheduler == "columnar"`` (the default) the
    batch runs on the C kernel tier instead
    (:mod:`repro.core.columnar`): the same bytes per seed, so it fills
    — and is served by — the very entries a ``compiled`` request for
    that seed reads.
    """
    seeds = replica_seeds(spec.params, seeds)
    unique_seeds = tuple(dict.fromkeys(seeds))

    def lockstep(misses: list[PointSpec]) -> list[SimulationResult]:
        missing = tuple(miss.params.seed for miss in misses)
        return simulate_batch(spec.system, spec.workload, spec.params, seeds=missing)

    replicas = [_replica_spec(spec, seed) for seed in unique_seeds]
    by_seed = dict(zip(unique_seeds, _run(replicas, jobs, cache, progress, lockstep)))
    return [by_seed[seed] for seed in seeds]


def run_point(
    spec: PointSpec, *, cache: ResultCache | None | _UnsetType = _UNSET
) -> SimulationResult:
    """Run (or fetch from cache) a single point, always in-process."""
    return run_points([spec], jobs=1, cache=cache)[0]


def run_points(
    specs: "Sequence[PointSpec] | Iterable[PointSpec]",
    *,
    jobs: int | None = None,
    cache: ResultCache | None | _UnsetType = _UNSET,
    progress: ProgressHook | None = None,
) -> list[SimulationResult]:
    """Run every point, in input order, honoring cache and job count."""
    return _run(list(specs), jobs, cache, progress, lambda misses: map(_execute, misses))


def _run(
    specs: list[PointSpec],
    jobs: int | None,
    cache: ResultCache | None | _UnsetType,
    progress: ProgressHook | None,
    in_process: Callable[[list[PointSpec]], Iterable[SimulationResult]],
) -> list[SimulationResult]:
    """:func:`run_points`, with *in_process* running the misses of one job."""
    jobs = resolve_jobs(jobs)
    active_cache = _resolve_cache(cache)
    hook = progress if progress is not None else _context.progress

    tracker = Progress(total=len(specs))
    results: list[SimulationResult | None] = [None] * len(specs)
    # Single-flight within the batch: repeated identical specs coalesce
    # onto one representative computation (points are deterministic, so
    # duplicates would reproduce the same result bit for bit anyway).
    followers: dict[int, list[int]] = {}
    rep_by_key: dict[str, int] = {}
    for index, spec in enumerate(specs):
        spec_key = spec.key()
        hit = (
            cache_lookup(active_cache, spec, spec_key)
            if active_cache is not None
            else None
        )
        if hit is not None:
            results[index] = hit[1]
            tracker.done += 1
            tracker.cache_hits += 1
            if hit[2] == "mem":
                tracker.memcache_hits += 1
            if hook:
                hook(tracker)
            continue
        rep = rep_by_key.get(spec_key)
        if rep is None:
            rep_by_key[spec_key] = index
            followers[index] = []
        else:
            followers[rep].append(index)

    def _record(index: int, result: SimulationResult) -> None:
        results[index] = result
        tracker.done += 1
        if hook:
            hook(tracker)
        for dup_index in followers[index]:
            results[dup_index] = result
            tracker.done += 1
            tracker.dedup_hits += 1
            if hook:
                hook(tracker)

    misses = list(rep_by_key.items())
    if misses and jobs == 1:
        computed = in_process([specs[index] for __, index in misses])
        for (spec_key, index), result in zip(misses, computed):
            if active_cache is not None:
                cache_store(active_cache, specs[index], result, spec_key)
            _record(index, result)
    elif misses:
        # The simulator first, the pool stack after: compiling the engine
        # once ``multiprocessing`` is loaded leaves this process's peak
        # RSS ~1.3 MB higher.
        _load_simulator(specs[index] for __, index in misses)
        from .workers import run_all

        # Longest-expected-first: a big point sent last would run alone
        # while the other workers idle.  Results are filled by index, so
        # output order is unaffected.
        misses.sort(key=lambda miss: _expected_cost(specs[miss[1]]), reverse=True)

        def _reply(rank: int, text: str) -> None:
            # The worker wrote the disk entry: decode its text as a disk
            # hit is decoded and keep it in the memory tier.
            spec_key, index = misses[rank]
            if active_cache is not None:
                GLOBAL_MEMCACHE.put(_tier_key(active_cache, spec_key), text)
            _record(index, result_from_payload(json.loads(text)))

        run_all([specs[index] for __, index in misses], jobs, active_cache, _reply)

    return cast("list[SimulationResult]", results)  # every slot is filled above
