"""Command-line entry point for the paper reproductions.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig14 --scale quick
    python -m repro.experiments fig6 fig7 --scale default --check
    python -m repro.experiments all --scale full --jobs 4 --json results/

Sweep points run through :mod:`repro.runtime`: ``--jobs N`` fans them
across N worker processes, and finished points are cached on disk under
``results/.cache/`` (keyed by the full point spec plus a hash of the
simulator sources), so re-running a figure after an unrelated edit is
almost entirely cache hits.  ``--no-cache`` disables the cache,
``--clear-cache`` wipes it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import sys
import time
from dataclasses import replace

from ..core.config import SCHEDULERS as SCHEDULER_CHOICES
from ..runtime import DEFAULT_CACHE_DIR, ProgressPrinter, ResultCache, runtime_context
from .base import SCALES, all_experiments, get_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Ravindran & Stumm (HPCA 1997)",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. fig14 table1), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="sweep breadth and simulation length (default: quick)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULER_CHOICES),
        default=None,
        help="run every sweep point under this scheduler instead of the "
        "default, 'columnar' (the C kernel; what it cannot run falls back "
        "to 'compiled').  All five return the same bytes and share one "
        "cache; name 'compiled' for the closure engine itself (see "
        "README's scheduler decision table)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run sweep points across N worker processes "
        "(default: REPRO_JOBS or 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=f"on-disk result cache location (default: REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete the on-disk result cache (then run any given experiments)",
    )
    parser.add_argument(
        "--cache-prune",
        metavar="BYTES",
        default=None,
        help="evict least-recently-used cache entries (any salt "
        "generation) until the cache is at most this many bytes; "
        "accepts K/M/G suffixes (then run any given experiments)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache statistics (entry count, total bytes, salt "
        "generations present) before running",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="evaluate the paper-shape checks and report pass/fail",
    )
    parser.add_argument(
        "--allow-saturated",
        action="store_true",
        help="exit 0 even when sweep points saturated without converging "
        "(expected when sweeping past a network's saturation knee)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        help="also write each result as JSON into this directory",
    )
    parser.add_argument(
        "--plot",
        metavar="DIR",
        help="also write each result as an SVG chart into this directory",
    )
    parser.add_argument(
        "--ascii",
        action="store_true",
        help="print an ASCII chart of each result after its table",
    )
    parser.add_argument(
        "--summarize",
        metavar="DIR",
        help="print a Markdown digest of saved results in DIR and exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase kernel wall-time profile after each "
        "experiment (profiling is process-local, so this forces "
        "--jobs 1 and --no-cache; the unprofiled hot loop is untouched)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run every sweep point with the runtime invariant auditor "
        "(repro.audit) checking flit conservation, buffer bounds, "
        "wormhole contiguity and transaction lifecycle each cycle; "
        "slow, forces --jobs 1 and --no-cache, fails fast on the "
        "first violation",
    )
    return parser


def _build_cache(args) -> ResultCache | None:
    if args.no_cache:
        return None
    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR", "").strip() or None
    return ResultCache(root)


def _parse_bytes(text: str) -> int:
    """``"500M"``-style byte sizes with K/M/G suffixes."""
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:].upper())
    if scale is not None:
        return int(float(text[:-1]) * scale)
    return int(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    experiments = all_experiments()

    if args.summarize:
        from ..analysis.reporting import summarize_results_dir

        print(summarize_results_dir(args.summarize))
        return 0

    if args.clear_cache:
        cache = _build_cache(args) or ResultCache(args.cache_dir)
        removed = cache.clear()
        print(f"cleared result cache at {cache.root} ({removed} entries)")
        if not args.experiments:
            return 0

    if args.cache_prune is not None:
        try:
            max_bytes = _parse_bytes(args.cache_prune)
        except ValueError:
            parser.error(f"--cache-prune: not a byte size: {args.cache_prune!r}")
        cache = _build_cache(args) or ResultCache(args.cache_dir)
        report = cache.prune(max_bytes)
        print(
            f"pruned result cache at {cache.root}: removed "
            f"{report.removed_entries} entries ({report.removed_bytes} bytes), "
            f"kept {report.kept_entries} entries ({report.kept_bytes} bytes)"
        )
        if not args.experiments and not args.cache_stats:
            return 0

    if args.cache_stats:
        cache = _build_cache(args) or ResultCache(args.cache_dir)
        print(f"result cache at {cache.root}: {cache.stats().describe()}")
        if not args.experiments:
            return 0

    if args.list or not args.experiments:
        width = max(len(eid) for eid in experiments)
        for eid in sorted(experiments, key=_experiment_sort_key):
            exp = experiments[eid]
            print(f"{eid:<{width}}  {exp.title}")
        return 0

    ids = sorted(experiments, key=_experiment_sort_key) if args.experiments == ["all"] else args.experiments
    scale = SCALES[args.scale]
    if args.scheduler is not None:
        # Scale (and its SimulationParams) key the memoized sweeps, so
        # swapping the scheduler here flows into every point spec (but
        # not into the cache identity: all schedulers share one).
        scale = replace(scale, sim=replace(scale.sim, scheduler=args.scheduler))
    if args.profile and args.audit:
        # Both swap in a dedicated engine step function; the audited
        # step carries no phase timers, so combining them would
        # silently drop the profile.
        parser.error("--audit and --profile are mutually exclusive")
    if args.profile or args.audit:
        # Profiling and auditing are process-local ambient state: worker
        # processes and cache hits would run (or skip) engines this
        # profile/auditor never sees.
        args.no_cache = True
        args.jobs = 1
    cache = _build_cache(args)
    failures_total = 0
    unconverged_total = 0
    for eid in ids:
        experiment = get_experiment(eid)
        reporter = ProgressPrinter(sys.stderr, label=eid, live=sys.stderr.isatty())
        started = time.time()
        profile = None
        auditor = None
        if args.profile:
            from ..core import profiling

            profile = profiling.PhaseProfile()
            profile_ctx = profiling.enabled(profile)
        elif args.audit:
            from .. import audit

            auditor = audit.Auditor()
            profile_ctx = audit.enabled(auditor)
        else:
            profile_ctx = contextlib.nullcontext()
        with runtime_context(jobs=args.jobs, cache=cache, progress=reporter.update):
            with profile_ctx:
                result = experiment.run(scale)
        elapsed = time.time() - started
        reporter.finish_line()
        print(result.format_table())
        if profile is not None:
            print(profile.format_table())
        if auditor is not None:
            print(f"[{eid}] {auditor.describe()}")
        print(
            f"[{eid}] scale={scale.name} elapsed={elapsed:.1f}s "
            f"sweep: {reporter.summary()}"
        )
        unconverged = result.unconverged_points()
        if unconverged:
            unconverged_total += len(unconverged)
            verdict = "allowed" if args.allow_saturated else "FAILING the run"
            print(
                f"[{eid}] {len(unconverged)} point(s) saturated without "
                f"converging ({verdict}):"
            )
            for description in unconverged:
                print(f"[{eid}]   {description}")
        if args.check:
            failures = experiment.evaluate(result)
            if failures:
                failures_total += len(failures)
                for failure in failures:
                    print(f"[{eid}] CHECK FAILED: {failure}")
            else:
                print(f"[{eid}] checks passed")
        if args.ascii:
            from ..analysis.plotting import ascii_chart

            print(ascii_chart(result))
        if args.json:
            out_dir = pathlib.Path(args.json)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_file = out_dir / f"{eid}_{scale.name}.json"
            out_file.write_text(result.to_json())
            print(f"[{eid}] wrote {out_file}")
        if args.plot:
            from ..analysis.plotting import write_svg

            out_dir = pathlib.Path(args.plot)
            out_dir.mkdir(parents=True, exist_ok=True)
            out_file = out_dir / f"{eid}_{scale.name}.svg"
            write_svg(result, out_file)
            print(f"[{eid}] wrote {out_file}")
        print()
    # Exit status is a bitmask: 1 = paper-shape check failures, 2 =
    # saturated-without-convergence points (unless --allow-saturated).
    status = 1 if failures_total else 0
    if unconverged_total and not args.allow_saturated:
        status |= 2
    return status


def _experiment_sort_key(eid: str) -> tuple:
    if eid.startswith("fig"):
        return (1, int("".join(ch for ch in eid if ch.isdigit()) or 0))
    if eid.startswith("table"):
        return (0, int("".join(ch for ch in eid if ch.isdigit()) or 0))
    return (2, eid)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
