"""Command line front end: ``python -m repro.audit <subcommand>``.

``fuzz``
    Differential fuzz campaign: randomized small configurations run
    under all three schedulers with the invariant auditor on, result
    JSON compared byte-for-byte, failures shrunk to minimal reproducer
    specs on disk.  Exit 1 if any case fails.

``smoke``
    Audited runs of one representative point per figure-family config
    (hierarchy depths, double-speed global ring, slotted switching,
    mesh buffer depths) under every scheduler, asserting byte-identical
    results and zero invariant violations.  Exit 1 on any violation or
    divergence.

``replay FILE``
    Re-run a reproducer JSON written by ``fuzz``.  Exit 1 if it still
    fails (i.e. exit 0 means the bug it captured is fixed).

``stat-equiv``
    Paired columnar-vs-baseline campaign (:mod:`repro.audit.stat_equiv`):
    every paper topology family runs under both schedulers across a
    common seed set, gated on byte-equal per-seed result payloads (the
    cross-seed 95% confidence intervals and flit-volume ratio they
    imply are still reported).  Exit 1 if any point fails.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path
from typing import Callable

from ..core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from ..core.simulation import SystemConfig, simulate
from ..runtime.serialization import canonical_json, result_payload
from .fuzz import SCHEDULERS, replay, run_fuzz
from .invariants import Auditor
from .runtime import enabled

#: Default reproducer output directory (mirrors the experiments layout).
DEFAULT_OUT = Path("results/audit")

#: One representative configuration per figure family (fig06–fig21
#: sweep the same system shapes over larger sizes and workloads).
SMOKE_SYSTEMS: list[tuple[str, SystemConfig]] = [
    ("ring-1level", RingSystemConfig(topology="8", cache_line_bytes=32)),
    ("ring-2level", RingSystemConfig(topology="2:4", cache_line_bytes=32)),
    ("ring-3level", RingSystemConfig(topology="2:2:4", cache_line_bytes=32)),
    (
        "ring-fast-global",
        RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2),
    ),
    (
        "ring-slotted",
        RingSystemConfig(topology="2:4", cache_line_bytes=32, switching="slotted"),
    ),
    ("mesh-buf1", MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=1)),
    ("mesh-buf4", MeshSystemConfig(side=4, cache_line_bytes=32, buffer_flits=4)),
    ("mesh-bufcl", MeshSystemConfig(side=3, cache_line_bytes=64, buffer_flits="cl")),
]

SMOKE_PARAMS = SimulationParams(batch_cycles=400, batches=3, seed=7)
SMOKE_WORKLOAD = WorkloadConfig(miss_rate=0.05, outstanding=4)


def run_smoke(log: Callable[[str], object] = print) -> int:
    """Audited cross-scheduler identity check on the smoke matrix."""
    failures = 0
    auditor = Auditor()
    for name, system in SMOKE_SYSTEMS:
        payloads: dict[str, str] = {}
        with enabled(auditor):
            for scheduler in SCHEDULERS:
                result = simulate(
                    system,
                    SMOKE_WORKLOAD,
                    replace(SMOKE_PARAMS, scheduler=scheduler),
                )
                payloads[scheduler] = canonical_json(result_payload(result))
        baseline = payloads[SCHEDULERS[0]]
        diverged = [s for s in SCHEDULERS[1:] if payloads[s] != baseline]
        if diverged:
            failures += 1
            log(f"{name}: DIVERGED ({', '.join(diverged)} vs {SCHEDULERS[0]})")
        else:
            log(f"{name}: ok")
    log(auditor.describe())
    if auditor.violations:
        failures += len(auditor.violations)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description="runtime invariant auditing and differential fuzzing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz_p = sub.add_parser("fuzz", help="differential fuzz campaign")
    fuzz_p.add_argument("--cases", type=int, default=50, help="cases to run")
    fuzz_p.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_p.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="reproducer output directory"
    )
    fuzz_p.add_argument(
        "--no-lifecycle",
        action="store_true",
        help="skip the post-run drain/quiescence pass",
    )
    fuzz_p.add_argument(
        "--include-columnar",
        action="store_true",
        help="also run each case on the columnar C kernel with the "
        "sampled materialization audit; its result must equal the "
        "baseline byte for byte",
    )

    sub.add_parser("smoke", help="audited scheduler-identity smoke matrix")

    replay_p = sub.add_parser("replay", help="re-run a fuzz reproducer")
    replay_p.add_argument("file", type=Path, help="reproducer JSON path")

    equiv_p = sub.add_parser(
        "stat-equiv", help="paired columnar-vs-baseline campaign (exact)"
    )
    equiv_p.add_argument(
        "--seeds", type=int, default=8, help="seeds per side of each paired point"
    )
    equiv_p.add_argument(
        "--seed", type=int, default=1, help="first simulation seed"
    )
    equiv_p.add_argument(
        "--baseline",
        default="compiled",
        choices=["compiled", "batched", "active", "naive"],
        help="bit-exact baseline scheduler (all are byte-identical; "
        "'batched' is the fastest)",
    )
    equiv_p.add_argument(
        "--points",
        default=None,
        metavar="SUBSTR[,SUBSTR...]",
        help="only run paper points whose name contains one of these "
        "substrings (e.g. 'ring-2level,mesh' for the fig7/fig12 "
        "families); default: all",
    )

    args = parser.parse_args(argv)
    if args.command == "fuzz":
        failures = run_fuzz(
            cases=args.cases,
            seed=args.seed,
            out_dir=args.out,
            lifecycle=not args.no_lifecycle,
            include_columnar=args.include_columnar,
        )
        return 1 if failures else 0
    if args.command == "smoke":
        return 1 if run_smoke() else 0
    if args.command == "replay":
        return 1 if replay(args.file).failed else 0
    if args.command == "stat-equiv":
        from .stat_equiv import paper_points, run_campaign

        points: list[tuple[str, SystemConfig]] | None = None
        if args.points is not None:
            wanted = [s.strip() for s in args.points.split(",") if s.strip()]
            points = [
                (name, system)
                for name, system in paper_points()
                if any(w in name for w in wanted)
            ]
            if not points:
                parser.error(
                    f"--points {args.points!r} matches no paper point; "
                    f"names: {', '.join(n for n, _ in paper_points())}"
                )
        reports = run_campaign(
            points=points,
            seeds=range(args.seed, args.seed + args.seeds),
            baseline=args.baseline,
            log=print,
        )
        failed = sum(1 for r in reports if not r.passed)
        print(
            f"stat-equiv: {len(reports)} point(s), {failed} failure(s)"
        )
        return 1 if failed else 0
    raise AssertionError(f"unhandled command {args.command!r}")
