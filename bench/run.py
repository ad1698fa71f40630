"""The benchmark's one entry point.

One workload, the way the driver calls it (last stdout line is the
result object; ``--trace 1`` gives the per-layer metrics instead of the
end-to-end ones)::

    python3 bench/run.py --workload ring_sat --seed 1 --seconds 10 --trace 0

Everything: each workload untraced, then traced, one child process
each; prints every end-to-end metric, then the per-layer metrics, and
writes ``ledger.json`` and ``trace.json`` to ``--out``::

    PYTHONPATH=src python -m bench.run --seed 1 --out bench/out/
    PYTHONPATH=src python -m bench.run --quick          # <= 30 s smoke, all checks
    PYTHONPATH=src python -m bench.run --compare A.json B.json
    PYTHONPATH=src python -m bench.run --ledger         # regenerate bench/LEDGER.md
    PYTHONPATH=src python -m bench.run --calibrate 10   # re-measure bench/noise.json

Exits non-zero when a check fails (full modes), when a compared row is
regressed or unresolved, or when ``src/repro`` is not there to measure.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from interpreter start

import argparse
import json
import os
import pathlib
import signal
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Run as a script, sys.path[0] is bench/ itself, whose trace.py would
# shadow the standard library's; import through the package instead.
if sys.path and os.path.abspath(sys.path[0] or ".") == str(HERE):
    sys.path.pop(0)
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("bench: src/repro not found next to bench/ - nothing to measure")

from bench import contract, proc, stats, workloads  # noqa: E402
from bench.ledger import num, render  # noqa: E402
from bench.trace import Tracer  # noqa: E402

#: Set-ups per untraced run; setup_s is their median.  A cheap set-up is
#: repeated more often (its relative scatter is the largest), up to
#: SETUP_BUDGET_SEC of set-up time in all.
SETUP_REPEATS = (3, 7)
SETUP_BUDGET_SEC = 1.5
NOISE_JSON = HERE / "noise.json"
LEDGER_MD = HERE / "LEDGER.md"
CHILD_TIMEOUT_SEC = 175.0


def make_workload(name: str, seed: int, quick: bool):
    if name in ("ring_sat", "mesh_sat", "idle_low", "columnar_mid"):
        from bench.sim import SimWorkload

        return SimWorkload(name, seed, quick)
    if name in ("sweep_fig", "sweep_warm"):
        from bench.sweep import SweepWorkload

        return SweepWorkload(name, seed, quick)
    from bench.svc import SvcWorkload

    return SvcWorkload(name, seed, quick)


# ----------------------------------------------------------------------
# one workload (the driver's contract)
# ----------------------------------------------------------------------
def child_command(args: argparse.Namespace, name: str, *extra: str) -> list[str]:
    command = proc.python(str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                          "--out", str(args.out), *extra)
    return command + (["--quick"] if args.quick else [])


def run_one(args: argparse.Namespace) -> int:
    spec = contract.load()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = pathlib.Path(args.out)
    tracer = Tracer()
    with proc.run_tmpdir():
        workload = make_workload(args.workload, args.seed, args.quick)
        try:
            workload.setup()
            raw_setup = time.perf_counter() - T0
            # at reference host speed, like the single-process operations
            setups = [raw_setup * stats.speed_factor(*(stats.reference_probe() for __ in range(3)))]
            if args.setup_only:
                print(json.dumps({"setup_s": setups[0]}))
                return 0
            if args.trace:
                outcome = workload.trace(args.seconds, tracer)
            else:
                outcome = workload.measure(args.seconds)
        finally:
            workload.close()
        if not args.trace:
            while not args.quick and (
                len(setups) < SETUP_REPEATS[0]
                or (len(setups) < SETUP_REPEATS[1] and len(setups) * raw_setup < SETUP_BUDGET_SEC)
            ):
                code, out = proc.run_child(
                    child_command(args, args.workload, "--setup-only"),
                    timeout=CHILD_TIMEOUT_SEC, env=proc.child_env(), cwd=str(ROOT),
                )
                outcome.checks.expect(code == 0, f"repeated set-up exited {code}")
                if code != 0:
                    break
                setups.append(json.loads(out.splitlines()[-1])["setup_s"])
            outcome.metrics["setup_s"] = statistics.median(setups)
            outcome.detail["raw_setup_s"] = raw_setup

    known = {m["name"] for m in wanted}
    stray = set(outcome.metrics) - known
    if stray:
        raise SystemExit(f"bench: metrics not declared in BENCHMARK.json: {sorted(stray)}")
    if not args.trace:
        for name in known - set(outcome.metrics):
            outcome.checks.expect(False, f"end-to-end metric {name} was not measured")
    checks = outcome.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": outcome.metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds, quick=args.quick,
        trace=args.trace, failures=checks.failures, detail=outcome.detail,
        host=stats.host_fingerprint(),
    )
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, sort_keys=True, indent=1)
    )
    if args.trace:
        tracer.dump(str(out_dir / f"trace-{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed})
    for failure in checks.failures:
        print(f"bench: FAILED CHECK [{args.workload}] {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload
# ----------------------------------------------------------------------
def run_child_workload(args: argparse.Namespace, name: str, trace: int, seconds: float,
                       metrics: list[dict]) -> dict:
    """One contract-mode child; returns its detail record (with problems)."""
    begin = time.perf_counter()
    code, out = proc.run_child(
        child_command(args, name, "--seconds", str(seconds), "--trace", str(trace)),
        timeout=CHILD_TIMEOUT_SEC, env=proc.child_env(), cwd=str(ROOT),
    )
    wall = time.perf_counter() - begin
    lines = out.splitlines()
    problems = [f"exit code {code}"] if code != 0 else []
    problems += contract.validate_result(lines[-1] if lines else "", metrics, end_to_end=not trace)
    record: dict = {"failed": 1, "attempted": 1, "failures": [], "metrics": {}, "detail": {}}
    if not problems:
        record = json.loads((pathlib.Path(args.out) / f"{name}-trace{trace}.json").read_text())
    record["problems"] = problems
    record["wall_s"] = wall
    return record


def run_all(args: argparse.Namespace) -> int:
    spec = contract.load()
    problems = contract.validate_benchmark(spec)
    if problems:
        raise SystemExit("bench: BENCHMARK.json: " + "; ".join(problems))
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seconds = 0.5 if args.quick else spec["run_seconds"]
    names = list(workloads.WORKLOADS)
    ledger: dict = {
        "schema": 1, "seed": args.seed, "quick": args.quick, "seconds": seconds,
        "sets": args.sets, "host": stats.host_fingerprint(), "workloads": {},
    }
    bad = 0
    walls = {0: 0.0, 1: 0.0}
    for name in names:
        ledger["workloads"][name] = {
            "end_to_end": {m["name"]: [] for m in spec["end_to_end"]},
            "per_layer": {}, "attempted": 0, "failed": 0, "failures": [],
        }
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for __ in range(1 if trace else args.sets):
            for name in names:
                record = run_child_workload(args, name, trace, seconds, metrics)
                walls[trace] += record["wall_s"]
                entry = ledger["workloads"][name]
                entry["attempted"] += record["attempted"]
                entry["failed"] += record["failed"] + len(record["problems"])
                entry["failures"] += record["failures"] + record["problems"]
                for metric, value in record["metrics"].items():
                    if trace:
                        entry["per_layer"][metric] = value["value"]
                    else:
                        entry["end_to_end"][metric].append(value["value"])
                if trace:
                    entry["trace_detail"] = record["detail"]
                else:
                    entry["samples"] = record["detail"]
                    entry["digest"] = record["detail"].get("digest")
                print(f"bench: {name} trace={trace} done in {record['wall_s']:.1f} s", file=sys.stderr)
    merge_traces(out_dir, names)
    for name in names:
        entry = ledger["workloads"][name]
        entry["failed_ratio"] = entry["failed"] / max(entry["attempted"], 1)
        bad += entry["failed"]
    ledger["wall_s"] = {"timed": walls[0], "traced": walls[1]}
    (out_dir / "ledger.json").write_text(json.dumps(ledger, sort_keys=True, indent=1))
    print(format_end_to_end(ledger, spec))
    print()
    print(format_per_layer(ledger, spec))
    print(f"\ntimed runs {walls[0]:.1f} s, traced runs {walls[1]:.1f} s; "
          f"ledger: {out_dir / 'ledger.json'}, spans: {out_dir / 'trace.json'}")
    for name in names:
        for failure in ledger["workloads"][name]["failures"]:
            print(f"FAILED CHECK [{name}] {failure}")
    return 1 if bad else 0


def merge_traces(out_dir: pathlib.Path, names: list[str]) -> None:
    merged = {}
    for name in names:
        part = out_dir / f"trace-{name}.json"
        if part.is_file():
            merged[name] = json.loads(part.read_text())["spans"]
            part.unlink()
    (out_dir / "trace.json").write_text(json.dumps(merged, sort_keys=True))


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def ordered(ledger: dict) -> list[tuple[str, dict]]:
    """The ledger's workloads in reporting order."""
    return [(n, ledger["workloads"][n]) for n in workloads.WORKLOADS if n in ledger["workloads"]]


def format_end_to_end(ledger: dict, spec: dict) -> str:
    """Every end-to-end metric per workload: median, quartiles, n over the
    ledger's sets, then the distribution of the timed operation itself."""
    lines = ["END-TO-END (tracing off)",
             f"{'workload':<13} {'metric':<17} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"]
    for name, entry in ordered(ledger):
        for metric in spec["end_to_end"]:
            values = entry["end_to_end"][metric["name"]]
            if not values:
                continue
            q1, median, q3 = stats.quartiles(values)
            lines.append(f"{name:<13} {metric['name']:<17} {metric['unit']:<5} "
                         f"{num(median):>12} {num(q1):>12} {num(q3):>12} {len(values):>3}")
        ops = entry.get("samples", {}).get("op_s") or entry.get("samples", {}).get("request_s")
        if ops:
            lines.append(f"{name:<13} {'(operation wall)':<17} {'ms':<5} {num(1e3 * ops['median']):>12} "
                         f"{num(1e3 * ops['q1']):>12} {num(1e3 * ops['q3']):>12} {ops['n']:>3}"
                         f"   {workloads.OPERATION[name]}")
        lines.append(f"{name:<13} {'failed_ratio':<17} {'':<5} {num(entry['failed_ratio']):>12} "
                     f"{'':>12} {'':>12} {entry['attempted']:>3}   result_digest {str(entry.get('digest'))[:16]}")
    return "\n".join(lines)


def format_per_layer(ledger: dict, spec: dict) -> str:
    """Per-layer metrics from the traced runs; a workload shows only the
    layers it measured (the others read 0)."""
    lines = ["PER-LAYER (traced run; layer = module name)"]
    for name, entry in ordered(ledger):
        lines.append(f"[{name}]")
        for metric in spec["per_layer"]:
            value = entry["per_layer"].get(metric["name"], 0.0)
            if value:
                lines.append(f"  {metric['name']:<42} {num(value):>12} {metric['unit']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare / calibrate / ledger
# ----------------------------------------------------------------------
def load_noise() -> dict:
    if NOISE_JSON.is_file():
        return json.loads(NOISE_JSON.read_text())["spread"]
    return {}


def run_compare(args: argparse.Namespace) -> int:
    spec = contract.load()
    base, new = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
    if base["host"] != new["host"]:
        print("bench: the two ledgers were measured on different hosts; timings are not comparable")
    rows = stats.compare(base, new, spec["end_to_end"], load_noise())
    print(f"{'workload':<13} {'metric':<17} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6} {'noise':>6}  verdict")
    bad = 0
    for row in rows:
        if row["metric"] == "result_digest":
            print(f"{row['workload']:<13} {'result_digest':<17} {str(row['base'])[:12]:>12} "
                  f"{str(row['new'])[:12]:>12} {'':>9} {'':>6} {'':>6}  changed")
            bad += 1
            continue
        print(f"{row['workload']:<13} {row['metric']:<17} {num(row['base']):>12} {num(row['new']):>12} "
              f"{100 * row['worsening']:>8.1f}% {100 * row['bound']:>5.0f}% {100 * row['noise']:>5.1f}%  "
              f"{row['verdict']}")
        bad += row["verdict"] in ("regressed", "unresolved")
    return 1 if bad else 0


def run_calibrate(args: argparse.Namespace) -> int:
    """N single-workload runs per workload, each on another seed: the
    spread (quartile distance over median) of every end-to-end metric,
    written to bench/noise.json and set against its bound."""
    spec = contract.load()
    runs = args.calibrate
    names = list(workloads.WORKLOADS)
    previous = json.loads(NOISE_JSON.read_text()) if NOISE_JSON.is_file() else {"spread": {}, "median": {}}
    bad = 0
    print(f"{'workload':<13} {'metric':<17} {'median':>12} {'spread':>7} {'bound':>6}")
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        raw_p50: list[float] = []
        for seed in range(1, runs + 1):
            args.seed = seed
            record = run_child_workload(args, name, 0, spec["run_seconds"], spec["end_to_end"])
            bad += record["failed"] + len(record["problems"])
            walls.append(record["wall_s"])
            for failure in record["failures"] + record["problems"]:
                print(f"FAILED CHECK [{name} seed {seed}] {failure}")
            for metric, value in record["metrics"].items():
                values[metric].append(value["value"])
            raw = record["detail"].get("raw_op_s")
            if raw:
                raw_p50.append(1e3 * raw["median"])
        if len(raw_p50) > 1:
            print(f"{name:<13} {'(p50_ms, raw)':<17} {num(statistics.median(raw_p50)):>12} "
                  f"{100 * stats.spread(raw_p50):>6.1f}%   as the clock read it, before host-speed scaling")
        print(f"{name:<13} {'(wall per run)':<17} {num(statistics.median(walls)):>12} s, max {max(walls):.1f} s")
        previous["spread"][name] = {}
        previous["median"][name] = {}
        for metric in spec["end_to_end"]:
            got = values[metric["name"]]
            if len(got) < 2:
                continue
            share = stats.spread(got)
            previous["spread"][name][metric["name"]] = round(share, 4)
            previous["median"][name][metric["name"]] = statistics.median(got)
            flag = "" if share <= metric["bound"] / 3 or metric["name"] == "setup_s" else (
                "  > bound/3" if share <= metric["bound"] else "  > BOUND")
            print(f"{name:<13} {metric['name']:<17} {num(statistics.median(got)):>12} "
                  f"{100 * share:>6.1f}% {100 * metric['bound']:>5.0f}%{flag}", flush=True)
    previous["runs"] = runs
    previous["host"] = stats.host_fingerprint()
    NOISE_JSON.write_text(json.dumps(previous, sort_keys=True, indent=1) + "\n")
    return 1 if bad else 0


def run_ledger(args: argparse.Namespace) -> int:
    source = pathlib.Path(args.ledger)
    LEDGER_MD.write_text(render(json.loads(source.read_text()), contract.load(), load_noise()))
    print(f"wrote {LEDGER_MD}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run this one workload and print the result object")
    parser.add_argument("--seed", type=int, default=1, help="workload inputs are generated from it")
    parser.add_argument("--seconds", type=float, default=None, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--out", default=str(proc.OUT), help="where records, ledger and spans go")
    parser.add_argument("--quick", action="store_true",
                        help="1 repeat, quarter-length inputs, 0.5 s windows; every workload and check")
    parser.add_argument("--sets", type=int, default=1, help="untraced sets per workload (full run)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    parser.add_argument("--ledger", nargs="?", const=str(proc.OUT / "ledger.json"), metavar="LEDGER.json",
                        help="regenerate bench/LEDGER.md from a ledger")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="N runs per workload on seeds 1..N; rewrites bench/noise.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every child is reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    if args.compare:
        return run_compare(args)
    if args.ledger:
        return run_ledger(args)
    if args.calibrate:
        return run_calibrate(args)
    if args.workload:
        if args.seconds is None:
            args.seconds = 0.5 if args.quick else float(contract.load()["run_seconds"])
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
