"""``BENCHMARK.json`` and the result line, checked against their contract.

``BENCHMARK.json`` is the single list of metric names, units, directions
and regression bounds; the harness reads it rather than repeating it.
``--quick`` validates both, so a CI job can run the benchmark without
editing ``bench/``.
"""

from __future__ import annotations

import json
import re
from typing import Any

from . import proc

BENCHMARK_JSON = proc.ROOT / "BENCHMARK.json"

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load() -> dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def validate_benchmark(doc: dict[str, Any]) -> list[str]:
    """Problems with a ``BENCHMARK.json`` document (empty list: none)."""
    problems: list[str] = []
    if set(doc) != _TOP_KEYS:
        problems.append(f"top-level keys must be exactly {sorted(_TOP_KEYS)}")
        return problems
    command, paths = doc["command"], doc["paths"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command: 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        problems.append("command: no absolute path, no '..'")
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and _PATH.match(p) for p in paths)):
        problems.append("paths: 1-16 relative directory names")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds: whole number from 1 to 60")
    names: list[str] = []

    def entries(key: str, low: int, high: int, fields: set[str]) -> list[dict[str, Any]]:
        items = doc[key]
        if not (isinstance(items, list) and low <= len(items) <= high):
            problems.append(f"{key}: {low} to {high} entries")
            return []
        good = []
        for item in items:
            if not (isinstance(item, dict) and set(item) == fields):
                problems.append(f"{key}: every entry has exactly {sorted(fields)}")
                continue
            if not (isinstance(item["name"], str) and _NAME.match(item["name"])):
                problems.append(f"{key}: bad name {item['name']!r}")
            names.append(item["name"])
            good.append(item)
        return good

    for workload in entries("workloads", 2, 8, {"name", "why"}):
        why = workload["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            problems.append(f"workloads: {workload['name']}: why is one line of at most 200 characters")
    metric_fields = {"name", "unit", "better"}
    end_to_end = entries("end_to_end", 1, 16, metric_fields | {"bound"})
    for metric in end_to_end + entries("per_layer", 1, 128, metric_fields):
        if not (isinstance(metric["unit"], str) and _UNIT.match(metric["unit"])):
            problems.append(f"{metric['name']}: bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']}: better is 'lower' or 'higher'")
    for metric in end_to_end:
        bound = metric["bound"]
        if not (isinstance(bound, (int, float)) and not isinstance(bound, bool) and 0 < bound <= 0.25):
            problems.append(f"{metric['name']}: bound must be in (0, 0.25]")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end must hold setup_s with unit s, better lower")
    if len(set(names)) != len(names):
        problems.append("every name is used once")
    if len(json.dumps(doc)) > 64 * 1024:
        problems.append("file larger than 64 KiB")
    return problems


def validate_result(line: str, metrics: list[dict[str, Any]], end_to_end: bool) -> list[str]:
    """Problems with one result line, given the metrics it must carry."""
    try:
        doc = json.loads(line)
    except ValueError as exc:
        return [f"last stdout line is not JSON: {exc}"]
    problems: list[str] = []
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(doc["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            problems.append(f"{key} must be a whole number")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted must be at least 1")
    units = {m["name"]: m["unit"] for m in metrics}
    got = doc["metrics"]
    if set(got) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(got))}, "
            f"extra {sorted(set(got) - set(units))}"
        )
        return problems
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != units[name]:
            problems.append(f"{name}: needs value and unit {units[name]!r}")
        elif not isinstance(entry["value"], (int, float)) or isinstance(entry["value"], bool):
            problems.append(f"{name}: value must be a number")
        elif end_to_end and not entry["value"] > 0:
            problems.append(f"{name}: end-to-end value must be positive")
    return problems
