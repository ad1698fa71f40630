"""``python -m repro.service`` — run the async sweep server.

Examples::

    PYTHONPATH=src python -m repro.service --port 8650 --shards 2 --workers-per-shard 2
    PYTHONPATH=src python -m repro.service --port 0 --no-cache   # ephemeral port
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys

from ..runtime import DEFAULT_CACHE_DIR, MemCache, ResultCache
from ..runtime.memcache import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES
from .app import DEFAULT_HOST, DEFAULT_PORT, SweepService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Async sweep service: HTTP/JSON job API over repro.runtime",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"listen port; 0 picks an ephemeral one (default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker shards; identical points always land on the "
        "same shard (default 2)",
    )
    parser.add_argument(
        "--workers-per-shard",
        type=int,
        default=2,
        help="worker processes per shard (default 2)",
    )
    parser.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="concurrent jobs drained from the priority queue (default 2)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="disk result-cache root "
        f"(default: REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the disk tier (memory LRU + dedup only)",
    )
    parser.add_argument(
        "--mem-entries",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        help="in-memory LRU entry bound, ~1.5 KB each (default: %(default)s); "
        "0 disables the memory tier",
    )
    parser.add_argument(
        "--mem-bytes",
        type=int,
        default=DEFAULT_MAX_BYTES,
        help="in-memory LRU byte bound; 0 disables the memory tier",
    )
    parser.add_argument(
        "--no-warm-up",
        action="store_true",
        help="skip pre-spawning shard workers at startup",
    )
    return parser


def banner(service: SweepService) -> str:
    """The start-up line: address, workers, cache tiers and code salt."""
    mem = service.tiers.mem.enabled
    if service.tiers.disk is not None:
        tiers = "mem+disk" if mem else "disk-only"
    else:
        tiers = "mem-only" if mem else "no cache"
    return (
        f"repro-service listening on {service.host}:{service.port} "
        f"({service.pools.shards} shards x "
        f"{service.pools.workers_per_shard} workers, {tiers}, "
        f"salt {service.salt})"
    )


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    cache = None
    if not args.no_cache:
        root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR", "").strip() or None
        cache = ResultCache(root)
    service = SweepService(
        args.host,
        args.port,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        cache=cache,
        mem=MemCache(max_entries=args.mem_entries, max_bytes=args.mem_bytes),
        job_workers=args.job_workers,
    )

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, service._stopping.set)
        await service.start()
        print(banner(service), flush=True)
        await service.serve(warm_up=not args.no_warm_up)
        print("repro-service: clean shutdown", flush=True)

    asyncio.run(_main())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
