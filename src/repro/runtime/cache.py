"""Content-addressed on-disk cache of simulation results.

Layout::

    <root>/<code-salt>/<key[:2]>/<key>.json

where *key* is :meth:`PointSpec.key` (a SHA-256 of the canonical point
payload) and *code-salt* hashes every ``.py`` file of the installed
``repro`` package.  Editing any simulator source therefore invalidates
the whole cache implicitly — stale entries from older code versions are
simply never looked up again (``clear()`` removes them for good).

An entry's bytes are the result's canonical text
(:func:`~repro.runtime.serialization.canonical_json` of its payload),
so a hit hands out the file as read, with no re-encode.  Entries are
written atomically (temp file + ``os.replace``) so a killed run never
leaves a truncated entry; unreadable or corrupt entries — truncated,
empty, another schema — are treated as misses, and the recomputed
point's ``put`` replaces them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .serialization import canonical_json, result_from_payload, result_payload

if TYPE_CHECKING:
    from ..core.simulation import SimulationResult
    from .spec import PointSpec

#: Default cache root, relative to the working directory; override with
#: the ``REPRO_CACHE_DIR`` environment variable or ``--cache-dir``.
DEFAULT_CACHE_DIR = pathlib.Path("results") / ".cache"

#: Salt injected by :func:`prime_code_version_salt`; worker processes
#: receive the parent's salt when they start instead of
#: re-hashing the whole package on first cache touch.
_primed_salt: str | None = None


def prime_code_version_salt(salt: str) -> None:
    """Install a precomputed salt for this process.

    A pool worker (:mod:`repro.runtime.workers`) calls it with its
    parent's salt first thing, so it never pays the package re-hash of
    :func:`code_version_salt`.
    """
    global _primed_salt
    _primed_salt = salt


def code_version_salt() -> str:
    """Hash of the installed ``repro`` package's Python sources.

    A salt installed by :func:`prime_code_version_salt` (worker
    processes) takes precedence; otherwise the package sources are
    hashed once per process and memoized.
    """
    if _primed_salt is not None:
        return _primed_salt
    return _computed_code_version_salt()


@lru_cache(maxsize=1)
def _computed_code_version_salt() -> str:
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Disk-cache population snapshot across every salt generation."""

    entries: int = 0
    total_bytes: int = 0
    salts: list[str] = field(default_factory=list)

    def describe(self) -> str:
        salts = ", ".join(self.salts) if self.salts else "none"
        return (
            f"{self.entries} entries, {self.total_bytes} bytes, "
            f"salt generations: {salts}"
        )


@dataclass
class PruneReport:
    """What :meth:`ResultCache.prune` removed and what survived."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0


class ResultCache:
    """Maps :class:`PointSpec` keys to stored :class:`SimulationResult`."""

    def __init__(
        self, root: "pathlib.Path | str | None" = None, salt: str | None = None
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else DEFAULT_CACHE_DIR
        self.salt = salt if salt is not None else code_version_salt()

    def path_for(self, spec: PointSpec, spec_key: str | None = None) -> pathlib.Path:
        """Where *spec*'s entry lives; *spec_key* saves re-hashing a
        spec whose :meth:`PointSpec.key` the caller already has."""
        key = spec_key if spec_key is not None else spec.key()
        return self.root / self.salt / key[:2] / f"{key}.json"

    def get(self, spec: PointSpec) -> SimulationResult | None:
        entry = self.get_entry(spec)
        return entry[1] if entry is not None else None

    def get_entry(
        self, spec: PointSpec, spec_key: str | None = None
    ) -> "tuple[str, SimulationResult] | None":
        """Hit as ``(canonical_text, result)``; corrupt entries miss.

        The text is the file as read, once it has parsed into a result:
        :meth:`put` writes canonical text, and every entry under this
        salt was written by this code, so callers that serve cached
        results over the wire hand out exactly the bytes a fresh
        ``run_point`` of the same spec would serialize to.
        """
        try:
            text = self.path_for(spec, spec_key).read_text()
            return text, result_from_payload(json.loads(text))
        # AttributeError: JSON that is not an object (``payload.get``)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put(
        self, spec: PointSpec, result: SimulationResult, spec_key: str | None = None
    ) -> str:
        """Write *spec*'s entry and return its canonical text."""
        text = canonical_json(result_payload(result))
        path = self.path_for(spec, spec_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        finally:
            # Gone after a successful replace; left over only when the
            # write or the rename raised.
            tmp.unlink(missing_ok=True)
        return text

    def clear(self) -> int:
        """Delete the whole cache root; returns entries removed."""
        import shutil  # only this rarely-taken path needs it

        removed = len(list(self.root.rglob("*.json"))) if self.root.exists() else 0
        shutil.rmtree(self.root, ignore_errors=True)
        return removed

    def entry_count(self) -> int:
        """Entries stored under the *current* code-version salt."""
        salted = self.root / self.salt
        if not salted.exists():
            return 0
        return sum(1 for __ in salted.rglob("*.json"))

    def _entries(self) -> "list[tuple[float, int, pathlib.Path]]":
        """Every entry across all salts as ``(mtime, bytes, path)``."""
        entries: list[tuple[float, int, pathlib.Path]] = []
        if not self.root.exists():
            return entries
        for path in self.root.rglob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def stats(self) -> CacheStats:
        """Entry count, total bytes, and salt generations present."""
        stats = CacheStats()
        salts: set[str] = set()
        for __, size, path in self._entries():
            stats.entries += 1
            stats.total_bytes += size
            salts.add(path.relative_to(self.root).parts[0])
        stats.salts = sorted(salts)
        return stats

    def prune(self, max_bytes: int) -> PruneReport:
        """Evict least-recently-used entries until <= *max_bytes* total.

        Recency is file mtime — reads never bump it, so this is
        least-recently-*written* eviction across every salt generation
        (stale-salt entries age out first since nothing rewrites them).
        Emptied ``<salt>/<prefix>`` directories are removed with the
        entries.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = sorted(self._entries())
        report = PruneReport(
            kept_entries=len(entries),
            kept_bytes=sum(size for __, size, __path in entries),
        )
        for __, size, path in entries:
            if report.kept_bytes <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            report.removed_entries += 1
            report.removed_bytes += size
            report.kept_entries -= 1
            report.kept_bytes -= size
            parent = path.parent
            while parent != self.root:
                try:
                    parent.rmdir()
                except OSError:
                    break
                parent = parent.parent
        return report
