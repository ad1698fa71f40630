"""The output digest shared by the harness and its fresh-process probes.

Kept in a module of its own, importing nothing of ``bench``, so the sweep
driver (whose whole process is timed) pays for nothing but this.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable


def digest_of(results: Iterable[Any]) -> str:
    """SHA-256 over the canonical result texts of one operation."""
    from repro.runtime.serialization import canonical_json, result_payload

    sha = hashlib.sha256()
    for result in results:
        sha.update(canonical_json(result_payload(result)).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()
