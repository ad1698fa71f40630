"""Client for the sweep service's HTTP/JSON API.

:class:`ServiceClient` is a small blocking keep-alive client on
:mod:`http.client` — convenient for tests, scripts and the smoke
driver.  It returns the *raw response text* for point results: the
service's responses are canonical result payloads, byte-identical to a
direct ``run_point`` serialization, and parsing/re-dumping them would
be the easiest way to destroy that property.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Iterator


class ServiceError(Exception):
    """Non-2xx response from the service."""

    def __init__(self, status: int, body: str) -> None:
        super().__init__(f"HTTP {status}: {body}")
        self.status = status
        self.body = body


class ServiceClient:
    """Blocking keep-alive client for one service endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: "http.client.HTTPConnection | None" = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(
        self, method: str, path: str, payload: "dict[str, Any] | None" = None
    ) -> "tuple[int, str, dict[str, str]]":
        body = json.dumps(payload, sort_keys=True) if payload is not None else None
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(
                    method,
                    path,
                    body=body,
                    headers={"Content-Type": "application/json"} if body else {},
                )
                response = conn.getresponse()
                text = response.read().decode("utf-8")
                headers = {k.lower(): v for k, v in response.getheaders()}
                return response.status, text, headers
            except (http.client.HTTPException, ConnectionError, OSError):
                # Stale keep-alive connection: reconnect once.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _json(
        self, method: str, path: str, payload: "dict[str, Any] | None" = None
    ) -> "dict[str, Any]":
        status, text, __ = self._request(method, path, payload)
        if status >= 400:
            raise ServiceError(status, text)
        parsed = json.loads(text)
        assert isinstance(parsed, dict)
        return parsed

    def healthz(self) -> "dict[str, Any]":
        return self._json("GET", "/healthz")

    def stats(self) -> "dict[str, Any]":
        return self._json("GET", "/stats")

    def run_point(
        self, point: "dict[str, Any]", *, derive_seed: bool = False
    ) -> "tuple[str, str]":
        """Run one spec payload; returns ``(canonical_text, source)``."""
        status, text, headers = self._request(
            "POST", "/points", {"point": point, "derive_seed": derive_seed}
        )
        if status >= 400:
            raise ServiceError(status, text)
        return text, headers.get("x-repro-source", "?")

    def submit_job(
        self,
        points: "list[dict[str, Any]]",
        *,
        priority: int = 0,
        derive_seed: bool = False,
    ) -> str:
        response = self._json(
            "POST",
            "/jobs",
            {"points": points, "priority": priority, "derive_seed": derive_seed},
        )
        job_id = response["job"]
        assert isinstance(job_id, str)
        return job_id

    def job_status(self, job_id: str, *, results: bool = False) -> "dict[str, Any]":
        suffix = "?results=1" if results else ""
        return self._json("GET", f"/jobs/{job_id}{suffix}")

    def stream_events(self, job_id: str) -> "Iterator[dict[str, Any]]":
        """Yield the job's NDJSON progress events until it finishes."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raise ServiceError(response.status, response.read().decode("utf-8"))
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        event = json.loads(line)
                        yield event
                        if event.get("final"):
                            return
        finally:
            conn.close()

    def wait_for_job(self, job_id: str, poll: float = 0.05) -> "dict[str, Any]":
        """Poll until the job reaches a terminal state; returns status."""
        import time

        while True:
            status = self.job_status(job_id)
            if status["state"] in ("done", "failed"):
                return status
            time.sleep(poll)  # repro: noqa[RPR002] — client-side pacing

    def shutdown(self) -> None:
        try:
            self._json("POST", "/shutdown")
        except (ServiceError, ConnectionError, OSError):
            pass
        self.close()
