"""Clients for the sweep service's HTTP/JSON API.

:class:`ServiceClient` is a small blocking client on
:mod:`http.client` — convenient for tests, scripts and the smoke
driver.  :class:`AsyncServiceClient` speaks the same API over a single
persistent asyncio connection, so a closed-loop caller opening one per
simulated user pays no reconnect cost per request.

Both return the *raw response text* for point results: the service's
responses are canonical result payloads, byte-identical to a direct
``run_point`` serialization, and parsing/re-dumping them would be the
easiest way to destroy that property.
"""

from __future__ import annotations

import asyncio
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


class AsyncServiceClient:
    """One persistent asyncio connection speaking the service API."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: "asyncio.StreamReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def _request(
        self, method: str, path: str, body: bytes = b""
    ) -> "tuple[int, bytes, dict[str, str]]":
        if self._writer is None or self._reader is None:
            await self.connect()
        assert self._writer is not None and self._reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("service closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, __, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload, headers

    async def run_point(
        self, point: "dict[str, Any]", *, derive_seed: bool = False
    ) -> "tuple[str, str]":
        """Run one spec payload; returns ``(canonical_text, source)``."""
        body = json.dumps(
            {"point": point, "derive_seed": derive_seed}, sort_keys=True
        ).encode("utf-8")
        status, payload, headers = await self._request("POST", "/points", body)
        text = payload.decode("utf-8")
        if status >= 400:
            raise ServiceError(status, text)
        return text, headers.get("x-repro-source", "?")

    async def stats(self) -> "dict[str, Any]":
        status, payload, __ = await self._request("GET", "/stats")
        if status >= 400:
            raise ServiceError(status, payload.decode("utf-8"))
        parsed = json.loads(payload)
        assert isinstance(parsed, dict)
        return parsed
