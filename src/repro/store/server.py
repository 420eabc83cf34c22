"""``repro serve``: a read-optimized HTTP/1.1 query plane over shards.

A deliberately small stdlib-asyncio server — no framework, no threads —
because the workload is embarrassingly cacheable: every ``/v1/*`` resource
is a pure function of an immutable, content-keyed shard, so the fast path
is "look up memoized bytes, write them to the socket".

HTTP semantics:

* the study-cache fingerprint is surfaced verbatim as a strong ``ETag``
  on every ``/v1/*`` response, with ``Cache-Control: public,
  max-age=31536000, immutable`` — a client (or intermediary) may cache
  forever; a *new* study has a new fingerprint and therefore new URLs-by-
  validator, never a stale hit;
* ``If-None-Match`` is honoured (lists, ``W/`` weak prefixes, and ``*``)
  with an empty 304 carrying the same validator;
* connections are keep-alive by default (HTTP/1.1), closed on request or
  protocol error;
* only ``GET``/``HEAD`` exist — the plane is read-only by construction.

Requests are counted into the process metrics registry
(``serve.requests``, ``serve.status_<code>``) and per-request wall time is
observed into the ``serve.latency_seconds`` histogram, so ``repro
metrics`` can show what a serving process did.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.obs.metrics import get_registry
from repro.store.service import QueryError, StudyService

#: One year — the maximum ``max-age`` HTTP/1.1 caches commonly honour;
#: shards are immutable so the bound is a formality.
IMMUTABLE_CACHE_CONTROL = "public, max-age=31536000, immutable"

_MAX_REQUEST_BYTES = 16384
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _etag_matches(header: str, etag: str) -> bool:
    """RFC 7232 ``If-None-Match`` evaluation against one strong ETag."""
    header = header.strip()
    if header == "*":
        return True
    quoted = f'"{etag}"'
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        if candidate == quoted or candidate == etag:
            return True
    return False


class StudyServer:
    """Serve one :class:`StudyService` over asyncio streams."""

    def __init__(
        self,
        service: StudyService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Writers of currently-open keep-alive connections, so close()
        #: can end them cleanly instead of cancelling their handlers.
        self._connections: set = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Closing the transports makes each handler's pending readuntil
        # raise IncompleteReadError, so they exit their loops cleanly
        # (a cancelled handler would log a spurious CancelledError).
        for writer in list(self._connections):
            writer.close()
        for _ in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- request handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break  # client closed between requests
                except asyncio.LimitOverrunError:
                    self._write_response(
                        writer, 431, b"", {}, close=True, method="GET"
                    )
                    break
                if len(raw) > _MAX_REQUEST_BYTES:
                    self._write_response(
                        writer, 431, b"", {}, close=True, method="GET"
                    )
                    break
                keep_alive = await self._handle_request(raw, writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-write; nothing to clean up
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Loop teardown beat the graceful close; the transport is
                # closed either way — don't let the cancellation escape
                # into the protocol's exception logger.
                pass

    async def _handle_request(
        self, raw: bytes, writer: asyncio.StreamWriter
    ) -> bool:
        """Process one request; returns whether to keep the connection."""
        started = time.perf_counter()
        registry = get_registry()
        registry.inc("serve.requests")

        method, target, version, headers = self._parse_request(raw)
        if method is None:
            self._write_response(writer, 400, b"", {}, close=True,
                                 method="GET")
            registry.inc("serve.status_400")
            return False
        want_close = (
            headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0"
        )

        status, body, extra = self._route(method, target, headers)
        self._write_response(
            writer, status, body, extra, close=want_close, method=method
        )
        registry.inc(f"serve.status_{status}")
        registry.observe(
            "serve.latency_seconds", time.perf_counter() - started
        )
        return not want_close

    @staticmethod
    def _parse_request(
        raw: bytes,
    ) -> Tuple[Optional[str], str, str, Dict[str, str]]:
        try:
            text = raw.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            return None, "", "", {}
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line or ":" not in line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, version.strip(), headers

    def _route(
        self, method: str, target: str, headers: Dict[str, str]
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """(status, body, extra headers) for one parsed request."""
        if method not in ("GET", "HEAD"):
            return 405, b"", {"Allow": "GET, HEAD"}
        split = urlsplit(target)
        path = split.path
        if path == "/healthz":
            return 200, b'{"ok": true}\n', {}
        if path == "/stats":
            snapshot = get_registry().snapshot()
            counters = {
                name: value
                for name, value in (snapshot.get("counters") or {}).items()
                if name.startswith("serve.")
            }
            body = (json.dumps(
                {"etag": self.service.etag, "counters": counters},
                sort_keys=True,
            ) + "\n").encode("utf-8")
            return 200, body, {}
        if not path.startswith("/v1/"):
            return 404, b"", {}

        name = path[len("/v1/"):].strip("/")
        params = dict(parse_qsl(split.query))
        etag = self.service.etag
        cache_headers = {
            "ETag": f'"{etag}"',
            "Cache-Control": IMMUTABLE_CACHE_CONTROL,
        }
        match = headers.get("if-none-match")
        if match is not None and _etag_matches(match, etag):
            return 304, b"", cache_headers
        try:
            body = self.service.answer_bytes(name, params)
        except KeyError:
            return 404, b"", {}
        except QueryError as error:
            payload = (json.dumps({"error": str(error)}) + "\n").encode()
            return 400, payload, {}
        return 200, body, cache_headers

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        extra: Dict[str, str],
        *,
        close: bool,
        method: str,
    ) -> None:
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "close" if close else "keep-alive",
        }
        headers.update(extra)
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        # 304s and HEADs carry headers (including Content-Length) only.
        if status == 304 or method == "HEAD":
            writer.write(head)
        else:
            writer.write(head + body)


async def serve(
    service: StudyService, *, host: str = "127.0.0.1", port: int = 8321
) -> None:
    """Run a server until cancelled (the CLI entry point's core)."""
    server = StudyServer(service, host=host, port=port)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.close()
