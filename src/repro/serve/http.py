"""HTTP/1.1 plumbing for the experiment service.

The service speaks a deliberately minimal dialect -- hand-rolled
HTTP/1.1 over ``asyncio`` streams, one request per connection
(``Connection: close``), small JSON bodies:

- :func:`read_request` parses a request head + body off a stream.
- :func:`respond` writes a JSON (or raw-bytes) response.

The 8 MiB body cap and 30 s read timeouts are generous for spec
documents and result records and small enough to shrug off stuck
peers.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional, Tuple

#: Largest request body the service will read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-read timeout for request heads and bodies.
READ_TIMEOUT_S = 30.0

REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed",
           409: "Conflict", 429: "Too Many Requests",
           503: "Service Unavailable"}


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; ``(METHOD, path, body)`` or ``None`` on a
    malformed, oversized or closed stream."""
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT_S)
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        return None
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return None
    body = b""
    if length:
        if length > MAX_BODY_BYTES:
            return None
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout=READ_TIMEOUT_S)
    return method.upper(), path, body


async def respond(writer: asyncio.StreamWriter, status: int,
                  payload: Any, *, content_type: str = "application/json",
                  extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
    """Write one full response (JSON for dict/list, raw otherwise)."""
    if isinstance(payload, (dict, list)):
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    elif isinstance(payload, str):
        body = payload.encode()
    else:
        body = payload
    headers = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    headers.extend(f"{name}: {value}" for name, value in extra_headers)
    writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + body)
    await writer.drain()
