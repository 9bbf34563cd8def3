"""Thin synchronous client for the experiment service.

Built on :mod:`http.client` (stdlib), one request per connection to
match the server's ``Connection: close`` framing.  The client is the
programmatic face of ``python -m repro submit``: submit a spec, poll
or stream until terminal, fetch artifacts.

:class:`Backpressure` is a typed signal, not a failure --
:meth:`ServeClient.submit_and_wait` honours the server's
``Retry-After`` estimate and retries a bounded number of times before
giving up.  Every deadline the client enforces (``wait``'s timeout,
the backpressure backoff) is clamped against the caller's remaining
budget on the monotonic clock, and ``timeout=0`` means exactly one
non-blocking check.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

_TERMINAL = ("done", "failed", "timeout", "cancelled")


class ServeError(RuntimeError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class Backpressure(ServeError):
    """429: the admission queue is full; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(429, message)
        self.retry_after = retry_after


class ServeClient:
    """Synchronous HTTP client for one service."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 300.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plumbing

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if payload is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                doc = {"error": raw[:200].decode("utf-8", "replace")}
            if response.status == 429:
                retry_after = float(
                    doc.get("retry_after")
                    or response.getheader("Retry-After") or 1.0)
                raise Backpressure(str(doc.get("error", "queue full")),
                                   retry_after)
            if response.status >= 400:
                raise ServeError(response.status,
                                 str(doc.get("error", raw[:200])))
            return doc
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # endpoints

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST a spec document; returns the job record (terminal when
        the cache answered, queued/coalesced otherwise)."""
        return self._request("POST", "/v1/jobs", body=spec)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/jobs")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def artifact(self, job_id: str, name: str) -> bytes:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/artifacts/{name}")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    message = json.loads(raw)["error"]
                except (ValueError, KeyError, TypeError):
                    message = raw[:200].decode("utf-8", "replace")
                raise ServeError(response.status, str(message))
            return raw
        finally:
            conn.close()

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream the job's NDJSON lifecycle events until the server
        closes the stream (the last event has ``event == "end"``)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    message = json.loads(raw)["error"]
                except (ValueError, KeyError, TypeError):
                    message = raw[:200].decode("utf-8", "replace")
                raise ServeError(response.status, str(message))
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # conveniences

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.05) -> Dict[str, Any]:
        """Poll until the job record is terminal; returns the record.

        ``timeout=0`` is a single non-blocking check: one status poll,
        then the record (if terminal) or an immediate
        :class:`TimeoutError` -- never a sleep.  With a positive
        timeout the sleep between polls is clamped to the remaining
        budget, so the call returns within ``timeout`` plus one poll's
        network latency rather than overshooting by a whole interval.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record.get("status") in _TERMINAL:
                return record
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {record.get('status')} after "
                        f"{timeout}s")
                time.sleep(min(poll, remaining))
            else:
                time.sleep(poll)

    def submit_many(self, specs: Sequence[Dict[str, Any]],
                    max_in_flight: int = 8,
                    timeout: Optional[float] = None,
                    backpressure_retries: int = 5,
                    poll: float = 0.05) -> List[Dict[str, Any]]:
        """Submit a batch with at most ``max_in_flight`` unfinished
        jobs on the server; returns terminal records in spec order.

        Backpressure is honoured *across the batch*: one 429 pauses all
        further submissions until the server's ``Retry-After`` estimate
        has elapsed (in-flight jobs keep being polled and drained
        meanwhile), instead of every pending spec independently
        hammering a full queue.  Each spec gets at most
        ``backpressure_retries`` re-submissions; ``timeout`` bounds the
        whole batch on the monotonic clock.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        pending: List[Tuple[int, Dict[str, Any], int]] = [
            (i, spec, 0) for i, spec in enumerate(specs)]
        pending.reverse()  # pop() submits in spec order
        # job id -> spec indices: identical specs coalesce server-side
        # onto ONE job id, so several batch slots can ride one job
        in_flight: Dict[str, List[int]] = {}
        pause_until = 0.0
        while pending or in_flight:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"submit_many: {len(pending)} unsubmitted, "
                    f"{len(in_flight)} in flight after {timeout}s")
            # top up the window, unless the server asked for a pause
            while (pending and len(in_flight) < max_in_flight
                   and time.monotonic() >= pause_until):
                index, spec, attempts = pending.pop()
                try:
                    record = self.submit(spec)
                except Backpressure as exc:
                    if attempts >= backpressure_retries:
                        raise
                    pause_until = time.monotonic() + min(exc.retry_after, 10.0)
                    pending.append((index, spec, attempts + 1))
                    break
                if record.get("status") in _TERMINAL:
                    results[index] = record  # cache answered at admission
                else:
                    in_flight.setdefault(record["id"], []).append(index)
            # drain whatever finished
            for job_id in list(in_flight):
                record = self.status(job_id)
                if record.get("status") in _TERMINAL:
                    for index in in_flight.pop(job_id):
                        results[index] = record
            if pending or in_flight:
                delay = poll
                if pending and len(in_flight) < max_in_flight:
                    delay = min(delay, max(0.0,
                                           pause_until - time.monotonic()))
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.monotonic()))
                if delay:
                    time.sleep(delay)
        return results  # type: ignore[return-value]  (all slots filled)

    def submit_and_wait(self, spec: Dict[str, Any],
                        timeout: Optional[float] = None,
                        backpressure_retries: int = 5) -> Dict[str, Any]:
        """Submit with bounded backpressure retries, then wait.

        ``timeout`` bounds the *whole* call: backpressure backoff
        sleeps are clamped to the remaining budget (a 30 s Retry-After
        cannot blow through a 5 s deadline), and whatever budget the
        retries consumed is deducted from the wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        attempts = 0
        while True:
            try:
                record = self.submit(spec)
                break
            except Backpressure as exc:
                attempts += 1
                if attempts > backpressure_retries:
                    raise
                delay = min(exc.retry_after, 10.0)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"queue stayed full past the {timeout}s "
                            f"deadline") from exc
                    delay = min(delay, remaining)
                time.sleep(delay)
        if record.get("status") in _TERMINAL:
            return record
        remaining_t = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()))
        return self.wait(record["id"], timeout=remaining_t)
