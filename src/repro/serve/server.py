"""The experiment service: asyncio HTTP front end over the harness.

One event loop owns admission; a handful of runner coroutines shuttle
specs from the :class:`~repro.serve.queue.BoundedPriorityQueue` to the
:class:`~repro.serve.worker.WorkerTier`; results fan out to every
waiter attached to a job record.  The HTTP layer is deliberately
minimal -- hand-rolled HTTP/1.1 over ``asyncio.start_server``, one
request per connection (``Connection: close``) -- because the payloads
are small JSON documents and NDJSON streams, and the stdlib-only
constraint rules out a framework.

Coalescing is the structural centerpiece: ``active`` maps the spec's
schema-versioned SHA-256 key to the single in-flight
:class:`JobRecord`; an identical concurrent submission attaches to the
existing record (a new job id, zero new work) and the ``executed``
metric counter stays at one.  Because ``job`` spec keys *are* harness
job keys, the coalescing map, the on-disk result cache and the batch
CLI all share one key space.

Shutdown is a drain, not an abort: ``request_drain()`` flips the
service to refuse new submissions (503), closes the queue so runners
exit once it is empty, lets in-flight work finish, then closes the
listener and the worker tier.

Two clocks, deliberately: **wall-clock** timestamps
(``submitted_at``/``started_at``/``finished_at``) appear in the JSON
record for operators to correlate with logs, while every *duration*
the service computes -- queue wait, job latency, the histogram feed --
comes from ``time.monotonic()`` captured at the same edges, so an NTP
step can skew a displayed timestamp but never a latency metric.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.cache import ResultCache
from repro.serve.http import read_request, respond
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import BoundedPriorityQueue, QueueClosed, QueueFull
from repro.serve.spec import ExperimentSpec, SpecError
from repro.serve.worker import WorkerTier

#: Grace added to a spec's own timeout for the server-side ceiling --
#: the worker enforces the precise deadline (SIGALRM); this backstop
#: only catches a wedged worker or thread-mode degradation.
TIMEOUT_GRACE_S = 10.0

#: Ceiling for specs that declare no timeout of their own.
DEFAULT_JOB_CEILING_S = 600.0

_TERMINAL = ("done", "failed", "timeout", "cancelled")


class JobRecord:
    """Server-side state for one logical job (possibly many waiters).

    Wall-clock timestamps (``*_at``) are display-only; the paired
    ``*_mono`` fields carry the same edges on the monotonic clock and
    are the only inputs to latency accounting, so a stepped system
    clock (NTP correction, manual set) cannot produce negative or
    inflated durations.
    """

    __slots__ = ("job_id", "spec", "key", "status", "result", "error",
                 "submitted_at", "started_at", "finished_at",
                 "submitted_mono", "started_mono", "finished_mono",
                 "coalesced", "source", "done_event", "subscribers")

    def __init__(self, job_id: str, spec: ExperimentSpec, source: str):
        self.job_id = job_id
        self.spec = spec
        self.key = spec.key()
        self.status = "queued"
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.submitted_mono = time.monotonic()
        self.started_mono: Optional[float] = None
        self.finished_mono: Optional[float] = None
        self.coalesced = 0           # submissions that attached to this record
        self.source = source         # queued | coalesced | cache
        self.done_event = asyncio.Event()
        self.subscribers: List[asyncio.Queue] = []

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def latency_s(self) -> float:
        """Submission-to-now (or -finish) on the monotonic clock."""
        end = (self.finished_mono if self.finished_mono is not None
               else time.monotonic())
        return max(0.0, end - self.submitted_mono)

    def queue_wait_s(self) -> Optional[float]:
        """Queue-admission to execution-start, monotonic."""
        if self.started_mono is None:
            return None
        return max(0.0, self.started_mono - self.submitted_mono)

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "key": self.key,
            "kind": self.spec.kind,
            "describe": self.spec.describe(),
            "status": self.status,
            "source": self.source,
            "coalesced": self.coalesced,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    # -- lifecycle fan-out --------------------------------------------

    def publish(self, event: str, **data) -> None:
        doc = {"event": event, "id": self.job_id, "status": self.status,
               **data}
        for sub in list(self.subscribers):
            try:
                sub.put_nowait(doc)
            except asyncio.QueueFull:
                pass  # a stalled streamer drops updates, not the job

    def finish(self, status: str, result: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None) -> None:
        self.status = status
        self.result = result
        self.error = error
        self.finished_at = time.time()
        self.finished_mono = time.monotonic()
        self.done_event.set()
        self.publish("finished", error=error)


async def stream_record_events(record: JobRecord,
                               writer: asyncio.StreamWriter) -> None:
    """NDJSON lifecycle stream for one record; ends with an ``end``
    event carrying the terminal record."""
    headers = ("HTTP/1.1 200 OK\r\n"
               "Content-Type: application/x-ndjson\r\n"
               "Connection: close\r\n\r\n")
    writer.write(headers.encode())

    def line(doc: Dict[str, Any]) -> bytes:
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    writer.write(line({"event": "snapshot", **record.to_json()}))
    await writer.drain()
    if not record.terminal:
        sub: asyncio.Queue = asyncio.Queue(maxsize=256)
        record.subscribers.append(sub)
        try:
            while not record.terminal:
                getter = asyncio.create_task(sub.get())
                waiter = asyncio.create_task(record.done_event.wait())
                done, pending = await asyncio.wait(
                    {getter, waiter},
                    return_when=asyncio.FIRST_COMPLETED)
                for task in pending:
                    task.cancel()
                if getter in done:
                    writer.write(line(getter.result()))
                    await writer.drain()
            # flush whatever arrived before the terminal edge
            while not sub.empty():
                writer.write(line(sub.get_nowait()))
        finally:
            if sub in record.subscribers:
                record.subscribers.remove(sub)
    writer.write(line({"event": "end", "record": record.to_json()}))
    await writer.drain()


class ExperimentService:
    """The service: queue + workers + coalescing map + HTTP routes."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 workers: int = 2, queue_capacity: int = 64,
                 cache: Optional[ResultCache] = None,
                 worker_mode: str = "process"):
        self.host = host
        self.port = port
        self.cache = cache if cache is not None else ResultCache()
        self.queue = BoundedPriorityQueue(capacity=queue_capacity)
        self.tier = WorkerTier(workers=workers, cache_root=self.cache.root,
                               mode=worker_mode)
        self.metrics = ServiceMetrics()
        self.jobs: Dict[str, JobRecord] = {}       # id -> record (all)
        self.active: Dict[str, JobRecord] = {}     # key -> in-flight record
        self.draining = False
        self._job_ids = itertools.count(1)
        self._server: Optional[asyncio.base_events.Server] = None
        self._runners: List[asyncio.Task] = []
        self._drained = asyncio.Event()
        self._runner_count = max(1, int(workers))

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self.tier.start()
        self._runners = [
            asyncio.create_task(self._runner(), name=f"serve-runner-{i}")
            for i in range(self._runner_count)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def request_drain(self) -> None:
        """Graceful shutdown: refuse new work, finish accepted work."""
        if self.draining:
            return
        self.draining = True
        await self.queue.close()
        if self._runners:
            await asyncio.gather(*self._runners, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.tier.shutdown(wait=True)
        self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    # ------------------------------------------------------------------
    # admission

    def _new_record(self, spec: ExperimentSpec, source: str) -> JobRecord:
        job_id = f"j{next(self._job_ids):06d}"
        record = JobRecord(job_id, spec, source)
        self.jobs[job_id] = record
        return record

    def submit(self, spec: ExperimentSpec) -> Tuple[JobRecord, bool]:
        """Admit a spec: coalesce, answer from cache, or enqueue.

        Returns ``(record, created)`` where ``created`` is False when
        the submission attached to an in-flight twin.  Raises
        :class:`QueueFull`/:class:`QueueClosed` on refusal.
        """
        if self.draining:
            raise QueueClosed("service is draining")
        key = spec.key()

        # 1. Coalesce onto an in-flight twin (unless refresh demands a
        #    fresh execution *and* nothing identical is already queued
        #    -- a refresh twin still coalesces with a refresh in flight).
        twin = self.active.get(key)
        if twin is not None and not twin.terminal:
            twin.coalesced += 1
            self.metrics.coalesced(spec.kind, key)
            return twin, False

        # 2. Cache fast path: rebuild the result document from disk.
        hit = spec.cached_result(self.cache)
        if hit is not None:
            record = self._new_record(spec, "cache")
            record.status = "done"
            record.result = hit
            record.finished_at = record.submitted_at
            record.done_event.set()
            self.metrics.cache_hit(spec.kind, key)
            return record, True

        # 3. Enqueue (bounded: QueueFull propagates as HTTP 429).
        # The record is registered only after the queue accepts it: a
        # refused submission must not leak a phantom forever-"queued"
        # record into the job table (un-cancellable, never terminal --
        # a waiter that found it would poll for the rest of its life).
        record = JobRecord(f"j{next(self._job_ids):06d}", spec, "queued")
        retry_after = max(1.0, len(self.queue) * 0.5)
        self.queue.put_nowait(spec.priority, record, retry_after=retry_after)
        self.jobs[record.job_id] = record
        self.active[key] = record
        self.metrics.submitted(spec.kind, key)
        return record, True

    def cancel(self, record: JobRecord) -> bool:
        """Cancel a still-queued job; running jobs are not interrupted
        (worker processes are shared -- a SIGKILL would break the pool).

        Cancelling transitions *every* attached waiter: submissions
        that coalesced onto this record share it, so the one
        ``finish`` below is their terminal edge too -- event streams
        get ``finished`` + ``end``, pollers see ``cancelled``.  A
        "queued" record the queue no longer holds (it should not
        happen; defensive) is finished as cancelled rather than left
        in limbo answering 409 forever.
        """
        if record.terminal or record.status == "running":
            return False
        self.queue.remove(record)
        self.active.pop(record.key, None)
        record.finish("cancelled", error="cancelled while queued")
        self.metrics.finished(record.spec.describe(), record.key,
                              "cancelled", record.latency_s())
        return True

    # ------------------------------------------------------------------
    # execution

    def _ceiling(self, spec: ExperimentSpec) -> float:
        if spec.timeout is not None:
            base = spec.timeout * (1 + spec.retries)
            return base + TIMEOUT_GRACE_S
        return DEFAULT_JOB_CEILING_S

    async def _runner(self) -> None:
        """One consumer loop: queue -> worker tier -> record fan-out."""
        while True:
            try:
                record = await self.queue.get()
            except QueueClosed:
                return
            await self._execute(record)

    async def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        record.status = "running"
        record.started_at = time.time()
        record.started_mono = time.monotonic()
        record.publish("started")
        self.metrics.started(spec.kind, record.key)
        status, result, error = "failed", None, "unknown worker failure"
        try:
            report = await asyncio.wait_for(self._run_on_tier(spec),
                                            self._ceiling(spec))
            if report.get("ok"):
                status, result, error = "done", report.get("result"), None
            else:
                error = str(report.get("error"))
                status = ("timeout" if "JobTimeoutError" in error
                          else "failed")
        except asyncio.TimeoutError:
            status, error = "timeout", (
                f"server-side ceiling of {self._ceiling(spec):.0f}s exceeded")
        except Exception as exc:  # noqa: BLE001 -- keep the runner alive
            error = f"{type(exc).__name__}: {exc}"
        finally:
            self.active.pop(record.key, None)
            record.finish(status, result=result, error=error)
            self.metrics.finished(
                spec.describe(), record.key, status, record.latency_s())

    async def _run_on_tier(self, spec: ExperimentSpec) -> Dict[str, Any]:
        """The worker's report for ``spec``.  A job lost with a broken
        process pool (a worker died under it) reruns once on the
        replacement pool the tier builds."""
        try:
            return await asyncio.wrap_future(self.tier.submit(spec))
        except BrokenProcessPool:
            return await asyncio.wrap_future(self.tier.submit(spec))

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            method, path, body = request
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, method: str, path: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("?", 1)[0].split("/") if p]

        if method == "GET" and parts == ["healthz"]:
            await respond(writer, 200, self._healthz())
            return
        if method == "GET" and parts == ["metrics"]:
            await respond(writer, 200, self._metrics_doc())
            return
        if parts[:2] != ["v1", "jobs"]:
            await respond(writer, 404, {"error": f"no route {path}"})
            return

        if method == "POST" and len(parts) == 2:
            await self._post_job(body, writer)
            return
        if method == "GET" and len(parts) == 2:
            listing = [r.to_json() for r in self.jobs.values()]
            await respond(writer, 200, {"jobs": listing})
            return

        record = self.jobs.get(parts[2]) if len(parts) >= 3 else None
        if record is None:
            await respond(writer, 404,
                          {"error": f"unknown job {parts[2:3]}"})
            return

        if method == "GET" and len(parts) == 3:
            await respond(writer, 200, record.to_json())
        elif method == "DELETE" and len(parts) == 3:
            if self.cancel(record):
                await respond(writer, 200, record.to_json())
            else:
                await respond(
                    writer, 409,
                    {"error": f"job is {record.status}; only queued "
                              f"jobs can be cancelled",
                     "record": record.to_json()})
        elif method == "GET" and len(parts) == 4 and parts[3] == "events":
            await stream_record_events(record, writer)
        elif (method == "GET" and len(parts) == 5
              and parts[3] == "artifacts"):
            await self._get_artifact(record, parts[4], writer)
        else:
            await respond(writer, 405,
                          {"error": f"{method} not allowed on {path}"})

    # ------------------------------------------------------------------
    # route bodies

    async def _post_job(self, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, ValueError):
            await respond(writer, 400, {"error": "body is not JSON"})
            return
        try:
            spec = ExperimentSpec.from_json(doc)
        except SpecError as exc:
            self.metrics.rejected("invalid")
            await respond(writer, 400, {"error": str(exc)})
            return
        try:
            record, created = self.submit(spec)
        except QueueFull as exc:
            self.metrics.rejected("backpressure")
            await respond(
                writer, 429,
                {"error": str(exc), "retry_after": exc.retry_after},
                extra_headers=(("Retry-After",
                                str(int(exc.retry_after + 0.5)) or "1"),))
            return
        except QueueClosed:
            self.metrics.rejected("draining")
            await respond(
                writer, 503,
                {"error": "service is draining; not accepting new jobs"})
            return
        if created and record.source == "queued":
            await self.queue.notify()
        status = 200 if record.terminal else 202
        await respond(writer, status,
                      {"coalesced": not created, **record.to_json()})

    async def _get_artifact(self, record: JobRecord, name: str,
                            writer: asyncio.StreamWriter) -> None:
        try:
            blob = self.cache.get_artifact(record.key, name)
        except ValueError as exc:
            await respond(writer, 400, {"error": str(exc)})
            return
        if blob is None:
            await respond(
                writer, 404,
                {"error": f"no artifact {name!r} for job {record.job_id}"})
            return
        await respond(writer, 200, blob,
                      content_type="application/octet-stream")

    # ------------------------------------------------------------------
    # documents

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "workers": self.tier.workers,
            "worker_mode": self.tier.mode,
            "worker_degraded": self.tier.degraded,
            "jobs_tracked": len(self.jobs),
            "in_flight": len(self.active),
        }

    def _metrics_doc(self) -> Dict[str, Any]:
        return self.metrics.to_json(
            queue_depth=len(self.queue),
            queue_capacity=self.queue.capacity,
            in_flight=len(self.active),
            draining=self.draining,
            worker_mode=self.tier.mode,
        )


async def serve_forever(service: ExperimentService) -> None:
    """Run until drained; installs SIGTERM/SIGINT drain handlers."""
    await service.start()
    loop = asyncio.get_running_loop()

    def _drain() -> None:
        asyncio.ensure_future(service.request_drain())

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, _drain)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or unsupported platform
    await service.wait_drained()


def run_server(host: str = "127.0.0.1", port: int = 8787, workers: int = 2,
               queue_capacity: int = 64,
               cache: Optional[ResultCache] = None,
               worker_mode: str = "process") -> None:
    """Blocking entry point (the ``python -m repro serve`` verb)."""
    service = ExperimentService(host=host, port=port, workers=workers,
                                queue_capacity=queue_capacity, cache=cache,
                                worker_mode=worker_mode)
    asyncio.run(serve_forever(service))
