"""Test/benchmark support: run the service on a thread.

:class:`ServerThread` owns a private event loop on a daemon thread,
boots an :class:`~repro.serve.server.ExperimentService` on an
OS-assigned port (``port=0``) and tears it down through the same
graceful-drain path production uses -- so every test of the serving
layer also exercises drain.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.harness.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.server import ExperimentService


class ServerThread:
    """Context manager: a live service on ``127.0.0.1:<auto>``."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: int = 2, queue_capacity: int = 64,
                 worker_mode: str = "process"):
        self.service = ExperimentService(
            host="127.0.0.1", port=0, workers=workers,
            queue_capacity=queue_capacity, cache=cache,
            worker_mode=worker_mode)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.service.port

    def client(self, timeout: float = 300.0) -> ServeClient:
        return ServeClient(port=self.port, timeout=timeout)

    # ------------------------------------------------------------------

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def main() -> None:
            try:
                await self.service.start()
            except BaseException as exc:  # noqa: BLE001 -- report to starter
                self._startup_error = exc
                raise
            finally:
                self._ready.set()
            await self.service.wait_drained()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=180):
            raise RuntimeError("service failed to start within 180s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service startup failed: {self._startup_error}")
        return self

    def stop(self, timeout: float = 120.0) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.service.request_drain()))
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not drain in time")

    # ------------------------------------------------------------------

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
