"""The worker tier: spec execution in a persistent process pool.

Each worker process is long-lived and executes specs through
:meth:`repro.serve.spec.ExperimentSpec.execute`, i.e. through the same
:func:`repro.harness.executor.run_jobs` path as the batch CLI -- with
the harness's SIGALRM deadlines (legal: specs run on the worker's main
thread) and bounded retries, against a shared on-disk
:class:`~repro.harness.cache.ResultCache`.  Long-lived matters twice:
the experiment registry and decode machinery import once per worker,
and the :class:`~repro.session.pool.SessionPool` keeps attack sessions
assembled across trace requests.

A worker process that dies (OOM kill, SIGKILL, segfault) breaks the
whole :class:`ProcessPoolExecutor`.  The tier then builds a fresh
process pool -- once per broken pool, however many submitters notice
the break -- and the server reruns the jobs lost with it once, just as
:func:`~repro.harness.executor.run_jobs` reruns a broken pool's
unrecorded jobs.  Only when no process pool can be built (at start or
on replacement) does the tier degrade to a thread pool and keep
serving.  Thread mode trades in-worker SIGALRM timeout enforcement
for availability (the server-side ceiling still bounds observed
latency); ``/healthz`` reports the active mode.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional, Tuple


def _worker_probe() -> int:
    """Trivial pool liveness check (import cost is paid here, once)."""
    return os.getpid()


def _worker_entry(
    payload: Tuple[Dict[str, Any], Optional[str]],
) -> Dict[str, Any]:
    """Top-level (hence picklable) worker entry: revalidate the spec
    document, execute it, flatten any exception to a string record so
    nothing unpicklable crosses back to the server process."""
    spec_doc, cache_root = payload
    from repro.harness.cache import ResultCache
    from repro.serve.spec import ExperimentSpec

    try:
        spec = ExperimentSpec.from_json(spec_doc)
        cache = None if cache_root is None else ResultCache(cache_root)
        result = spec.execute(cache)
        return {"ok": True, "result": result, "pid": os.getpid()}
    except Exception as exc:  # noqa: BLE001 -- spec code is arbitrary
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "pid": os.getpid(),
        }


class WorkerTier:
    """A bounded pool of spec executors with process->thread fallback."""

    def __init__(self, workers: int = 2,
                 cache_root: Optional[os.PathLike] = None,
                 mode: str = "process"):
        if mode not in ("process", "thread"):
            raise ValueError(f"mode must be process|thread, got {mode!r}")
        self.workers = max(1, int(workers))
        self.cache_root = None if cache_root is None else str(cache_root)
        self.mode = mode
        self.degraded = False
        self._pool: Optional[Any] = None

    def _process_pool(self) -> Optional[ProcessPoolExecutor]:
        """A probed process pool, or ``None`` when none can be built."""
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            pool.submit(_worker_probe).result(timeout=120)
            return pool
        except Exception:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            return None

    def start(self) -> "WorkerTier":
        """Build the pool; when no process pool can be built the tier
        degrades to threads instead of failing the whole service."""
        if self.mode == "process":
            self._pool = self._process_pool()
            if self._pool is not None:
                return self
            self.mode = "thread"
            self.degraded = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        return self

    def submit(self, spec) -> Future:
        """Dispatch one spec; returns the worker's record future.

        A pool broken by a dead worker raises at submit time, so the
        first submission after the break replaces it (:meth:`start`
        builds a fresh process pool, threads only when none can be
        built); later ones land on the replacement."""
        if self._pool is None:
            self.start()
        payload = (spec.as_dict(), self.cache_root)
        try:
            return self._pool.submit(_worker_entry, payload)
        except BrokenProcessPool:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self.start()
            return self._pool.submit(_worker_entry, payload)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None
