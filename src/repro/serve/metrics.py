"""Service metrics on the observe event bus.

The serving layer publishes its job lifecycle onto a
:class:`repro.observe.events.EventBus` carrying a service vocabulary
(:data:`SERVE_KINDS`) instead of the simulator one -- the same
machinery PR 3 built for micro-op cache fills now carries queue
admissions.  :class:`ServiceMetrics` is the built-in subscriber that
folds those events into the ``/metrics`` document: monotonic counters,
coalescing/cache hit-rates and per-spec-kind latency histograms.
Tests (or an operator shell) can subscribe their own callables to the
same bus.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.observe.events import Event, EventBus

#: Service event kinds (one per job-lifecycle edge).
JOB_SUBMITTED = "job_submitted"    # admitted to the queue
JOB_COALESCED = "job_coalesced"    # attached to an in-flight twin
JOB_CACHE_HIT = "job_cache_hit"    # answered from the result cache
JOB_REJECTED = "job_rejected"      # backpressure (429) or draining (503)
JOB_STARTED = "job_started"        # dispatched to the worker tier
JOB_FINISHED = "job_finished"      # terminal: done/failed/timeout/cancelled

SERVE_KINDS: Tuple[str, ...] = (
    JOB_SUBMITTED,
    JOB_COALESCED,
    JOB_CACHE_HIT,
    JOB_REJECTED,
    JOB_STARTED,
    JOB_FINISHED,
)

#: Histogram bucket upper bounds, milliseconds.
LATENCY_BOUNDS_MS: Tuple[int, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000,
    120000,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with conservative percentiles.

    Buckets are cheap, mergeable and JSON-friendly; percentile reads
    return the *upper bound* of the bucket holding the requested rank
    (never under-reports).  Exact min/max/mean ride along.
    """

    __slots__ = ("counts", "n", "total_ms", "min_ms", "max_ms")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * (len(LATENCY_BOUNDS_MS) + 1)
        self.n = 0
        self.total_ms = 0.0
        self.min_ms: Optional[float] = None
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = max(0.0, seconds * 1000.0)
        for i, bound in enumerate(LATENCY_BOUNDS_MS):
            if ms <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.n += 1
        self.total_ms += ms
        self.max_ms = max(self.max_ms, ms)
        self.min_ms = ms if self.min_ms is None else min(self.min_ms, ms)

    def percentile(self, p: float) -> Optional[float]:
        """Upper-bound estimate of the ``p`` quantile (0 < p <= 1)."""
        if self.n == 0:
            return None
        rank = max(1, int(p * self.n + 0.9999999))
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if i < len(LATENCY_BOUNDS_MS):
                    return float(min(LATENCY_BOUNDS_MS[i], self.max_ms))
                return self.max_ms
        return self.max_ms

    def to_json(self) -> Dict[str, object]:
        return {
            "count": self.n,
            "mean_ms": round(self.total_ms / self.n, 3) if self.n else None,
            "min_ms": None if self.min_ms is None else round(self.min_ms, 3),
            "max_ms": round(self.max_ms, 3) if self.n else None,
            "p50_ms": self.percentile(0.50),
            "p99_ms": self.percentile(0.99),
            "buckets": {
                **{f"le_{b}": c
                   for b, c in zip(LATENCY_BOUNDS_MS, self.counts)},
                "inf": self.counts[-1],
            },
        }


class ServiceMetrics:
    """The ``/metrics`` aggregator: a bus, counters, histograms."""

    def __init__(self) -> None:
        self.bus = EventBus(kinds=SERVE_KINDS)
        self.counters: Dict[str, int] = {
            "submitted": 0,    # accepted: queued for execution
            "coalesced": 0,    # in-flight twin answered the submission
            "cache_hits": 0,   # result cache answered the submission
            "rejected": 0,     # 429/503 refusals
            "executed": 0,     # dispatched to a worker (the coalescing
                               # proof: N twin submissions -> 1 here)
            "completed": 0,
            "failed": 0,
            "timeouts": 0,
            "cancelled": 0,
        }
        self.latency: Dict[str, LatencyHistogram] = {}
        self.started_monotonic = time.monotonic()
        self.bus.subscribe(self._on_event)

    # ------------------------------------------------------------------
    # bus-facing emit helpers (the server calls these)

    def _emit(self, kind: str, **data) -> None:
        self.bus.emit(kind, 0, -1, **data)

    def submitted(self, spec_kind: str, key: str) -> None:
        self._emit(JOB_SUBMITTED, spec_kind=spec_kind, key=key)

    def coalesced(self, spec_kind: str, key: str) -> None:
        self._emit(JOB_COALESCED, spec_kind=spec_kind, key=key)

    def cache_hit(self, spec_kind: str, key: str) -> None:
        self._emit(JOB_CACHE_HIT, spec_kind=spec_kind, key=key)

    def rejected(self, reason: str) -> None:
        self._emit(JOB_REJECTED, reason=reason)

    def started(self, spec_kind: str, key: str) -> None:
        self._emit(JOB_STARTED, spec_kind=spec_kind, key=key)

    def finished(self, spec_kind: str, key: str, status: str,
                 seconds: float) -> None:
        self._emit(JOB_FINISHED, spec_kind=spec_kind, key=key,
                   status=status, seconds=seconds)

    # ------------------------------------------------------------------
    # built-in subscriber

    _STATUS_COUNTER = {
        "done": "completed",
        "failed": "failed",
        "timeout": "timeouts",
        "cancelled": "cancelled",
    }

    def _on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == JOB_SUBMITTED:
            self.counters["submitted"] += 1
        elif kind == JOB_COALESCED:
            self.counters["coalesced"] += 1
        elif kind == JOB_CACHE_HIT:
            self.counters["cache_hits"] += 1
        elif kind == JOB_REJECTED:
            self.counters["rejected"] += 1
        elif kind == JOB_STARTED:
            self.counters["executed"] += 1
        elif kind == JOB_FINISHED:
            status = str(event.get("status"))
            counter = self._STATUS_COUNTER.get(status)
            if counter is not None:
                self.counters[counter] += 1
            label = str(event.get("spec_kind"))
            hist = self.latency.get(label)
            if hist is None:
                hist = self.latency[label] = LatencyHistogram()
            hist.observe(float(event.get("seconds", 0.0)))

    # ------------------------------------------------------------------
    # rendering

    def to_json(self, **extra) -> Dict[str, object]:
        """The ``/metrics`` document (caller merges queue/tier state)."""
        answered = (self.counters["submitted"] + self.counters["coalesced"]
                    + self.counters["cache_hits"])
        doc: Dict[str, object] = {
            "uptime_s": round(time.monotonic() - self.started_monotonic, 3),
            "counters": dict(self.counters),
            "rates": {
                "coalesce_hit_rate": (
                    self.counters["coalesced"] / answered if answered else 0.0
                ),
                "cache_hit_rate": (
                    self.counters["cache_hits"] / answered if answered else 0.0
                ),
            },
            "latency": {
                kind: hist.to_json() for kind, hist in self.latency.items()
            },
        }
        doc.update(extra)
        return doc
