"""Finalist evaluation backends: local harness or a running service.

Both backends speak the same content-addressed key space
(:meth:`repro.harness.job.Job.key`), so a population measured locally
warms the cache for a later served run and vice versa.  The evaluators
accumulate executed/cached counters across the whole search -- the
"identical rerun executes 0 new jobs" acceptance check reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cpu.config import CPUConfig
from repro.harness.job import Job
from repro.synth.candidate import Candidate

#: Default wire payload for measured candidates: short enough that one
#: measurement stays cheap, long enough for a real RS frame; bandwidth
#: is a rate, so rows stay comparable to the 16-byte Table-I baseline.
DEFAULT_PAYLOAD = b"sync"

#: Default noise seed -- the Table-I baseline row's, so measured rows
#: and the hand-written channel share an operating point.
DEFAULT_SEED = 17


def measure_job(
    genome: Dict[str, Any],
    seed: int = DEFAULT_SEED,
    payload: bytes = DEFAULT_PAYLOAD,
    detector_bits: int = 8,
) -> Job:
    """The harness job measuring one finalist (see
    :mod:`repro.synth.jobs`)."""
    return Job(
        fn="synth.measure",
        config=CPUConfig.skylake(),
        params={
            "genome": dict(genome),
            "payload_hex": payload.hex(),
            "detector_bits": detector_bits,
        },
        seed=seed,
        tag=f"synth[{genome['family']}]",
    )


@dataclass
class EvalStats:
    """Counters across every evaluation round of one search."""

    submitted: int = 0  # finalist measurements requested
    executed: int = 0  # simulated fresh this run
    cached: int = 0  # answered from cache / coalesced
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
        }


class LocalEvaluator:
    """Measure finalists through :func:`repro.harness.executor.run_jobs`
    (in-process or a local worker pool), sharing the on-disk
    :class:`~repro.harness.cache.ResultCache` with every other harness
    consumer.

    Evaluators carry only *transport* concerns (worker pool, cache,
    timeout); the measurement parameters -- noise seed, payload,
    detector window -- arrive with each :meth:`measure` call from the
    search config, so the keys the search dedupes on and the jobs the
    backend runs can never disagree.
    """

    def __init__(self, workers: int = 0, cache=None,
                 timeout: Optional[float] = None):
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.stats = EvalStats()

    def measure(self, finalists: Sequence[Candidate],
                seed: int = DEFAULT_SEED,
                payload: bytes = DEFAULT_PAYLOAD,
                detector_bits: int = 8) -> None:
        """Fill ``candidate.row`` (and ``stage``) for each finalist."""
        from repro.harness.executor import run_jobs

        if not finalists:
            return
        jobs = []
        for cand in finalists:
            job = measure_job(cand.genome, seed, payload, detector_bits)
            cand.key = job.key()
            jobs.append(job)
        outcomes, summary = run_jobs(
            jobs, workers=self.workers, cache=self.cache,
            timeout=self.timeout,
        )
        self.stats.submitted += len(jobs)
        self.stats.executed += summary.executed
        self.stats.cached += summary.cached
        for cand, outcome in zip(finalists, outcomes):
            if outcome.ok:
                cand.row = outcome.result
                cand.stage = "measured"
            else:
                self.stats.failed += 1
                cand.reject = f"measurement failed: {outcome.error}"


class ServeEvaluator:
    """Measure finalists through a :class:`~repro.serve.client.
    ServeClient` using the bounded-concurrency
    :meth:`~repro.serve.client.ServeClient.submit_many` batch helper."""

    def __init__(self, client, max_in_flight: int = 8,
                 timeout: Optional[float] = None):
        self.client = client
        self.max_in_flight = max_in_flight
        self.timeout = timeout
        self.stats = EvalStats()

    @staticmethod
    def _spec(genome: Dict[str, Any], seed: int, payload: bytes,
              detector_bits: int) -> Dict[str, Any]:
        return {
            "kind": "job",
            "params": {
                "fn": "synth.measure",
                "params": {
                    "genome": dict(genome),
                    "payload_hex": payload.hex(),
                    "detector_bits": detector_bits,
                },
            },
            "cpu": "skylake",
            "seed": seed,
        }

    def measure(self, finalists: Sequence[Candidate],
                seed: int = DEFAULT_SEED,
                payload: bytes = DEFAULT_PAYLOAD,
                detector_bits: int = 8) -> None:
        if not finalists:
            return
        for cand in finalists:
            cand.key = measure_job(cand.genome, seed, payload,
                                   detector_bits).key()
        specs = [self._spec(cand.genome, seed, payload, detector_bits)
                 for cand in finalists]
        records = self.client.submit_many(
            specs, max_in_flight=self.max_in_flight, timeout=self.timeout)
        self.stats.submitted += len(specs)
        for cand, record in zip(finalists, records):
            doc = record.get("result") or {}
            self.stats.executed += doc.get("executed", 0)
            self.stats.cached += doc.get("cached", 0)
            if record.get("status") == "done":
                cand.row = doc.get("result")
                cand.stage = "measured"
            else:
                self.stats.failed += 1
                cand.reject = (
                    f"serve {record.get('status')}: {record.get('error')}")
