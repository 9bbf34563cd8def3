"""Parallel experiment orchestration with content-addressed caching.

The harness turns every experiment in this reproduction into a
declarative :class:`Job` -- a registered callable name plus the full
``CPUConfig``, point parameters and a seed -- whose result is cached
on disk under a content hash.  Sweeps expand parameter grids into job
lists; the executor fans jobs out across processes (with per-job
timeouts and bounded retries) and answers repeats from the cache
without running a single simulation.

Quick start::

    from repro.harness import Sweep, ResultCache, run_jobs

    sweep = Sweep("characterize.size",
                  axes={"n": range(32, 385, 32)}, base={"iters": 8})
    outcomes, summary = run_jobs(sweep.jobs(), workers=4,
                                 cache=ResultCache())
    print(summary.format())   # "12 job(s): 12 executed, 0 from cache, ..."

or, from the shell::

    python -m repro batch characterize --fast --jobs 4
    python -m repro cache stats

See ``docs/ARCHITECTURE.md`` ("Experiment harness") for the job
model, the cache key schema and the invalidation rule.
"""

from repro.harness.artifacts import (
    outcome_records,
    write_csv,
    write_json,
    write_jsonl,
)
from repro.harness.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    NullCache,
    ResultCache,
    default_cache_dir,
)
from repro.harness.executor import (
    JobOutcome,
    JobTimeoutError,
    RunSummary,
    TransientJobError,
    run_jobs,
)
from repro.harness.job import (
    CACHE_SCHEMA_VERSION,
    Job,
    canonical_json,
    fingerprint_program,
    register,
    registered_names,
    resolve,
)
from repro.harness.sweep import Sweep, grid

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "Job",
    "JobOutcome",
    "JobTimeoutError",
    "NullCache",
    "ResultCache",
    "RunSummary",
    "Sweep",
    "TransientJobError",
    "canonical_json",
    "default_cache_dir",
    "fingerprint_program",
    "grid",
    "outcome_records",
    "register",
    "registered_names",
    "resolve",
    "run_jobs",
    "write_csv",
    "write_json",
    "write_jsonl",
]
