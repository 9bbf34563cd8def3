"""Child-process bodies of the benchmark.  ``run.py`` starts one fresh
interpreter per pass so every pass is cold: no warm imports, no decode
or assembly memos left over from an earlier pass.

    python3 perfbench/passes.py batch <workload> <seed> <trace> <out.json> [--setup-only]
    python3 perfbench/passes.py serve-host <trace> <out-dir>

``batch`` runs one cold pass of ``attack-eval`` or ``characterize``
(``run_jobs(workers=1, cache=None)``) and writes its record to
``out.json``.  Untraced passes also store each result and time
``run_jobs`` answering the job again from that store: the harness's
warm path, with the job's key already computed.

``serve-host`` runs an ``ExperimentService`` with 2 worker processes on
an empty result store under ``out-dir``, prints its port, and on SIGTERM
drains and writes ``host.json`` there.  The tracer is installed before
the pool forks, so the workers inherit it; they report each job through
``jobs-<pid>.jsonl`` files in ``out-dir``.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
from tracer import Tracer, peak_rss_mb  # noqa: E402

#: Warm answers timed per job and untraced pass: one right after the
#: job and one after each of the next ones, so a job's samples span
#: several jobs' time.  ``run.py`` reports each job's median.
WARM_ROUNDS = 5


def _write(path: str, doc) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def batch_pass(workload: str, seed: int, traced: bool, out: str,
               setup_only: bool) -> None:
    from repro.harness import ResultCache, resolve, run_jobs

    jobs = inputs.BATCH_JOBS[workload](seed)
    for fn in {job.fn for job in jobs}:
        resolve(fn)
    ready = time.monotonic()
    doc = {"ready_mono": ready}
    if setup_only:
        _write(out, doc)
        return

    # The grid goes through run_jobs one job at a time -- in serial mode
    # the same work as one call -- so that an untraced pass can answer
    # finished jobs warm between cold ones.  Warm sampling is then spread
    # over the whole pass instead of one short window at its end, and
    # stays out of the cold wall time, which sums only the cold calls.
    store = None if traced else ResultCache(os.path.splitext(out)[0] + ".store")
    recent: collections.deque = collections.deque(maxlen=WARM_ROUNDS)
    perf = time.perf_counter
    wall, executed, failed, warm, warm_failed = 0.0, 0, [], {}, 0
    tracer = Tracer(traced)
    with tracer, tracer.root() as root:
        for job in jobs:
            start = perf()
            (outcome,), summary = run_jobs([job], workers=1, cache=None)
            wall += perf() - start
            executed += summary.executed
            if not outcome.ok:
                failed.append(job.label)
                continue
            if store is None:
                continue
            store.put(outcome.key, job.fn, outcome.result)
            recent.append(job)
            for done in recent:
                start = perf()
                (hit,), _summary = run_jobs([done], workers=1, cache=store)
                warm.setdefault(hit.key, []).append(perf() - start)
                warm_failed += not (hit.ok and hit.from_cache)
    doc.update(
        wall=wall,
        traced_wall=root.wall,
        failed_jobs=failed,
        executed=executed,
        jobs=tracer.jobs,
        sim=tracer.sim,
        totals=tracer.totals,
        rss_mb=peak_rss_mb(),
    )
    if traced:
        tracer.write_spans(os.path.splitext(out)[0] + ".spans.jsonl")
    else:
        doc.update(warm_s=warm, warm_failed=warm_failed)
    _write(out, doc)


def serve_host(traced: bool, out_dir: str) -> None:
    import asyncio
    import signal

    from repro.harness import ResultCache
    from repro.serve.server import ExperimentService

    tracer = Tracer(traced, job_sink=out_dir)
    with tracer:
        service = ExperimentService(
            port=0, workers=2,
            cache=ResultCache(os.path.join(out_dir, "store")))

        async def main() -> None:
            await service.start()
            loop = asyncio.get_running_loop()
            drains = []
            loop.add_signal_handler(
                signal.SIGTERM,
                lambda: drains.append(loop.create_task(service.request_drain())))
            print(json.dumps({"port": service.port}), flush=True)
            await service.wait_drained()
            await asyncio.gather(*drains)

        asyncio.run(main())
    _write(os.path.join(out_dir, "host.json"),
           {"rss_mb": peak_rss_mb(), "totals": tracer.totals})
    if traced:
        tracer.write_spans(os.path.join(out_dir, "host.spans.jsonl"))


if __name__ == "__main__":
    if sys.argv[1] == "batch":
        _, _, name, seed_arg, trace_arg, out_path, *rest = sys.argv
        batch_pass(name, int(seed_arg), trace_arg == "1", out_path,
                   "--setup-only" in rest)
    elif sys.argv[1] == "serve-host":
        serve_host(sys.argv[2] == "1", sys.argv[3])
    else:
        sys.exit(f"unknown pass kind {sys.argv[1]!r}")
