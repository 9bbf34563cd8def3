"""Closed-loop load generator for the experiment service.

Boots an in-process server (the same :class:`ServerThread` the tests
use), then drives it with 1 / 8 / 32 concurrent closed-loop clients --
each client submits a job, waits for the terminal record, submits the
next -- and reports jobs/sec with exact client-side p50/p99 latency,
cold cache (every spec unique, every job executes) versus warm cache
(the identical specs resubmitted, every job answered from the result
store).

The warm phase must be dramatically cheaper: serving a cached result
is a couple of file reads on the event loop instead of a queue slot,
a worker dispatch and the experiment itself.  The acceptance bar is
**warm p50 at least 10x lower than cold p50** at every concurrency
level.

Run it directly (not via pytest)::

    PYTHONPATH=src python benchmarks/serve_load.py [--fast] [--json out.json]

The default workload is ``debug.sleep`` (deterministic service time,
so the cold/warm contrast measures the serving layer, not simulator
noise); ``--spin`` switches to a CPU-bound workload.
"""

import argparse
import json
import statistics
import sys
import threading
import time

from repro.harness.cache import ResultCache
from repro.serve.testing import ServerThread

CLIENT_LEVELS = (1, 8, 32)


def _percentile(samples, p):
    """Exact percentile over recorded client-side latencies."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(p * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _spec_for(args, token):
    if args.spin:
        return {"kind": "job",
                "params": {"fn": "debug.spin",
                           "params": {"n": args.spin_n, "token": token}}}
    return {"kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": args.sleep_seconds,
                                  "token": token}}}


def _drive(server, args, clients, tokens):
    """Closed loop: ``clients`` threads share the ``tokens`` work list;
    returns (elapsed_seconds, per-job latencies in ms)."""
    latencies = []
    lock = threading.Lock()
    cursor = iter(list(tokens))
    errors = []

    def loop():
        client = server.client()
        while True:
            with lock:
                token = next(cursor, None)
            if token is None:
                return
            t0 = time.monotonic()
            try:
                record = client.submit_and_wait(_spec_for(args, token),
                                                timeout=600)
            except Exception as exc:  # noqa: BLE001 -- collected
                errors.append(exc)
                return
            dt = (time.monotonic() - t0) * 1000.0
            if record["status"] != "done":
                errors.append(RuntimeError(record.get("error")))
                return
            with lock:
                latencies.append(dt)

    start = time.monotonic()
    threads = [threading.Thread(target=loop) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start
    if errors:
        raise SystemExit(f"load phase failed: {errors[0]}")
    return elapsed, latencies


def run(args):
    cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache(
        f"/tmp/repro-serve-load-{int(time.time() * 1e6)}")
    cache.clear()
    phases = []
    with ServerThread(cache=cache, workers=args.workers,
                      queue_capacity=256) as server:
        for clients in CLIENT_LEVELS:
            jobs = max(clients * args.jobs_per_client, 4)
            tokens = [f"load-c{clients}-{i}" for i in range(jobs)]
            for phase in ("cold", "warm"):
                elapsed, lat = _drive(server, args, clients, tokens)
                entry = {
                    "phase": phase,
                    "clients": clients,
                    "jobs": jobs,
                    "seconds": round(elapsed, 4),
                    "jobs_per_sec": round(jobs / elapsed, 2),
                    "p50_ms": round(_percentile(lat, 0.50), 3),
                    "p99_ms": round(_percentile(lat, 0.99), 3),
                    "mean_ms": round(statistics.fmean(lat), 3),
                }
                phases.append(entry)
                print(f"  {phase:4s} c={clients:2d}: "
                      f"{entry['jobs_per_sec']:9.2f} jobs/s  "
                      f"p50={entry['p50_ms']:9.3f}ms  "
                      f"p99={entry['p99_ms']:9.3f}ms  "
                      f"({jobs} jobs in {entry['seconds']:.2f}s)")
        metrics = server.client().metrics()

    speedups = {}
    for clients in CLIENT_LEVELS:
        cold = next(p for p in phases
                    if p["phase"] == "cold" and p["clients"] == clients)
        warm = next(p for p in phases
                    if p["phase"] == "warm" and p["clients"] == clients)
        speedups[str(clients)] = round(
            cold["p50_ms"] / max(warm["p50_ms"], 1e-6), 1)

    doc = {
        "benchmark": "serve_load",
        "workload": "debug.spin" if args.spin else "debug.sleep",
        "config": {
            "workers": args.workers,
            "jobs_per_client": args.jobs_per_client,
            "sleep_seconds": args.sleep_seconds,
            "spin_n": args.spin_n,
        },
        "phases": phases,
        "warm_p50_speedup_by_clients": speedups,
        "server_counters": metrics["counters"],
    }
    print(f"\n  warm p50 speedup by concurrency: {speedups}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.json}")

    floor = min(speedups.values())
    assert floor >= 10.0, (
        f"warm-cache p50 must be >= 10x lower than cold at every "
        f"concurrency level; worst was {floor:.1f}x"
    )
    print(f"  PASS: warm p50 >= 10x lower than cold "
          f"(worst level: {floor:.1f}x)")
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--jobs-per-client", type=int, default=4,
                        help="closed-loop jobs each client issues per phase")
    parser.add_argument("--sleep-seconds", type=float, default=0.15,
                        help="service time of the default workload")
    parser.add_argument("--spin", action="store_true",
                        help="CPU-bound workload instead of sleep")
    parser.add_argument("--spin-n", type=int, default=2_000_000)
    parser.add_argument("--fast", action="store_true",
                        help="smoke-size run (shorter jobs, fewer per client)")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.fast:
        args.jobs_per_client = 2
        args.sleep_seconds = 0.05
        args.spin_n = 200_000
    print(f"serve_load: closed-loop clients {CLIENT_LEVELS}, "
          f"{args.workers} workers, "
          f"workload {'spin' if args.spin else 'sleep'}")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
