"""Satellite: harness failure paths driven through the server's worker
tier (retry, timeout, process-pool degradation).

These run the :class:`~repro.serve.worker.WorkerTier` directly --
process mode, because the harness's SIGALRM deadline only arms on a
main thread, which is exactly what a pool worker provides.
"""

import pytest

from repro.harness.cache import ResultCache
from repro.serve.spec import ExperimentSpec
from repro.serve.worker import WorkerTier, _worker_entry


@pytest.fixture()
def tier(tmp_path):
    tier = WorkerTier(workers=2, cache_root=tmp_path / "cache").start()
    yield tier
    tier.shutdown()


def test_flaky_job_fails_twice_then_succeeds(tier, tmp_path):
    """The ISSUE's named scenario: two transient failures, bounded
    retries, eventual success -- all inside a worker process."""
    sentinel = tmp_path / "flaky.attempts"
    spec = ExperimentSpec.from_json({
        "kind": "job",
        "params": {"fn": "debug.flaky",
                   "params": {"sentinel": str(sentinel), "fail_times": 2}},
        "retries": 2,
    })
    report = tier.submit(spec).result(timeout=120)
    assert report["ok"], report
    assert report["result"]["result"] == {"value": 42, "attempts": 3}
    assert report["result"]["retries"] == 2
    assert sentinel.read_text().count("attempt") == 3


def test_flaky_job_exhausts_retry_budget(tier, tmp_path):
    sentinel = tmp_path / "hopeless.attempts"
    spec = ExperimentSpec.from_json({
        "kind": "job",
        "params": {"fn": "debug.flaky",
                   "params": {"sentinel": str(sentinel), "fail_times": 5}},
        "retries": 1,
    })
    report = tier.submit(spec).result(timeout=120)
    assert not report["ok"]
    assert "TransientJobError" in report["error"]
    # initial attempt + 1 retry, then the budget is spent
    assert sentinel.read_text().count("attempt") == 2


def test_job_timeout_fires_inside_worker(tier):
    """SIGALRM deadline enforcement on the worker's main thread: a
    sleep far past its budget dies with JobTimeoutError."""
    spec = ExperimentSpec.from_json({
        "kind": "job",
        "params": {"fn": "debug.sleep",
                   "params": {"seconds": 30, "token": "too-slow"}},
        "timeout": 0.3,
        "retries": 0,
    })
    report = tier.submit(spec).result(timeout=120)
    assert not report["ok"]
    assert "JobTimeoutError" in report["error"]


def test_timeout_then_success_on_retry(tier, tmp_path):
    """JobTimeoutError is transient: with retries budgeted, the harness
    re-runs the job, and a fast second attempt lands."""
    sentinel = tmp_path / "slow-start.attempts"
    # flaky's transient failure stands in for "first attempt too slow";
    # the point is that the retry path and the timeout path share the
    # TransientJobError machinery (JobTimeoutError subclasses it).
    spec = ExperimentSpec.from_json({
        "kind": "job",
        "params": {"fn": "debug.flaky",
                   "params": {"sentinel": str(sentinel), "fail_times": 1}},
        "timeout": 30,
        "retries": 1,
    })
    report = tier.submit(spec).result(timeout=120)
    assert report["ok"], report
    assert report["result"]["result"]["attempts"] == 2


def test_worker_results_land_in_shared_cache(tier, tmp_path):
    spec = ExperimentSpec.from_json({
        "kind": "job",
        "params": {"fn": "debug.echo", "params": {"token": "shared"}},
    })
    report = tier.submit(spec).result(timeout=120)
    assert report["ok"]
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(spec.key()) == {"seed": 0, "token": "shared"}


def test_tier_degrades_to_threads_when_pool_unavailable(tmp_path,
                                                        monkeypatch):
    """Serial-fallback analogue at the tier level: when the process
    pool cannot be built, the tier degrades to threads and still
    executes specs."""
    import repro.serve.worker as worker_mod

    def broken_pool(*args, **kwargs):
        raise OSError("no process pool for you")

    monkeypatch.setattr(worker_mod, "ProcessPoolExecutor", broken_pool)
    tier = WorkerTier(workers=1, cache_root=tmp_path / "cache").start()
    try:
        assert tier.mode == "thread"
        assert tier.degraded is True
        spec = ExperimentSpec.from_json({
            "kind": "job",
            "params": {"fn": "debug.echo", "params": {"token": "degraded"}},
        })
        report = tier.submit(spec).result(timeout=60)
        assert report["ok"]
        assert report["result"]["result"]["token"] == "degraded"
    finally:
        tier.shutdown()


def test_worker_entry_flattens_bad_spec_to_error():
    report = _worker_entry(({"kind": "job",
                             "params": {"fn": "no.such.fn"}}, None))
    assert not report["ok"]
    assert "SpecError" in report["error"]


def test_worker_killed_under_running_job_keeps_process_mode(tmp_path):
    """SIGKILL a worker process while a job runs: the broken pool is
    replaced by a fresh process pool, the lost job reruns once and
    finishes, and the service never degrades to threads."""
    import os
    import signal
    import time

    from repro.serve.testing import ServerThread

    cache = ResultCache(tmp_path / "cache")
    with ServerThread(cache=cache, workers=2) as srv:
        client = srv.client(timeout=60)
        record = client.submit({
            "kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 1.0, "token": "killed"}},
        })
        deadline = time.monotonic() + 30
        while client.status(record["id"])["status"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.02)
        time.sleep(0.2)  # the worker is inside the sleep now
        pids = list(srv.service.tier._pool._processes)
        os.kill(pids[0], signal.SIGKILL)

        final = client.wait(record["id"], timeout=60)
        assert final["status"] == "done", final.get("error")
        assert final["result"]["result"] == {"slept": 1.0,
                                             "token": "killed"}
        health = client.healthz()
        assert health["worker_mode"] == "process"
        assert health["worker_degraded"] is False

        after = client.submit_and_wait({
            "kind": "job",
            "params": {"fn": "debug.echo", "params": {"token": "after"}},
        }, timeout=60)
        assert after["status"] == "done", after.get("error")
        assert after["result"]["result"]["token"] == "after"
        assert client.metrics()["counters"]["failed"] == 0
