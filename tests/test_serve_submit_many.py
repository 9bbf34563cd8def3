"""ServeClient.submit_many: bounded-concurrency batch submission.

Burst-tested against a 2-worker service and against a deliberately
tiny admission queue, where the whole batch must ride out 429
backpressure through the shared Retry-After pause instead of failing.
"""

import pytest

from repro.harness.cache import ResultCache
from repro.serve.client import Backpressure
from repro.serve.testing import ServerThread


def _echo_spec(token):
    return {"kind": "job",
            "params": {"fn": "debug.echo", "params": {"token": token}}}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("submit-many-cache"))
    with ServerThread(cache=cache, workers=2, worker_mode="thread") as srv:
        yield srv


def test_burst_returns_terminal_records_in_spec_order(server):
    specs = [_echo_spec(i) for i in range(12)]
    records = server.client().submit_many(specs, max_in_flight=4,
                                          timeout=300.0)
    assert len(records) == len(specs)
    for i, record in enumerate(records):
        assert record["status"] == "done"
        assert record["result"]["result"]["token"] == i


def test_burst_of_identical_specs_coalesces_or_hits_cache(server):
    # A job that outlives the burst's admission: an instant echo can
    # finish between two submissions, and the next twin is then a
    # cache answer with an id of its own.
    spec = {"kind": "job",
            "params": {"fn": "debug.sleep",
                       "params": {"seconds": 0.5, "token": "same"}}}
    specs = [spec] * 8
    records = server.client().submit_many(specs, max_in_flight=8,
                                          timeout=300.0)
    assert all(r["status"] == "done" for r in records)
    assert len({r["id"] for r in records}) == 1, \
        "identical burst must coalesce onto one job"
    assert records[0]["result"]["executed"] <= 1
    assert len({r["key"] for r in records}) == 1


def test_invalid_spec_in_batch_raises_at_admission(server):
    """A 400 is a spec-authoring bug, not a job failure: it must
    propagate (the synth pipeline's static stages exist precisely so
    no such spec is ever submitted)."""
    from repro.serve.client import ServeError

    specs = [_echo_spec(1),
             {"kind": "job", "params": {"fn": "no.such.fn"}},
             _echo_spec(2)]
    with pytest.raises(ServeError):
        server.client().submit_many(specs, timeout=300.0)


def test_batch_survives_backpressure_on_a_tiny_queue(tmp_path):
    cache = ResultCache(tmp_path)
    with ServerThread(cache=cache, workers=1, queue_capacity=2,
                      worker_mode="thread") as srv:
        specs = [{"kind": "job",
                  "params": {"fn": "debug.sleep",
                             "params": {"seconds": 0.05, "token": i}}}
                 for i in range(10)]
        records = srv.client().submit_many(specs, max_in_flight=10,
                                           timeout=300.0)
    assert all(r["status"] == "done" for r in records)
    tokens = [r["result"]["result"]["token"] for r in records]
    assert tokens == list(range(10))


def test_exhausted_backpressure_retries_raise(tmp_path):
    cache = ResultCache(tmp_path)
    with ServerThread(cache=cache, workers=1, queue_capacity=1,
                      worker_mode="thread") as srv:
        from repro.serve.client import ServeError

        client = srv.client()
        blocker = {"kind": "job",
                   "params": {"fn": "debug.sleep",
                              "params": {"seconds": 3.0, "token": "b"}}}
        specs = [{"kind": "job",
                  "params": {"fn": "debug.sleep",
                             "params": {"seconds": 3.0, "token": i}}}
                 for i in range(6)]
        client.submit(blocker)
        with pytest.raises(Backpressure):
            client.submit_many(specs, max_in_flight=6,
                               backpressure_retries=0, timeout=300.0)
        # drain: cancel what is still queued (running jobs 409; they
        # finish within the blocker's own 3 s budget)
        for job in client.jobs()["jobs"]:
            try:
                client.cancel(job["id"])
            except ServeError:
                pass


def test_window_never_exceeds_max_in_flight(server):
    client = server.client()
    before = {j["id"] for j in client.jobs()["jobs"]}
    specs = [_echo_spec(f"w{i}") for i in range(9)]
    records = client.submit_many(specs, max_in_flight=3, timeout=300.0)
    assert all(r["status"] == "done" for r in records)
    assert len(records) == 9
    new = [j for j in client.jobs()["jobs"] if j["id"] not in before]
    assert len(new) == 9
