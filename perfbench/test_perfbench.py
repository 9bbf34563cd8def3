"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402


class FakeClock:
    """``time.perf_counter`` stand-in that moves only when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_parent_self_time_is_duration_minus_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", clock)
    t = tracer_mod.Tracer(traced=True)
    child = t._aggregated("child", clock.advance)

    def body():
        clock.advance(1.0)
        child(2.0)
        clock.advance(3.0)
        child(4.0)

    parent = t._span("parent", body)
    with t.root() as root:
        clock.advance(0.5)
        parent()
        clock.advance(0.25)

    (_, parent_id, name, start, end), = [s for s in t.spans if s[2] == "parent"]
    assert end - start == 10.0
    assert t.totals["child"] == [2, 6.0]
    assert t.totals["parent"] == [1, 4.0]  # 10 s minus its children's 6 s
    assert t.totals["other"] == [1, 0.75]
    assert root.wall == 10.75
    assert sum(self_s for _, self_s in t.totals.values()) == root.wall
    # the parent span hangs off the root span
    root_span, = [s for s in t.spans if s[2] == "pass"]
    assert parent_id == root_span[0]


def test_nested_spans_subtract_each_level_once(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", clock)
    t = tracer_mod.Tracer(traced=True)
    leaf = t._aggregated("leaf", clock.advance)
    mid = t._span("mid", lambda: (clock.advance(1.0), leaf(2.0)))
    top = t._span("top", lambda: (clock.advance(4.0), mid(), mid()))
    with t.root() as root:
        top()
    assert t.totals["leaf"] == [2, 4.0]
    assert t.totals["mid"] == [2, 2.0]
    assert t.totals["top"] == [1, 4.0]
    assert t.totals["other"][1] == 0.0
    assert root.wall == 10.0


def test_tail_quantile_keeps_ten_samples_beyond():
    for n in range(1, 260):
        values = list(range(n))
        q = stats.supported_quantile(n, 0.9)
        value = stats.quantile(values, q)
        if q > 0.5:
            assert sum(v > value for v in values) >= stats.MIN_BEYOND, n
        if n >= 100:
            assert q == 0.9, n
        elif n >= 2 * stats.MIN_BEYOND:
            # the highest such quantile: one rank up leaves fewer than ten
            higher = stats.quantile(values, min(1.0, q + 1.0 / n))
            assert sum(v > higher for v in values) < stats.MIN_BEYOND, n
        else:
            assert q == 0.5, n


def test_tail_reports_the_quantile_used():
    value, used, n = stats.tail([float(i) for i in range(40)], 0.9)
    assert (used, n) == (0.75, 40)
    assert value == 29.0
    assert stats.tail([], 0.9) == (None, 0.5, 0)
    # 14 samples support only a median
    value, used, n = stats.tail([float(i) for i in range(14)], 0.9)
    assert (used, n) == (0.5, 14)
    assert value == pytest.approx(6.5)


def test_median_is_harrell_davis():
    assert stats.median([3.0]) == 3.0
    assert stats.median([2.0, 1.0, 3.0]) == pytest.approx(2.0)
    # Every order statistic counts: the top value moves the median,
    # by its Beta weight 0.2593 (three samples).
    assert stats.median([1.0, 2.0, 13.0]) == pytest.approx(2.0 + 10.0 * 0.259259, abs=1e-5)
    # Reference value from an independent implementation
    # (scipy.stats.mstats.hdquantiles).
    assert stats.median([0.5, 1.0, 2.0, 4.0, 8.0]) == pytest.approx(
        2.52016, rel=1e-12)
    # Weights sum to one at any sample count.
    for n in (1, 2, 14, 999, 5000):
        assert sum(stats._hd_weights(n)) == pytest.approx(1.0, abs=1e-12)


def test_serve_sequence_is_a_function_of_the_seed():
    first = inputs.serve_sequence(7)
    assert first == inputs.serve_sequence(7)
    assert first != inputs.serve_sequence(8)
    # ... across interpreters too (no dependence on hash randomization)
    code = ("import json, sys; sys.path.insert(0, %r); import inputs; "
            "print(json.dumps(inputs.serve_sequence(7)))" % HERE)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONHASHSEED="12345"))
    assert json.loads(out.stdout) == first


def test_serve_sequence_shape():
    sequence = inputs.serve_sequence(3)
    keys = [json.dumps(spec, sort_keys=True) for spec in sequence]
    distinct = list(dict.fromkeys(keys))
    assert len(distinct) == sum(q for _, q, _ in inputs.SERVE_FAMILIES)
    twins = sum(a == b for a, b in zip(keys, keys[1:]))
    assert twins >= round(inputs.TWIN_SHARE * len(distinct))
    for key in distinct:
        # first appearance, an optional twin, then exactly REPEATS more
        assert keys.count(key) - inputs.REPEATS in (1, 2)


def _job(**overrides):
    job = {"key": "k1", "fn": "attacks.table2_row", "ok": True,
           "params": {"attack": "uop_cache", "secret_hex": "a5"}, "seed": 0,
           "result": {"leaked_hex": "a5", "byte_accuracy": 1.0},
           "sim": {"retired_instructions": 10}}
    job.update(overrides)
    return job


def _empty_reference():
    return {"rows": {}, "counts": {}, "complete": [], "seeds": {}}


def _recorded(*jobs):
    reference = _empty_reference()
    checks.record(jobs, reference)
    return reference


def test_digest_mismatch_counts_as_a_failure():
    report = run.Report()
    reference = _empty_reference()
    reference["rows"][checks.reference_key(_job())] = "0" * 16
    run._check_jobs(report, [_job()], reference, required=False)
    assert report.failed == 1


def test_matching_digest_passes():
    report = run.Report()
    run._check_jobs(report, [_job()], _recorded(_job()), required=True)
    assert report.failed == 0


def test_changed_counters_change_the_digest():
    report = run.Report()
    run._check_jobs(report, [_job(sim={"retired_instructions": 11})],
                    _recorded(_job()), required=False)
    assert report.failed == 1


def test_new_schema_or_config_key_is_still_compared():
    # A cache-schema bump or a CPUConfig field change gives every job a
    # new harness key; the job's identity, and so its recorded digest,
    # stays.
    reference = _recorded(_job())
    report = run.Report()
    run._check_jobs(report, [_job(key="k-after-schema-bump")], reference,
                    required=True)
    assert report.failed == 0
    changed = _job(key="k-after-schema-bump",
                   result={"leaked_hex": "a5", "byte_accuracy": 0.5})
    run._check_jobs(report, [changed], reference, required=True)
    assert report.failed == 1


def test_unrecorded_job_fails_only_where_every_job_is_recorded():
    reference = _recorded(_job())
    stranger = _job(params={"attack": "uop_cache", "secret_hex": "a5",
                            "extra": 1})
    report = run.Report()
    run._check_jobs(report, [stranger], reference, required=False)
    assert report.failed == 0
    run._check_jobs(report, [stranger], reference, required=True)
    assert report.failed == 1

    reference.update(complete=["characterize"], seeds={"attack-eval": [3]})
    assert checks.digest_required(reference, "characterize", 12345)
    assert checks.digest_required(reference, "attack-eval", 3)
    assert not checks.digest_required(reference, "attack-eval", 4)
    assert not checks.digest_required(reference, "serve-mix", 3)


def test_reference_covers_the_complete_workloads():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    reference = checks.load_reference()
    assert sorted(reference["complete"]) == ["characterize", "serve-mix"]
    jobs = [{"fn": job.fn, "params": job.params, "seed": job.seed}
            for job in inputs.characterize_jobs(0)]
    jobs += [{"fn": fn, "params": params, "seed": 0}
             for fn, _quota, grid in inputs.SERVE_FAMILIES for params in grid]
    missing = [job for job in jobs
               if checks.reference_key(job) not in reference["rows"]]
    assert not missing


def test_success_condition_failure_counts_without_a_digest():
    report = run.Report()
    leak = _job(result={"leaked_hex": "00", "byte_accuracy": 0.0})
    run._check_jobs(report, [leak], _empty_reference(), required=False)
    assert report.failed == 1


def _point(fn, n, result):
    return {"fn": fn, "ok": True, "params": {"n": n}, "result": result}


def test_knees_must_sit_just_past_the_paper_capacities():
    size = [_point("characterize.size", n, y) for n, y in
            ((192, 0.0), (224, 2.6), (256, 29.5), (288, 866.5), (320, 962.5))]
    assoc = [_point("characterize.associativity", n, y) for n, y in
             ((7, 0.0), (8, 0.25), (9, 1.25), (10, 2.25))]
    smt = [_point("characterize.smt_partitioning", n, {"single": s, "smt": y})
           for n, s, y in ((64, 0.0, 0.0), (128, 0.0, 26.0),
                           (192, 0.0, 578.0), (256, 29.5, 770.0))]
    assert checks.knee_failures(size + assoc + smt) == []
    # a cache twice as large moves the Figure 3a cliff past 320
    shifted = [dict(p, result=0.0) if p["params"]["n"] < 320 else p
               for p in size]
    problems = checks.knee_failures(shifted + assoc + smt)
    assert len(problems) == 1 and problems[0].startswith("fig3a")
