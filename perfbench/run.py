"""The repository's benchmark: cold attack evaluation, characterization
sweeps and mixed serve traffic, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload attack-eval --seed 1 --seconds 45 --trace 0

Workloads (inputs come from ``--seed``, see ``inputs.py``):

- ``attack-eval``: the ``batch attacks --fast`` grid, 14 jobs through
  ``run_jobs(workers=1, cache=None)``;
- ``characterize``: the Figure 3-7 ``--fast`` grids, 100 jobs, the same
  way (runnable, but not among ``BENCHMARK.json``'s workloads: its
  timings drifted past their bounds between sets of runs, and its
  layers are all measured on ``attack-eval`` too);
- ``serve-mix``: an ``ExperimentService`` (2 worker processes, empty
  result store) under a closed-loop client: one thread calling
  ``ServeClient.submit_many`` with an in-flight window of 4.

Every pass runs in a fresh interpreter (``passes.py``), so each is cold.
A run makes as many passes as ``--seconds`` buys (with ``--trace 1``
alternately untraced and traced, at least one of each) and reports
medians over passes.  Medians are Harrell-Davis estimates, which weigh
every sample (``stats.py``).

End-to-end metrics (``--trace 0``), host time:

- ``setup_s``: interpreter start to the job list built and every job
  function resolved (batch; median over the passes and
  :data:`SETUP_PROBES` set-up-only launches before each), or to the
  service's first healthy ``/healthz`` answer (serve-mix).
- ``wall_s``: one cold pass -- the cold ``run_jobs`` calls of the grid,
  or the client's ``submit_many`` over the whole request sequence.
- ``sim_kips``: simulated instructions retired (by the workers, on
  serve-mix) per second of ``wall_s``, in thousands.
- ``jobs_per_s``: jobs, or requests, completed per second of ``wall_s``.
- ``cold_p50_ms``/``cold_p90_ms``: work that ran the simulator -- a
  batch job's execution (each job's median over passes, quantiles across
  jobs), or a serve request executed by a worker, as the client saw it.
- ``warm_p50_ms``/``warm_p90_ms``: answers that ran no simulation -- a
  batch job answered again by ``run_jobs`` from a result store holding
  the pass's results (each job's median of five), or a serve request
  the cache answered at admission.
- ``peak_rss_mb``: peak resident set of the pass process, or of the
  service plus its workers (summed).

A tail percentile is lowered to the highest one with ten samples beyond
it (``stats.py``) and the report says so; attack-eval's 14 jobs support
only a median.  ``failed_ratio`` -- failed, refused or mismatched
operations over those attempted -- is printed with the metrics and
carried by ``failed``/``attempted`` in the JSON line.

``--trace 1`` prints the per-layer metrics: counts and self times from
the traced passes, the latency splits (``harness.job_run.*``,
``serve.*_ms.*``) from its untraced passes, and ``trace.overhead_s`` as
traced minus untraced wall.  In the attribution, the self times of every
layer measured in the timed process plus ``other.self_s`` add up to
``trace.wall_s``: for the batch workloads that process is the pass
itself; for ``serve-mix`` it is the client, whose layers are
``serve.submit``, ``serve.status`` and ``serve.submit_many`` (server and
worker layers run in other processes and are reported beside it).

Simulated counts and the simulator layers' call counts repeat exactly
for a seed.  On serve-mix the admission-side counts (``isa.assemble``,
``harness.job_key``, ``harness.cache_get``, ``harness.cached``) do not:
whether a twin coalesces or finds the cache is timing.

Outputs are checked against ``reference.json`` and each run's own
success conditions (``checks.py``); a job the reference should hold but
does not is a failure.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402

PASSES = os.path.join(HERE, "passes.py")
WORKLOADS = ("attack-eval", "characterize", "serve-mix")

#: Set-up-only interpreter launches before each untraced batch pass,
#: beside the pass's own set-up; ``setup_s`` is the median over all of
#: them.  One launch reads 0.24-0.41 s on a 2-core x86-64 sandbox, so a
#: median of a handful moves by a quarter from run to run; spreading the
#: launches over the run keeps one slow stretch of the host from taking
#: them all.
SETUP_PROBES = 4

#: Passes per 30 s of ``--seconds``.  On a 2-core x86-64 sandbox a
#: 45 s run (3 attack-eval passes, 18 serve-mix passes) takes 39-56 s,
#: as the host's speed swings.
PASSES_PER_30_S = {"attack-eval": 2, "characterize": 2, "serve-mix": 12}

#: Ceiling on one pass (a child process), in seconds.
PASS_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_kips", "kinst/s"),
    ("jobs_per_s", "1/s"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Layers measured by self time (and call count) in a traced pass.
SELF_TIMED = (
    "cpu.call", "cpu.core_init", "frontend.fetch_block", "uopcache.lookup",
    "uopcache.fill", "backend.process", "memory.access", "isa.assemble",
    "lint.analyze", "lint.taint", "session.init", "harness.job_run",
    "harness.job_key", "harness.cache_get", "serve.submit", "serve.status",
    "serve.submit_many",
)

#: Per-layer metrics, in report order.
PER_LAYER = (
    [(f"{name}.count", "count") for name in SELF_TIMED
     if name not in ("lint.taint", "harness.job_run", "serve.submit_many")]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [
        ("cpu.sim_instructions", "count"),
        ("cpu.sim_cycles", "count"),
        ("cpu.squashed_uops", "count"),
        ("frontend.macro_ops_decoded", "count"),
        ("frontend.dsb_uop_share", "ratio"),
        ("uopcache.dsb_hit_rate", "ratio"),
        ("harness.job_run.p50_ms", "ms"),
        ("harness.job_run.p90_ms", "ms"),
        ("harness.executed", "count"),
        ("harness.cached", "count"),
        ("serve.admission_ms.p50", "ms"),
        ("serve.queue_wait_ms.p50", "ms"),
        ("serve.queue_wait_ms.p90", "ms"),
        ("serve.execute_ms.p50", "ms"),
        ("serve.poll_overhead_ms.p50", "ms"),
        ("serve.cache_hit_rate", "ratio"),
        ("serve.coalesce_rate", "ratio"),
        ("serve.rejected", "count"),
        ("serve.executed", "count"),
        ("other.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

UNITS = dict(END_TO_END) | dict(PER_LAYER)


class Report:
    """What a run found: metrics, notes, and the correctness tally."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def tail_ms(self, samples_s: List[float], p50_key: str,
                p90_key: str = "") -> None:
        """Median (and p90) of ``samples_s`` in milliseconds."""
        ms = [s * 1000.0 for s in samples_s]
        for q, key in ((0.5, p50_key), (0.9, p90_key)):
            if not key:
                continue
            value, used, n = stats.tail(ms, q)
            self.metrics[key] = 0.0 if value is None else value
            if n and used != q:
                self.notes.append(f"{key}: {n} samples support only "
                                  f"p{used * 100:.0f}; reported that")


# ----------------------------------------------------------------------
# child processes


def _env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _batch_child(env, workload: str, seed: int, traced: bool, out: str,
                 setup_only: bool = False) -> Tuple[Dict[str, Any], float]:
    """Run one pass process; returns ``(its record, spawn time)``."""
    cmd = [sys.executable, PASSES, "batch", workload, str(seed),
           "1" if traced else "0", out]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    subprocess.run(cmd, env=env, check=True, timeout=PASS_TIMEOUT,
                   stdout=sys.stderr)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), spawned


def _run_passes(workload: str, seconds: float, traced_run: bool,
                run_one) -> List[Tuple[bool, Any]]:
    """Run the passes ``seconds`` buys (:data:`PASSES_PER_30_S`),
    alternating untraced and (in a traced run) traced ones.

    The count depends on ``seconds`` only, never on how fast this host
    is, so every run pools the same number of samples and reads its
    percentiles at the same rank.
    """
    kinds = (False, True) if traced_run else (False,)
    count = max(len(kinds), round(seconds / 30 * PASSES_PER_30_S[workload]))
    return [(kinds[i % len(kinds)], run_one(kinds[i % len(kinds)], i))
            for i in range(count)]


# ----------------------------------------------------------------------
# per-layer accounting shared by both kinds of workload


def _sum_totals(dicts) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for totals in dicts:
        for name, (count, self_s) in totals.items():
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += count
            acc[1] += self_s
    return out


def _layer_metrics(report: Report, totals: Dict[str, List[float]],
                   sim: Dict[str, int], passes: int) -> None:
    """Per-pass counts and self times, plus the simulated counters."""
    m = report.metrics
    for name in SELF_TIMED:
        count, self_s = totals.get(name, (0, 0.0))
        m[f"{name}.count"] = count / passes
        m[f"{name}.self_s"] = self_s / passes
    m["other.self_s"] = totals.get("other", (0, 0.0))[1] / passes
    m["cpu.sim_instructions"] = sim.get("retired_instructions", 0) / passes
    m["cpu.sim_cycles"] = sim.get("cycles", 0) / passes
    m["cpu.squashed_uops"] = sim.get("squashed_uops", 0) / passes
    m["frontend.macro_ops_decoded"] = sim.get("macro_ops_decoded", 0) / passes
    uops = sum(sim.get(f, 0) for f in ("uops_dsb", "uops_mite", "uops_msrom"))
    m["frontend.dsb_uop_share"] = sim.get("uops_dsb", 0) / uops if uops else 0.0
    regions = sim.get("dsb_hits", 0) + sim.get("dsb_misses", 0)
    m["uopcache.dsb_hit_rate"] = (sim.get("dsb_hits", 0) / regions
                                  if regions else 0.0)


def _sum_sim(sims) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for sim in sims:
        for field, value in sim.items():
            out[field] = out.get(field, 0) + value
    return out


def _per_job_median(pairs) -> List[float]:
    by_job: Dict[str, List[float]] = {}
    for key, seconds in pairs:
        by_job.setdefault(key, []).append(seconds)
    return [stats.median(v) for v in by_job.values()]


def _check_jobs(report: Report, jobs: List[Dict[str, Any]], reference,
                required: bool) -> None:
    """Digest and success-condition checks of executed jobs.  With
    ``required`` (see ``checks.digest_required``) a job without a
    recorded digest fails too."""
    tally = {"matched": 0, "mismatched": 0, "unrecorded": 0}
    for job in jobs:
        verdicts = checks.compare(job, reference)
        for verdict in verdicts:
            tally[verdict] += 1
        problem = checks.job_failure(job)
        if "mismatched" in verdicts:
            problem = "output differs from the recorded digest"
        elif required and "unrecorded" in verdicts:
            problem = "no recorded digest"
        if problem:
            report.fail(f"{job['fn']} {job['params']}: {problem}")
    report.notes.append(
        f"digests: {tally['matched']} matched, {tally['mismatched']} "
        f"mismatched, {tally['unrecorded']} unrecorded ("
        + ("failures: every job of this run is recorded)" if required
           else "success conditions only: seed not recorded)"))


# ----------------------------------------------------------------------
# batch workloads


def run_batch(args, root: str, out_dir: str, report: Report,
              reference, required: bool) -> List[Dict[str, Any]]:
    env = _env(root)
    setups = []

    def one(traced: bool, index: int):
        for i in range(0 if traced else SETUP_PROBES):
            doc, spawned = _batch_child(
                env, args.workload, args.seed, False,
                os.path.join(out_dir, f"setup{index}-{i}.json"),
                setup_only=True)
            setups.append(doc["ready_mono"] - spawned)
        out = os.path.join(out_dir, f"pass{index}.json")
        doc, spawned = _batch_child(env, args.workload, args.seed, traced, out)
        setups.append(doc["ready_mono"] - spawned)
        return doc

    passes = _run_passes(args.workload, args.seconds, args.trace, one)
    plain = [doc for is_traced, doc in passes if not is_traced]
    traced = [doc for is_traced, doc in passes if is_traced]

    all_jobs: List[Dict[str, Any]] = []
    for doc in plain + traced:
        report.attempted += len(doc["jobs"]) + sum(
            len(samples) for samples in doc.get("warm_s", {}).values())
        for label in doc["failed_jobs"]:
            report.fail(f"{label}: raised")
        report.fail("warm re-run not answered from the store",
                    doc.get("warm_failed", 0))
        all_jobs.extend(doc["jobs"])
        if args.workload == "characterize":
            for problem in checks.knee_failures(doc["jobs"]):
                report.fail(problem)
    _check_jobs(report, all_jobs, reference, required)

    m = report.metrics
    first = plain[0]
    report.notes.append(
        "work per pass: " + ", ".join(
            f"{k}={first['sim'][k]}" for k in
            ("retired_instructions", "cycles", "fetch_blocks", "uops_dsb",
             "uops_mite", "uops_msrom")))
    # One latency per job: its median over passes (cold) or over warm
    # answers (warm).  Jobs differ in size by 100x, so pooled samples
    # would let host jitter reorder jobs across those gaps.
    cold_s = _per_job_median(
        (job["key"], job["end"] - job["start"])
        for doc in plain for job in doc["jobs"])
    if not args.trace:
        m["setup_s"] = stats.median(setups)
        m["wall_s"] = stats.median([d["wall"] for d in plain])
        m["sim_kips"] = stats.median(
            [d["sim"]["retired_instructions"] / d["wall"] / 1000.0
             for d in plain])
        m["jobs_per_s"] = stats.median([d["executed"] / d["wall"] for d in plain])
        report.tail_ms(
            _per_job_median((key, s) for d in plain
                            for key, samples in d["warm_s"].items()
                            for s in samples),
            "warm_p50_ms", "warm_p90_ms")
        report.tail_ms(cold_s, "cold_p50_ms", "cold_p90_ms")
        m["peak_rss_mb"] = stats.median([d["rss_mb"] for d in plain])
        report.notes.append(f"{len(plain)} pass(es); setup_s over "
                            f"{len(setups)} launches")
    else:
        _layer_metrics(report, _sum_totals(d["totals"] for d in traced),
                       _sum_sim(d["sim"] for d in traced), len(traced))
        report.tail_ms(cold_s, "harness.job_run.p50_ms",
                       "harness.job_run.p90_ms")
        m["harness.executed"] = stats.median([d["executed"] for d in traced])
        m["trace.wall_s"] = stats.mean([d["traced_wall"] for d in traced])
        m["trace.overhead_s"] = (m["trace.wall_s"]
                                 - stats.mean([d["wall"] for d in plain]))
        report.notes.append(f"{len(plain)} untraced + {len(traced)} traced "
                            f"pass(es)")
    return all_jobs


# ----------------------------------------------------------------------
# serve-mix

_TERMINAL = ("done", "failed", "timeout", "cancelled")


def _start_host(env, traced: bool, pass_dir: str):
    return subprocess.Popen(
        [sys.executable, PASSES, "serve-host", "1" if traced else "0",
         pass_dir],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)


def _stop_host(host) -> None:
    """Drain the service (SIGTERM); kill its process group if it hangs."""
    if host.poll() is None:
        host.send_signal(signal.SIGTERM)
    try:
        host.wait(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(host.pid, signal.SIGKILL)
        host.wait()
    host.stdout.close()


def serve_pass(env, seed: int, traced: bool, pass_dir: str) -> Dict[str, Any]:
    """One cold serve-mix pass: host start, the request sequence, drain."""
    from repro.serve.client import Backpressure, ServeClient, ServeError
    from tracer import Tracer

    os.makedirs(pass_dir)
    spawned = time.monotonic()
    host = _start_host(env, traced, pass_dir)
    try:
        ready, _, _ = select.select([host.stdout], [], [], PASS_TIMEOUT)
        line = host.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("serve host did not report a port")
        client = ServeClient(port=json.loads(line)["port"], timeout=60)
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    break
            except (OSError, ServeError):
                if host.poll() is not None:
                    raise
            time.sleep(0.005)
        setup = time.monotonic() - spawned

        sequence = inputs.serve_sequence(seed)
        perf = time.perf_counter
        submissions: List[Tuple[float, float, Dict[str, Any]]] = []
        terminal_at: Dict[str, Tuple[float, Dict[str, Any]]] = {}
        refused = [0]

        def timed_submit(spec):
            start = perf()
            try:
                doc = ServeClient.submit(client, spec)
            except Backpressure:
                refused[0] += 1
                raise
            submissions.append((start, perf(), doc))
            return doc

        def timed_status(job_id):
            doc = ServeClient.status(client, job_id)
            if doc.get("status") in _TERMINAL and job_id not in terminal_at:
                terminal_at[job_id] = (perf(), doc)
            return doc

        client.submit = timed_submit
        client.status = timed_status
        tracer = Tracer(traced)
        with tracer, tracer.root() as root:
            records = client.submit_many(sequence, max_in_flight=inputs.WINDOW,
                                         timeout=PASS_TIMEOUT)
        counters = client.metrics()["counters"]
    finally:
        _stop_host(host)

    with open(os.path.join(pass_dir, "host.json"), encoding="utf-8") as fh:
        host_doc = json.load(fh)
    workers: Dict[int, List[Dict[str, Any]]] = {}
    for path in sorted(glob.glob(os.path.join(pass_dir, "jobs-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                job = json.loads(line)
                workers.setdefault(job["pid"], []).append(job)
    if traced:
        tracer.write_spans(os.path.join(pass_dir, "client.spans.jsonl"))
    shutil.rmtree(os.path.join(pass_dir, "store"), ignore_errors=True)
    return {
        "setup": setup, "wall": root.wall, "sequence": sequence,
        "records": records, "submissions": submissions,
        "terminal_at": terminal_at, "refused": refused[0],
        "counters": counters, "host": host_doc, "workers": workers,
        "client_totals": tracer.totals,
    }


def _serve_requests(doc) -> Dict[str, List]:
    """Classify each request and split cold latency into its parts."""
    out: Dict[str, List] = {k: [] for k in (
        "warm", "cold", "coalesced", "admission", "queue", "execute", "poll")}
    for start, end, sub in doc["submissions"]:
        if sub.get("status") in _TERMINAL:
            out["warm"].append(end - start)
            continue
        seen, final = doc["terminal_at"][sub["id"]]
        latency = seen - start
        if sub.get("coalesced"):
            out["coalesced"].append(latency)
            continue
        out["cold"].append(latency)
        admission = end - start
        queue = final["started_at"] - final["submitted_at"]
        execute = final["finished_at"] - final["started_at"]
        out["admission"].append(admission)
        out["queue"].append(queue)
        out["execute"].append(execute)
        out["poll"].append(latency - admission - queue - execute)
    return out


def _check_serve_pass(report: Report, doc) -> List[Dict[str, Any]]:
    """Request-level checks of one pass; returns its executed jobs."""
    sequence, records = doc["sequence"], doc["records"]
    report.attempted += len(sequence)
    if doc["refused"]:
        report.fail("submissions refused with 429", doc["refused"])
    jobs = [job for lines in doc["workers"].values() for job in lines]
    executed_rows = {job["key"]: job["result"] for job in jobs}
    distinct = {json.dumps(spec, sort_keys=True) for spec in sequence}
    if len(jobs) != len(distinct) or len(executed_rows) != len(jobs):
        report.fail(f"{len(jobs)} executions for {len(distinct)} distinct "
                    f"specs", abs(len(jobs) - len(distinct)) or 1)
    if doc["counters"]["executed"] != len(distinct):
        report.fail(f"serve.executed {doc['counters']['executed']} != "
                    f"{len(distinct)} distinct specs")
    for record in records:
        if record is None or record.get("status") != "done":
            report.fail(f"request ended {record and record.get('status')}")
            continue
        row = record["result"]["result"]
        if executed_rows.get(record["key"], row) != row:
            report.fail(f"{record['describe']}: answer differs from the "
                        f"executed result")
    return jobs


def run_serve(args, root: str, out_dir: str, report: Report,
              reference, required: bool) -> List[Dict[str, Any]]:
    env = _env(root)

    def one(traced: bool, index: int):
        return serve_pass(env, args.seed, traced,
                          os.path.join(out_dir, f"pass{index}"))

    passes = _run_passes(args.workload, args.seconds, args.trace, one)
    plain = [doc for is_traced, doc in passes if not is_traced]
    traced = [doc for is_traced, doc in passes if is_traced]

    all_jobs: List[Dict[str, Any]] = []
    for doc in plain + traced:
        all_jobs.extend(_check_serve_pass(report, doc))
    _check_jobs(report, all_jobs, reference, required)

    split = {k: [] for k in ("warm", "cold", "coalesced", "admission",
                             "queue", "execute", "poll")}
    for doc in plain:
        for k, v in _serve_requests(doc).items():
            split[k].extend(v)
    first = plain[0]
    report.notes.append(
        f"requests per pass: {len(first['sequence'])} "
        f"({len(_serve_requests(first)['cold'])} cold)")
    m = report.metrics

    def worker_sim(doc):
        return _sum_sim(job["sim"] for lines in doc["workers"].values()
                        for job in lines)

    if not args.trace:
        m["setup_s"] = stats.median([d["setup"] for d in plain])
        m["wall_s"] = stats.median([d["wall"] for d in plain])
        m["sim_kips"] = stats.median(
            [worker_sim(d)["retired_instructions"] / d["wall"] / 1000.0
             for d in plain])
        m["jobs_per_s"] = stats.median(
            [len(d["sequence"]) / d["wall"] for d in plain])
        report.tail_ms(split["warm"], "warm_p50_ms", "warm_p90_ms")
        report.tail_ms(split["cold"], "cold_p50_ms", "cold_p90_ms")
        m["peak_rss_mb"] = stats.median(
            [d["host"]["rss_mb"] + sum(max(j["rss_mb"] for j in lines)
                                       for lines in d["workers"].values())
             for d in plain])
        report.notes.append(
            f"{len(plain)} pass(es); coalesced requests (excluded from "
            f"warm and cold): {len(split['coalesced'])}")
    else:
        # Worker totals are cumulative: the last line of each worker.
        totals = _sum_totals(
            [d["client_totals"] for d in traced]
            + [d["host"]["totals"] for d in traced]
            + [lines[-1]["totals"] for d in traced
               for lines in d["workers"].values()])
        _layer_metrics(report, totals,
                       _sum_sim(worker_sim(d) for d in traced), len(traced))
        job_run = [job["end"] - job["start"] for d in plain
                   for lines in d["workers"].values() for job in lines]
        report.tail_ms(job_run, "harness.job_run.p50_ms",
                       "harness.job_run.p90_ms")
        n = len(plain)
        requests = sum(len(d["sequence"]) for d in plain)
        m["harness.executed"] = sum(
            len(lines) for d in plain for lines in d["workers"].values()) / n
        m["harness.cached"] = sum(d["counters"]["cache_hits"] for d in plain) / n
        report.tail_ms(split["admission"], "serve.admission_ms.p50")
        report.tail_ms(split["queue"], "serve.queue_wait_ms.p50",
                       "serve.queue_wait_ms.p90")
        report.tail_ms(split["execute"], "serve.execute_ms.p50")
        report.tail_ms(split["poll"], "serve.poll_overhead_ms.p50")
        m["serve.cache_hit_rate"] = sum(
            d["counters"]["cache_hits"] for d in plain) / requests
        m["serve.coalesce_rate"] = sum(
            d["counters"]["coalesced"] for d in plain) / requests
        m["serve.rejected"] = sum(d["counters"]["rejected"] for d in plain) / n
        m["serve.executed"] = sum(d["counters"]["executed"] for d in plain) / n
        m["trace.wall_s"] = stats.mean([d["wall"] for d in traced])
        m["trace.overhead_s"] = (m["trace.wall_s"]
                                 - stats.mean([d["wall"] for d in plain]))
        report.notes.append(f"{len(plain)} untraced + {len(traced)} traced "
                            f"pass(es)")
    return all_jobs


# ----------------------------------------------------------------------
# entry point


def _attribution(report: Report, workload: str) -> List[str]:
    """The traced attribution as report lines; a sum that misses the
    traced wall is a failure."""
    m = report.metrics
    names = (["serve.submit", "serve.status", "serve.submit_many"]
             if workload == "serve-mix"
             else [n for n in SELF_TIMED if not n.startswith("serve.")])
    wall = m["trace.wall_s"]
    rows = [(f"{n}.self_s", m[f"{n}.self_s"]) for n in names]
    rows.append(("other.self_s", m["other.self_s"]))
    total = sum(v for _, v in rows)
    lines = [f"attribution of traced wall {wall:.4f} s:"]
    for key, value in sorted(rows, key=lambda r: -r[1]) + [("sum", total)]:
        lines.append(f"  {key:28s} {value:10.4f} s  {100 * value / wall:6.2f}%")
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        report.fail(f"attribution sums to {total} s, traced wall {wall} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="add this run's job digests and seed to "
                             "reference.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    out_dir = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    reference = checks.load_reference()
    required = (not args.record
                and checks.digest_required(reference, args.workload, args.seed))
    report = Report()
    runner = run_serve if args.workload == "serve-mix" else run_batch
    jobs = runner(args, root, out_dir, report, reference, required)
    for store in glob.glob(os.path.join(out_dir, "*.store")):
        shutil.rmtree(store)

    if args.record:
        added = checks.record(jobs, reference)
        reference["seeds"].setdefault(args.workload, []).append(args.seed)
        checks.save_reference(reference)
        report.notes.append(f"recorded {added} new digest(s)")

    names = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    if args.trace:
        for name in names:
            # Layers a workload never reaches (serve on the batch grids,
            # the result cache with caching off) read zero.
            report.metrics.setdefault(name, 0.0)
    attribution = _attribution(report, args.workload) if args.trace else []
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name in names:
        print(f"  {name:28s} {report.metrics[name]:14.6f} {UNITS[name]}")
    ratio = report.failed / report.attempted if report.attempted else 1.0
    print(f"  {'failed_ratio':28s} {ratio:14.6f} ratio "
          f"({report.failed} of {report.attempted})")
    for line in attribution:
        print(line)
    for note in report.notes:
        print(f"note: {note}")
    for problem in report.problems:
        print(f"FAILED: {problem}")
    print("note: the simulator is not validated against hardware (the "
          "repository holds no hardware measurements); no error figure "
          "is reported")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": UNITS[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
