"""Layer accounting from outside the program.

:class:`Tracer` replaces layer entry points *at class level* with timing
wrappers for the duration of a ``with`` block, the way
``repro.cpu.profiling.PhaseTimer`` does, and restores them on exit.
Nothing inside ``src/`` changes.

Every wrapped call pushes a frame on a per-thread stack, so a call's
*self* time is its duration minus the durations of the wrapped calls it
made.  Self times therefore telescope: over one thread, the self times
of every frame below a root add up to the root's duration exactly, and
the root's own self time is the "other" row of the attribution.

Two kinds of boundary:

- **aggregated** (per-block and per-micro-op layers: ~1M calls a pass)
  keep only a call count and a self-time total in memory;
- **spans** (jobs, ``Core.call``/``run_smt``, core and session
  construction, serve requests) additionally record one
  ``(id, parent, name, start, end)`` span per call, written out by
  :meth:`Tracer.write_spans` when the run ends.

With ``traced=False`` only the span boundaries the benchmark's
end-to-end numbers need are wrapped: ``Core.call``/``run_smt`` (to sum
the simulated counters their returned ``PerfCounters`` deltas carry)
and ``Job.run`` (per-job latency and the per-job output record).
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import resource
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: PerfCounters fields summed over every ``Core.call``/``run_smt``.
SIM_FIELDS = (
    "fetch_blocks",
    "uops_dsb",
    "uops_mite",
    "uops_msrom",
    "retired_instructions",
    "squashed_uops",
    "macro_ops_decoded",
    "dsb_hits",
    "dsb_misses",
)

#: Aggregated boundaries: (metric name, module, class or None, attribute).
AGGREGATED = (
    ("frontend.fetch_block", "repro.frontend.pipeline", "FrontEnd", "fetch_block"),
    ("backend.process", "repro.backend.execute", "Backend", "process"),
    ("uopcache.lookup", "repro.uopcache.cache", "UopCache", "lookup"),
    ("uopcache.fill", "repro.uopcache.cache", "UopCache", "fill"),
    ("memory.access", "repro.memory.hierarchy", "MemoryHierarchy", "access_inst"),
    ("memory.access", "repro.memory.hierarchy", "MemoryHierarchy", "access_data"),
    ("isa.assemble", "repro.isa.assembler", "Assembler", "assemble"),
    ("lint.analyze", "repro.lint", None, "analyze"),
    ("lint.taint", "repro.lint", None, "verify_secret_claims"),
    ("harness.job_key", "repro.harness.job", "Job", "key"),
    ("harness.cache_get", "repro.harness.cache", "ResultCache", "get"),
)

#: Span boundaries wrapped only when tracing.
TRACED_SPANS = (
    ("cpu.core_init", "repro.cpu.core", "Core", "__init__"),
    ("session.init", "repro.session.base", "AttackSession", "__init__"),
    ("serve.submit", "repro.serve.client", "ServeClient", "submit"),
    ("serve.status", "repro.serve.client", "ServeClient", "status"),
    ("serve.submit_many", "repro.serve.client", "ServeClient", "submit_many"),
)

#: Names whose call counts are deterministic for given inputs (checked
#: per job against the recorded reference).
COUNTED = (
    "frontend.fetch_block",
    "backend.process",
    "uopcache.lookup",
    "uopcache.fill",
    "memory.access",
    "cpu.core_init",
    "isa.assemble",
    "session.init",
    "lint.analyze",
)


def _call_cycles(args, kwargs, smt: bool) -> Tuple[Tuple[int, ...], bool]:
    """Threads a ``Core.call``/``run_smt`` ran and whether it reset the
    pipeline clocks (``args`` excludes the core itself)."""
    if smt:
        threads: Tuple[int, ...] = (0, 1)
        reset = args[2] if len(args) > 2 else kwargs.get("reset_clocks", True)
    else:
        threads = (args[1] if len(args) > 1 else kwargs.get("thread_id", 0),)
        reset = args[3] if len(args) > 3 else kwargs.get("reset_clocks", True)
    return threads, bool(reset)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Class-level wrappers plus the per-thread self-time stack.

    ``job_sink`` (a directory) makes every finished job append its
    record to ``jobs-<pid>.jsonl`` there -- the only way records leave
    a forked pool worker, which never returns through benchmark code.
    """

    def __init__(self, traced: bool, job_sink: Optional[str] = None):
        self.traced = traced
        self.job_sink = job_sink
        #: name -> [call count, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.sim: Dict[str, int] = dict.fromkeys(SIM_FIELDS + ("cycles",), 0)
        self.jobs: List[Dict[str, Any]] = []
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._job_sim: Optional[Dict[str, int]] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[Any, str, Any]] = []
        self._original_key: Optional[Callable] = None

    # ------------------------------------------------------------------
    # the stack

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _acc(self, name: str) -> List[float]:
        return self.totals.setdefault(name, [0, 0.0])

    def root(self, name: str = "pass") -> "_Root":
        """Context manager for the span every attributed call nests in."""
        return _Root(self, name)

    def _aggregated(self, name: str, fn):
        acc = self._acc(name)
        stack_of = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = [0.0, None]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name: str, fn, before=None, after=None):
        """Span wrapper; ``before(args, kwargs) -> token`` and
        ``after(token, args, kwargs, result, start, end)`` hook in."""
        acc = self._acc(name)
        stack_of = self._stack
        perf = time.perf_counter
        ids = self._ids
        spans = self.spans
        keep = self.traced

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = next((f[1] for f in reversed(stack) if f[1]), None)
            frame = [0.0, next(ids)]
            token = before(args, kwargs) if before else None
            stack.append(frame)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    spans.append((frame[1], parent, name, start, end))
                if after:
                    after(token, args, kwargs, result, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # hooks

    def _cpu_before(self, args, kwargs, smt: bool):
        threads, reset = _call_cycles(args[1:], kwargs, smt)
        if reset:
            return threads, None
        return threads, [args[0].cycles(t) for t in threads]

    def _cpu_after(self, token, args, kwargs, result, start, end) -> None:
        if result is None:
            return
        core = args[0]
        threads, before = token
        deltas = result if isinstance(result, tuple) else (result,)
        cycles = sum(core.cycles(t) for t in threads)
        if before is not None:
            cycles -= sum(before)
        targets = [self.sim]
        if self._job_sim is not None:
            targets.append(self._job_sim)
        for target in targets:
            for delta in deltas:
                for field in SIM_FIELDS:
                    target[field] += getattr(delta, field)
            target["cycles"] += cycles

    def _job_before(self, args, kwargs):
        self._job_sim = dict.fromkeys(SIM_FIELDS + ("cycles",), 0)
        return {name: self.totals.get(name, (0,))[0] for name in COUNTED}

    def _job_after(self, counts_before, args, kwargs, result, start, end):
        job = args[0]
        record = {
            "key": self._original_key(job),
            "fn": job.fn,
            "params": job.params,
            "seed": job.seed,
            "ok": result is not None,
            "result": result,
            "start": start,
            "end": end,
            "sim": self._job_sim,
        }
        if self.traced:
            record["counts"] = {
                name: self.totals.get(name, (0,))[0] - counts_before[name]
                for name in COUNTED
            }
        self._job_sim = None
        self.jobs.append(record)
        if self.job_sink is not None:
            record = dict(record, pid=os.getpid(), rss_mb=peak_rss_mb(),
                          totals=self.totals)
            path = os.path.join(self.job_sink, f"jobs-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # install / restore

    def _patch(self, module: str, cls_name: Optional[str], attr: str,
               make: Callable[[Any], Any]) -> None:
        owner = importlib.import_module(module)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        from repro.harness.job import Job

        self._original_key = Job.key
        self._patch("repro.cpu.core", "Core", "call", lambda fn: self._span(
            "cpu.call", fn, lambda a, k: self._cpu_before(a, k, False),
            self._cpu_after))
        self._patch("repro.cpu.core", "Core", "run_smt", lambda fn: self._span(
            "cpu.call", fn, lambda a, k: self._cpu_before(a, k, True),
            self._cpu_after))
        self._patch("repro.harness.job", "Job", "run", lambda fn: self._span(
            "harness.job_run", fn, self._job_before, self._job_after))
        if self.traced:
            for name, module, cls_name, attr in TRACED_SPANS:
                self._patch(module, cls_name, attr,
                            lambda fn, n=name: self._span(n, fn))
            for name, module, cls_name, attr in AGGREGATED:
                self._patch(module, cls_name, attr,
                            lambda fn, n=name: self._aggregated(n, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


class _Root:
    """The outermost frame of one thread's attribution."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.start = self.end = 0.0
        self._frame = [0.0, None]

    def __enter__(self) -> "_Root":
        stack = self.tracer._stack()
        if stack:
            raise RuntimeError("a root span must be outermost")
        self._frame = [0.0, next(self.tracer._ids)]
        stack.append(self._frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._stack().pop()
        acc = self.tracer._acc("other")
        acc[0] += 1
        acc[1] += self.wall - self._frame[0]
        if self.tracer.traced:
            self.tracer.spans.append(
                (self._frame[1], None, self.name, self.start, self.end))

    @property
    def wall(self) -> float:
        return self.end - self.start
