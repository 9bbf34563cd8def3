"""Output checks: recorded per-job digests plus each run's own success
conditions.

A job's digest covers its result row and the simulated counters its
``Core.call``/``run_smt`` deltas summed to (fetch blocks, micro-ops by
source, retired instructions, cycles, ...).  It is filed under the job's
identity -- function, params and seed -- and not under the harness job
key, which also hashes the cache schema version, every ``CPUConfig``
field and the assembled program: a change to any of those must be
compared against the recorded rows, not escape them.  One map serves
every workload and every seed.

``reference.json`` holds the digests recorded at the commit that
introduced the benchmark, the workloads whose every possible job was
recorded (``complete``: ``characterize``, whose seed only orders the
jobs, and ``serve-mix``, whose specs come from finite grids) and the
seeds of the others whose every job was recorded (``seeds``).  In a run
of a complete workload or a recorded seed, a job with no recorded digest
is a failure.  Only at other seeds of ``attack-eval``, whose seed draws
the Table I noise seed, may a job be unrecorded; it is then judged by
its success condition alone.

The simulator has never been validated against hardware measurements
(the repository holds none), so no check compares against silicon and
the benchmark reports no error figure.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

#: Digest kinds kept in the reference: ``rows`` (result row + summed
#: simulated counters) and ``counts`` (traced per-layer call counts).
KINDS = ("rows", "counts")

#: Paper capacities the characterize knees must sit just past.
DSB_LINES = 256
DSB_WAYS = 8


def canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode()


def digest(obj: Any) -> str:
    """Short content digest of a JSON-able value."""
    return hashlib.sha256(canonical(obj)).hexdigest()[:16]


def reference_key(job: Dict[str, Any]) -> str:
    """A job's entry name in the reference: a digest of its identity
    (function, params, seed)."""
    return digest({"fn": job["fn"], "params": job["params"],
                   "seed": job["seed"]})


def job_digests(job: Dict[str, Any]) -> Dict[str, str]:
    """Digests of one job record (see ``Tracer._job_after``)."""
    out = {"rows": digest({"result": job["result"], "sim": job["sim"]})}
    if "counts" in job:
        out["counts"] = digest(job["counts"])
    return out


def load_reference(path: str = REFERENCE) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    reference = {kind: dict(doc.get(kind, {})) for kind in KINDS}
    reference["complete"] = list(doc.get("complete", []))
    reference["seeds"] = {workload: list(seeds) for workload, seeds
                          in doc.get("seeds", {}).items()}
    return reference


def save_reference(reference: Dict[str, Any], path: str = REFERENCE) -> None:
    doc = {kind: dict(sorted(reference[kind].items())) for kind in KINDS}
    doc["complete"] = sorted(set(reference["complete"]))
    doc["seeds"] = {workload: sorted(set(seeds)) for workload, seeds
                    in reference["seeds"].items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


def digest_required(reference: Dict[str, Any], workload: str,
                    seed: int) -> bool:
    """Whether every job of this run must find its recorded digests."""
    return (workload in reference["complete"]
            or seed in reference["seeds"].get(workload, ()))


def compare(job: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """``matched``, ``mismatched`` or ``unrecorded`` for each digest of
    one job."""
    verdicts = []
    for kind, value in job_digests(job).items():
        want = reference[kind].get(reference_key(job))
        verdicts.append("unrecorded" if want is None
                        else "matched" if want == value else "mismatched")
    return verdicts


def record(jobs: Iterable[Dict[str, Any]], reference: Dict[str, Any]) -> int:
    """Add the digests of ``jobs`` to ``reference``; returns how many
    were new.  Refuses to overwrite a different recorded digest."""
    added = 0
    for job in jobs:
        for kind, value in job_digests(job).items():
            recorded, key = reference[kind], reference_key(job)
            if key not in recorded:
                recorded[key] = value
                added += 1
            elif recorded[key] != value:
                raise ValueError(
                    f"{job['fn']} {job['params']} seed {job['seed']} "
                    f"disagrees with its recorded {kind} digest")
    return added


# ----------------------------------------------------------------------
# success conditions


def job_failure(job: Dict[str, Any]) -> Optional[str]:
    """The job's own success condition; ``None`` when it holds."""
    if not job.get("ok"):
        return "raised"
    row, params, fn = job["result"], job["params"], job["fn"]
    if fn in ("attacks.table2_row", "attacks.bti", "attacks.jumptable"):
        if row["leaked_hex"] != params["secret_hex"]:
            return f"leaked {row['leaked_hex']}, secret {params['secret_hex']}"
    if fn == "attacks.keyextract" and not row["exact"]:
        return f"recovered {row['recovered_key']:#x}, key {row['true_key']:#x}"
    return None


def _first_past(xs: List[int], capacity: int) -> Optional[int]:
    return min((x for x in xs if x > capacity), default=None)


def _steepest_rise(points: Dict[int, float]) -> Optional[int]:
    """The x at which y rises most from the previous grid point."""
    xs = sorted(points)
    rises = [(points[b] - points[a], b) for a, b in zip(xs, xs[1:])]
    return max(rises)[1] if rises else None


def knee_failures(jobs: Iterable[Dict[str, Any]]) -> List[str]:
    """Capacity knees of a characterize pass, each at the first grid
    point past the paper's capacity: Figure 3a's cliff past 256 lines,
    Figure 3b's first legacy-decoded micro-op past 8 ways, and Figure
    6's SMT cliff past 128 lines -- half -- at a size that still
    streams from the DSB single-threaded."""
    series: Dict[str, Dict[int, Any]] = {}
    for job in jobs:
        if job.get("ok"):
            series.setdefault(job["fn"], {})[job["params"].get("n")] = job["result"]
    size = series.get("characterize.size", {})
    assoc = series.get("characterize.associativity", {})
    smt_points = series.get("characterize.smt_partitioning", {})
    smt = {n: p["smt"] for n, p in smt_points.items()}

    found = {
        "fig3a size": (_steepest_rise(size), _first_past(list(size), DSB_LINES)),
        "fig3b associativity": (
            min((n for n, y in assoc.items() if y >= 1.0), default=None),
            _first_past(list(assoc), DSB_WAYS)),
        "fig6 smt": (_steepest_rise(smt), _first_past(list(smt), DSB_LINES // 2)),
    }
    problems = [f"{label}: knee at {got}, paper capacity puts it at {want}"
                for label, (got, want) in found.items()
                if got is None or got != want]
    knee = found["fig6 smt"][0]
    if knee in smt_points and smt_points[knee]["single"] >= 1.0:
        problems.append(f"fig6 single-thread: {knee} regions already spill")
    return problems
