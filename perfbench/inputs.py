"""Seed -> workload inputs.  The program only ever sees what these
functions generate; the same seed always generates the same inputs.

- ``attack-eval``: the ``batch attacks --fast`` grid (all seven groups,
  14 jobs).  The seed draws the noise-model seed of the Table I and
  contention rows and the order the jobs run in.  Payload, secret and
  key stay the ``--fast`` values: the work a job does depends on their
  bits (up to ~25% per job across random values), which would swamp a
  speed signal, and only the grid's pattern key is known to extract
  exactly at 12 bits.
- ``characterize``: the Figure 3-7 ``--fast`` grids (100 jobs); the
  seed draws the order.  Characterization has no noise, so every seed
  yields the same rows.
- ``serve-mix``: a sequence of ``job`` specs (characterization points
  and small attack rows).  Each distinct spec first appears cold; a
  fifth are followed at once by an in-flight twin; every distinct spec
  is repeated :data:`REPEATS` times later on.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

#: The ``batch attacks --fast`` point sizes (repro.harness.attacks).
ATTACK_FAST = {"payload": b"u", "secret": b"\xa5", "keys": (0xAAA,),
               "nbits": 12, "lfence_rounds": 2}

#: Client in-flight window for ``serve-mix`` (larger than the 2 workers,
#: so requests queue).
WINDOW = 4

#: Share of distinct specs submitted twice back to back (an in-flight
#: twin).
TWIN_SHARE = 0.2

#: Repeats of every distinct spec, each placed after the spec is at
#: least a window old (so it has most likely finished).
REPEATS = 3

#: serve-mix spec families: (fn, distinct specs per sequence, parameter
#: grid).  The grid is split into as many strata as the quota, in grid
#: order, and one point is drawn per stratum, so every seed offers the
#: same spread of program sizes (and so of cost).
SERVE_FAMILIES: Tuple[Tuple[str, int, List[Dict[str, Any]]], ...] = (
    ("characterize.size", 24,
     [{"n": n, "iters": i} for n in range(32, 129, 4) for i in (2, 3)]),
    ("characterize.associativity", 20,
     [{"n": n, "iters": i} for n in range(1, 15) for i in range(2, 7)]),
    ("characterize.placement", 24,
     [{"nregions": r, "uops": u, "iters": i} for r in (2, 4, 8)
      for u in range(2, 25, 2) for i in range(2, 7)]),
    ("characterize.replacement", 16,
     [{"main_iters": m, "evict_iters": e, "rounds": r} for m in range(1, 5)
      for e in range(0, 5) for r in range(2, 5)]),
    ("attacks.lfence_signal", 3,
     [{"fence": f, "rounds": r} for f in ("nf", "lf", "cp") for r in (1, 2)]),
)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512: stable across processes and
    # interpreter runs, unlike hash() of a str.
    return random.Random(f"perfbench:{workload}:{seed}")


def attack_eval_jobs(seed: int) -> list:
    """The 14 attack-evaluation jobs, in seed order."""
    from repro.harness.attacks import attack_jobs

    rng = _rng("attack-eval", seed)
    fast = ATTACK_FAST
    groups = attack_jobs(fast["payload"], fast["secret"], fast["keys"],
                         fast["nbits"], noise_seed=rng.randrange(1 << 16),
                         lfence_rounds=fast["lfence_rounds"])
    jobs = [job for batch in groups.values() for job in batch]
    rng.shuffle(jobs)
    return jobs


def characterize_jobs(seed: int) -> list:
    """The 100 Figure 3-7 ``--fast`` jobs, in seed order."""
    from repro.harness.experiments import characterize_sweeps

    jobs = [job for sweep in characterize_sweeps(fast=True).values()
            for job in sweep.jobs()]
    _rng("characterize", seed).shuffle(jobs)
    return jobs


BATCH_JOBS = {"attack-eval": attack_eval_jobs, "characterize": characterize_jobs}


def serve_sequence(seed: int) -> List[Dict[str, Any]]:
    """The serve-mix request sequence: ``job`` spec documents."""
    rng = _rng("serve-mix", seed)
    distinct: List[Dict[str, Any]] = []
    for fn, quota, grid in SERVE_FAMILIES:
        bounds = [round(i * len(grid) / quota) for i in range(quota + 1)]
        distinct.extend(
            {"kind": "job",
             "params": {"fn": fn, "params": rng.choice(grid[lo:hi])}}
            for lo, hi in zip(bounds, bounds[1:]))
    rng.shuffle(distinct)
    twins = set(rng.sample(range(len(distinct)), round(TWIN_SHARE * len(distinct))))

    sequence: List[Dict[str, Any]] = []
    owed: List[Dict[str, Any]] = []
    for i, spec in enumerate(distinct):
        sequence.append(spec)
        if i in twins:
            sequence.append(spec)
        if i >= WINDOW:
            owed.extend([distinct[i - WINDOW]] * REPEATS)
        for _ in range(min(REPEATS, len(owed))):
            sequence.append(owed.pop(rng.randrange(len(owed))))
    owed.extend(spec for spec in distinct[-WINDOW:] for _ in range(REPEATS))
    rng.shuffle(owed)
    return sequence + owed
