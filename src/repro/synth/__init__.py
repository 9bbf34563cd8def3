"""repro.synth -- automated attack synthesis (ROADMAP item 2).

A generate -> lint -> submit -> score search loop over the
attack-program space, in the spirit of uGen (PAPERS.md): seeded
mutation and crossover over parameterized gadget chains, a staged
static fitness pipeline (assemble / lint / taint) that kills most raw
candidates for free, and measured evaluation of the survivors through
the content-addressed harness -- locally or against a running service.

Layers:

- :mod:`repro.synth.genome` -- the gene space, sampling and the five
  named operators (align / pad / gadget / relayout / schedule);
- :mod:`repro.synth.candidate` -- genome -> session builders and the
  staged static pipeline (:func:`evaluate_static`);
- :mod:`repro.synth.jobs` -- the ``synth.measure`` registered harness
  job (one cached row serves every objective);
- :mod:`repro.synth.objectives` -- bandwidth / capacity / stealth;
- :mod:`repro.synth.evaluate` -- local-harness and serve finalist
  evaluators;
- :mod:`repro.synth.search` -- :func:`run_search` and the
  best-candidate report.
"""

from repro.synth.candidate import (
    Candidate,
    build_session,
    evaluate_static,
)
from repro.synth.evaluate import (
    EvalStats,
    LocalEvaluator,
    ServeEvaluator,
    measure_job,
)
from repro.synth.genome import (
    FAMILIES,
    OPERATORS,
    baseline_genome,
    crossover,
    mutate,
    new_genome,
    seed_population,
)
from repro.synth.objectives import OBJECTIVES, get_objective
from repro.synth.search import (
    GenerationStats,
    SynthConfig,
    SynthResult,
    best_report,
    run_search,
    search_key,
    spearman,
)

__all__ = [
    "Candidate",
    "EvalStats",
    "FAMILIES",
    "GenerationStats",
    "LocalEvaluator",
    "OBJECTIVES",
    "OPERATORS",
    "ServeEvaluator",
    "SynthConfig",
    "SynthResult",
    "baseline_genome",
    "best_report",
    "build_session",
    "crossover",
    "evaluate_static",
    "get_objective",
    "measure_job",
    "mutate",
    "new_genome",
    "run_search",
    "search_key",
    "seed_population",
    "spearman",
]
