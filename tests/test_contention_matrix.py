"""Contention-matrix measurements: positive diagonals, clean negative
controls, and harness parity.

Thresholds ride well under the deterministic simulator's measured
slowdowns (see ``docs/CONTENTION.md`` for the full matrix) so they
fail on a broken template, not on a retuned latency constant.  Two
cells are *designed* zeros and asserted as such: the store buffer in
serial modes (drain state rebases per call) and the branch predictor
under SMT (predictors are per-thread).
"""

import pytest

from repro.contention import ContentionSession
from repro.harness.contention import (
    FAST_MODES,
    FAST_RESOURCES,
    contention_jobs,
    format_matrix,
    run_contention,
)
from tests.conftest import check_golden

#: (resource, clearest mode, minimum conflict slowdown).  Measured
#: values are 2-10x above each floor.
_POSITIVE_CELLS = [
    ("uop_cache", "smt", 2.0),
    ("uop_cache", "cross_domain", 4.0),
    ("itlb", "time_sliced", 1.5),
    ("dtlb", "time_sliced", 1.8),
    ("l1i", "time_sliced", 0.4),
    ("l1d", "time_sliced", 0.4),
    ("store_buffer", "smt", 0.4),
    ("btb", "time_sliced", 5.0),
]


def _cell(resource, mode, variant, trials=1):
    return ContentionSession(
        resource, mode, variant=variant, trials=trials
    ).measure()


@pytest.mark.parametrize("resource,mode,floor", _POSITIVE_CELLS,
                         ids=[f"{r}-{m}" for r, m, _ in _POSITIVE_CELLS])
def test_conflict_diagonal_is_positive(resource, mode, floor):
    cell = _cell(resource, mode, "conflict")
    assert cell.slowdown > floor, cell.as_dict()
    assert cell.contended_cycles > cell.baseline_cycles


@pytest.mark.parametrize("resource,mode,floor", _POSITIVE_CELLS,
                         ids=[f"{r}-{m}" for r, m, _ in _POSITIVE_CELLS])
def test_disjoint_negative_control_is_near_zero(resource, mode, floor):
    cell = _cell(resource, mode, "disjoint")
    assert abs(cell.slowdown) < 0.25, cell.as_dict()
    assert cell.slowdown < floor / 2


class TestDesignedZeros:
    def test_store_buffer_is_smt_only(self):
        """Serial calls rebase drain state; the asymmetry versus the
        SMT cell is the modelled fact."""
        serial = _cell("store_buffer", "time_sliced", "conflict")
        assert abs(serial.slowdown) < 0.05, serial.as_dict()

    def test_btb_is_serial_only(self):
        """Direction predictors are per-thread, so the SMT cell is a
        built-in negative control."""
        smt = _cell("btb", "smt", "conflict")
        assert abs(smt.slowdown) < 0.05, smt.as_dict()


class TestMeasurementShape:
    def test_cell_result_round_trips(self):
        cell = _cell("itlb", "time_sliced", "conflict", trials=2)
        d = cell.as_dict()
        assert d["resource"] == "itlb"
        assert d["trials"] == 2
        assert len(d["samples"]) == 2
        assert d["baseline_cycles"] > 0

    def test_deterministic_across_trials(self):
        """No noise model: every trial resets to the same state, so
        the per-trial samples are identical."""
        cell = _cell("uop_cache", "smt", "conflict", trials=2)
        assert cell.samples[0] == cell.samples[1]


class TestHarness:
    def test_grid_covers_the_full_matrix(self):
        jobs = contention_jobs()
        assert len(jobs) == 7 * 3 * 2
        labels = {j.tag for j in jobs}
        assert "contention[uop_cache/smt/conflict]" in labels
        assert "contention[btb/time_sliced/disjoint]" in labels

    def test_fast_grid_is_the_ci_subset(self):
        jobs = contention_jobs(fast=True)
        assert len(jobs) == len(FAST_RESOURCES) * len(FAST_MODES) * 2

    def test_harness_cell_matches_direct_session(self):
        """The job path and a hand-driven session agree bit-for-bit."""
        matrix, outcomes, summary = run_contention(
            resources=["itlb"], modes=["time_sliced"],
            variants=["conflict"], trials=1, cache=None,
        )
        direct = _cell("itlb", "time_sliced", "conflict").as_dict()
        assert matrix["itlb"]["time_sliced"]["conflict"] == direct
        assert summary.total == 1 and summary.failed == 0

    def test_warm_cache_executes_nothing(self, tmp_path):
        from repro.harness import ResultCache

        kwargs = dict(resources=["store_buffer"], modes=["smt"],
                      trials=1, cache=ResultCache(str(tmp_path)))
        _, _, cold = run_contention(**kwargs)
        matrix, _, warm = run_contention(**kwargs)
        assert cold.executed == 2 and cold.cached == 0
        assert warm.executed == 0 and warm.cached == 2
        assert matrix["store_buffer"]["smt"]["conflict"]["slowdown"] > 0.4

    def test_format_matrix_renders_every_cell(self):
        matrix, _, _ = run_contention(
            resources=["itlb"], modes=["time_sliced"], trials=1,
            cache=None,
        )
        text = format_matrix(matrix)
        assert "itlb" in text
        assert "conflict" in text and "disjoint" in text
        assert "time_sliced slowdown" in text


def test_fast_matrix_matches_golden_record():
    """The fast grid's cells repeat bit for bit
    (``tests/golden/contention_fast.json``)."""
    matrix, _, _ = run_contention(fast=True, trials=1, cache=None)
    check_golden("contention_fast.json", matrix)
