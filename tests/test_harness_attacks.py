"""Harness-native attacks: job registration, serial parity, caching.

The batch path must reproduce the serial evaluation bit-for-bit
(``run_table2`` vs ``repro.core.report.table2``), and a warm cache
must answer the whole ``batch attacks`` grid without executing a
single simulation.
"""

import dataclasses

import pytest

from repro.core.report import table2
from repro.harness import ResultCache
from repro.harness.attacks import (
    attack_jobs,
    keyextract_jobs,
    run_attacks,
    run_table2,
    table2_jobs,
)
from repro.harness.job import registered_names
from tests.conftest import check_golden

SECRET = b"\xa5"


class TestRegistration:
    def test_attack_jobs_registered(self):
        names = registered_names()
        for name in (
            "attacks.table2_row",
            "attacks.keyextract",
            "attacks.bti",
            "attacks.jumptable",
            "attacks.lfence_signal",
        ):
            assert name in names

    def test_job_keys_are_stable(self):
        first = [job.key() for job in table2_jobs(SECRET)]
        second = [job.key() for job in table2_jobs(SECRET)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_keyextract_grid_uses_zen(self):
        # the SMT spy needs competitive sharing (the Zen preset)
        for job in keyextract_jobs(keys=(0xAAA,), nbits=12):
            assert job.config.uop_cache_sharing == "competitive"

    def test_attack_jobs_groups(self):
        groups = attack_jobs(secret=SECRET)
        assert list(groups) == [
            "table1", "contention", "table2", "keyextract", "bti",
            "jumptable", "lfence",
        ]
        assert len(groups["table1"]) == 4
        assert len(groups["contention"]) == 2
        assert len(groups["table2"]) == 2
        assert len(groups["lfence"]) == 3


class TestParity:
    def test_table2_matches_serial(self):
        rows, outcomes, summary = run_table2(SECRET)
        assert rows == table2(SECRET)
        assert summary.executed == 2


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    """One cold fast-grid run plus its cache (shared by the tests)."""
    cache = ResultCache(tmp_path_factory.mktemp("attacks") / "store")
    results, outcomes, summary = run_attacks(fast=True, cache=cache)
    return results, summary, cache, outcomes


class TestCaching:
    def test_warm_cache_executes_nothing(self, fast_run):
        results, cold, cache, _ = fast_run
        assert cold.executed == cold.total > 0
        warm_results, _, warm = run_attacks(fast=True, cache=cache)
        assert warm.executed == 0
        assert warm.cached == warm.total == cold.total
        assert warm_results == results

    def test_fast_grid_leaks(self, fast_run):
        results, _, _, _ = fast_run
        assert [row.mode for row in results["table1"]] == [
            "Same address space",
            "Same address space (User/Kernel)",
            "Cross-thread (SMT)",
            "Transient Execution Attack",
        ]
        uop_row = results["table2"][1]
        assert uop_row.attack == "Spectre (uop cache)"
        assert uop_row.byte_accuracy == 1.0
        assert results["keyextract"][0]["exact"]
        assert results["bti"][0]["byte_accuracy"] == 1.0
        fences = {r["fence"]: r["signal"] for r in results["lfence"]}
        # Figure 10: LFENCE does not close the channel, CPUID does
        assert fences["lf"] > 4 * fences["cp"]


def test_fast_grid_matches_golden_record(fast_run):
    """Every group's rows and every job's raw result repeat bit for
    bit (``tests/golden/attacks_fast.json``)."""
    results, _, _, outcomes = fast_run
    rows = {
        group: [dataclasses.asdict(row) if dataclasses.is_dataclass(row)
                else row for row in group_rows]
        for group, group_rows in results.items()
    }
    jobs = [{"fn": o.job.fn, "tag": o.job.tag, "result": o.result}
            for o in outcomes]
    check_golden("attacks_fast.json", {"rows": rows, "jobs": jobs})
