"""Integration tests for the --jobs fan-out: determinism and fault
tolerance of the table fan-out.

All pooled tests carry the ``parallel`` marker; they run in tier-1 (the
marker is informational, not excluded) and use tiny designs so the
process-pool overhead dominates the solver work.
"""

import pytest

from repro import obs
from repro.experiments.runner import format_table, run_table
from repro.experiments.table1 import run as run_table1
from repro.gen import iscas89
from repro.resilience import FAULT_CRASH, FaultPlan, inject

DESIGNS = ["S27", "S298"]


@pytest.mark.parallel
class TestTableDeterminism:
    def test_table1_jobs2_byte_identical(self):
        rows1 = run_table1(scale=0.1, designs=DESIGNS, jobs=1)
        rows2 = run_table1(scale=0.1, designs=DESIGNS, jobs=2)
        title = "Table 1: ISCAS89 (profile-synthesized)"
        assert format_table(rows2, title) == format_table(rows1, title)

    def test_row_order_is_design_order(self):
        rows = run_table1(scale=0.1, designs=DESIGNS, jobs=2)
        assert [row.name for row in rows] == DESIGNS

    def test_pool_starts_largest_designs_first(self, monkeypatch):
        # Profile order is S1488, S27, S298; by registers S298 (14)
        # goes first.  Rows still come back in profile order and equal
        # the sequential rows.
        from repro.parallel import ParallelExecutor

        submitted = []
        original = ParallelExecutor.map

        def spy(executor, fn, payloads, budget=None, labels=None):
            submitted.extend(labels)
            return original(executor, fn, payloads, budget=budget,
                            labels=labels)

        monkeypatch.setattr(ParallelExecutor, "map", spy)
        designs = ["S298", "S27", "S1488"]
        pooled = run_table(iscas89.generate, iscas89.profiles(),
                           scale=0.1, designs=designs, jobs=2)
        assert submitted == ["S298", "S1488", "S27"]
        assert [row.name for row in pooled] == ["S1488", "S27", "S298"]
        sequential = run_table(iscas89.generate, iscas89.profiles(),
                               scale=0.1, designs=designs, jobs=1)
        assert format_table(pooled, "T") == format_table(sequential, "T")

    def test_one_design_skips_the_pool(self):
        # One design has nothing to fan out: jobs=2 runs run_table's
        # own loop, starts no worker, and prints the jobs=1 rows.
        with obs.scoped(obs.Registry("t")) as reg:
            pooled = run_table1(scale=0.1, designs=["S27"], jobs=2)
        assert reg.counter_value("parallel.tasks") == 0
        sequential = run_table1(scale=0.1, designs=["S27"], jobs=1)
        assert format_table(pooled, "T") == format_table(sequential, "T")

    def test_rows_carry_full_columns(self):
        rows = run_table1(scale=0.1, designs=["S27"], jobs=2)
        assert rows[0].error is None
        for column in rows[0].columns.values():
            assert column.ok


@pytest.mark.parallel
class TestTableFaultTolerance:
    def test_injected_crash_yields_error_cells_not_abort(self):
        # Every worker re-arms the shipped plan from call index 0, so
        # each design's first solver call raises EngineFailure; the
        # table must still complete, with error cells where the crash
        # landed and intact cells elsewhere.
        with inject(FaultPlan(at={0: FAULT_CRASH})):
            rows = run_table(iscas89.generate, iscas89.profiles(),
                             scale=0.1, designs=DESIGNS, jobs=2)
        assert [row.name for row in rows] == DESIGNS
        error_cells = [
            column
            for row in rows
            for column in row.columns.values()
            if column.error is not None
        ]
        assert error_cells, "the injected crash never surfaced"
        # The renderer accepts the mixed rows unchanged.
        assert "Σ" in format_table(rows, "faulted")

    def test_generation_failure_is_error_row(self):
        def boom(name, scale=1.0):
            raise RuntimeError("generator exploded")

        profiles = iscas89.profiles()[:2]
        rows = run_table(boom, profiles, scale=0.1, jobs=2)
        assert len(rows) == 2
        assert all(row.error is not None for row in rows)
