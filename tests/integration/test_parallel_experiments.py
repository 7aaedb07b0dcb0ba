"""Integration tests for the --jobs fan-out: determinism and fault
tolerance of the table and portfolio fan-outs.

All pooled tests carry the ``parallel`` marker; they run in tier-1 (the
marker is informational, not excluded) and use tiny designs so the
process-pool overhead dominates the solver work.
"""

import pytest

from repro import obs
from repro.core import compare_strategies
from repro.experiments.runner import format_table, run_table
from repro.experiments.table1 import run as run_table1
from repro.gen import iscas89
from repro.netlist import s27
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


@pytest.mark.parallel
class TestPortfolioAndProve:
    def test_portfolio_jobs2_matches_sequential(self):
        net = s27()
        seq = compare_strategies(net, strategies=("", "COM"), jobs=1)
        par = compare_strategies(net, strategies=("", "COM"), jobs=2)
        target = net.targets[0]
        assert par.best(target) == seq.best(target)
        assert [o.strategy for o in par.outcomes] == \
            [o.strategy for o in seq.outcomes]

    def test_portfolio_telemetry_lands_under_parallel_prefix(self):
        with obs.scoped(obs.Registry("t")) as reg:
            compare_strategies(s27(), strategies=("", "COM"), jobs=2)
            snap = reg.snapshot()
        prefixed = [key for key in snap["counters"]
                    if key.startswith("parallel/portfolio/")]
        assert prefixed
        assert snap["counters"]["parallel.tasks"] == 2
