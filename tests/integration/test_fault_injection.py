"""Fault-injection and budget integration tests.

The ISSUE's acceptance bar: under an injected solver timeout at *any*
scripted call index, :func:`repro.core.prove` and the experiment
runner must still return a sound structural bound — never one derived
from an approximation engine — and the full table must complete with
error cells.  These tests drive that end to end with
:mod:`repro.resilience.faults` plans and sliced budgets, and
assert the degradation paths through the obs counters they increment.
"""

import pytest

from repro import obs
from repro.core import FALSIFIED, PROVEN, UNKNOWN, prove
from repro.core.portfolio import compare_strategies
from repro.diameter import first_hit_time
from repro.diameter.structural import StructuralAnalysis
from repro.experiments.runner import (
    cumulative,
    evaluate_design,
    format_table,
    run_table,
)
from repro.gen import iscas89
from repro.netlist import NetlistBuilder
from repro.resilience import (
    Budget,
    FAULT_CRASH,
    FAULT_TIMEOUT,
    FAULT_UNKNOWN,
    FaultPlan,
    inject,
)
from repro.transform import SweepConfig
from repro.unroll import ABORTED, bmc
from repro.unroll import FALSIFIED as BMC_FALSIFIED

FAST = SweepConfig(sim_cycles=6, sim_width=32, conflict_budget=200)


def mod_counter_target(width, modulus, value):
    b = NetlistBuilder("mod")
    regs = b.registers(width, prefix="c")
    wrap = b.word_eq(regs, b.word_const(modulus - 1, width))
    bump = b.word_mux(wrap, b.word_const(0, width), b.increment(regs))
    b.connect_word(regs, bump)
    t = b.buf(b.word_eq(regs, b.word_const(value, width)), name="t")
    b.net.add_target(t)
    return b.net, t


def sample_indices(n):
    """A cheap-but-representative index sample: the first few calls,
    a Fibonacci spread through the middle, and the very last call."""
    wanted = {0, 1, 2, 3, 5, 8, 13, 21, n - 1}
    return sorted(i for i in wanted if 0 <= i < n)


class TestBMCAbortMidFrame:
    def test_timeout_fault_aborts_with_frame_invariant(self):
        net, t = mod_counter_target(3, 8, 5)  # first hit at depth 5
        with inject(FaultPlan(at={2: FAULT_TIMEOUT})) as plan:
            check = bmc(net, t, max_depth=8)
        assert check.status == ABORTED
        # Frames 0 and 1 got definitive answers; frame 2 did not.
        assert check.depth_checked == 2
        assert check.exhaustion_reason == "deadline"
        assert plan.injected == [(2, FAULT_TIMEOUT)]

    def test_spurious_unknown_aborts_without_reason(self):
        net, t = mod_counter_target(3, 8, 5)
        with inject(FaultPlan(at={0: FAULT_UNKNOWN})):
            check = bmc(net, t, max_depth=8)
        assert check.status == ABORTED
        assert check.depth_checked == 0
        assert check.exhaustion_reason is None

    def test_query_budget_aborts_mid_frame(self):
        # A deadline that passes after three solver queries.
        net, t = mod_counter_target(3, 8, 5)
        with inject(FaultPlan(after=3, action=FAULT_TIMEOUT)):
            check = bmc(net, t, max_depth=8)
        assert check.status == ABORTED
        assert check.depth_checked == 3
        assert check.exhaustion_reason == "deadline"

    def test_unfaulted_run_still_falsifies(self):
        net, t = mod_counter_target(3, 8, 5)
        with inject(FaultPlan(at={100: FAULT_CRASH})):
            check = bmc(net, t, max_depth=8)
        assert check.status == BMC_FALSIFIED
        assert check.counterexample.depth == 5


class TestProveDegradation:
    """prove() must stay sound under a fault at ANY solver-call index.

    Soundness here is checkable exactly: the mod-6 counter reaches
    value 4 at time 4 and never reaches value 7, so any ``falsified``
    verdict must carry a depth-4 counterexample, any ``proven``
    verdict is only legitimate on the unreachable target, and any
    ``unknown`` must still carry a bound no worse than the structural
    analysis of the untransformed netlist (2**3 = 8 here).
    """

    STRUCTURAL_CAP = 8

    def _faultless_calls(self, net):
        with inject(FaultPlan(at={})) as plan:
            prove(net, sweep_config=FAST, refine_gc_limit=4)
        return plan.calls

    def _assert_sound(self, result, reachable):
        if result.status == PROVEN:
            assert not reachable
        elif result.status == FALSIFIED:
            assert reachable
            assert result.counterexample is not None
            assert result.counterexample.depth == 4
        else:
            assert result.status == UNKNOWN
            assert result.bound is not None
            assert result.bound <= self.STRUCTURAL_CAP

    @pytest.mark.timeout_guard(240)
    def test_timeout_at_every_sampled_index_unreachable(self):
        net, t = mod_counter_target(3, 6, 7)  # 7 is unreachable
        n = self._faultless_calls(net)
        assert n > 0
        for index in sample_indices(n):
            with inject(FaultPlan(at={index: FAULT_TIMEOUT})):
                result = prove(net, sweep_config=FAST,
                               refine_gc_limit=4)
            self._assert_sound(result, reachable=False)

    @pytest.mark.timeout_guard(240)
    def test_timeout_at_sampled_indices_reachable(self):
        net, t = mod_counter_target(3, 6, 4)  # reachable at time 4
        n = self._faultless_calls(net)
        for index in (0, min(3, n - 1), n - 1):
            with inject(FaultPlan(at={index: FAULT_TIMEOUT})):
                result = prove(net, sweep_config=FAST,
                               refine_gc_limit=4)
            self._assert_sound(result, reachable=True)

    @pytest.mark.timeout_guard(240)
    def test_crash_at_sampled_indices(self):
        net, t = mod_counter_target(3, 6, 7)
        n = self._faultless_calls(net)
        for index in (0, min(5, n - 1), n - 1):
            with inject(FaultPlan(at={index: FAULT_CRASH})):
                result = prove(net, sweep_config=FAST,
                               refine_gc_limit=4)
            self._assert_sound(result, reachable=False)

    def test_dead_solver_degrades_to_structural_bound(self):
        # Every single solver call times out: no engine can conclude,
        # yet the verdict still carries the sound structural bound.
        for value, reachable in ((7, False), (4, True)):
            net, t = mod_counter_target(3, 6, value)
            with inject(FaultPlan(after=0)):
                result = prove(net, sweep_config=FAST,
                               refine_gc_limit=4)
            assert result.status == UNKNOWN
            assert result.bound is not None
            assert result.bound <= self.STRUCTURAL_CAP
            # Never an approximation-derived bound: it matches what
            # the structural engine says about the original netlist.
            assert result.bound <= StructuralAnalysis(net).bound(t)
            self._assert_sound(result, reachable)

    def test_budget_exhaustion_downgrades_with_counter(self):
        net, t = mod_counter_target(3, 6, 7)
        with obs.scoped(obs.Registry("test")) as reg:
            result = prove(net, sweep_config=FAST,
                           budget=Budget(wall_seconds=0, name="starved"))
        assert result.degraded
        assert result.method == "structural-fallback"
        assert result.exhaustion_reason is not None
        assert result.bound is not None
        assert result.bound <= self.STRUCTURAL_CAP
        assert reg.counter_value("resilience.downgrades") >= 1


class TestPortfolioFallback:
    def test_crashing_solver_leaves_sat_free_strategies_standing(self):
        net, t = mod_counter_target(3, 6, 7)
        with obs.scoped(obs.Registry("test")) as reg:
            with inject(FaultPlan(after=0, action=FAULT_CRASH)):
                portfolio = compare_strategies(net, sweep_config=FAST)
        # Every strategy has a recorded outcome — none vanished.
        assert len(portfolio.outcomes) == 5
        failed = [o for o in portfolio.outcomes if not o.ok]
        assert failed, "SAT-using strategies should have crashed"
        for outcome in failed:
            assert outcome.error
        # The SAT-free strategies survive and the best bound is the
        # sound structural one.
        bound, strategy = portfolio.best(t)
        assert bound is not None
        assert bound <= StructuralAnalysis(net).bound(t)
        assert reg.counter_value("portfolio.failures") == len(failed)

    def test_exhausted_portfolio_budget_skips_with_outcomes(self):
        net, t = mod_counter_target(3, 6, 7)
        with obs.scoped(obs.Registry("test")) as reg:
            portfolio = compare_strategies(
                net, sweep_config=FAST,
                budget=Budget(wall_seconds=0.0, name="dry"))
        assert len(portfolio.outcomes) == 5
        assert all(not o.ok for o in portfolio.outcomes)
        assert reg.counter_value("portfolio.budget_skips") == 5


class TestRunnerErrorCells:
    def test_crashing_solver_yields_error_cells_not_aborts(self):
        net, t = mod_counter_target(3, 6, 7)
        with obs.scoped(obs.Registry("test")) as reg:
            with inject(FaultPlan(after=0, action=FAULT_CRASH)):
                row = evaluate_design(net, sweep_config=FAST)
        # The SAT-free original column completes; the COM-based
        # columns degrade to error cells.
        assert set(row.columns) == {"original", "com", "crc"}
        assert row.columns["original"].ok
        assert not row.columns["com"].ok
        assert not row.columns["crc"].ok
        assert reg.counter_value("runner.error_cells") == 2
        # The sigma row skips error cells and the renderer marks them.
        sigma = cumulative([row])
        assert sigma.columns["com"].targets == 0
        assert sigma.columns["original"].targets == len(net.targets)
        rendered = format_table([row], "faulted table")
        assert "!!" in rendered

    def test_exhausted_budget_marks_cells_with_reason(self):
        net, t = mod_counter_target(3, 6, 7)
        row = evaluate_design(net, sweep_config=FAST,
                              budget=Budget(wall_seconds=0, name="dry"))
        assert set(row.columns) == {"original", "com", "crc"}
        for col in row.columns.values():
            assert not col.ok
            assert col.exhaustion_reason == "deadline"

    def test_failing_design_becomes_error_row(self):
        def bad_generate(name, scale=1.0):
            raise RuntimeError("synthetic generation failure")

        profiles = [iscas89.profile("S27"), iscas89.profile("S298")]
        with obs.scoped(obs.Registry("test")) as reg:
            rows = run_table(bad_generate, profiles)
        assert [r.name for r in rows] == ["S27", "S298"]
        assert all(r.error == "synthetic generation failure"
                   for r in rows)
        assert reg.counter_value("runner.design_errors") == 2
        rendered = format_table(rows, "all-failed table")
        assert rendered.count("!!") >= 2
        assert "Σ" in rendered  # the sigma row still renders

    def test_zero_budget_table_completes_with_error_rows(self):
        profiles = [iscas89.profile("S27")]
        rows = run_table(iscas89.generate, profiles,
                         budget=Budget(wall_seconds=0.0, name="dry"))
        assert len(rows) == 1
        assert rows[0].error == "budget exhausted (deadline)"
        assert format_table(rows, "budgeted table")
