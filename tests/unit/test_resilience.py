"""Unit tests for the resource-governance layer (repro.resilience)."""

import time

import pytest

from repro.resilience import (
    Budget,
    EngineFailure,
    EXHAUSTED_CONFLICTS,
    EXHAUSTED_DEADLINE,
    EXHAUSTION_REASONS,
    FAULT_CRASH,
    FAULT_TIMEOUT,
    FAULT_UNKNOWN,
    FaultPlan,
    ResilienceError,
    ResourceExhausted,
    active_plan,
    inject,
)
from repro.sat import SAT, UNKNOWN, UNSAT, Solver, lit_not, pos


class TestBudgetBasics:
    def test_unlimited_budget_never_exhausts(self):
        b = Budget()
        assert b.exhausted() is None
        assert b.remaining_seconds() is None
        b.check()  # no-op

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(wall_seconds=-1)

    def test_zero_deadline_exhausts_as_deadline(self):
        b = Budget(wall_seconds=0.0)
        assert b.exhausted() == EXHAUSTED_DEADLINE

    def test_check_raises_typed_errors(self):
        b = Budget(wall_seconds=0.0, name="outer")
        with pytest.raises(ResourceExhausted) as err:
            b.check()
        assert err.value.reason == EXHAUSTED_DEADLINE
        assert err.value.budget_name == "outer"

    def test_exhaustion_reasons_are_closed_set(self):
        assert set(EXHAUSTION_REASONS) == {
            EXHAUSTED_DEADLINE, EXHAUSTED_CONFLICTS}


class TestBudgetHierarchy:
    def test_full_slice_never_passes_parent_deadline(self):
        # A slice keeps no parent to cap it: its own deadline must
        # land on or before the parent's, at any distance from now.
        for seconds in (0.001, 1.0, 100.0, 1e9):
            parent = Budget(wall_seconds=seconds)
            child = parent.slice(1.0)
            assert child._deadline <= parent._deadline
            assert child.slice(1.0)._deadline <= child._deadline

    def test_slice_of_exhausted_budget_is_exhausted(self):
        parent = Budget(wall_seconds=0.0)
        for fraction in (0.5, 1.0):
            child = parent.slice(fraction)
            assert child.exhausted() == EXHAUSTED_DEADLINE
            assert child.remaining_seconds() == 0.0

    def test_slice_takes_fraction_of_remaining(self):
        parent = Budget(wall_seconds=100.0)
        half = parent.slice(0.5)
        assert 45.0 < half.remaining_seconds() <= 50.0
        # Full slice of an unlimited budget stays unlimited.
        assert Budget().slice(1.0).remaining_seconds() is None

    def test_slice_fraction_validated(self):
        b = Budget()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                b.slice(bad)


class TestErrorTaxonomy:
    def test_hierarchy_roots_at_resilience_error(self):
        for cls in (ResourceExhausted, EngineFailure):
            assert issubclass(cls, ResilienceError)

    def test_resource_exhausted_carries_reason(self):
        err = ResourceExhausted(EXHAUSTED_DEADLINE, budget_name="b")
        assert err.reason == EXHAUSTED_DEADLINE
        assert err.budget_name == "b"
        assert EXHAUSTED_DEADLINE in str(err)

    def test_engine_failure_carries_engine_and_cause(self):
        cause = RuntimeError("boom")
        err = EngineFailure("sat.solver", "died", cause=cause)
        assert err.engine == "sat.solver"
        assert err.cause is cause
        assert str(err).startswith("sat.solver:")


class TestFaultPlan:
    def test_invalid_actions_and_indices_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(action="segfault")
        with pytest.raises(ValueError):
            FaultPlan(at={0: "segfault"})
        with pytest.raises(ValueError):
            FaultPlan(at={-1: FAULT_TIMEOUT})
        with pytest.raises(ValueError):
            FaultPlan(after=-2)

    def test_indexed_schedule_fires_once(self):
        plan = FaultPlan(at={1: FAULT_UNKNOWN})
        assert plan.next_action() is None
        assert plan.next_action() == FAULT_UNKNOWN
        assert plan.next_action() is None
        assert plan.calls == 3
        assert plan.injected == [(1, FAULT_UNKNOWN)]

    def test_iterable_schedule_uses_default_action(self):
        plan = FaultPlan(at=[0, 2], action=FAULT_CRASH)
        assert plan.next_action() == FAULT_CRASH
        assert plan.next_action() is None
        assert plan.next_action() == FAULT_CRASH

    def test_after_faults_every_later_call(self):
        plan = FaultPlan(after=2)
        assert [plan.next_action() for _ in range(4)] == \
            [None, None, FAULT_TIMEOUT, FAULT_TIMEOUT]

    def test_inject_installs_and_restores(self):
        assert active_plan() is None
        outer = FaultPlan()
        inner = FaultPlan()
        with inject(outer):
            assert active_plan() is outer
            with inject(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None


def _unsat_solver():
    """All four clauses over two variables: UNSAT, forces conflicts."""
    solver = Solver()
    a, b = pos(solver.new_var()), pos(solver.new_var())
    for clause in ([a, b], [a, lit_not(b)], [lit_not(a), b],
                   [lit_not(a), lit_not(b)]):
        solver.add_clause(clause)
    return solver


class TestSolverGovernance:
    def test_conflict_budget_contract(self):
        # None = unlimited.
        assert _unsat_solver().solve() == UNSAT
        # Conflict-free instances conclude even at budget 0.
        easy = Solver()
        x = pos(easy.new_var())
        easy.add_clause([x])
        assert easy.solve(conflict_budget=0) == SAT
        assert easy.last_exhaustion is None
        # A conflicted instance aborts at budget 0 with a reason.
        hard = _unsat_solver()
        assert hard.solve(conflict_budget=0) == UNKNOWN
        assert hard.last_exhaustion == EXHAUSTED_CONFLICTS
        # Negative budgets are a contract violation, not "abort fast".
        with pytest.raises(ValueError):
            _unsat_solver().solve(conflict_budget=-1)

    def test_budget_deadline_yields_unknown(self):
        solver = _unsat_solver()
        result = solver.solve(budget=Budget(wall_seconds=0.0))
        assert result == UNKNOWN
        assert solver.last_exhaustion == EXHAUSTED_DEADLINE

    def test_solver_result_still_sound_after_exhaustion(self):
        # A governed UNKNOWN must never flip a definitive answer: the
        # same instance solved fresh without a budget stays UNSAT.
        budget = Budget(wall_seconds=0.0)
        governed = _unsat_solver()
        assert governed.solve(budget=budget) in (UNSAT, UNKNOWN)
        assert governed.solve() == UNSAT
        assert _unsat_solver().solve() == UNSAT


class TestSolverFaults:
    def test_timeout_fault_mimics_deadline(self):
        solver = _unsat_solver()
        with inject(FaultPlan(at={0: FAULT_TIMEOUT})) as plan:
            assert solver.solve() == UNKNOWN
        assert solver.last_exhaustion == EXHAUSTED_DEADLINE
        assert plan.injected == [(0, FAULT_TIMEOUT)]

    def test_unknown_fault_has_no_reason(self):
        solver = _unsat_solver()
        with inject(FaultPlan(at={0: FAULT_UNKNOWN})):
            assert solver.solve() == UNKNOWN
        assert solver.last_exhaustion is None

    def test_crash_fault_raises_engine_failure(self):
        solver = _unsat_solver()
        with inject(FaultPlan(at={0: FAULT_CRASH})):
            with pytest.raises(EngineFailure) as err:
                solver.solve()
        assert err.value.engine == "sat.solver"

    def test_unfaulted_calls_pass_through(self):
        solver = _unsat_solver()
        with inject(FaultPlan(at={5: FAULT_CRASH})) as plan:
            assert solver.solve() == UNSAT
        assert plan.calls == 1
        assert plan.injected == []


class TestBudgetTiming:
    @pytest.mark.timeout_guard(60)
    def test_short_deadline_actually_stops_search(self):
        # A deadline budget must bound wall-clock, not just flag late.
        solver = Solver()
        lits = [pos(solver.new_var()) for _ in range(40)]
        # Pairwise-distinct XOR chains generate heavy conflict traffic.
        for i in range(len(lits) - 2):
            solver.add_clause([lits[i], lits[i + 1], lits[i + 2]])
            solver.add_clause([lit_not(lits[i]), lit_not(lits[i + 1]),
                               lit_not(lits[i + 2])])
        start = time.perf_counter()
        solver.solve(budget=Budget(wall_seconds=0.05))
        # Generous ceiling: the check runs every conflict/256 decisions.
        assert time.perf_counter() - start < 30.0
