"""Unit tests for the work-stealing fan-out layer (repro.parallel)."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro import obs
from repro.core import TBVEngine
from repro.core.portfolio import StrategyOutcome
from repro.netlist import NetlistError, s27
from repro.parallel import BudgetSpec, ParallelExecutor, SharedBudget, \
    WorkerOutcome
from repro.resilience import (
    EXHAUSTED_CONFLICTS,
    EXHAUSTED_QUERIES,
    FAULT_CRASH,
    Budget,
    Cancelled,
    EngineFailure,
    FaultPlan,
    ResourceExhausted,
    inject,
)
from repro.unroll import bmc


# ----------------------------------------------------------------------
# Module-level worker functions (the pool pickles them by reference).
# ----------------------------------------------------------------------
def _double(payload, budget):
    return payload * 2


def _record_budget(payload, budget):
    if budget is None:
        return None
    return {
        "name": budget.name,
        "conflicts": budget.remaining_conflicts(),
        "queries": budget.remaining_queries(),
    }


def _typed_error(payload, budget):
    raise ResourceExhausted("conflicts", budget_name="inner")


def _crash(payload, budget):
    raise RuntimeError("unexpected failure in worker")


def _raise_on_none(payload, budget):
    if payload is None:
        raise RuntimeError("no payload to double")
    return payload * 2


def _exit_on_none(payload, budget):
    # The worker process dies outright, with no exception to catch.
    if payload is None:
        os._exit(3)
    return payload * 2


def _cancelled(payload, budget):
    raise Cancelled(budget_name="pool")


def _instrumented(payload, budget):
    reg = obs.get_registry()
    reg.counter("sat.conflicts", 7)
    reg.counter("sat.solve_calls", 3)
    with reg.span("work"):
        pass
    return payload


def _stall(payload, budget):
    # A worker that ignores its budget entirely: the scripted stall
    # the parent-side watchdog exists to catch.
    time.sleep(payload)
    return "done"


def _charge_through_slice(payload, budget):
    # Charge the shared pool through a derived slice, then read it
    # directly and through a fresh subbudget.  The sibling task may
    # charge between two reads; the pool only shrinks, so equal direct
    # readings on both sides pin the subbudget's reading to the same
    # pool state.
    budget.slice(0.5).charge_conflicts(payload)
    while True:
        pool = budget.remaining_conflicts()
        through_child = budget.subbudget().remaining_conflicts()
        if budget.remaining_conflicts() == pool:
            return {"pool": pool, "child": through_child}


def _charge_one_at_a_time(payload, budget):
    # Single-conflict charges through a derived slice, many enough that
    # sibling workers' read-modify-writes on the shared pool overlap.
    child = budget.slice(0.5)
    for _ in range(payload):
        child.charge_conflicts(1)
    return budget.remaining_conflicts()


def _solver_probe(payload, budget):
    from repro.sat import Solver
    from repro.sat.cnf import pos

    solver = Solver()
    solver.add_clause([pos(0)])
    return solver.solve([])


class TestBudgetSpec:
    def test_none_budget_passes_through(self):
        assert BudgetSpec.capture(None) is None

    def test_capture_and_restore_pools(self):
        spec = BudgetSpec.capture(Budget(conflicts=100, queries=10,
                                         name="b"))
        restored = spec.restore()
        assert restored.remaining_conflicts() == 100
        assert restored.remaining_queries() == 10
        assert restored.name == "b"
        assert restored.remaining_seconds() is None

    def test_deadline_travels_as_epoch(self):
        spec = BudgetSpec.capture(Budget(wall_seconds=60.0))
        assert spec.deadline_epoch == pytest.approx(time.time() + 60.0,
                                                    abs=5.0)
        restored = spec.restore()
        assert 0.0 < restored.remaining_seconds() <= 60.0

    def test_expired_deadline_restores_exhausted(self):
        spec = BudgetSpec(deadline_epoch=time.time() - 10.0)
        assert spec.restore().exhausted() == "deadline"

    def test_spec_is_picklable(self):
        spec = BudgetSpec.capture(Budget(conflicts=5, name="x"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestExecutorInProcess:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_empty_payloads(self):
        assert ParallelExecutor(jobs=1).map(_double, []) == []

    def test_results_in_input_order(self):
        outcomes = ParallelExecutor(jobs=1).map(_double, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok for o in outcomes)

    def test_budget_shared_not_pre_split(self):
        budget = Budget(conflicts=100, queries=10, name="parent")
        outcomes = ParallelExecutor(jobs=1, name="pool").map(
            _record_budget, ["a", "b"], budget=budget,
            labels=["a", "b"])
        # The tasks share one pool instead of taking 1/n slices, so
        # every task sees the full remains.
        assert outcomes[0].value["conflicts"] == 100
        assert outcomes[1].value["queries"] == 10
        assert outcomes[0].value["name"] == "pool[a]"

    def test_cancelled_budget_raises_at_submit(self):
        budget = Budget(name="parent")
        budget.cancel()
        with pytest.raises(Cancelled):
            ParallelExecutor(jobs=1).map(_double, [1], budget=budget)

    def test_typed_error_becomes_outcome(self):
        outcomes = ParallelExecutor(jobs=1).map(_typed_error, [None])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ResourceExhausted)
        assert outcomes[0].error.reason == "conflicts"

    def test_worker_cancelled_reraises_at_join(self):
        with pytest.raises(Cancelled):
            ParallelExecutor(jobs=1).map(_cancelled, [None])

    def test_labels_length_mismatch(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1).map(_double, [1, 2], labels=["a"])

    def test_telemetry_merged_under_prefix(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=1, name="pool").map(
                _instrumented, ["x"], labels=["t"])
            snap = reg.snapshot()
        assert snap["counters"]["parallel/pool/t/sat.conflicts"] == 7
        assert "parallel/pool/t/work" in snap["timers"]
        assert snap["counters"]["parallel.tasks"] == 1

    def test_parent_budget_charged_with_worker_effort(self):
        budget = Budget(conflicts=100, queries=10, name="parent")
        ParallelExecutor(jobs=1).map(_instrumented, ["x"],
                                     budget=budget)
        assert budget.remaining_conflicts() == 100 - 7
        assert budget.remaining_queries() == 10 - 3


@pytest.mark.parallel
class TestExecutorPooled:
    def test_pooled_results_in_input_order(self):
        outcomes = ParallelExecutor(jobs=2).map(_double, [1, 2, 3, 4])
        assert [o.value for o in outcomes] == [2, 4, 6, 8]
        assert [o.label for o in outcomes] == ["0", "1", "2", "3"]

    def test_pooled_matches_in_process(self):
        seq = ParallelExecutor(jobs=1).map(_double, [3, 4])
        par = ParallelExecutor(jobs=2).map(_double, [3, 4])
        assert [o.value for o in seq] == [o.value for o in par]

    def test_pooled_typed_error_round_trips(self):
        outcomes = ParallelExecutor(jobs=2).map(_typed_error,
                                                [None, None])
        for outcome in outcomes:
            assert isinstance(outcome.error, ResourceExhausted)
            assert outcome.error.reason == "conflicts"
            assert outcome.error.budget_name == "inner"

    def test_pooled_crash_maps_to_engine_failure(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            outcomes = ParallelExecutor(jobs=2).map(_crash,
                                                    [None, None])
            snap = reg.snapshot()
        for outcome in outcomes:
            assert not outcome.ok
            assert isinstance(outcome.error, EngineFailure)
            assert outcome.error.engine == "parallel.worker"
        assert snap["counters"]["parallel.worker_crashes"] == 2

    def test_pooled_telemetry_merged(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=2, name="pool").map(
                _instrumented, ["a", "b"], labels=["a", "b"])
            snap = reg.snapshot()
        assert snap["counters"]["parallel/pool/a/sat.conflicts"] == 7
        assert snap["counters"]["parallel/pool/b/sat.solve_calls"] == 3

    def test_raising_task_costs_only_its_slot(self):
        # An exception outside the typed taxonomy fails its own task;
        # the worker keeps draining the healthy ones.
        for jobs in (1, 2):
            with obs.scoped(obs.Registry("parent")) as reg:
                outcomes = ParallelExecutor(jobs=jobs).map(
                    _raise_on_none, [None, None, 3, 4])
                snap = reg.snapshot()
            for outcome in outcomes[:2]:
                assert isinstance(outcome.error, EngineFailure)
                assert outcome.error.engine == "parallel.worker"
                assert "no payload to double" in str(outcome.error)
            assert [o.value for o in outcomes[2:]] == [6, 8]
            assert snap["counters"]["parallel.worker_crashes"] == 2
            crashes = [event for event in snap["events"]
                       if event["name"] == "parallel.task_crash"]
            assert len(crashes) == 2
            assert "no payload to double" in crashes[0]["traceback"]

    def test_dead_worker_loses_only_its_task(self):
        with obs.scoped(obs.Registry("parent")) as reg:
            outcomes = ParallelExecutor(jobs=2).map(
                _exit_on_none, [None, 1, 2, 3])
            snap = reg.snapshot()
        assert isinstance(outcomes[0].error, EngineFailure)
        assert outcomes[0].error.engine == "parallel.worker"
        assert [o.value for o in outcomes[1:]] == [2, 4, 6]
        assert snap["counters"]["parallel.worker_crashes"] == 1

    def test_no_budget_means_none_at_any_jobs(self):
        # Any non-None budget changes solver behaviour (budget polling,
        # no solve-entry inprocessing), so no budget must stay None.
        for jobs in (1, 2):
            outcomes = ParallelExecutor(jobs=jobs).map(
                _record_budget, ["a", "b"])
            assert [o.value for o in outcomes] == [None, None]

    def test_pooled_budget_shared_not_pre_split(self):
        budget = Budget(conflicts=100, queries=10, name="parent")
        outcomes = ParallelExecutor(jobs=2, name="pool").map(
            _record_budget, ["a", "b"], budget=budget,
            labels=["a", "b"])
        for outcome in outcomes:
            assert outcome.value["conflicts"] == 100
            assert outcome.value["queries"] == 10
        assert outcomes[1].value["name"] == "pool[b]"

    def test_pooled_slices_drain_the_shared_pool(self):
        # Each task charges 30 conflicts through budget.slice(0.5), as
        # the table runner slices a worker's budget per pipeline.  The
        # charges must reach the one shared pool, and a subbudget must
        # read that pool, whichever worker ran which task.
        budget = Budget(conflicts=100, name="parent")
        outcomes = ParallelExecutor(jobs=2, name="pool").map(
            _charge_through_slice, [30, 30], budget=budget,
            labels=["a", "b"])
        readings = [outcome.value for outcome in outcomes]
        for reading in readings:
            assert reading["child"] == reading["pool"]
        assert min(reading["pool"] for reading in readings) == 40

    def test_pooled_concurrent_charges_are_never_lost(self):
        # More workers than cores charging one shared pool: the task
        # that charges last reads the final pool, so a lost update
        # would leave every reading above the exact remainder.
        tasks, charges = 8, 20_000
        budget = Budget(conflicts=1_000_000, name="parent")
        outcomes = ParallelExecutor(jobs=4).map(
            _charge_one_at_a_time, [charges] * tasks, budget=budget)
        assert min(outcome.value for outcome in outcomes) == \
            1_000_000 - tasks * charges

    def test_fault_plan_rearmed_per_stolen_task(self):
        # Three tasks over two workers: one worker necessarily steals
        # two.  If the fault schedule were per *process*, the second
        # stolen task would observe call index 1 and dodge the at={0}
        # fault; re-arming per task makes every task's first solver
        # call crash, independent of which worker stole it.
        with inject(FaultPlan(at={0: FAULT_CRASH})):
            outcomes = ParallelExecutor(jobs=2).map(
                _solver_probe, [None, None, None])
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert isinstance(outcome.error, EngineFailure)
            assert "injected crash" in str(outcome.error)

    def test_obs_prefix_is_task_label_not_worker(self):
        # Telemetry lands under parallel/<pool>/<label> regardless of
        # which worker ran the task.
        with obs.scoped(obs.Registry("parent")) as reg:
            ParallelExecutor(jobs=2, name="pool").map(
                _instrumented, ["a", "b", "c"], labels=["a", "b", "c"])
            snap = reg.snapshot()
        for label in ("a", "b", "c"):
            assert snap["counters"][
                f"parallel/pool/{label}/sat.conflicts"] == 7


class TestWatchdog:
    """The pool-wide wall-clock watchdog: a worker overrunning the
    budget deadline past the grace factor is cancelled as a typed
    exhaustion, without disturbing submission-order determinism."""

    def test_watchdog_timeout_scales_allowance(self):
        spec = BudgetSpec.capture(Budget(wall_seconds=2.0), name="x")
        timeout = spec.watchdog_timeout()
        # deadline (2.0) + grace (2.0 * (GRACE-1) = 2.0) + 0.5 floor.
        assert 2.0 < timeout <= 4.6

    def test_no_wall_deadline_means_no_watchdog(self):
        spec = BudgetSpec.capture(Budget(conflicts=100), name="x")
        assert spec.watchdog_timeout() is None

    def test_watchdog_cancels_stalled_worker(self):
        budget = Budget(wall_seconds=0.4, name="wd")
        start = time.monotonic()
        with obs.scoped(obs.Registry("parent")) as reg:
            outcomes = ParallelExecutor(jobs=2, name="wd").map(
                _stall, [30.0, 0.0], budget=budget,
                labels=["stall", "quick"])
            snap = reg.snapshot()
        elapsed = time.monotonic() - start
        # The 30 s sleeper must not be waited out.
        assert elapsed < 15.0
        stalled, quick = outcomes
        assert stalled.index == 0 and stalled.label == "stall"
        assert isinstance(stalled.error, ResourceExhausted)
        assert stalled.error.reason == "parallel.watchdog"
        assert stalled.error.budget_name == "wd[stall]"
        # The healthy worker's slot is untouched, in input order.
        assert quick.index == 1 and quick.value == "done"
        assert snap["counters"]["parallel.watchdog_kills"] == 1

    def test_prompt_workers_pass_untouched(self):
        budget = Budget(wall_seconds=10.0, name="calm")
        outcomes = ParallelExecutor(jobs=2).map(
            _stall, [0.05, 0.05], budget=budget)
        assert [o.value for o in outcomes] == ["done", "done"]


class TestTypedErrorPickles:
    """The resilience taxonomy must pickle with structured fields
    intact — the default Exception reduction would re-run __init__ on
    the decorated message and corrupt them."""

    def test_resource_exhausted(self):
        err = ResourceExhausted("deadline", budget_name="outer")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.reason == "deadline"
        assert clone.budget_name == "outer"
        assert str(clone) == str(err)

    def test_engine_failure(self):
        err = EngineFailure("com", "merge table overflow")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.engine == "com"
        assert str(clone) == str(err)

    def test_engine_failure_drops_cause(self):
        err = EngineFailure("ret", "bad", cause=RuntimeError("x"))
        clone = pickle.loads(pickle.dumps(err))
        assert clone.cause is None
        assert clone.engine == "ret"

    def test_cancelled(self):
        err = Cancelled(budget_name="table")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.budget_name == "table"
        assert str(clone) == str(err)


class TestDataPickles:
    """The payload/result dataclasses the pool ships must round-trip."""

    def test_netlist(self):
        net = s27()
        clone = pickle.loads(pickle.dumps(net))
        assert clone.stats() == net.stats()
        assert clone.targets == net.targets
        assert clone.name == net.name

    def test_engine_result(self):
        result = TBVEngine("COM").run(s27())
        clone = pickle.loads(pickle.dumps(result))
        assert [r.bound for r in clone.reports] == \
            [r.bound for r in result.reports]
        assert len(clone.chain.steps) == len(result.chain.steps)
        assert clone.netlist.stats() == result.netlist.stats()

    def test_bmc_result(self):
        check = bmc(s27(), max_depth=4)
        clone = pickle.loads(pickle.dumps(check))
        assert clone.status == check.status
        assert clone.depth_checked == check.depth_checked
        if check.counterexample is not None:
            assert clone.counterexample.inputs == \
                check.counterexample.inputs

    def test_strategy_outcome(self):
        outcome = StrategyOutcome(strategy="COM", error="boom",
                                  seconds=1.5)
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.strategy == "COM"
        assert clone.error == "boom"
        assert clone.seconds == 1.5


class TestSharedBudget:
    """Budgets derived from a worker's :class:`SharedBudget` read and
    charge the cross-process pools (built here without processes)."""

    @staticmethod
    def _shared(conflicts=100, queries=10):
        ctx = multiprocessing.get_context()
        return SharedBudget(None, ctx.Value("q", conflicts),
                            ctx.Value("q", queries), name="worker")

    def test_subbudget_and_slice_see_the_pool(self):
        shared = self._shared()
        child = shared.subbudget()
        assert child.remaining_conflicts() == 100
        assert child.remaining_queries() == 10
        half = shared.slice(0.5)
        assert half.remaining_conflicts() == 50
        assert half.remaining_queries() == 5

    def test_charges_through_children_drain_the_pool(self):
        shared = self._shared()
        shared.subbudget().charge_conflicts(30)
        assert shared.remaining_conflicts() == 70
        half = shared.slice(0.5)
        half.charge_conflicts(30)
        half.charge_query(4)
        assert shared.remaining_conflicts() == 40
        assert shared.remaining_queries() == 6
        assert half.remaining_conflicts() == 5  # its own cap of 35

    def test_drained_pool_exhausts_the_child(self):
        shared = self._shared()
        child = shared.subbudget()
        assert child.exhausted() is None
        shared.charge_conflicts(100)
        assert child.exhausted() == EXHAUSTED_CONFLICTS
        queries_only = self._shared(conflicts=1000)
        child = queries_only.slice(0.5)
        queries_only.charge_query(10)
        assert child.exhausted() == EXHAUSTED_QUERIES


class TestMergeSnapshot:
    def test_timers_counters_events_fold_in(self):
        worker = obs.Registry("worker")
        with worker.span("engine"):
            pass
        worker.counter("sat.conflicts", 5)
        worker.event("probe", detail="x")
        parent = obs.Registry("parent")
        parent.counter("parallel/w/sat.conflicts", 2)
        parent.merge_snapshot(worker.snapshot(), prefix="parallel/w")
        snap = parent.snapshot()
        assert snap["counters"]["parallel/w/sat.conflicts"] == 7
        assert "parallel/w/engine" in snap["timers"]
        assert snap["events"][0]["source"] == "parallel/w"

    def test_merge_accumulates_timer_stats(self):
        worker = obs.Registry("worker")
        with worker.span("engine"):
            pass
        parent = obs.Registry("parent")
        parent.merge_snapshot(worker.snapshot(), prefix="p")
        parent.merge_snapshot(worker.snapshot(), prefix="p")
        assert parent.snapshot()["timers"]["p/engine"]["count"] == 2

    def test_no_prefix(self):
        worker = obs.Registry("worker")
        worker.counter("c", 3)
        parent = obs.Registry("parent")
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter_value("c") == 3
