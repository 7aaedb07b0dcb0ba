"""Unit tests for the work-stealing fan-out layer (repro.parallel)."""

import os
import pickle
import time

import pytest

from repro import obs
from repro.core import TBVEngine
from repro.core.portfolio import StrategyOutcome
from repro.netlist import NetlistError, s27
from repro.parallel import BudgetSpec, ParallelExecutor, WorkerOutcome
from repro.resilience import (
    FAULT_CRASH,
    Budget,
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
        "deadline_epoch": time.time() + budget.remaining_seconds(),
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


def _solver_probe(payload, budget):
    from repro.sat import Solver
    from repro.sat.cnf import pos

    solver = Solver()
    solver.add_clause([pos(0)])
    return solver.solve([])


class TestBudgetSpec:
    def test_none_budget_passes_through(self):
        assert BudgetSpec.capture(None) is None

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
        spec = BudgetSpec.capture(Budget(wall_seconds=5.0, name="x"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.restore().name == "x"


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
        budget = Budget(wall_seconds=60.0, name="parent")
        deadline = time.time() + budget.remaining_seconds()
        outcomes = ParallelExecutor(jobs=1, name="pool").map(
            _record_budget, ["a", "b"], budget=budget,
            labels=["a", "b"])
        # The tasks share the parent's deadline instead of taking 1/n
        # slices of it.
        for outcome in outcomes:
            assert outcome.value["deadline_epoch"] == \
                pytest.approx(deadline, abs=1.0)
        assert outcomes[0].value["name"] == "pool[a]"

    def test_typed_error_becomes_outcome(self):
        outcomes = ParallelExecutor(jobs=1).map(_typed_error, [None])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, ResourceExhausted)
        assert outcomes[0].error.reason == "conflicts"

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
        # A non-None budget adds polling to every solve, so no budget
        # must stay None.
        for jobs in (1, 2):
            outcomes = ParallelExecutor(jobs=jobs).map(
                _record_budget, ["a", "b"])
            assert [o.value for o in outcomes] == [None, None]

    def test_pooled_budget_shared_not_pre_split(self):
        budget = Budget(wall_seconds=60.0, name="parent")
        deadline = time.time() + budget.remaining_seconds()
        outcomes = ParallelExecutor(jobs=2, name="pool").map(
            _record_budget, ["a", "b"], budget=budget,
            labels=["a", "b"])
        # Each worker re-anchors the parent's deadline on its own
        # clock; every task still ends at the same instant.
        for outcome in outcomes:
            assert outcome.value["deadline_epoch"] == \
                pytest.approx(deadline, abs=1.0)
        assert outcomes[1].value["name"] == "pool[b]"

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
        spec = BudgetSpec.capture(Budget(), name="x")
        assert spec.watchdog_timeout() is None
        assert spec.restore().remaining_seconds() is None

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
