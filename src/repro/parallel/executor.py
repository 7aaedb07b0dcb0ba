"""The process-pool fan-out engine (Layer 0.7).

The per-design rows of the Table 1/2 sweeps are an embarrassingly
parallel workload.  This module provides their fan-out mechanism: a
:class:`ParallelExecutor` that runs ``fn(payload, budget)``
for every payload on the work-stealing pool of
:mod:`repro.parallel.stealing`, collects ``(result-or-typed-error, obs
snapshot)`` tuples back, and merges them **deterministically** —
outcomes are returned in input order, never completion order, so
tables are byte-identical at any ``--jobs`` value.

Protocol invariants (see ``docs/architecture.md``, Layer 0.7):

* **One deadline.**  The parent freezes the budget once as a
  :class:`BudgetSpec`: the wall deadline travels as an absolute
  ``time.time()`` epoch (``time.perf_counter`` values are meaningless
  in another process), and every task restores it as its own budget,
  so all tasks stop at the same instant.  Without a budget every task
  gets ``None``.
* **Typed errors are values.**  Tasks catch the
  :mod:`repro.resilience` taxonomy (plus the engine-level
  ``NetlistError``/``ValueError``) and return the exception object —
  all of them pickle with structured fields intact — so the parent
  replays exactly the error handling the sequential code path has.  A
  *crash* (a task raising anything else, an unpicklable result, the
  worker process dying) costs only that task: its slot becomes an
  :class:`EngineFailure`, the existing degradation path, so tables
  always complete and the structural fallback stays sound.
* **Observability survives.**  Each task runs under a scoped
  :class:`repro.obs.Registry`; the parent folds every snapshot into
  the active registry under ``parallel/<name>/<label>`` and counts
  ``parallel.tasks`` / ``parallel.worker_crashes``.
* **Fault plans re-script per task.**  An active
  :class:`~repro.resilience.FaultPlan` is shipped as its schedule and
  re-armed from call index 0 for every task a worker runs — the only
  deterministic reading of call indices once work is distributed.
* **A pool-wide watchdog.**  Workers stop *themselves* at the wall
  deadline (cooperative checks inside every solve); once the pool
  overruns it past :meth:`BudgetSpec.watchdog_timeout`, the parent
  terminates the workers and every unfinished slot becomes a typed
  ``parallel.watchdog`` exhaustion.

Every map runs on worker processes, ``min(jobs, tasks)`` of them.
Callers keep their own sequential loop for one job or one task, and
both call the same module-level task function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from .. import obs
from ..resilience import Budget, EngineFailure, ResourceExhausted
from ..resilience import faults as _faults
from . import stealing as _stealing

__all__ = ["BudgetSpec", "ParallelExecutor", "WorkerOutcome"]

#: Watchdog tuning.  A worker is expected to stop *itself* at its
#: budget deadline (cooperative checks inside every solve); the parent
#: only declares it stalled once it has overrun the deadline by
#: ``(grace - 1) x`` its original wall allowance, plus a small floor
#: absorbing pool scheduling jitter on tiny budgets.  Tasks with no
#: wall deadline are never watched — there is no bound to enforce.
_WATCHDOG_GRACE = 2.0
_WATCHDOG_FLOOR = 0.5


@dataclass(frozen=True)
class BudgetSpec:
    """A :class:`~repro.resilience.Budget`'s remains, in picklable form.

    ``deadline_epoch`` is an absolute ``time.time()`` instant (None =
    unlimited): monotonic ``perf_counter`` readings cannot cross a
    process boundary, so the deadline travels as wall-clock epoch and
    :meth:`restore` re-anchors it to the worker's own monotonic clock.
    """

    deadline_epoch: Optional[float] = None
    name: str = "worker"
    #: ``time.time()`` at capture; with ``deadline_epoch`` this
    #: preserves the original wall allowance, which the parent-side
    #: watchdog scales by :data:`_WATCHDOG_GRACE` to decide when an
    #: unresponsive worker counts as stalled.
    captured_epoch: Optional[float] = None

    @classmethod
    def capture(cls, budget: Optional[Budget],
                name: Optional[str] = None) -> Optional["BudgetSpec"]:
        """Freeze ``budget``'s deadline (None passes through)."""
        if budget is None:
            return None
        now = time.time()
        seconds = budget.remaining_seconds()
        return cls(
            deadline_epoch=None if seconds is None
            else now + seconds,
            name=name or budget.name,
            captured_epoch=now,
        )

    def watchdog_timeout(self) -> Optional[float]:
        """Seconds from now until the parent should declare a worker
        on this budget stalled (None = never — no wall deadline)."""
        if self.deadline_epoch is None:
            return None
        allowance = 0.0
        if self.captured_epoch is not None:
            allowance = max(0.0,
                            self.deadline_epoch - self.captured_epoch)
        grace = allowance * (_WATCHDOG_GRACE - 1.0) + _WATCHDOG_FLOOR
        return max(0.0, self.deadline_epoch + grace - time.time())

    def restore(self, name: Optional[str] = None) -> Budget:
        """Rebuild a live budget with the same deadline in the current
        process, named ``name`` (default: the spec's name)."""
        seconds = None
        if self.deadline_epoch is not None:
            seconds = max(0.0, self.deadline_epoch - time.time())
        return Budget(seconds, name=name or self.name)


@dataclass
class WorkerOutcome:
    """One task's round-trip: its value or typed error, plus telemetry.

    Exactly one of ``value``/``error`` is set.  ``seconds`` is the
    worker-side wall time of the task body (monotonic, measured inside
    the worker); ``snapshot`` the worker's full obs snapshot (already
    merged into the parent registry by the time callers see it).
    """

    index: int
    label: str
    value: Any = None
    error: Optional[BaseException] = None
    seconds: float = 0.0
    snapshot: Optional[dict] = None

    @property
    def ok(self) -> bool:
        """True when the task returned a value."""
        return self.error is None


class ParallelExecutor:
    """Deterministic fan-out of independent engine calls.

    ``jobs`` caps the worker-process count.  ``name`` prefixes the
    merged obs data: worker telemetry lands under
    ``parallel/<name>/<label>``.
    """

    def __init__(self, jobs: int = 1, name: str = "pool") -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.name = name

    # ------------------------------------------------------------------
    def map(self,
            fn: Callable[[Any, Optional[Budget]], Any],
            payloads: Sequence[Any],
            budget: Optional[Budget] = None,
            labels: Optional[Sequence[str]] = None
            ) -> List[WorkerOutcome]:
        """Run ``fn(payload, budget)`` for every payload.

        ``fn`` must be a module-level function (the pool pickles it by
        reference).  The tasks share ``budget``'s deadline: each gets a
        budget named ``<name>[<label>]`` that expires when ``budget``
        does, instead of a ``1/n`` slice of it; without a budget each
        task gets ``None``.  Idle workers steal
        the next task, but the result list is ordered by input index.
        Every failure is an outcome.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        labels = [str(label) for label in labels] if labels \
            else [str(i) for i in range(len(payloads))]
        if len(labels) != len(payloads):
            raise ValueError("labels/payloads length mismatch")
        outcomes = self._in_workers(
            fn, payloads, labels,
            BudgetSpec.capture(budget, name=self.name))
        self._merge(outcomes)
        return outcomes

    # ------------------------------------------------------------------
    def _in_workers(self, fn, payloads, labels,
                    spec) -> List[WorkerOutcome]:
        """Run the tasks on the work-stealing worker processes (see
        :mod:`repro.parallel.stealing`) and fill the slots of dead or
        stalled workers with typed failures."""
        plan = _faults.active_plan()
        raws, watchdog = _stealing.execute(
            fn, payloads, labels, spec,
            plan.config() if plan is not None else None,
            min(self.jobs, len(payloads)), self.name)
        reg = obs.get_registry()
        outcomes: List[WorkerOutcome] = []
        for i, raw in enumerate(raws):
            label = labels[i]
            if raw is not None:
                outcomes.append(self._decode(i, label, raw))
            elif i in watchdog:
                reg.counter("parallel.watchdog_kills")
                reg.event("parallel.watchdog", label=label,
                          budget=self.name)
                outcomes.append(WorkerOutcome(
                    index=i, label=label,
                    error=ResourceExhausted(
                        "parallel.watchdog",
                        f"worker {label!r} overran the pool wall "
                        "deadline past the watchdog grace; task "
                        "cancelled",
                        budget_name=f"{self.name}[{label}]")))
            else:
                outcomes.append(WorkerOutcome(
                    index=i, label=label,
                    error=EngineFailure(
                        "parallel.worker",
                        f"worker running {label!r} crashed")))
        return outcomes

    @staticmethod
    def _decode(index: int, label: str, raw: tuple) -> WorkerOutcome:
        kind, value, snapshot, seconds = raw
        if kind == "ok":
            return WorkerOutcome(index=index, label=label, value=value,
                                 seconds=seconds, snapshot=snapshot)
        return WorkerOutcome(index=index, label=label, error=value,
                             seconds=seconds, snapshot=snapshot)

    def _merge(self, outcomes: List[WorkerOutcome]) -> None:
        """Fold worker telemetry into the parent registry."""
        reg = obs.get_registry()
        for outcome in outcomes:
            reg.counter("parallel.tasks")
            if outcome.snapshot is not None:
                reg.merge_snapshot(
                    outcome.snapshot,
                    prefix=f"parallel/{self.name}/{outcome.label}")
            if isinstance(outcome.error, EngineFailure) and \
                    outcome.error.engine == "parallel.worker":
                reg.counter("parallel.worker_crashes")
