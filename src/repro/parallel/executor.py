"""The process-pool fan-out engine (Layer 0.7).

Motivation 2 of Section 1 frames the transformation strategies as a
*portfolio* of independently-sound attempts whose minimum bound wins —
an embarrassingly parallel workload, as are the per-design rows of the
Table 1/2 sweeps.  This module provides the one fan-out mechanism all
of those share: a :class:`ParallelExecutor` that ships
``(worker function, payload, budget spec, fault schedule)`` tuples to
a ``concurrent.futures.ProcessPoolExecutor``, collects
``(result-or-typed-error, obs snapshot)`` tuples back, and merges them
**deterministically** — outcomes are returned in input order, never
completion order, so tables and bench artifacts are byte-identical at
any ``--jobs`` value.

Protocol invariants (see ``docs/architecture.md``, Layer 0.7):

* **Budgets pre-split.**  A worker cannot charge its parent's pools
  across a process boundary, so the parent carves one
  :meth:`~repro.resilience.Budget.slice` per task *before* submission
  and ships it as a :class:`BudgetSpec` — the wall deadline travels as
  an absolute ``time.time()`` epoch (``time.perf_counter`` values are
  meaningless in another process), the conflict/query pools as plain
  integers.  After the join, the parent charges itself with each
  worker's reported solver effort so hierarchical accounting stays
  truthful.
* **Typed errors are values.**  Workers catch the
  :mod:`repro.resilience` taxonomy (plus the engine-level
  ``NetlistError``/``ValueError``) and return the exception object —
  all of them pickle with structured fields intact — so the parent
  replays exactly the error handling the sequential code path has.  A
  worker *crash* (the process dying, an unpicklable result, an
  unexpected exception) maps to :class:`EngineFailure`, the existing
  degradation path, so PR 2's guarantees (tables always complete,
  sound structural fallback) hold unchanged.  :class:`Cancelled` is
  re-raised at the join, as everywhere else.
* **Observability survives.**  Each worker runs under a scoped
  :class:`repro.obs.Registry`; the parent folds every snapshot into
  the active registry under ``parallel/<name>/<label>`` and counts
  ``parallel.tasks`` / ``parallel.worker_crashes``.
* **Fault plans re-script per task.**  An active
  :class:`~repro.resilience.FaultPlan` is shipped as its schedule and
  re-armed from call index 0 in every worker — the only deterministic
  reading of call indices once work is distributed.

``jobs=1`` never touches the pool: call sites keep their existing
sequential loops, and :meth:`ParallelExecutor.map` itself degrades to
an in-process loop (used by tests and by call sites that want one
code path).

The executor has a second engine, selected per instance with
``stealing=True``: the work-stealing queue of
:mod:`repro.parallel.stealing`.  Instead of one future and one
pre-split budget slice per task, workers steal task indices from a
shared deque and charge one *shared* cross-process conflict/query pool
under the common wall deadline — so budget flows to the tasks that
need it and no worker idles behind a static split.  The join is
unchanged: outcomes come back in submission order, so the determinism
contract (byte-identical tables at any ``--jobs``) holds in both
engines.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, \
    TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from .. import obs
from ..netlist import NetlistError
from ..resilience import Budget, Cancelled, EngineFailure, \
    ResourceExhausted
from ..resilience import faults as _faults

__all__ = ["BudgetSpec", "ParallelExecutor", "WorkerOutcome"]

#: Error types workers return as values (everything else is a crash).
_TYPED_ERRORS = (ResourceExhausted, EngineFailure, Cancelled,
                 NetlistError, ValueError)

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
    is re-anchored to the worker's own monotonic clock by
    :meth:`restore`.  The conflict/query pools are pre-split integers
    — the worker gets a private cap, not a shared pool.
    """

    deadline_epoch: Optional[float] = None
    conflicts: Optional[int] = None
    queries: Optional[int] = None
    name: str = "worker"
    #: ``time.time()`` at capture; with ``deadline_epoch`` this
    #: preserves the original wall allowance, which the parent-side
    #: watchdog scales by :data:`_WATCHDOG_GRACE` to decide when an
    #: unresponsive worker counts as stalled.
    captured_epoch: Optional[float] = None

    @classmethod
    def capture(cls, budget: Optional[Budget],
                name: Optional[str] = None) -> Optional["BudgetSpec"]:
        """Freeze ``budget``'s current remains (None passes through)."""
        if budget is None:
            return None
        now = time.time()
        seconds = budget.remaining_seconds()
        return cls(
            deadline_epoch=None if seconds is None
            else now + seconds,
            conflicts=budget.remaining_conflicts(),
            queries=budget.remaining_queries(),
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

    def restore(self) -> Budget:
        """Rebuild a live budget in the current process."""
        seconds = None
        if self.deadline_epoch is not None:
            seconds = max(0.0, self.deadline_epoch - time.time())
        return Budget(seconds, self.conflicts, self.queries,
                      name=self.name)


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


def _run_task(fn: Callable[[Any, Optional[Budget]], Any],
              payload: Any,
              spec: Optional[BudgetSpec],
              fault_config: Optional[dict],
              budget: Optional[Budget] = None) -> tuple:
    """The worker-side shim (module-level so the pool can pickle it).

    Runs ``fn(payload, budget)`` under a fresh scoped registry and the
    re-armed fault schedule, returning ``(kind, value, snapshot,
    seconds)`` where ``kind`` is ``"ok"`` or ``"error"``.

    When ``REPRO_TRACE`` is set (inherited from the parent CLI) the
    shim opens a per-process sibling sink ``<path>.<pid>`` sharing the
    parent's trace id, so the parent can stitch all worker files into
    one wall-clock-aligned timeline; ``REPRO_PROGRESS`` likewise
    re-installs the stderr reporter in the worker.  Both are no-ops
    in-process (``jobs=1``): the parent's sink/reporter are already
    live.
    """
    obs.trace.open_worker_sink()
    obs.trace.progress_from_env()
    watch = obs.stopwatch()
    with obs.scoped(obs.Registry("worker")) as reg:
        if budget is None:
            budget = spec.restore() if spec is not None else None
        plan = _faults.FaultPlan(**fault_config) \
            if fault_config is not None else None
        try:
            if plan is not None:
                with _faults.inject(plan):
                    value = fn(payload, budget)
            else:
                value = fn(payload, budget)
            return ("ok", value, reg.snapshot(), watch.elapsed)
        except _TYPED_ERRORS as exc:
            return ("error", exc, reg.snapshot(), watch.elapsed)
        finally:
            # Pool workers are reused and then killed without cleanup:
            # push buffered trace records out after every task so the
            # parent can stitch complete files at any point.
            sink = obs.trace.active_sink()
            if sink is not None:
                sink.flush()


class ParallelExecutor:
    """Deterministic fan-out of independent engine calls.

    ``jobs`` caps the worker-process count; ``jobs <= 1`` runs every
    task in-process (same shim, no pool, no pickling) so a single code
    path serves both modes.  ``name`` prefixes the merged obs data:
    worker telemetry lands under ``parallel/<name>/<label>``.
    """

    def __init__(self, jobs: int = 1, name: str = "pool",
                 stealing: bool = False) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.name = name
        self.stealing = stealing

    # ------------------------------------------------------------------
    def map(self,
            fn: Callable[[Any, Optional[Budget]], Any],
            payloads: Sequence[Any],
            budget: Optional[Budget] = None,
            labels: Optional[Sequence[str]] = None
            ) -> List[WorkerOutcome]:
        """Run ``fn(payload, budget-slice)`` for every payload.

        ``fn`` must be a module-level function (the pool pickles it by
        reference).  In the default engine ``budget`` is pre-split
        equally (each task gets a ``slice(1/n)`` of the remains at
        submission time); in stealing mode the pool shares one budget
        view instead.  The result list is ordered by input index
        regardless of completion order; a cancelled budget raises
        :class:`Cancelled` at the join, every other failure is an
        outcome.
        """
        return self.map_tasks([(fn, payload) for payload in payloads],
                              budget=budget, labels=labels)

    def map_tasks(self,
                  tasks: Sequence[tuple],
                  budget: Optional[Budget] = None,
                  labels: Optional[Sequence[str]] = None
                  ) -> List[WorkerOutcome]:
        """Like :meth:`map`, but each task is its own ``(fn, payload)``
        pair — used for heterogeneous races (e.g. ``prove``'s quick-BMC
        vs k-induction probes)."""
        tasks = list(tasks)
        if not tasks:
            return []
        labels = [str(label) for label in labels] if labels \
            else [str(i) for i in range(len(tasks))]
        if len(labels) != len(tasks):
            raise ValueError("labels/tasks length mismatch")
        plan = _faults.active_plan()
        fault_config = plan.config() if plan is not None else None
        if self.stealing:
            outcomes = self._stolen(tasks, labels, budget, fault_config)
        elif self.jobs == 1 or len(tasks) == 1:
            specs = self._specs(budget, labels, len(tasks))
            raw = [_run_task(fn, payload, spec, None)
                   for (fn, payload), spec in zip(tasks, specs)]
            outcomes = [self._decode(i, labels[i], raw[i])
                        for i in range(len(raw))]
        else:
            specs = self._specs(budget, labels, len(tasks))
            outcomes = self._pooled(tasks, specs, labels, fault_config)
        self._merge(outcomes, budget)
        return outcomes

    # ------------------------------------------------------------------
    def _specs(self, budget: Optional[Budget], labels: Sequence[str],
               n: int) -> List[Optional[BudgetSpec]]:
        if budget is None:
            return [None] * n
        if budget.cancelled:
            raise Cancelled(budget_name=budget.name)
        specs: List[Optional[BudgetSpec]] = []
        for label in labels:
            child = budget.slice(1.0 / n,
                                 name=f"{self.name}[{label}]")
            specs.append(BudgetSpec.capture(child, name=child.name))
        return specs

    def _pooled(self, tasks, specs, labels,
                fault_config) -> List[WorkerOutcome]:
        workers = min(self.jobs, len(tasks))
        outcomes: List[Optional[WorkerOutcome]] = [None] * len(tasks)
        reg = obs.get_registry()
        stalled = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [
                pool.submit(_run_task, fn, payload, spec, fault_config)
                for (fn, payload), spec in zip(tasks, specs)
            ]
            # Joined in submission order: determinism over latency.
            # Each join is bounded by the task's watchdog deadline —
            # a worker that has blown past its wall budget by the
            # grace factor is declared stalled and its slot filled
            # with a typed exhaustion, exactly where its result
            # would have gone, so outcome order never depends on
            # which worker hung.
            for i, future in enumerate(futures):
                spec = specs[i]
                timeout = None if spec is None \
                    else spec.watchdog_timeout()
                try:
                    raw = future.result(timeout=timeout)
                except _FuturesTimeout:
                    stalled = True
                    future.cancel()
                    reg.counter("parallel.watchdog_kills")
                    reg.event("parallel.watchdog", label=labels[i],
                              budget=spec.name)
                    outcomes[i] = WorkerOutcome(
                        index=i, label=labels[i],
                        error=ResourceExhausted(
                            "parallel.watchdog",
                            f"worker {labels[i]!r} overran its wall "
                            "deadline past the watchdog grace; task "
                            "cancelled",
                            budget_name=spec.name))
                    continue
                except Exception as exc:
                    # The process died or the round-trip broke: the
                    # existing EngineFailure degradation path applies.
                    outcomes[i] = WorkerOutcome(
                        index=i, label=labels[i],
                        error=EngineFailure(
                            "parallel.worker",
                            "worker crashed: "
                            f"{str(exc) or type(exc).__name__}"))
                    continue
                outcomes[i] = self._decode(i, labels[i], raw)
        finally:
            if stalled:
                # A stalled worker never returns; a clean
                # shutdown(wait=True) would turn the watchdog into a
                # deadlock.  Kill the worker processes outright and
                # reap the pool without waiting.
                processes = getattr(pool, "_processes", None) or {}
                for proc in list(processes.values()):
                    proc.terminate()
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    # Work-stealing engine
    # ------------------------------------------------------------------
    def _stolen(self, tasks, labels, budget,
                fault_config) -> List[WorkerOutcome]:
        """Run tasks through the shared-deque engine (see
        :mod:`repro.parallel.stealing`); in-process when ``jobs`` (or
        the task count) is 1 — sequential draining of the same queue
        semantics."""
        from . import stealing as _stealing

        if budget is not None and budget.cancelled:
            raise Cancelled(budget_name=budget.name)
        reg = obs.get_registry()
        if self.jobs == 1 or len(tasks) == 1:
            return self._stolen_in_process(tasks, labels, budget)
        spec = BudgetSpec.capture(budget, name=self.name)
        raws, meta = _stealing.execute(
            tasks, labels, spec, fault_config,
            min(self.jobs, len(tasks)), self.name)
        outcomes: List[WorkerOutcome] = []
        for i, raw in enumerate(raws):
            if raw is not None:
                outcomes.append(self._decode(i, labels[i], raw))
            elif i in meta.get("watchdog", ()):
                reg.counter("parallel.watchdog_kills")
                reg.event("parallel.watchdog", label=labels[i],
                          budget=spec.name if spec else self.name)
                outcomes.append(WorkerOutcome(
                    index=i, label=labels[i],
                    error=ResourceExhausted(
                        "parallel.watchdog",
                        f"worker {labels[i]!r} overran the pool wall "
                        "deadline past the watchdog grace; task "
                        "cancelled",
                        budget_name=f"{self.name}[{labels[i]}]")))
            else:
                outcomes.append(WorkerOutcome(
                    index=i, label=labels[i],
                    error=EngineFailure(
                        "parallel.worker",
                        f"worker running {labels[i]!r} crashed")))
        return outcomes

    def _stolen_in_process(self, tasks, labels,
                           budget) -> List[WorkerOutcome]:
        """The ``jobs=1`` drain: same shared-budget semantics (tasks
        drain one pool through subbudget views of a single restored
        budget), no processes."""
        spec = BudgetSpec.capture(budget, name=self.name)
        shared = spec.restore() if spec is not None else None
        outcomes: List[WorkerOutcome] = []
        for i, (fn, payload) in enumerate(tasks):
            name = f"{self.name}[{labels[i]}]"
            child = shared.subbudget(name=name) \
                if shared is not None else None
            raw = _run_task(fn, payload, None, None, budget=child)
            outcomes.append(self._decode(i, labels[i], raw))
        return outcomes

    @staticmethod
    def _decode(index: int, label: str, raw: tuple) -> WorkerOutcome:
        kind, value, snapshot, seconds = raw
        if kind == "ok":
            return WorkerOutcome(index=index, label=label, value=value,
                                 seconds=seconds, snapshot=snapshot)
        return WorkerOutcome(index=index, label=label, error=value,
                             seconds=seconds, snapshot=snapshot)

    def _merge(self, outcomes: List[WorkerOutcome],
               budget: Optional[Budget]) -> None:
        """Fold worker telemetry into the parent registry and charge
        the parent budget with the reported solver effort; re-raise a
        worker-side :class:`Cancelled` (cooperative cancellation always
        propagates)."""
        reg = obs.get_registry()
        for outcome in outcomes:
            reg.counter("parallel.tasks")
            if outcome.snapshot is not None:
                reg.merge_snapshot(
                    outcome.snapshot,
                    prefix=f"parallel/{self.name}/{outcome.label}")
                counters = outcome.snapshot.get("counters", {})
                # Certification telemetry stays globally additive:
                # the arbitration layer and the bench certification
                # section read the top-level ``cert.*`` counters, so
                # worker-side checks fold in un-prefixed too.
                for key, delta in counters.items():
                    if key.startswith("cert.") and delta:
                        reg.counter(key, delta)
                if budget is not None:
                    conflicts = counters.get("sat.conflicts", 0)
                    queries = counters.get("sat.solve_calls", 0)
                    if conflicts:
                        budget.charge_conflicts(conflicts)
                    if queries:
                        budget.charge_query(queries)
            if isinstance(outcome.error, Cancelled):
                raise outcome.error
            if isinstance(outcome.error, EngineFailure) and \
                    outcome.error.engine == "parallel.worker":
                reg.counter("parallel.worker_crashes")
