"""The work-stealing task queue behind ``ParallelExecutor``.

The parent enqueues task *indices* on a shared deque, every worker
process runs a drain loop that steals the next index whenever it goes
idle, and results are shipped back tagged by index so the parent joins
them in **submission order** — execution is dynamic, the join is not,
and tables stay byte-identical at any ``--jobs``.  No worker idles
behind a static split while one long task runs elsewhere.

Workers share no mutable state but the two queues: the **task
queue**, FIFO with one sentinel per worker enqueued after the real
work, and the result queue.  The deadline needs no sharing: it travels
as one absolute epoch (:class:`~repro.parallel.BudgetSpec`), and each
stolen task restores it as its own budget, so every task stops at the
same instant.  A map without a budget hands its tasks ``None``.

Per-task hygiene: every *stolen task* — not every worker process —
re-arms the fault schedule from call index 0 and opens a fresh scoped
registry, so fault injection and the ``parallel/<pool>/<label>`` obs
merge are functions of the task label alone, independent of which
worker stole it.

Crash containment covers both ways a task can fail outside the typed
taxonomy.  A task that raises any other exception becomes that
index's :class:`EngineFailure` and its worker keeps draining.  A
worker process that dies announced ``("start", index, pid)`` before
running its task, so the parent knows exactly which index was in
flight, fills that slot with the same :class:`EngineFailure`, and
lets the surviving workers drain the rest.  A pool-wide wall-clock
watchdog terminates a stalled pool outright.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _queue
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, \
    Tuple

from .. import obs
from ..netlist import NetlistError
from ..resilience import Budget, EngineFailure, ResourceExhausted
from ..resilience import faults as _faults

__all__ = ["execute"]

#: Error types tasks return as values (everything else is a crash).
_TYPED_ERRORS = (ResourceExhausted, EngineFailure, NetlistError,
                 ValueError)

#: Parent-side poll period while waiting on the result queue: short
#: enough to notice dead workers and an expired watchdog promptly,
#: long enough to stay invisible next to any real solve.
_POLL_SECONDS = 0.1


def _run_stolen_task(fn: Callable[[Any, Optional[Budget]], Any],
                     payload: Any,
                     budget: Optional[Budget],
                     fault_config: Optional[dict]) -> tuple:
    """One task under a fresh registry and re-armed faults.

    Returns ``(kind, value, snapshot, seconds)`` where ``kind`` is
    ``"ok"`` or ``"error"``: the typed taxonomy comes back as the
    error value, and any other exception as an :class:`EngineFailure`
    crash of this task alone.  The fault schedule restarts at call
    index 0 *per task*, so injection points are deterministic under
    stealing.
    """
    watch = obs.stopwatch()
    with obs.scoped(obs.Registry("worker")) as reg:
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
        except Exception as exc:
            # The drain must keep running: keep the traceback in the
            # task's telemetry and fail this task alone.
            reg.event("parallel.task_crash",
                      traceback=traceback.format_exc())
            crash = EngineFailure(
                "parallel.worker",
                f"worker crashed: {str(exc) or type(exc).__name__}")
            return ("error", crash, reg.snapshot(), watch.elapsed)
        finally:
            # A worker process ends without running atexit hooks (or
            # is terminated by the watchdog): push buffered trace
            # records out after every task so the parent can stitch
            # complete files at any point.
            sink = obs.trace.active_sink()
            if sink is not None:
                sink.flush()


def _drain_worker(fn: Callable[[Any, Optional[Budget]], Any],
                  payloads: Sequence[Any],
                  labels: Sequence[str],
                  pool_name: str,
                  spec: Optional[Any],
                  fault_config: Optional[dict],
                  task_q: Any,
                  result_q: Any) -> None:
    """Worker-process drain loop: steal, run, report, repeat."""
    obs.trace.open_worker_sink()
    obs.trace.progress_from_env()
    pid = multiprocessing.current_process().pid
    while True:
        index = task_q.get()
        if index is None:
            break
        result_q.put(pickle.dumps(("start", index, pid)))
        budget = None if spec is None else spec.restore(
            name=f"{pool_name}[{labels[index]}]")
        raw = _run_stolen_task(fn, payloads[index], budget,
                               fault_config)
        try:
            blob = pickle.dumps(("done", index, raw))
        except Exception as exc:  # unpicklable result = a crash
            blob = pickle.dumps(("done", index, (
                "error",
                EngineFailure("parallel.worker",
                              "unpicklable worker result: "
                              f"{str(exc) or type(exc).__name__}"),
                None, 0.0)))
        result_q.put(blob)


def execute(fn: Callable[[Any, Optional[Budget]], Any],
            payloads: Sequence[Any],
            labels: Sequence[str],
            spec: Optional[Any],  # BudgetSpec
            fault_config: Optional[dict],
            jobs: int,
            pool_name: str
            ) -> Tuple[List[Optional[tuple]], List[int]]:
    """Run ``fn`` over ``payloads`` on ``jobs`` work-stealing workers.

    Returns ``(raws, watchdog)``: ``raws`` is the per-index list of raw
    ``(kind, value, snapshot, seconds)`` tuples aligned to submission
    order, None for a slot whose worker died or that the watchdog
    cancelled; ``watchdog`` lists the cancelled indices.
    """
    n = len(payloads)
    ctx = multiprocessing.get_context()
    task_q: Any = ctx.Queue()
    result_q: Any = ctx.Queue()
    for index in range(n):
        task_q.put(index)
    for _ in range(jobs):
        task_q.put(None)
    procs = [
        ctx.Process(
            target=_drain_worker,
            args=(fn, list(payloads), list(labels), pool_name, spec,
                  fault_config, task_q, result_q),
            daemon=True)
        for _ in range(jobs)
    ]
    for proc in procs:
        proc.start()

    raws: List[Optional[tuple]] = [None] * n
    watchdog: List[int] = []
    pending = set(range(n))
    inflight: Dict[int, int] = {}  # index -> worker pid running it
    watchdog_at = None
    if spec is not None:
        timeout = spec.watchdog_timeout()
        if timeout is not None:
            watchdog_at = time.monotonic() + timeout
    try:
        while pending:
            try:
                message = pickle.loads(
                    result_q.get(timeout=_POLL_SECONDS))
            except _queue.Empty:
                if watchdog_at is not None and \
                        time.monotonic() >= watchdog_at:
                    watchdog = sorted(pending)
                    break
                # The start/done protocol maps every in-flight index
                # to the pid running it: a dead pid with a missing
                # "done" is a crashed task (its slot stays None, the
                # survivors keep draining).  A fully dead pool dooms
                # the never-started remainder too.
                dead_pids = {proc.pid for proc in procs
                             if not proc.is_alive()}
                if not result_q.empty():
                    # A worker's last report landed after the poll.
                    continue
                for index, pid in list(inflight.items()):
                    if pid in dead_pids:
                        pending.discard(index)
                        del inflight[index]
                if not any(proc.is_alive() for proc in procs):
                    break
                continue
            kind, index, extra = message
            if kind == "start":
                inflight[index] = extra
                continue
            inflight.pop(index, None)
            raws[index] = extra
            pending.discard(index)
    finally:
        if pending:
            # Watchdog or pool death: nothing left to wait for.
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (task_q, result_q):
            q.close()
            q.cancel_join_thread()
    return raws, watchdog
