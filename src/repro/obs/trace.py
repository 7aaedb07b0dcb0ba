"""Streaming structured-event tracing: JSONL sinks, progress, stitching.

The registry (:mod:`repro.obs.registry`) answers "where did the time
go" *after* a run from an in-memory snapshot.  This module answers it
*while* the run executes, and across processes:

* :class:`TraceSink` appends newline-delimited JSON records — span
  begin/end, counter deltas, instant events, progress heartbeats — to
  a file with bounded buffering.  Every record carries the writer's
  ``pid``, a run-scoped ``trace`` id, and a wall-clock timestamp
  ``t`` (the sink's ``time.time()`` epoch advanced by the monotonic
  clock, so ``t`` is NTP-step-proof within a process *and* directly
  comparable across processes).
* With no sink active the cost at every instrumentation point is one
  module-global load and an ``is None`` test — the strict
  "disabled = near-zero" fast path.
* :func:`progress` is the live-progress fan-out: hot loops (BMC
  frames, sweep rounds, recurrence steps) report where they are; the
  active sink records a ``P`` record and any registered hooks (e.g.
  the throttled stderr :class:`ProgressReporter` behind the CLIs'
  ``--progress`` flag) fire.
* Activation: programmatic (:func:`start_trace`) or via
  ``REPRO_TRACE=<path>`` (:func:`trace_from_env`).  Either way the
  base path and trace id are (re-)exported as
  ``REPRO_TRACE``/``REPRO_TRACE_ID``, so worker processes spawned by
  :mod:`repro.parallel` can call :func:`open_worker_sink`, which
  writes a sibling file ``<path>.<pid>`` sharing the parent's
  trace id (both variables travel through the environment);
  :func:`stitch_files` / :func:`discover_trace_files` reassemble the
  per-process files into one wall-clock-aligned timeline, and
  :func:`to_chrome` renders it as Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto loadable).

Record schema (``repro-trace-v1``) — common keys ``ty``, ``t``
(wall-clock seconds), ``pid``, ``tid``, ``trace``; then per type:

====  =============================================================
``M``  meta/header: ``schema``, ``role``, ``epoch``, ``argv``
``B``  span begin: ``path`` (hierarchical), ``name`` (leaf)
``E``  span end: ``path``, ``name``, ``dur`` (seconds)
``C``  counter delta: ``name``, ``delta``, ``value`` (running total)
``I``  instant event: ``name``, ``span`` (optional), ``fields``
``P``  progress heartbeat: ``source``, ``fields``
====  =============================================================

Stdlib-only, like everything under ``repro.obs``.
"""

from __future__ import annotations

import atexit
import glob as _glob
import json
import os
import sys
import threading
import time
import uuid
from typing import Any, Callable, Dict, IO, Iterable, List, Optional

from . import registry as _registry

__all__ = [
    "ProgressReporter",
    "TRACE_ENV",
    "TRACE_ID_ENV",
    "TRACE_SCHEMA",
    "TraceSink",
    "active_sink",
    "add_progress_hook",
    "discover_trace_files",
    "open_worker_sink",
    "progress",
    "progress_from_env",
    "read_trace",
    "remove_progress_hook",
    "setup_cli",
    "start_trace",
    "stitch_files",
    "stop_trace",
    "to_chrome",
    "trace_from_env",
]

#: Environment variable naming the trace output path.
TRACE_ENV = "REPRO_TRACE"
#: Environment variable carrying the run-scoped trace id to workers.
TRACE_ID_ENV = "REPRO_TRACE_ID"
#: Environment variable that turns the stderr progress reporter on
#: (set by the CLIs' ``--progress`` so pool workers inherit it).
PROGRESS_ENV = "REPRO_PROGRESS"
#: Schema tag written into every sink's meta record.
TRACE_SCHEMA = "repro-trace-v1"

#: Registered live-progress callbacks ``hook(source, fields)``.
_progress_hooks: List[Callable[[str, Dict[str, Any]], None]] = []

#: Small sequential per-thread ids for trace records.  Chrome's
#: (pid, tid) pair must distinguish concurrent threads, and truncating
#: ``threading.get_ident()`` to a few bits can collide two live
#: threads, interleaving their B/E records under one timeline row.
#: (An ident recycled after a thread dies maps to the same small id —
#: harmless, since the two threads never overlap in time.)
_tid_lock = threading.Lock()
_tid_by_ident: Dict[int, int] = {}


def _thread_tid() -> int:
    """This thread's small sequential trace tid (1-based)."""
    ident = threading.get_ident()
    tid = _tid_by_ident.get(ident)
    if tid is None:
        with _tid_lock:
            tid = _tid_by_ident.get(ident)
            if tid is None:
                tid = len(_tid_by_ident) + 1
                _tid_by_ident[ident] = tid
    return tid


class TraceSink:
    """A buffered JSONL writer for trace records.

    ``flush_every`` bounds the in-memory buffer: once that many
    records accumulate they are written out as one block (every write
    also reaches the OS via ``file.flush()``, so a killed process
    loses at most one buffer).  All methods are thread-safe.
    """

    def __init__(self, path: str, trace_id: Optional[str] = None,
                 role: str = "main", flush_every: int = 128,
                 mode: str = "w") -> None:
        self.path = path
        self.trace_id = trace_id or uuid.uuid4().hex[:12]
        self.role = role
        self.pid = os.getpid()
        self.flush_every = max(1, flush_every)
        self._epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self._buffer: List[str] = []
        # Reentrant: counter() updates its running totals and emits
        # the record under one acquisition (see below).
        self._lock = threading.RLock()
        self._fh: Optional[IO[str]] = open(path, mode)
        self._counter_totals: Dict[str, int] = {}
        self._emit({
            "ty": "M",
            "schema": TRACE_SCHEMA,
            "role": role,
            "epoch": self._epoch_wall,
            "argv": list(sys.argv),
        })

    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Wall-aligned monotonic timestamp (see module docs)."""
        return self._epoch_wall + (time.perf_counter()
                                   - self._epoch_perf)

    def _emit(self, record: Dict[str, Any]) -> None:
        record["t"] = self._now()
        record["pid"] = self.pid
        record["tid"] = _thread_tid()
        record["trace"] = self.trace_id
        try:
            line = json.dumps(record, sort_keys=False,
                              default=repr)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return
        with self._lock:
            if self._fh is None:
                return
            self._buffer.append(line)
            if len(self._buffer) >= self.flush_every:
                self._drain()

    def _drain(self) -> None:
        """Write the buffer out (caller holds the lock)."""
        if self._buffer and self._fh is not None:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._fh.flush()
            self._buffer.clear()

    # ------------------------------------------------------------------
    # Record constructors (called from the registry hot hooks)
    # ------------------------------------------------------------------
    def span_begin(self, path: str, name: str) -> None:
        self._emit({"ty": "B", "path": path, "name": name})

    def span_end(self, path: str, name: str, seconds: float) -> None:
        self._emit({"ty": "E", "path": path, "name": name,
                    "dur": seconds})

    def counter(self, name: str, delta: int, value: int) -> None:
        # Track the running total per name *as seen by this sink*:
        # registries swap (obs.scoped), so the registry-side value is
        # not monotonic over the file; the sink-side total is.  The
        # read-modify-write and the emit happen under one lock
        # acquisition (the lock is reentrant) so concurrent deltas
        # neither lose updates nor write out-of-order running values.
        with self._lock:
            total = self._counter_totals.get(name, 0) + delta
            self._counter_totals[name] = total
            self._emit({"ty": "C", "name": name, "delta": delta,
                        "value": total})

    def event(self, name: str, fields: Dict[str, Any],
              span: Optional[str] = None) -> None:
        record: Dict[str, Any] = {"ty": "I", "name": name,
                                  "fields": dict(fields)}
        if span is not None:
            record["span"] = span
        self._emit(record)

    def progress(self, source: str, fields: Dict[str, Any]) -> None:
        self._emit({"ty": "P", "source": source,
                    "fields": dict(fields)})

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Force-write any buffered records."""
        with self._lock:
            self._drain()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            self._drain()
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def active_sink() -> Optional[TraceSink]:
    """The currently-installed sink (None when tracing is off)."""
    return _registry._trace_sink


_atexit_installed = False


def _close_active_sink_at_exit() -> None:
    """Flush the active sink when the process ends.

    Short CLI runs never fill the sink's buffer, so without this hook
    a ``REPRO_TRACE`` run that emits fewer than ``flush_every``
    records would exit leaving an empty file.  Only this process's
    own sink is touched (a fork-inherited parent sink must not be
    flushed from a worker).
    """
    sink = _registry._trace_sink
    if sink is not None and sink.pid == os.getpid():
        sink.close()


def _install_atexit() -> None:
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(_close_active_sink_at_exit)
        _atexit_installed = True


def start_trace(path: str, trace_id: Optional[str] = None,
                role: str = "main", mode: str = "w") -> TraceSink:
    """Open a sink at ``path`` and install it as the active sink.

    Replaces any previously-active sink (which is closed first, unless
    it was inherited from another process — see
    :func:`open_worker_sink`).  Exports ``REPRO_TRACE`` and
    ``REPRO_TRACE_ID`` so that worker processes spawned later join
    the same logical trace (:func:`open_worker_sink` discovers the
    base path and trace id through the environment) even when tracing
    was activated programmatically rather than via ``REPRO_TRACE``.
    Worker sinks themselves (:func:`open_worker_sink`) do not go
    through here, so the exported base path is always the parent's.
    """
    previous = _registry._trace_sink
    if previous is not None and previous.pid == os.getpid():
        previous.close()
    sink = TraceSink(path, trace_id=trace_id, role=role, mode=mode)
    _registry._set_trace_sink(sink)
    os.environ[TRACE_ENV] = path
    os.environ[TRACE_ID_ENV] = sink.trace_id
    _install_atexit()
    return sink


def stop_trace() -> Optional[str]:
    """Close and uninstall the active sink; returns its path.

    Un-exports the ``REPRO_TRACE``/``REPRO_TRACE_ID`` variables when
    they still point at this sink, so a later run in the same process
    (or a test) does not silently re-activate a finished trace.
    """
    sink = _registry._trace_sink
    if sink is None:
        return None
    _registry._set_trace_sink(None)
    if sink.pid == os.getpid():
        sink.close()
    if os.environ.get(TRACE_ENV) == sink.path:
        os.environ.pop(TRACE_ENV, None)
        os.environ.pop(TRACE_ID_ENV, None)
    return sink.path


def trace_from_env() -> Optional[TraceSink]:
    """Activate tracing from ``REPRO_TRACE`` (the CLI entry hook).

    No-op when the variable is unset or a sink is already active.
    Publishes the sink's trace id through ``REPRO_TRACE_ID`` so pool
    workers join the same logical trace.
    """
    path = os.environ.get(TRACE_ENV)
    if not path or _registry._trace_sink is not None:
        return None
    # start_trace() re-exports the path and publishes the trace id.
    return start_trace(path, trace_id=os.environ.get(TRACE_ID_ENV))


def open_worker_sink() -> Optional[TraceSink]:
    """Per-process sink for :mod:`repro.parallel` workers.

    Returns None (and leaves the active sink alone) when tracing is
    off, or when the active sink already belongs to *this* process
    (the ``jobs=1`` in-process path).  A sink object inherited through
    ``fork`` belongs to the parent — writing to its file descriptor
    would interleave with the parent's stream — so it is replaced,
    never flushed, by a fresh sink at ``<base>.<pid>`` (append mode:
    several tasks may run in one worker process) sharing the parent's
    trace id.
    """
    base = os.environ.get(TRACE_ENV)
    if not base:
        return None
    current = _registry._trace_sink
    if current is not None and current.pid == os.getpid():
        return None
    sink = TraceSink(f"{base}.{os.getpid()}",
                     trace_id=os.environ.get(TRACE_ID_ENV),
                     role="worker", mode="a")
    _registry._set_trace_sink(sink)
    _install_atexit()
    return sink


# ----------------------------------------------------------------------
# Progress
# ----------------------------------------------------------------------
def progress(source: str, **fields: Any) -> None:
    """Report live progress from a hot loop.

    Near-zero when disabled: with no active sink and no registered
    hooks this returns after two module-global checks.  Otherwise the
    sink records a ``P`` record and every hook is invoked with
    ``(source, fields)``.
    """
    sink = _registry._trace_sink
    if sink is None and not _progress_hooks:
        return
    if sink is not None:
        sink.progress(source, fields)
    for hook in list(_progress_hooks):
        hook(source, fields)


def add_progress_hook(
        hook: Callable[[str, Dict[str, Any]], None]) -> None:
    """Register a live-progress callback (idempotent per object)."""
    if hook not in _progress_hooks:
        _progress_hooks.append(hook)


def remove_progress_hook(
        hook: Callable[[str, Dict[str, Any]], None]) -> None:
    """Unregister a callback installed by :func:`add_progress_hook`."""
    try:
        _progress_hooks.remove(hook)
    except ValueError:
        pass


class ProgressReporter:
    """A throttled stderr line printer for :func:`progress` events.

    At most one line per ``interval`` seconds *per source* — a BMC
    emitting a frame every few milliseconds costs a handful of prints
    per second, while a sweep that reports once a minute is never
    suppressed.  ``interval=0`` prints everything (tests).

    Concurrency-safe: the throttle check-and-update runs under a
    lock, and each line reaches the stream as a **single**
    ``write()`` call (newline included) rather than ``print()``'s
    two — under ``--jobs > 1`` several threads' heartbeats land on
    the shared stderr pipe as whole lines instead of shearing
    mid-line into ``[bmc] fra[sweep] round=3\\nme=17``.
    """

    def __init__(self, stream: Optional[IO[str]] = None,
                 interval: float = 0.5) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._last: Dict[str, float] = {}
        self._lock = threading.Lock()

    def __call__(self, source: str, fields: Dict[str, Any]) -> None:
        now = time.perf_counter()
        with self._lock:
            last = self._last.get(source)
            if last is not None and now - last < self.interval:
                return
            self._last[source] = now
        text = " ".join(f"{key}={value}"
                        for key, value in fields.items())
        try:
            self.stream.write(f"[{source}] {text}\n")
            self.stream.flush()
        except ValueError:  # pragma: no cover - stream closed at exit
            pass


def progress_from_env() -> Optional[ProgressReporter]:
    """Install a stderr reporter when ``REPRO_PROGRESS`` is set.

    Used by worker processes (their environment is inherited from the
    parent CLI) and by :func:`setup_cli`.  Installs at most one
    env-driven reporter per process.
    """
    global _env_reporter
    if not os.environ.get(PROGRESS_ENV):
        return None
    if _env_reporter is None:
        _env_reporter = ProgressReporter()
        add_progress_hook(_env_reporter)
    return _env_reporter


_env_reporter: Optional[ProgressReporter] = None


def setup_cli(progress_flag: bool = False) -> None:
    """One-call observability bootstrap for the CLI entry points.

    Activates ``REPRO_TRACE`` tracing if requested by the environment
    and, when ``--progress`` was passed, exports ``REPRO_PROGRESS=1``
    (so pool workers print too) and installs the stderr reporter.
    """
    trace_from_env()
    if progress_flag:
        os.environ[PROGRESS_ENV] = "1"
    progress_from_env()


# ----------------------------------------------------------------------
# Reading, stitching, exporting
# ----------------------------------------------------------------------
def read_trace(path: str) -> List[Dict[str, Any]]:
    """Parse one JSONL trace file into a record list.

    Tolerates a truncated final line (a killed writer) by skipping
    anything that does not parse.
    """
    records: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def discover_trace_files(base: str) -> List[str]:
    """``base`` plus every per-worker sibling ``base.<pid>``."""
    paths = [base] if os.path.exists(base) else []
    paths.extend(sorted(
        p for p in _glob.glob(base + ".*")
        if p.rsplit(".", 1)[-1].isdigit()))
    return paths


def stitch_files(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Merge several trace files into one time-ordered record list.

    Records are wall-clock stamped at the source, so stitching is a
    stable sort on ``t`` — per-file ordering (and hence per-thread
    span begin/end nesting) is preserved for equal timestamps.
    """
    records: List[Dict[str, Any]] = []
    for path in paths:
        records.extend(read_trace(path))
    records.sort(key=lambda record: record.get("t", 0.0))
    return records


def to_chrome(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Render records as Chrome trace-event JSON.

    The output loads in ``chrome://tracing`` and Perfetto: spans map
    to ``B``/``E`` duration events, counters to ``C`` tracks (running
    totals per pid), instants and progress heartbeats to ``i``
    events.  Timestamps are microseconds relative to the earliest
    record.
    """
    stamped = [r for r in records if "t" in r]
    stamped.sort(key=lambda record: record["t"])
    t0 = stamped[0]["t"] if stamped else 0.0
    events: List[Dict[str, Any]] = []
    totals: Dict[Any, int] = {}
    named_pids = set()
    for record in stamped:
        ty = record.get("ty")
        pid = record.get("pid", 0)
        tid = record.get("tid", 0)
        ts = (record["t"] - t0) * 1e6
        if ty == "M":
            if pid not in named_pids:
                named_pids.add(pid)
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{record.get('role', 'main')} "
                                     f"(pid {pid})"},
                })
        elif ty == "B":
            events.append({
                "ph": "B", "name": record.get("name",
                                              record.get("path", "?")),
                "cat": "span", "pid": pid, "tid": tid, "ts": ts,
                "args": {"path": record.get("path", "")},
            })
        elif ty == "E":
            events.append({
                "ph": "E", "name": record.get("name",
                                              record.get("path", "?")),
                "cat": "span", "pid": pid, "tid": tid, "ts": ts,
            })
        elif ty == "C":
            name = record.get("name", "?")
            key = (pid, name)
            totals[key] = totals.get(key, 0) + record.get("delta", 0)
            events.append({
                "ph": "C", "name": name, "pid": pid, "tid": 0,
                "ts": ts, "args": {name: totals[key]},
            })
        elif ty == "I":
            events.append({
                "ph": "i", "s": "t",
                "name": record.get("name", "event"),
                "cat": "event", "pid": pid, "tid": tid, "ts": ts,
                "args": dict(record.get("fields", {})),
            })
        elif ty == "P":
            events.append({
                "ph": "i", "s": "p",
                "name": f"progress:{record.get('source', '?')}",
                "cat": "progress", "pid": pid, "tid": tid, "ts": ts,
                "args": dict(record.get("fields", {})),
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
