"""The instrumentation registry: timers, counters and an event trace.

Everything in this module is pure stdlib and deliberately cheap: a
span entry/exit is two :func:`time.perf_counter` calls plus a couple
of dict operations, so engines can instrument their hot-path
*boundaries* (a SAT ``solve()`` call, a sweep round, a BMC frame)
without measurable overhead.  Do **not** instrument per-literal or
per-propagation work — keep raw integer counters there and publish
them as deltas at a call boundary (see ``Solver.solve``).

Design points:

* **Monotonic time only for durations.**  All durations come from
  :func:`time.perf_counter`; wall-clock (`time.time`) is never used
  for a duration, so NTP steps cannot produce negative or garbage
  spans.  Each registry additionally records the *wall-clock epoch*
  at which its monotonic clock started (``snapshot()["epoch"]``) so
  event offsets from different processes can be placed on one shared
  timeline (see :meth:`Registry.merge_snapshot`).
* **Hierarchical spans.**  Spans nest; a span opened while another is
  active records under the joined path ``outer/inner``.  The same
  path accumulates total seconds, call count, and max duration.  The
  nesting stack is *thread-local*: concurrent threads each see their
  own span path, never a sibling thread's.
* **Bounded events.**  The in-memory event list is a ring buffer
  (:data:`DEFAULT_MAX_EVENTS` records); once full, the oldest event
  is dropped and the ``obs.events_dropped`` counter incremented, so
  week-long runs cannot exhaust memory.  For unbounded event capture
  use the streaming trace layer (:mod:`repro.obs.trace`).
* **A process-global default registry** plus :func:`scoped` for
  isolation (tests, benchmarks).  The current-registry state
  is a lock-protected scope *stack*: enters and exits are atomic, and
  an exit removes its own registry (not blindly the top), so even
  overlapping scopes from different threads can never reinstate an
  already-exited registry.
* **JSON round-trip.**  ``snapshot()`` is plain-JSON data;
  ``Registry.from_snapshot`` restores it.

When a streaming :class:`~repro.obs.trace.TraceSink` is active, every
span boundary, counter delta and event is additionally forwarded to
it; with no sink attached the forwarding cost is a single module-
global ``None`` check.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "Registry",
    "SpanHandle",
    "Stopwatch",
    "counter",
    "event",
    "get_registry",
    "scoped",
    "span",
    "stopwatch",
]

#: Ring-buffer capacity of :attr:`Registry._events` (see class docs).
DEFAULT_MAX_EVENTS = 10_000

#: The active streaming trace sink (or None).  Owned by
#: :mod:`repro.obs.trace`; the registry only ever *reads* it, so the
#: disabled fast path is one global load + ``is None`` test.
_trace_sink = None


def _set_trace_sink(sink) -> None:
    """Install (or clear, with None) the streaming trace sink.

    Called by :func:`repro.obs.trace.start_trace` / ``stop_trace``
    only; keeping the setter here avoids an import cycle while letting
    every registry share one sink.
    """
    global _trace_sink
    _trace_sink = sink


class Stopwatch:
    """A monotonic stopwatch: ``elapsed`` seconds since creation/reset."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def reset(self) -> None:
        """Restart the stopwatch."""
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds elapsed on the monotonic clock."""
        return time.perf_counter() - self._start


class SpanHandle:
    """Yielded by :meth:`Registry.span`; usable during and after."""

    __slots__ = ("path", "seconds")

    def __init__(self, path: str) -> None:
        self.path = path
        #: Filled in when the span closes.
        self.seconds = 0.0


class Registry:
    """A collection of hierarchical timers, counters and events."""

    def __init__(self, name: str = "default",
                 max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.name = name
        #: span path -> [total_seconds, count, max_seconds]
        self._timers: Dict[str, List[float]] = {}
        self._counters: Dict[str, int] = {}
        self._events: Deque[Dict[str, Any]] = deque()
        self._max_events = max_events
        self._local = threading.local()
        self._epoch = time.perf_counter()
        #: Wall-clock instant of ``_epoch`` — the cross-process
        #: alignment anchor (events are stored at monotonic offsets
        #: from ``_epoch``; ``epoch_wall + at`` is a wall-clock time).
        self.epoch_wall = time.time()

    def _span_stack(self) -> List[str]:
        """This thread's span-nesting stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[SpanHandle]:
        """Time a block under ``name``, nested below any active span
        *of the current thread*."""
        stack = self._span_stack()
        path = f"{stack[-1]}/{name}" if stack else name
        stack.append(path)
        handle = SpanHandle(path)
        sink = _trace_sink
        if sink is not None:
            sink.span_begin(path, name)
        start = time.perf_counter()
        try:
            yield handle
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            handle.seconds = elapsed
            stat = self._timers.get(path)
            if stat is None:
                self._timers[path] = [elapsed, 1, elapsed]
            else:
                stat[0] += elapsed
                stat[1] += 1
                if elapsed > stat[2]:
                    stat[2] = elapsed
            sink = _trace_sink
            if sink is not None:
                sink.span_end(path, name, elapsed)

    def counter(self, name: str, delta: int = 1) -> int:
        """Add ``delta`` to counter ``name``; returns the new value."""
        value = self._counters.get(name, 0) + delta
        self._counters[name] = value
        sink = _trace_sink
        if sink is not None:
            sink.counter(name, delta, value)
        return value

    def event(self, name: str, **fields: Any) -> None:
        """Append a trace event (monotonic ``at`` seconds since the
        registry was created, plus arbitrary JSON-safe fields)."""
        record: Dict[str, Any] = {
            "name": name,
            "at": time.perf_counter() - self._epoch,
        }
        stack = self._span_stack()
        if stack:
            record["span"] = stack[-1]
        record.update(fields)
        self._append_event(record)
        sink = _trace_sink
        if sink is not None:
            sink.event(name, fields, span=record.get("span"))

    def _append_event(self, record: Dict[str, Any]) -> None:
        """Ring-buffered append: past capacity the oldest event is
        dropped and ``obs.events_dropped`` incremented."""
        events = self._events
        events.append(record)
        if len(events) > self._max_events:
            events.popleft()
            self._counters["obs.events_dropped"] = \
                self._counters.get("obs.events_dropped", 0) + 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def timer_seconds(self, path: str) -> float:
        """Total seconds accumulated under span ``path`` (0 if unused)."""
        stat = self._timers.get(path)
        return stat[0] if stat else 0.0

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never touched)."""
        return self._counters.get(name, 0)

    @property
    def events(self) -> Deque[Dict[str, Any]]:
        """The recorded event ring (live deque; treat as read-only)."""
        return self._events

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ring buffer since the last reset."""
        return self._counters.get("obs.events_dropped", 0)

    def snapshot(self) -> Dict[str, Any]:
        """A plain-JSON view of the whole registry.

        ``epoch`` is the wall-clock instant at which this registry's
        monotonic clock started: ``epoch + event["at"]`` is an
        absolute wall-clock time, which is what lets
        :meth:`merge_snapshot` align snapshots taken in different
        processes onto one timeline.
        """
        return {
            "name": self.name,
            "epoch": self.epoch_wall,
            "timers": {
                path: {"total_s": stat[0], "count": stat[1],
                       "max_s": stat[2]}
                for path, stat in sorted(self._timers.items())
            },
            "counters": dict(sorted(self._counters.items())),
            "events": list(self._events),
            "events_dropped": self._counters.get("obs.events_dropped",
                                                 0),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "Registry":
        """Rebuild a registry from :meth:`snapshot` output."""
        reg = cls(data.get("name", "default"))
        if "epoch" in data:
            reg.epoch_wall = data["epoch"]
        for path, stat in data.get("timers", {}).items():
            reg._timers[path] = [stat["total_s"], stat["count"],
                                 stat["max_s"]]
        reg._counters.update(data.get("counters", {}))
        reg._events.extend(data.get("events", []))
        return reg

    def merge_snapshot(self, data: Dict[str, Any],
                       prefix: str = "") -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The aggregation half of the process-pool protocol
        (:mod:`repro.parallel`): workers run under their own scoped
        registry, ship the snapshot home, and the parent merges it
        here.  Timer paths and counter names gain ``prefix/``; timer
        totals/counts add up and maxima combine.  Events are appended
        with a ``source`` field naming the prefix (or, without a
        prefix, the originating registry's name) and — when the
        snapshot carries a wall-clock ``epoch`` — their ``at``
        offsets are rebased onto *this* registry's epoch, so worker
        events land at their true position on the parent's timeline
        (monotonic clocks do not compare across processes, but the
        wall-clock epochs recorded next to them do).
        """
        pre = f"{prefix.rstrip('/')}/" if prefix else ""
        for path, stat in data.get("timers", {}).items():
            merged = self._timers.get(pre + path)
            if merged is None:
                self._timers[pre + path] = [stat["total_s"],
                                            stat["count"],
                                            stat["max_s"]]
            else:
                merged[0] += stat["total_s"]
                merged[1] += stat["count"]
                if stat["max_s"] > merged[2]:
                    merged[2] = stat["max_s"]
        for name, value in data.get("counters", {}).items():
            # Direct bump, NOT self.counter(): the worker already
            # streamed these deltas to its own trace file, so
            # forwarding them again here would double-count every
            # worker counter in a stitched timeline.
            key = pre + name
            self._counters[key] = self._counters.get(key, 0) + value
        source = prefix or data.get("name", "unknown")
        shift: Optional[float] = None
        their_epoch = data.get("epoch")
        if their_epoch is not None:
            shift = their_epoch - self.epoch_wall
        for ev in data.get("events", []):
            record = dict(ev)
            record["source"] = source
            if shift is not None and "at" in record:
                record["at"] = record["at"] + shift
            self._append_event(record)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot serialized as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_markdown(self) -> str:
        """Timers and counters rendered as markdown tables."""
        lines = [f"### Instrumentation — `{self.name}`", ""]
        if self._timers:
            lines += ["| span | total (s) | calls | max (s) |",
                      "|---|---:|---:|---:|"]
            for path, stat in sorted(self._timers.items()):
                lines.append(f"| `{path}` | {stat[0]:.4f} | {stat[1]} "
                             f"| {stat[2]:.4f} |")
            lines.append("")
        if self._counters:
            lines += ["| counter | value |", "|---|---:|"]
            for name, value in sorted(self._counters.items()):
                lines.append(f"| `{name}` | {value} |")
            lines.append("")
        if not self._timers and not self._counters:
            lines.append("(empty)")
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop all recorded data (active span paths survive)."""
        self._timers.clear()
        self._counters.clear()
        self._events.clear()
        self._epoch = time.perf_counter()
        self.epoch_wall = time.time()


#: The process-global default registry.
_default = Registry("global")
_current = _default

#: The active :func:`scoped` registries, oldest first.  Exits remove
#: *their own* entry — not necessarily the top — and re-point
#: ``_current`` at the remaining top, so overlapping scopes from
#: different threads cannot restore an already-exited registry out
#: of order (A exits while B is active: records keep flowing to B,
#: and B's exit falls through to the global registry, never to A's
#: dead one).
_scope_stack: List[Registry] = []

#: Protects ``_scope_stack``/``_current`` against torn or interleaved
#: updates from concurrent :func:`scoped` enters/exits.
_swap_lock = threading.Lock()


def get_registry() -> Registry:
    """The currently-active registry (the global one unless scoped)."""
    return _current


@contextmanager
def scoped(registry: Optional[Registry] = None) -> Iterator[Registry]:
    """Swap in a fresh (or the given) registry for the dynamic extent.

    Everything instrumented inside the block records into the scoped
    registry; on exit the most recent still-active scope (or the
    global registry) becomes current again.  This is how tests and
    benchmarks isolate their measurements from the global
    accumulator.  The *scope* is process-global — a worker thread
    running during the block records into the scoped registry too.
    Overlapping scopes from different threads are safe in the sense
    that an out-of-order exit can never reinstate an already-exited
    registry (see ``_scope_stack``), though with overlap the blocks
    share whichever registry is innermost rather than each seeing
    their own.
    """
    global _current
    reg = registry if registry is not None else Registry("scoped")
    with _swap_lock:
        _scope_stack.append(reg)
        _current = reg
    try:
        yield reg
    finally:
        with _swap_lock:
            for i in range(len(_scope_stack) - 1, -1, -1):
                if _scope_stack[i] is reg:
                    del _scope_stack[i]
                    break
            _current = _scope_stack[-1] if _scope_stack else _default


def span(name: str):
    """``with obs.span("engine/phase"):`` on the active registry."""
    return _current.span(name)


def counter(name: str, delta: int = 1) -> int:
    """Bump a counter on the active registry."""
    return _current.counter(name, delta)


def event(name: str, **fields: Any) -> None:
    """Record a trace event on the active registry."""
    _current.event(name, **fields)


def stopwatch() -> Stopwatch:
    """A fresh monotonic :class:`Stopwatch`."""
    return Stopwatch()
