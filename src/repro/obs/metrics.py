"""Streaming, mergeable distribution metrics and the per-query ledger.

PR 1 gave the repo *totals* (spans and counters) and PR 5 gave it
*timelines* (streaming JSONL traces).  Neither can answer the
questions a production service gets asked: "what is the p95 solve
latency?", "which query burned the budget?", "did the tail regress?".
This module adds the missing distribution layer — pure stdlib, and
zero-cost when disabled, like the trace layer before it:

* :class:`Histogram` — fixed **log-bucket** histograms.  A value ``v``
  lands in bucket ``floor(log10(v) * BUCKETS_PER_DECADE)``; with
  :data:`BUCKETS_PER_DECADE` = 10 each bucket spans ~25.9% of its
  lower bound, giving better-than-±13% quantile resolution over any
  dynamic range with a handful of occupied buckets.  Because the
  bucket boundaries are *fixed* (not adaptive), merging two
  histograms is plain bucket-wise addition — associative,
  commutative, and lossless at bucket granularity — so worker
  histograms fold into the parent with no re-sampling error and a
  jobs=4 run quantizes identically to jobs=1.  Quantiles
  (:meth:`Histogram.quantile`) are computed from the buckets plus the
  exact ``count``/``min``/``max``, never from the float ``sum``, so
  split/merge order cannot perturb them.
* :class:`Gauge` — last value plus min/max/n envelope.
* :class:`RateMeter` — a monotonically growing count anchored to the
  wall-clock window ``[first, last]`` in which it grew; merging takes
  the union window, so a cross-worker rate stays honest.
* :class:`Ledger` — a bounded ring of **per-query records**: one dict
  per SAT solve / engine call with engine, frame/k, verdict,
  conflict/propagation deltas, wall seconds, budget charged, and
  cert outcome.  The ring keeps the most recent
  :data:`DEFAULT_LEDGER_CAP` records and counts what it evicts, so a
  week-long run keeps bounded memory but the report can still say
  "top-5 slowest queries" and how much it did not see.

All four live in a :class:`MetricsStore` attached lazily to a
:class:`~repro.obs.registry.Registry`; the store rides the existing
``snapshot()`` / ``merge_snapshot()`` protocol (a ``"metrics"``
section), so `ParallelExecutor` and the work-stealing engine merge
worker metrics with **no new plumbing**: histograms, gauges and
meters merge *un-prefixed* (globally additive, like the ``cert.*``
counters), while ledger records gain a ``source`` tag naming the
worker that produced them.

Recording is gated by ``REPRO_METRICS`` / :func:`use_metrics` with
the same one-global-load fast path as the trace sink: every helper
begins ``if not _enabled: return``, and hot callers (``Solver.solve``)
guard with a single module-attribute load.  When a streaming trace is
active, ledger records additionally flow into the trace file as
``"Q"`` records, giving the stitched timeline per-query attribution.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional

from . import registry as _registry_mod
from .registry import get_registry

__all__ = [
    "BUCKETS_PER_DECADE",
    "DEFAULT_LEDGER_CAP",
    "METRICS_ENV",
    "Gauge",
    "Histogram",
    "Ledger",
    "MetricsStore",
    "RateMeter",
    "bucket_bounds",
    "bucket_index",
    "current_context",
    "gauge_set",
    "mark",
    "metrics_enabled",
    "metrics_store",
    "observe",
    "query_context",
    "record_query",
    "set_metrics_enabled",
    "use_metrics",
]

#: Environment variable enabling metrics collection ("1"/"true"/...).
METRICS_ENV = "REPRO_METRICS"

#: Log-bucket resolution: 10 buckets per decade = bucket width ratio
#: ``10**0.1`` ~ 1.259 (each bucket spans ~26% of its lower bound).
BUCKETS_PER_DECADE = 10

#: Ring capacity of :class:`Ledger` (most recent records win).
DEFAULT_LEDGER_CAP = 512

_enabled = os.environ.get(METRICS_ENV, "").strip().lower() \
    not in ("", "0", "false", "off", "no")


def metrics_enabled() -> bool:
    """Whether metric recording is currently on."""
    return _enabled


def set_metrics_enabled(enabled: bool) -> bool:
    """Set the global metrics toggle; returns the previous value.

    Exports (or removes) ``REPRO_METRICS`` so that worker processes
    spawned by :mod:`repro.parallel` *after* the toggle flips inherit
    it and record their shard of the distribution — without this, a
    jobs=4 run would merge empty worker histograms and under-count
    every quantile relative to jobs=1.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    if _enabled:
        os.environ[METRICS_ENV] = "1"
    else:
        os.environ.pop(METRICS_ENV, None)
    return previous


@contextmanager
def use_metrics(enabled: bool) -> Iterator[None]:
    """Scoped override of the metrics toggle (bench, tests)."""
    previous = set_metrics_enabled(enabled)
    try:
        yield
    finally:
        set_metrics_enabled(previous)


# ----------------------------------------------------------------------
# Log buckets
# ----------------------------------------------------------------------
def bucket_index(value: float) -> int:
    """The fixed log-bucket index for a positive value.

    ``value`` <= 0 is the caller's problem (the histogram routes
    non-positive observations to a dedicated zero bucket).
    """
    return math.floor(math.log10(value) * BUCKETS_PER_DECADE)


def bucket_bounds(index: int) -> "tuple[float, float]":
    """The ``[lo, hi)`` value range covered by bucket ``index``."""
    return (10.0 ** (index / BUCKETS_PER_DECADE),
            10.0 ** ((index + 1) / BUCKETS_PER_DECADE))


class Histogram:
    """A fixed log-bucket histogram with exact count/min/max envelope.

    Mergeable by design: bucket boundaries never move, so
    :meth:`merge` is bucket-wise addition and quantiles computed
    after any split/merge order equal the single-recorder ones
    (``sum`` is the one float accumulator and is only ever used for
    the mean, never for quantiles).
    """

    __slots__ = ("buckets", "zero", "count", "sum", "min", "max")

    def __init__(self) -> None:
        #: bucket index -> observation count (positive values only)
        self.buckets: Dict[int, int] = {}
        #: observations <= 0 (telemetry should not crash on a clamp)
        self.zero = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0.0:
            idx = bucket_index(value)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.zero += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimated from the buckets.

        Walks the cumulative bucket counts to the bucket holding rank
        ``q * (count - 1)``, then interpolates linearly inside that
        bucket's fixed bounds, clamped to the exact observed
        ``[min, max]``.  Uses only merge-exact state (buckets, count,
        min, max), so the estimate is identical no matter how the
        histogram was split and re-merged.
        """
        if self.count == 0:
            return 0.0
        if self.min is not None and self.min == self.max:
            return self.min
        rank = q * (self.count - 1)
        cum = 0
        if self.zero:
            if rank < self.zero:
                return max(0.0, self.min or 0.0)
            cum = self.zero
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            if rank < cum + n:
                lo, hi = bucket_bounds(idx)
                frac = (rank - cum) / n
                value = lo + (hi - lo) * frac
                if self.min is not None:
                    value = max(value, self.min)
                if self.max is not None:
                    value = min(value, self.max)
                return value
            cum += n
        return self.max if self.max is not None else 0.0

    def quantiles(self, qs=(0.50, 0.90, 0.99)) -> Dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` in one pass."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in qs}

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in (bucket-wise addition; envelopes union)."""
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero += other.zero
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    def to_snapshot(self) -> Dict[str, Any]:
        """Plain-JSON form (bucket keys stringified, sorted numerically)."""
        data: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "zero": self.zero,
            "buckets": {str(i): self.buckets[i]
                        for i in sorted(self.buckets)},
        }
        if self.min is not None:
            data["min"] = self.min
            data["max"] = self.max
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`to_snapshot` output."""
        hist = cls()
        hist.count = int(data.get("count", 0))
        hist.sum = float(data.get("sum", 0.0))
        hist.zero = int(data.get("zero", 0))
        hist.min = data.get("min")
        hist.max = data.get("max")
        for key, n in data.get("buckets", {}).items():
            hist.buckets[int(key)] = int(n)
        return hist


class Gauge:
    """Last-value-wins gauge with a min/max/n envelope."""

    __slots__ = ("value", "min", "max", "n")

    def __init__(self) -> None:
        self.value = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.n = 0

    def set(self, value: float) -> None:
        """Record the current level of the tracked quantity."""
        value = float(value)
        self.value = value
        self.n += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Gauge") -> None:
        """Union the envelopes; ``value`` keeps the larger-n side's
        last write (workers finish after the parent recorded, and
        "some recent value" is all a merged gauge can promise)."""
        if other.n > self.n:
            self.value = other.value
        self.n += other.n
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    def to_snapshot(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"value": self.value, "n": self.n}
        if self.min is not None:
            data["min"] = self.min
            data["max"] = self.max
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "Gauge":
        g = cls()
        g.value = float(data.get("value", 0.0))
        g.n = int(data.get("n", 0))
        g.min = data.get("min")
        g.max = data.get("max")
        return g


class RateMeter:
    """An event count anchored to the wall-clock window it grew in.

    ``rate()`` is count / (last - first).  Merging unions the
    windows (min first, max last) and adds the counts, so a rate
    computed across workers reflects the true concurrent window
    rather than summing per-worker rates (which would over-count
    overlap).
    """

    __slots__ = ("count", "first", "last")

    def __init__(self) -> None:
        self.count = 0
        self.first: Optional[float] = None
        self.last: Optional[float] = None

    def mark(self, n: int = 1) -> None:
        """Record ``n`` events now."""
        now = time.time()
        self.count += n
        if self.first is None:
            self.first = now
        self.last = now

    def rate(self) -> float:
        """Events per second over the observed window (0 if degenerate)."""
        if self.first is None or self.last is None:
            return 0.0
        window = self.last - self.first
        if window <= 0.0:
            return 0.0
        return self.count / window

    def merge(self, other: "RateMeter") -> None:
        self.count += other.count
        if other.first is not None and (self.first is None
                                        or other.first < self.first):
            self.first = other.first
        if other.last is not None and (self.last is None
                                       or other.last > self.last):
            self.last = other.last

    def to_snapshot(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"count": self.count}
        if self.first is not None:
            data["first"] = self.first
            data["last"] = self.last
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "RateMeter":
        m = cls()
        m.count = int(data.get("count", 0))
        m.first = data.get("first")
        m.last = data.get("last")
        return m


class Ledger:
    """A bounded ring of per-query records (most recent win).

    Records are plain dicts — the canonical fields are ``engine``,
    ``frame``/``k``, ``verdict``, ``conflicts``, ``propagations``,
    ``decisions``, ``seconds``, ``budget_charged``, ``cert`` — but
    the ring stores whatever the caller hands it, so engines can
    attach what only they know.  Past capacity the oldest
    record is evicted and ``dropped`` incremented (merges included),
    mirroring the registry's event ring.
    """

    __slots__ = ("records", "cap", "dropped")

    def __init__(self, cap: int = DEFAULT_LEDGER_CAP) -> None:
        self.records: Deque[Dict[str, Any]] = deque()
        self.cap = cap
        self.dropped = 0

    def record(self, entry: Dict[str, Any]) -> None:
        """Append one query record, evicting the oldest past capacity."""
        self.records.append(entry)
        if len(self.records) > self.cap:
            self.records.popleft()
            self.dropped += 1

    def top(self, n: int = 5, key: str = "seconds") -> List[Dict[str, Any]]:
        """The ``n`` records with the largest ``key`` (missing = 0)."""
        return sorted(self.records,
                      key=lambda r: r.get(key) or 0,
                      reverse=True)[:n]

    def merge(self, other_snapshot: Dict[str, Any],
              source: str = "") -> None:
        """Fold a worker ledger snapshot in, tagging each record with
        ``source`` and accounting evictions on both sides."""
        self.dropped += int(other_snapshot.get("dropped", 0))
        for rec in other_snapshot.get("records", []):
            entry = dict(rec)
            if source and "source" not in entry:
                entry["source"] = source
            self.record(entry)

    def to_snapshot(self) -> Dict[str, Any]:
        return {
            "cap": self.cap,
            "dropped": self.dropped,
            "records": list(self.records),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "Ledger":
        led = cls(int(data.get("cap", DEFAULT_LEDGER_CAP)))
        led.dropped = int(data.get("dropped", 0))
        led.records.extend(data.get("records", []))
        return led


class MetricsStore:
    """All metric instruments of one registry, keyed by name.

    Thread-safe at the instrument-map level (concurrent first-touch
    of the same name races to one instance); individual observations
    are dict/int updates under the GIL, matching the registry's own
    locking discipline.
    """

    __slots__ = ("_histograms", "_gauges", "_meters", "ledger", "_lock")

    def __init__(self, ledger_cap: int = DEFAULT_LEDGER_CAP) -> None:
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._meters: Dict[str, RateMeter] = {}
        self.ledger = Ledger(ledger_cap)
        self._lock = threading.Lock()

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(name, Histogram())
        return hist

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def meter(self, name: str) -> RateMeter:
        """The rate meter called ``name`` (created on first use)."""
        m = self._meters.get(name)
        if m is None:
            with self._lock:
                m = self._meters.setdefault(name, RateMeter())
        return m

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON view with deterministically sorted keys."""
        return {
            "histograms": {name: self._histograms[name].to_snapshot()
                           for name in sorted(self._histograms)},
            "gauges": {name: self._gauges[name].to_snapshot()
                       for name in sorted(self._gauges)},
            "meters": {name: self._meters[name].to_snapshot()
                       for name in sorted(self._meters)},
            "ledger": self.ledger.to_snapshot(),
        }

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "MetricsStore":
        """Rebuild a store from :meth:`snapshot` output."""
        store = cls()
        for name, h in data.get("histograms", {}).items():
            store._histograms[name] = Histogram.from_snapshot(h)
        for name, g in data.get("gauges", {}).items():
            store._gauges[name] = Gauge.from_snapshot(g)
        for name, m in data.get("meters", {}).items():
            store._meters[name] = RateMeter.from_snapshot(m)
        if "ledger" in data:
            store.ledger = Ledger.from_snapshot(data["ledger"])
        return store

    def merge(self, data: Dict[str, Any], source: str = "") -> None:
        """Fold a snapshot in: histograms/gauges/meters merge
        *un-prefixed* under their own names (bucket-wise / envelope
        union — the whole point of fixed buckets), ledger records
        gain a ``source`` tag."""
        for name, h in data.get("histograms", {}).items():
            self.histogram(name).merge(Histogram.from_snapshot(h))
        for name, g in data.get("gauges", {}).items():
            self.gauge(name).merge(Gauge.from_snapshot(g))
        for name, m in data.get("meters", {}).items():
            self.meter(name).merge(RateMeter.from_snapshot(m))
        if "ledger" in data:
            self.ledger.merge(data["ledger"], source=source)


# ----------------------------------------------------------------------
# Registry attachment
# ----------------------------------------------------------------------
def metrics_store(reg=None, create: bool = True) -> Optional[MetricsStore]:
    """The :class:`MetricsStore` of ``reg`` (default: active registry).

    Created lazily on first use so registries that never record a
    metric carry no store (and no ``"metrics"`` snapshot section).
    Pass ``create=False`` to peek without creating.
    """
    if reg is None:
        reg = get_registry()
    store = getattr(reg, "_metrics", None)
    if store is None and create:
        store = MetricsStore()
        reg._metrics = store
    return store


# ----------------------------------------------------------------------
# Query context: thread-local attribution for ledger records
# ----------------------------------------------------------------------
_context = threading.local()


def _context_stack() -> List[Dict[str, Any]]:
    stack = getattr(_context, "stack", None)
    if stack is None:
        stack = _context.stack = []
    return stack


@contextmanager
def query_context(engine: str, **fields: Any) -> Iterator[None]:
    """Tag every ledger record made by this thread inside the block.

    Engines push their identity (``engine="bmc", frame=7``) around
    solver calls; ``Solver.solve`` reads the innermost context when
    it writes its ledger record, so per-solve records carry the
    caller that issued them without threading arguments through
    every layer.  Contexts nest: inner fields override outer ones.
    When metrics are disabled this is a no-op (nothing reads the
    stack), but the push itself is cheap enough to run unguarded.
    """
    if not _enabled:
        yield
        return
    stack = _context_stack()
    merged = dict(stack[-1]) if stack else {}
    merged["engine"] = engine
    for key, value in fields.items():
        if value is not None:
            merged[key] = value
    stack.append(merged)
    try:
        yield
    finally:
        stack.pop()


def current_context() -> Dict[str, Any]:
    """The innermost query context of this thread (``{}`` outside)."""
    stack = getattr(_context, "stack", None)
    return dict(stack[-1]) if stack else {}


# ----------------------------------------------------------------------
# Recording helpers (module-level, active-registry, gated)
# ----------------------------------------------------------------------
def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op when disabled)."""
    if not _enabled:
        return
    metrics_store().histogram(name).observe(value)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge level (no-op when disabled)."""
    if not _enabled:
        return
    metrics_store().gauge(name).set(value)


def mark(name: str, n: int = 1) -> None:
    """Mark ``n`` events on a rate meter (no-op when disabled)."""
    if not _enabled:
        return
    metrics_store().meter(name).mark(n)


def record_query(**fields: Any) -> None:
    """Append one per-query ledger record (no-op when disabled).

    Merges the thread's :func:`query_context` under the explicit
    fields (explicit wins), drops ``None`` values, and — when a
    streaming trace sink is active — forwards the record as a ``"Q"``
    trace record so stitched timelines carry query attribution.
    """
    if not _enabled:
        return
    entry = current_context()
    for key, value in fields.items():
        if value is not None:
            entry[key] = value
    metrics_store().ledger.record(entry)
    sink = _registry_mod._trace_sink
    if sink is not None:
        sink.query(entry)
