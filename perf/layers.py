"""Per-layer timing of the repro pipeline, measured from outside it.

Each layer is one ``src/repro`` module.  :func:`install` wraps that
module's public entry points by replacing *every* binding of the
function object across the loaded ``repro.*`` modules and classes:
several names are imported by value (``core.engine`` binds
``back_translate`` at import time, ``transform.redundancy`` binds
``random_signatures``), so patching only the defining module would
miss those calls.  No file under ``src/`` changes.

One stack of active wrapped calls gives every layer its *self* time:
a call's duration minus the durations of the wrapped calls it made
into other layers.  A wrapped call made while the same layer is
already on top of the stack (recursion, or one public function of a
layer calling another) is counted but not timed separately, so no
time is counted twice.  The workload call itself is the root frame;
its self time is ``unattributed_s``.  Hence, by construction::

    sum(layer self_s) + unattributed_s == wall_s
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: layer -> (module, attribute path) of every public call timed.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "gen": (("repro.gen.iscas89", "generate"),
            ("repro.gen.gp", "generate"),
            ("repro.gen.protocols", "round_robin_arbiter"),
            ("repro.gen.protocols", "fifo_with_flags"),
            ("repro.gen.protocols", "credit_channel")),
    "runner": (("repro.experiments.runner", "evaluate_design"),),
    "prove": (("repro.core.prove", "prove"),),
    "portfolio": (("repro.core.portfolio", "compare_strategies"),),
    "com": (("repro.transform.redundancy", "redundancy_removal"),),
    "sim": (("repro.sim.random_sim", "random_signatures"),),
    "ret": (("repro.transform.retime", "retime"),),
    "structural": (("repro.diameter.structural",
                    "StructuralAnalysis.__init__"),
                   ("repro.diameter.structural", "StructuralAnalysis.bound"),
                   ("repro.diameter.structural",
                    "StructuralAnalysis.register_profile")),
    "theory": (("repro.core.theory", "back_translate"),),
    "sat": (("repro.sat.solver", "Solver.solve"),),
    "encode": (("repro.sat.template", "FrameTemplate.stamp"),
               ("repro.sat.template", "compile_template")),
    "bmc": (("repro.unroll.bmc", "bmc"),),
    "kind": (("repro.unroll.induction", "k_induction"),),
    "cert": (("repro.cert", "certify_unsat"),
             ("repro.cert", "certify_witness")),
    "parallel": (("repro.parallel.executor", "ParallelExecutor.map"),),
}

#: metric -> registry counter.  They count work, not time, so they
#: repeat exactly from run to run (``sat.calls`` replaces the wrapper's
#: count, which misses calls made inside pool workers).
EXACT_COUNTERS = {
    "com.rounds": "com.rounds",
    "com.sat_queries": "com.sat_queries",
    "com.merges": "com.merges",
    "sat.calls": "sat.solve_calls",
    "sat.conflicts": "sat.conflicts",
    "sat.decisions": "sat.decisions",
    "sat.propagations": "sat.propagations",
    "cert.lemmas_checked": "cert.lemmas_checked",
}


class Tracer:
    """Self-time accounting over one stack of active wrapped calls.

    ``inject`` maps a layer to a fraction: every call of that layer
    busy-waits that fraction of its own duration (children included)
    before returning, inside its own frame — a synthetic slowdown the
    benchmark must detect and attribute to that layer.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 inject: Optional[Dict[str, float]] = None) -> None:
        self.clock = clock
        self.inject = dict(inject or {})
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Durations of the timed (outermost same-layer) calls.
        self.durations: Dict[str, List[float]] = {}
        #: (kind, clock time, path, duration) per frame begin/end.
        self.events: List[Tuple[str, float, str, float]] = []
        #: Per ParallelExecutor.map call: (workers, seconds, [task
        #: seconds as measured inside the workers]).
        self.maps: List[Tuple[int, float, List[float]]] = []
        self.wall_s = 0.0
        self.unattributed_s = 0.0
        self._stack: List[list] = []
        self._thread = threading.get_ident()

    def call(self, layer: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        """Run ``fn`` as one call of ``layer``."""
        if threading.get_ident() != self._thread:
            # The stack is single-threaded; calls from other threads
            # run untimed.
            return fn(*args, **kwargs)
        self.calls[layer] = self.calls.get(layer, 0) + 1
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        parent = stack[-1][1] if stack else ""
        path = f"{parent}/{layer}" if parent else layer
        start = self.clock()
        frame = [layer, path, start, 0.0]
        stack.append(frame)
        self.events.append(("B", start, path, 0.0))
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            fraction = self.inject.get(layer)
            if fraction:
                until = start + (self.clock() - start) * (1.0 + fraction)
                while self.clock() < until:
                    pass
            end = self.clock()
            stack.pop()
            duration = end - start
            self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                  + duration - frame[3])
            self.durations.setdefault(layer, []).append(duration)
            if stack:
                stack[-1][3] += duration
            self.events.append(("E", end, path, duration))
            if layer == "parallel" and result is not None:
                # ParallelExecutor.map(self, ...) -> [WorkerOutcome]
                workers = min(args[0].jobs, len(result))
                self.maps.append((workers, duration,
                                  [outcome.seconds for outcome in result]))

    def root(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run the workload call as the root frame."""
        start = self.clock()
        frame = [None, "", start, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.wall_s = self.clock() - start
            self.unattributed_s = self.wall_s - frame[3]


def _wrap(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(layer, fn, args, kwargs)

    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    wrapper.__wrapped__ = fn
    return wrapper


def _namespaces() -> List[Any]:
    """Every loaded ``repro`` module and every class defined in one."""
    spaces: List[Any] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        spaces.append(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and \
                    getattr(value, "__module__", "") == name:
                spaces.append(value)
    return spaces


Binding = Tuple[Any, str, Callable]


def install(tracer: Tracer, layers: Optional[Sequence[str]] = None
            ) -> List[Binding]:
    """Wrap the public calls of ``layers`` (default: all).

    Returns the replaced bindings; pass them to :func:`restore`.
    """
    targets: Dict[int, Tuple[Callable, Callable]] = {}
    for layer in (LAYERS if layers is None else layers):
        for module_name, attr in LAYERS[layer]:
            owner: Any = importlib.import_module(module_name)
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            fn = vars(owner)[leaf]
            targets[id(fn)] = (fn, _wrap(tracer, layer, fn))
    bindings: List[Binding] = []
    for space in _namespaces():
        for name, value in list(vars(space).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(space, name, hit[1])
                bindings.append((space, name, value))
    return bindings


def restore(bindings: Sequence[Binding]) -> None:
    """Undo :func:`install`."""
    for space, name, original in reversed(bindings):
        setattr(space, name, original)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[98]


def counter_total(counters: Dict[str, int], name: str) -> int:
    """A registry counter summed over the parent and merged workers.

    Worker snapshots merge under ``parallel/<pool>/<label>/`` prefixes;
    ``cert.*`` counters are additionally folded in un-prefixed, so for
    those the un-prefixed value is already the total.
    """
    total = counters.get(name, 0)
    if not name.startswith("cert."):
        suffix = "/" + name
        total += sum(value for key, value in counters.items()
                     if key.endswith(suffix))
    return total


def layer_metrics(tracer: Tracer, counters: Dict[str, int]
                  ) -> Dict[str, float]:
    """Every per-layer metric of one traced workload call."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        if layer == "parallel":
            continue
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    rows = tracer.durations.get("runner", [])
    out["runner.row_p50_s"] = _p50(rows)
    out["runner.row_max_s"] = max(rows, default=0.0)
    proofs = tracer.durations.get("prove", [])
    out["prove.p50_s"] = _p50(proofs)
    out["prove.max_s"] = max(proofs, default=0.0)
    for metric, name in EXACT_COUNTERS.items():
        out[metric] = counter_total(counters, name)
    out["com.merge_yield"] = (out["com.merges"] / out["com.sat_queries"]
                              if out["com.sat_queries"] else 0.0)
    solves = [d * 1e3 for d in tracer.durations.get("sat", [])]
    out["sat.call_p50_ms"] = _p50(solves)
    out["sat.call_p99_ms"] = _p99(solves)
    out["encode.compiles"] = counter_total(counters, "template.compiles")
    out["cert.failed"] = counter_total(counters, "cert.failed")
    capacity = sum(workers * wall for workers, wall, _ in tracer.maps)
    busy = sum(sum(tasks) for _, _, tasks in tracer.maps)
    out["parallel.maps"] = tracer.calls.get("parallel", 0)
    out["parallel.self_s"] = tracer.self_s.get("parallel", 0.0)
    out["parallel.wall_s"] = sum(wall for _, wall, _ in tracer.maps)
    out["parallel.busy_s"] = busy
    out["parallel.idle_s"] = capacity - busy
    out["parallel.util"] = busy / capacity if capacity else 0.0
    out["parallel.task_max_s"] = max(
        (max(tasks, default=0.0) for _, _, tasks in tracer.maps),
        default=0.0)
    out["unattributed_s"] = tracer.unattributed_s
    return out


def self_time_sum(metrics: Dict[str, float]) -> float:
    """Σ ``*.self_s`` + ``unattributed_s`` — equals the traced wall."""
    return sum(value for key, value in metrics.items()
               if key.endswith(".self_s")) + metrics["unattributed_s"]


# ----------------------------------------------------------------------
# Trace output
# ----------------------------------------------------------------------
def write_trace(tracer: Tracer, path: str, role: str = "perf") -> None:
    """Write the frames as ``repro-trace-v1`` JSONL ``B``/``E`` records.

    The output reads unchanged in ``python -m repro.tools.trace
    summary|flame`` and ``repro-report --trace``.
    """
    # Wall-clock stamps, as repro.obs.trace writes them.
    shift = time.time() - tracer.clock()
    pid = os.getpid()
    common = {"pid": pid, "tid": 1, "trace": f"perf-{pid}"}
    start = shift + (tracer.events[0][1] if tracer.events
                     else tracer.clock())
    with open(path, "w") as handle:
        handle.write(json.dumps({
            "ty": "M", "schema": "repro-trace-v1", "role": role,
            "epoch": start, "argv": list(sys.argv), "t": start,
            **common}) + "\n")
        for kind, at, frame_path, duration in tracer.events:
            record = {"ty": kind, "path": frame_path,
                      "name": frame_path.rpartition("/")[2],
                      "t": shift + at, **common}
            if kind == "E":
                record["dur"] = duration
            handle.write(json.dumps(record) + "\n")
