"""The benchmark's four workloads, one fresh interpreter per pass.

    PYTHONPATH=src python perf/workloads.py WORKLOAD --seed S --t0 T
        [--traced] [--setup-only] [--inject LAYER=FRACTION]

``perf/run.py`` starts this script once per pass and reads the JSON
object it prints as its last line of output.  ``--t0`` is the
``time.monotonic()`` reading of the parent just before it started this
interpreter (CLOCK_MONOTONIC, shared by all processes on Linux), so
``setup_s`` covers interpreter start, imports and input generation up
to the first workload call.

Every workload goes through the public API and checks every output
against ``perf/expected.json``:

* ``table1`` / ``table2_jobs2`` — the rendered ``format_table`` text
  must match byte for byte; one operation is one design × pipeline
  cell.
* ``prove`` / ``prove_cert`` — status, method and bound of each of the
  15 properties; one operation is one property.  An unknown or
  degraded verdict, or a failed certificate, also fails it.

The seed only reorders the work (see ``perf/README.md``): the same
seed gives the same order, and every order gives the same outputs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import re
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")

#: Table workloads: generator module, scale, jobs, title (the CLI's),
#: and whether the seed may reorder the designs.  Table 2 keeps the
#: CLI's design order: on the pool the order decides when the longest
#: row starts, which alone moves wall time by about a quarter.
TABLES = {
    "table1": ("repro.gen.iscas89", 0.5, 1,
               "Table 1: ISCAS89 (profile-synthesized)", True),
    "table2_jobs2": ("repro.gen.gp", 0.25, 2,
                     "Table 2: GP (profile-synthesized, phase-abstracted)",
                     False),
}
MAX_REGISTERS = 400

#: The prove workloads' properties: (name, constructor, arguments).
#: Generated designs contribute their first two targets.
PROPERTIES: Tuple[Tuple[str, str, tuple], ...] = (
    tuple((f"arbiter{n}", "round_robin_arbiter", (n,)) for n in range(3, 8))
    + tuple((f"fifo{d}x{w}", "fifo_with_flags", (d, w))
            for d, w in ((3, 2), (7, 4), (15, 2)))
    + tuple((f"credit{c}", "credit_channel", (c,)) for c in (3, 7, 15))
    + tuple((f"{design}[{i}]", design, (i,))
            for design in ("S641", "S953") for i in range(2))
)
PROVE_SCALE = 0.5

Check = Tuple[int, List[str]]


class Workload:
    """One workload: ``call()`` does the measured work; ``check``
    turns its output into (operations attempted, failure messages)."""

    def __init__(self, call: Callable[[], Any],
                 check: Callable[[Any, Dict[str, Any]], Check],
                 render: Callable[[Any], Any],
                 layers: Optional[Sequence[str]] = None) -> None:
        self.call = call
        self.check = check
        self.render = render
        #: Layers observable by the traced pass (None = all).
        self.layers = layers


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
_CELL = re.compile(r"(\d+)/(\d+) *;")


def check_table(text: str, expected: Optional[str]) -> Check:
    """Compare a rendered table with the recorded one, cell by cell.

    Also enforces the invariants any correct table has: no error
    cells, and Σ |T'| never decreasing along Original → COM →
    COM,RET,COM.
    """
    failures: List[str] = []
    lines = text.splitlines()
    body = [line.split("|") for line in lines[5:]]
    sigma = body[-1] if body else []
    for row in body:
        for cell in row[1:]:
            if "!!" in cell:
                failures.append(f"{row[0].strip()}: error cell "
                                f"{cell.strip()!r}")
    useful = [int(m.group(1)) for m in
              (_CELL.search(cell) for cell in sigma[1:]) if m]
    if useful != sorted(useful):
        failures.append(f"Σ |T'| decreases along the pipelines: {useful}")
    if expected is None:
        failures.append("no expected table recorded")
        return 3 * max(0, len(body) - 1), failures
    want_lines = expected.splitlines()
    want_body = [line.split("|") for line in want_lines[5:]]
    if lines[:5] != want_lines[:5]:
        failures.append("table header differs")
    got = {row[0].strip(): row[1:] for row in body}
    for want in want_body:
        name = want[0].strip()
        cells = got.get(name)
        if cells is None:
            failures.append(f"{name}: row missing")
            continue
        for column, (a, b) in enumerate(zip(cells, want[1:])):
            if a != b:
                failures.append(f"{name} column {column}: got "
                                f"{a.strip()!r}, want {b.strip()!r}")
    extra = set(got) - {row[0].strip() for row in want_body}
    failures.extend(f"{name}: unexpected row" for name in sorted(extra))
    return 3 * max(0, len(want_body) - 1), failures


def _table(name: str, seed: int) -> Workload:
    from repro.experiments import runner

    module_name, scale, jobs, title, reorder = TABLES[name]
    gen = importlib.import_module(module_name)
    profiles = gen.profiles()
    order = list(profiles)
    if reorder and seed:
        random.Random(seed).shuffle(order)
    rank = {p.name: i for i, p in enumerate(profiles)}

    def call():
        return runner.run_table(gen.generate, order, scale=scale,
                                max_registers=MAX_REGISTERS, jobs=jobs)

    def render(rows):
        return runner.format_table(sorted(rows, key=lambda r: rank[r.name]),
                                   title)

    def check(rows, expected):
        return check_table(render(rows),
                           expected.get("tables", {}).get(name))

    return Workload(call, check, render,
                    layers=("parallel",) if jobs > 1 else None)


# ----------------------------------------------------------------------
# prove / prove_cert
# ----------------------------------------------------------------------
def check_verdicts(verdicts: Dict[str, Dict[str, Any]],
                   expected: Optional[Dict[str, List[Any]]],
                   certified: bool) -> Check:
    """Compare per-property verdicts with the recorded ones."""
    failures: List[str] = []
    for name, got in verdicts.items():
        if got["status"] == "unknown" or got["degraded"]:
            failures.append(f"{name}: undecided ({got['method']})")
        if got["cert_failed"]:
            failures.append(f"{name}: {got['cert_failed']} failed "
                            "certificate(s)")
        if certified and got["method"] != "transformation" \
                and not got["cert_checked"]:
            failures.append(f"{name}: verdict was not certified")
    if expected is None:
        failures.append("no expected verdicts recorded")
        return len(verdicts), failures
    for name, want in expected.items():
        got = verdicts.get(name)
        if got is None:
            failures.append(f"{name}: not run")
        elif [got["status"], got["method"], got["bound"]] != list(want):
            failures.append(f"{name}: got {got['status']}/"
                            f"{got['method']}/{got['bound']}, want "
                            f"{'/'.join(str(w) for w in want)}")
    return len(expected), failures


def make_properties() -> List[Tuple[str, Any, int]]:
    """Build the 15 (name, netlist, target) properties."""
    from repro.gen import iscas89, protocols

    props = []
    designs: Dict[str, Any] = {}
    for name, ctor, ctor_args in PROPERTIES:
        if hasattr(protocols, ctor):
            net, target = getattr(protocols, ctor)(*ctor_args)
        else:
            if ctor not in designs:
                designs[ctor] = iscas89.generate(ctor, scale=PROVE_SCALE)
            net = designs[ctor]
            target = net.targets[ctor_args[0]]
        props.append((name, net, target))
    return props


def _prove(certified: bool, seed: int) -> Workload:
    import repro.core
    from repro import cert, obs

    props = make_properties()
    if seed:
        random.Random(seed).shuffle(props)

    def call():
        reg = obs.get_registry()
        verdicts = {}
        with cert.use_certification(certified):
            for name, net, target in props:
                failed = reg.counter_value("cert.failed")
                checked = reg.counter_value("cert.checked")
                result = repro.core.prove(net, target)
                verdicts[name] = {
                    "status": result.status, "method": result.method,
                    "bound": result.bound, "degraded": result.degraded,
                    "cert_failed": reg.counter_value("cert.failed") - failed,
                    "cert_checked":
                        reg.counter_value("cert.checked") - checked,
                }
        return verdicts

    def render(verdicts):
        return {name: [v["status"], v["method"], v["bound"]]
                for name, v in sorted(verdicts.items())}

    def check(verdicts, expected):
        return check_verdicts(verdicts, expected.get("properties"),
                              certified)

    return Workload(call, check, render)


SETUPS: Dict[str, Callable[[int], Workload]] = {
    "table1": lambda seed: _table("table1", seed),
    "table2_jobs2": lambda seed: _table("table2_jobs2", seed),
    "prove": lambda seed: _prove(False, seed),
    "prove_cert": lambda seed: _prove(True, seed),
}


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """User+sys CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of the largest process (this one or a child), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def parse_inject(spec: Optional[str]) -> Dict[str, float]:
    """``LAYER=FRACTION`` → ``{LAYER: FRACTION}``."""
    if not spec:
        return {}
    layer, _, fraction = spec.partition("=")
    if layer not in layers.LAYERS:
        raise ValueError(f"unknown layer {layer!r} (one of "
                         f"{', '.join(layers.LAYERS)})")
    value = float(fraction)
    if not 0.0 < value <= 10.0:
        raise ValueError(f"inject fraction must be in (0, 10], got {value}")
    return {layer: value}


def run_pass(name: str, seed: int, t0: float, traced: bool = False,
             setup_only: bool = False,
             inject: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """Set up and run one workload once; returns the pass record."""
    workload = SETUPS[name](seed)
    record: Dict[str, Any] = {"workload": name, "seed": seed,
                              "traced": traced}
    setup_s = record["setup_s"] = time.monotonic() - t0
    if setup_only:
        return record
    from repro import obs

    tracer = bindings = None
    if traced or inject:
        tracer = layers.Tracer(inject=inject)
        bindings = layers.install(
            tracer, (workload.layers or list(layers.LAYERS)) if traced
            else list(inject))
    cpu = _cpu_seconds()
    try:
        with obs.scoped(obs.Registry("perf")) as reg:
            start = time.perf_counter()
            if traced:
                output = tracer.root(workload.call)
            else:
                output = workload.call()
            wall = time.perf_counter() - start
    finally:
        if bindings:
            layers.restore(bindings)
    cpu = _cpu_seconds() - cpu
    counters = reg.snapshot()["counters"]
    try:
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        expected = {}
    attempted, failures = workload.check(output, expected)
    record.update(
        wall_s=tracer.wall_s if traced else wall,
        cpu_s=cpu, peak_rss_mb=_peak_rss_mb(), attempted=attempted,
        failed=len(failures), failures=failures[:20],
        output=workload.render(output))
    if traced:
        record["layers"] = layers.layer_metrics(tracer, counters)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}.trace.jsonl")
        layers.write_trace(tracer, path, role=name)
        record["trace"] = os.path.relpath(path, os.path.dirname(HERE))
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", default=None)
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.t0,
                      traced=args.traced, setup_only=args.setup_only,
                      inject=parse_inject(args.inject))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
