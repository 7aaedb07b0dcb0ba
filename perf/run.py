"""End-to-end benchmark of the repro pipeline: tables, prove, certified prove.

    PYTHONPATH=src python perf/run.py [--workload NAME]... [--seed S]
        [--repeat N | --seconds T] [--trace 0|1]
        [--inject LAYER=FRACTION] [--out FILE]

Runs each workload through the public API, every pass in a fresh
interpreter with ``REPRO_*`` removed from the environment and
``PYTHONHASHSEED`` fixed.  By default it makes 5 untraced passes and
then 1 traced pass; the order of the workloads rotates from pass to
pass, so slow drift of the machine hits all of them alike.
``--seconds T`` replaces the fixed count: untraced passes repeat while
the next one is expected to end within T seconds (at least one).

The untraced passes give the end-to-end metrics, the traced pass the
per-layer ones (see ``perf/layers.py``).  Every metric is printed by
name with its unit as ``median [q1, q3] n=…``; the last line of output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding only the end-to-end medians with ``--trace 0``, only the
per-layer metrics with ``--trace 1``, and both without ``--trace``.
The exit code is 1 when any output was wrong, 2 when the benchmark
could not run.

Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Minimum set-up samples per workload; set-up-only passes top up.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 600


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong output)."""


def load_spec(path: str = SPEC_PATH) -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads and metric definitions."""
    with open(path) as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, traced: bool = False,
              setup_only: bool = False,
              inject: Optional[str] = None) -> Dict[str, Any]:
    """One pass of ``workload`` in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    if inject:
        cmd += ["--inject", inject]
    env = _child_env()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Take down the pass and any pool workers it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def _rotate(items: Sequence[str], k: int) -> List[str]:
    k %= len(items)
    return list(items[k:]) + list(items[:k])


def run_passes(names: Sequence[str], seed: int,
               repeat: Optional[int], seconds: Optional[float],
               trace: bool, inject: Optional[str]
               ) -> Dict[str, Dict[str, Any]]:
    """All passes; returns per-workload untraced/traced/setup records."""
    runs = {name: {"passes": [], "traced": None, "setup_s": []}
            for name in names}
    start = time.monotonic()
    count = 0
    while True:
        for name in _rotate(names, count):
            record = run_child(name, seed, inject=inject)
            runs[name]["passes"].append(record)
            runs[name]["setup_s"].append(record["setup_s"])
            print(f"  pass {count + 1} {name}: wall {record['wall_s']:.3f} s"
                  f"  failed {record['failed']}/{record['attempted']}",
                  file=sys.stderr)
        count += 1
        if repeat is not None:
            if count >= repeat:
                break
        else:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / count > seconds:
                break
    if trace:
        for name in _rotate(names, count):
            runs[name]["traced"] = run_child(name, seed, traced=True,
                                             inject=inject)
    for name in names:
        while len(runs[name]["setup_s"]) < SETUP_SAMPLES:
            probe = run_child(name, seed, setup_only=True)
            runs[name]["setup_s"].append(probe["setup_s"])
    return runs


def summarize(run: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end and per-layer metrics of one workload."""
    passes = run["passes"]
    every = passes + ([run["traced"]] if run["traced"] else [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = run["setup_s"] if name == "setup_s" \
            else [p[name] for p in passes]
        q1, median, q3 = quartiles(values)
        end_to_end[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "values": values, "median": median,
            "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
        }
    summary: Dict[str, Any] = {
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": sorted({f for p in every for f in p["failures"]})[:20],
        "end_to_end": end_to_end,
        "passes": [{k: v for k, v in p.items() if k != "output"}
                   for p in passes],
    }
    traced = run["traced"]
    if traced is not None:
        measured = dict(traced["layers"])
        measured["trace_overhead"] = (traced["wall_s"]
                                      / end_to_end["wall_s"]["median"] - 1.0)
        summary["traced_wall_s"] = traced["wall_s"]
        summary["self_time_sum_s"] = layers.self_time_sum(traced["layers"])
        summary["trace"] = traced.get("trace")
        summary["per_layer"] = {
            metric["name"]: {"unit": metric["unit"],
                             "better": metric["better"],
                             "value": measured[metric["name"]]}
            for metric in spec["per_layer"]}
    return summary


def host() -> Dict[str, Any]:
    """The machine the numbers were measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(), "machine": platform.machine(),
            "cpu": cpu, "nproc": os.cpu_count()}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(summaries: Dict[str, Dict[str, Any]]) -> None:
    """Print every metric by name with its unit."""
    for name, summary in summaries.items():
        print(f"{name}: {summary['failed']} of {summary['attempted']} "
              "operations failed")
        for failure in summary["failures"]:
            print(f"  FAIL {failure}")
        print(f"  {name}.{'fail_frac':<22} {_fmt(summary['fail_frac']):>12} "
              f"{'ratio':<5} n={summary['attempted']}")
        for metric, m in summary["end_to_end"].items():
            print(f"  {name}.{metric:<22} {_fmt(m['median']):>12} "
                  f"{m['unit']:<5} [{_fmt(m['q1'])}, {_fmt(m['q3'])}] "
                  f"n={m['n']}")
        if "per_layer" in summary:
            print(f"  traced wall {_fmt(summary['traced_wall_s'])} s, "
                  f"Σ self + unattributed "
                  f"{_fmt(summary['self_time_sum_s'])} s, "
                  f"trace {summary['trace']}")
            for metric, m in summary["per_layer"].items():
                print(f"  {name}.{metric:<22} {_fmt(m['value']):>12} "
                      f"{m['unit']:<5} n=1")


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the canonical order")
    parser.add_argument("--repeat", type=int, default=None,
                        help="untraced passes (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the untraced passes instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: no traced pass, end-to-end metrics in the "
                             "JSON line; 1: one traced pass, per-layer "
                             "metrics in the JSON line (default: traced "
                             "pass, both)")
    parser.add_argument("--inject", default=None,
                        metavar="LAYER=FRACTION",
                        help="busy-wait FRACTION of each call's duration "
                             "inside LAYER (detection self-test)")
    parser.add_argument("--out", default=None,
                        help="write the full results as JSON here")
    args = parser.parse_args(argv)
    if args.repeat is not None and args.seconds is not None:
        parser.error("--repeat and --seconds are exclusive")
    if args.repeat is None and args.seconds is None:
        args.repeat = 5
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.inject:
        try:
            workloads.parse_inject(args.inject)
        except ValueError as exc:
            parser.error(str(exc))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perf: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    selected = args.workload or names
    try:
        runs = run_passes(selected, args.seed, args.repeat, args.seconds,
                          args.trace != 0, args.inject)
    except BenchError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2
    summaries = {name: summarize(runs[name], spec) for name in selected}
    report(summaries)
    if args.out:
        document = {
            "schema": "perf-bench-v1",
            "rev": os.path.splitext(os.path.basename(args.out))[0],
            "seed": args.seed,
            "settings": {"repeat": args.repeat, "seconds": args.seconds,
                         "trace": args.trace, "inject": args.inject},
            "host": host(),
            "workloads": summaries,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, ensure_ascii=False)
            handle.write("\n")
    single = len(selected) == 1
    metrics = {}
    for name, summary in summaries.items():
        chosen = {}
        if args.trace != 1:
            chosen.update((k, (m["median"], m["unit"]))
                          for k, m in summary["end_to_end"].items())
        if args.trace != 0:
            chosen.update((k, (m["value"], m["unit"]))
                          for k, m in summary["per_layer"].items())
        for key, (value, unit) in chosen.items():
            metrics[key if single else f"{name}/{key}"] = {
                "value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
