"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest perf -q

Kept outside the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import time

import pytest

import compare
import layers
import run
import workloads


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
def test_self_time_nested_and_recursive_tree() -> None:
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf() -> None:
        clock.advance(1.0)

    def a(depth: int) -> None:
        clock.advance(0.5)
        tracer.call("b", leaf, (), {})
        if depth:
            # Same layer on top of the stack: counted, not re-timed.
            tracer.call("a", a, (depth - 1,), {})
        else:
            # a -> b -> a: a new frame below a different layer.
            tracer.call("b", lambda: tracer.call("a", leaf, (), {}), (), {})
        clock.advance(0.25)

    def workload() -> None:
        clock.advance(0.1)
        tracer.call("a", a, (2,), {})
        clock.advance(0.2)

    tracer.root(workload)
    total = tracer.wall_s
    assert total == pytest.approx(0.1 + 3 * 0.75 + 3 * 1.0 + 1.0 + 0.2)
    assert tracer.calls == {"a": 4, "b": 4}
    assert tracer.self_s["a"] == pytest.approx(3 * 0.75 + 1.0)
    assert tracer.self_s["b"] == pytest.approx(3.0)
    assert tracer.unattributed_s == pytest.approx(0.3)
    assert sum(tracer.self_s.values()) + tracer.unattributed_s \
        == pytest.approx(total)
    paths = {path for kind, _, path, _ in tracer.events if kind == "E"}
    assert paths == {"a", "a/b", "a/b/a"}
    assert len(tracer.durations["a"]) == 2  # outer call + a/b/a


def test_injected_slowdown_lands_in_its_layer() -> None:
    tracer = layers.Tracer(inject={"a": 1.0})
    tracer.root(lambda: tracer.call("a", time.sleep, (0.02,), {}))
    assert tracer.self_s["a"] >= 0.04
    assert tracer.unattributed_s < 0.01


def test_layer_metrics_sum_to_traced_wall() -> None:
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    tracer.root(lambda: tracer.call(
        "com", lambda: (clock.advance(2.0),
                        tracer.call("sat", clock.advance, (1.0,), {})),
        (), {}))
    metrics = layers.layer_metrics(tracer, {"com.merges": 3,
                                            "com.sat_queries": 6})
    assert metrics["com.self_s"] == pytest.approx(2.0)
    assert metrics["sat.self_s"] == pytest.approx(1.0)
    assert metrics["com.merge_yield"] == pytest.approx(0.5)
    assert layers.self_time_sum(metrics) == pytest.approx(tracer.wall_s)


def test_worker_counters_are_summed() -> None:
    counters = {"sat.conflicts": 5,
                "parallel/table/S27/sat.conflicts": 7,
                "cert.failed": 1, "parallel/table/S27/cert.failed": 1}
    assert layers.counter_total(counters, "sat.conflicts") == 12
    assert layers.counter_total(counters, "cert.failed") == 1


# ----------------------------------------------------------------------
# Wrapping the program from outside
# ----------------------------------------------------------------------
def test_wrapper_reaches_names_imported_by_value() -> None:
    from repro.core import engine, theory
    from repro.sim import random_sim
    from repro.transform import redundancy

    originals = (theory.back_translate, random_sim.random_signatures)
    tracer = layers.Tracer()
    bindings = layers.install(tracer, ["theory", "sim"])
    try:
        assert engine.back_translate is theory.back_translate
        assert engine.back_translate is not originals[0]
        assert engine.back_translate.__wrapped__ is originals[0]
        assert redundancy.random_signatures.__wrapped__ is originals[1]
        from repro.core import TBVEngine
        from repro.netlist import s27

        TBVEngine("COM").run(s27())
    finally:
        layers.restore(bindings)
    assert tracer.calls["theory"] >= 1
    assert tracer.calls["sim"] >= 1
    assert engine.back_translate is originals[0]
    assert theory.back_translate is originals[0]
    assert redundancy.random_signatures is originals[1]


def test_trace_summary_matches_harness_self_times(tmp_path) -> None:
    from repro import core
    from repro.gen import protocols
    from repro.obs import trace as obs_trace
    from repro.tools.trace import _self_times, _span_totals

    net, target = protocols.round_robin_arbiter(3)
    tracer = layers.Tracer()
    bindings = layers.install(tracer)
    try:
        # Looked up after install, as the workloads do.
        tracer.root(core.prove, net, target)
    finally:
        layers.restore(bindings)
    path = str(tmp_path / "prove.trace.jsonl")
    layers.write_trace(tracer, path)
    records = obs_trace.stitch_files(obs_trace.discover_trace_files(path))
    totals, _ = _span_totals(records)
    by_layer: dict = {}
    for span, seconds in _self_times(totals).items():
        layer = span.rpartition("/")[2]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    assert set(by_layer) == set(tracer.self_s)
    for layer, seconds in tracer.self_s.items():
        assert by_layer[layer] == pytest.approx(seconds, abs=1e-9)
    assert {"prove", "portfolio", "com", "sat"} <= set(by_layer)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _expected() -> dict:
    with open(workloads.EXPECTED_PATH) as handle:
        return json.load(handle)


def test_recorded_table_passes_and_tampered_sigma_row_fails() -> None:
    table = _expected()["tables"]["table1"]
    attempted, failures = workloads.check_table(table, table)
    assert (attempted, failures) == (126, [])
    lines = table.splitlines()
    lines[-1] = lines[-1].replace("338/669", "339/669")
    attempted, failures = workloads.check_table(table, "\n".join(lines))
    assert attempted == 126
    assert failures and "Σ" in failures[0]


def test_error_cell_and_shrinking_sigma_fail() -> None:
    table = _expected()["tables"]["table1"]
    lines = table.splitlines()
    cells = lines[6].split("|")
    cells[2] = "!! budget exhausted".center(len(cells[2]))
    lines[6] = "|".join(cells)
    _, failures = workloads.check_table("\n".join(lines), table)
    assert any("error cell" in f for f in failures)
    lines = table.splitlines()
    lines[-1] = lines[-1].replace("338/669", "300/669")
    _, failures = workloads.check_table("\n".join(lines), None)
    assert any("decreases" in f for f in failures)


def _verdicts(expected: dict) -> dict:
    return {name: {"status": s, "method": m, "bound": b,
                   "degraded": False, "cert_failed": 0, "cert_checked": 1}
            for name, (s, m, b) in expected.items()}


def test_recorded_verdicts_pass_and_flipped_verdict_fails() -> None:
    expected = _expected()["properties"]
    verdicts = _verdicts(expected)
    assert workloads.check_verdicts(verdicts, expected, True) == (15, [])
    verdicts["arbiter5"]["status"] = "falsified"
    attempted, failures = workloads.check_verdicts(verdicts, expected, True)
    assert attempted == 15 and len(failures) == 1
    assert failures[0].startswith("arbiter5:")


def test_undecided_or_uncertified_verdicts_fail() -> None:
    expected = _expected()["properties"]
    verdicts = _verdicts(expected)
    verdicts["arbiter3"]["degraded"] = True
    verdicts["arbiter4"]["cert_failed"] = 1
    verdicts["arbiter6"]["cert_checked"] = 0
    _, failures = workloads.check_verdicts(verdicts, expected, True)
    assert len(failures) == 3


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
BASE = [10.0, 10.1, 9.9, 10.05, 9.95]


@pytest.mark.parametrize("new, bound, want", [
    ([11.5, 11.6, 11.4, 11.55, 11.45], 0.10, "worse"),
    ([9.0, 9.1, 8.9, 9.05, 8.95], 0.10, "better"),
    ([10.02, 9.98, 10.1, 9.9, 10.0], 0.10, "unchanged"),
    ([10.6, 10.7, 10.5, 10.65, 10.55], 0.10, "unchanged"),
])
def test_verdicts(new, bound, want) -> None:
    assert compare.verdict(BASE, new, bound) == want


def test_unresolved_when_spread_exceeds_bound() -> None:
    noisy = [8.0, 12.0, 10.0, 9.0, 11.0]
    assert compare.verdict(noisy, [9.5, 10.5, 10.0, 9.8, 10.2], 0.1) \
        == "unresolved"
    # Unless every new pass beats every base pass.
    assert compare.verdict(noisy, [6.5, 6.6, 6.4, 6.55, 6.45], 0.1) \
        == "better"


def test_higher_is_better_direction() -> None:
    assert compare.verdict(BASE, [8.0] * 5, 0.1, better="higher") == "worse"
    assert compare.verdict(BASE, [12.0] * 5, 0.1, better="higher") \
        == "better"


def _doc(wall, conflicts=100, fail_frac=0.0, com_self=1.0) -> dict:
    q1, median, q3 = run.quartiles(wall)
    return {"workloads": {"table1": {
        "fail_frac": fail_frac,
        "end_to_end": {"wall_s": {
            "unit": "s", "better": "lower", "bound": 0.1, "values": wall,
            "median": median, "q1": q1, "q3": q3, "n": len(wall),
            "spread": (q3 - q1) / median}},
        "per_layer": {
            "sat.conflicts": {"unit": "count", "value": conflicts},
            "com.self_s": {"unit": "s", "value": com_self},
            "sat.self_s": {"unit": "s", "value": 5.0},
            "unattributed_s": {"unit": "s", "value": 0.01}},
    }}}


def _run_compare(tmp_path, base, new) -> int:
    paths = []
    for name, doc in (("base.json", base), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return compare.main(paths)


def test_compare_names_the_layer_and_gates(tmp_path) -> None:
    slow = _doc([x * 1.2 for x in BASE], com_self=3.0)
    result = compare.compare(_doc(BASE), slow)
    assert [r["verdict"] for r in result["rows"]] == ["worse"]
    assert result["shifts"]["table1"][0][0] == "com.self_s"
    assert _run_compare(tmp_path, _doc(BASE), slow) == 1
    assert _run_compare(tmp_path, _doc(BASE), _doc(BASE)) == 0


def test_compare_flags_count_mismatch_and_fail_frac_rise(tmp_path) -> None:
    result = compare.compare(_doc(BASE), _doc(BASE, conflicts=101))
    assert result["mismatches"] == ["table1.sat.conflicts: 100 -> 101"]
    assert _run_compare(tmp_path, _doc(BASE), _doc(BASE, conflicts=101)) == 1
    result = compare.compare(_doc(BASE), _doc(BASE, fail_frac=0.01))
    assert len(result["fail_rises"]) == 1
    assert _run_compare(tmp_path, _doc(BASE), _doc(BASE, fail_frac=0.01)) \
        == 1
