"""Unit tests for the instrumentation layer (repro.obs)."""

import json
import threading

import pytest

from repro import obs
from repro.netlist import NetlistBuilder
from repro.sat import SAT, UNSAT, Solver
from repro.unroll import bmc


class TestRegistryBasics:
    def test_counter_accumulates(self):
        reg = obs.Registry("t")
        assert reg.counter("hits") == 1
        assert reg.counter("hits", 4) == 5
        assert reg.counter_value("hits") == 5
        assert reg.counter_value("never") == 0

    def test_span_records_time_and_count(self):
        reg = obs.Registry("t")
        for _ in range(3):
            with reg.span("work"):
                pass
        snap = reg.snapshot()
        assert snap["timers"]["work"]["count"] == 3
        assert snap["timers"]["work"]["total_s"] >= 0.0
        assert snap["timers"]["work"]["max_s"] <= \
            snap["timers"]["work"]["total_s"]

    def test_nested_spans_build_hierarchical_paths(self):
        reg = obs.Registry("t")
        with reg.span("outer"):
            with reg.span("inner"):
                with reg.span("leaf"):
                    pass
            with reg.span("inner"):
                pass
        snap = reg.snapshot()
        assert snap["timers"]["outer"]["count"] == 1
        assert snap["timers"]["outer/inner"]["count"] == 2
        assert snap["timers"]["outer/inner/leaf"]["count"] == 1

    def test_span_handle_reports_seconds_after_exit(self):
        reg = obs.Registry("t")
        with reg.span("x") as handle:
            assert handle.path == "x"
        assert handle.seconds >= 0.0

    def test_span_survives_exceptions(self):
        reg = obs.Registry("t")
        with pytest.raises(RuntimeError):
            with reg.span("fails"):
                raise RuntimeError("boom")
        # The span closed: timing recorded, stack unwound.
        assert reg.snapshot()["timers"]["fails"]["count"] == 1
        with reg.span("after"):
            pass
        assert "after" in reg.snapshot()["timers"]  # not "fails/after"

    def test_events_carry_span_context(self):
        reg = obs.Registry("t")
        with reg.span("phase"):
            reg.event("tick", k=3)
        (evt,) = reg.events
        assert evt["name"] == "tick"
        assert evt["span"] == "phase"
        assert evt["k"] == 3
        assert evt["at"] >= 0.0

    def test_reset_clears_everything(self):
        reg = obs.Registry("t")
        reg.counter("c")
        with reg.span("s"):
            reg.event("e")
        reg.reset()
        snap = reg.snapshot()
        assert snap["timers"] == {} and snap["counters"] == {}
        assert snap["events"] == []


class TestSerialization:
    def _populated(self):
        reg = obs.Registry("round")
        with reg.span("a"):
            with reg.span("b"):
                reg.event("ev", value=7)
        reg.counter("n", 42)
        return reg

    def test_json_round_trip(self):
        reg = self._populated()
        restored = obs.Registry.from_snapshot(
            json.loads(reg.to_json()))
        assert restored.snapshot() == reg.snapshot()

    def test_markdown_lists_timers_and_counters(self):
        reg = self._populated()
        md = reg.to_markdown()
        assert "`a/b`" in md and "`n`" in md and "| 42 |" in md

    def test_empty_markdown(self):
        assert "(empty)" in obs.Registry("e").to_markdown()

    def test_snapshot_key_order_is_insertion_independent(self):
        # Deterministic artifacts: two registries holding the same
        # data, recorded in different orders, serialize identically.
        a = obs.Registry("same")
        for name in ("zz", "aa", "mm"):
            with a.span(name):
                pass
            a.counter(f"c.{name}", 1)
        b = obs.Registry("same")
        for name in ("mm", "zz", "aa"):
            with b.span(name):
                pass
            b.counter(f"c.{name}", 1)
        sa, sb = a.snapshot(), b.snapshot()
        assert list(sa["timers"]) == list(sb["timers"]) \
            == ["aa", "mm", "zz"]
        assert list(sa["counters"]) == list(sb["counters"])
        assert [line for line in a.to_markdown().splitlines()
                if line.startswith("| `")] \
            == [line for line in b.to_markdown().splitlines()
                if line.startswith("| `")]


class TestScoping:
    def test_scoped_registry_isolates_measurements(self):
        obs.counter("outside.before")
        with obs.scoped() as reg:
            obs.counter("inside")
            assert obs.get_registry() is reg
        assert reg.counter_value("inside") == 1
        assert obs.get_registry().counter_value("inside") == 0

    def test_scoped_restores_on_exception(self):
        before = obs.get_registry()
        with pytest.raises(ValueError):
            with obs.scoped():
                raise ValueError
        assert obs.get_registry() is before

    def test_nested_scopes(self):
        with obs.scoped() as outer:
            with obs.scoped() as inner:
                obs.counter("deep")
            obs.counter("shallow")
        assert inner.counter_value("deep") == 1
        assert inner.counter_value("shallow") == 0
        assert outer.counter_value("shallow") == 1

    def test_overlapping_scope_exits_cannot_revive_dead_registry(self):
        # Two overlapping scopes (as concurrent threads produce) that
        # exit out of order: A's exit must not reset the current
        # registry while B is still active, and B's exit must fall
        # through to the base registry rather than restoring A's
        # already-exited one.
        base = obs.get_registry()
        reg_a, reg_b = obs.Registry("a"), obs.Registry("b")
        scope_a = obs.scoped(reg_a)
        scope_b = obs.scoped(reg_b)
        scope_a.__enter__()
        scope_b.__enter__()
        scope_a.__exit__(None, None, None)
        assert obs.get_registry() is reg_b
        scope_b.__exit__(None, None, None)
        assert obs.get_registry() is base

    def test_stopwatch_is_monotonic(self):
        watch = obs.stopwatch()
        first = watch.elapsed
        second = watch.elapsed
        assert 0.0 <= first <= second
        watch.reset()
        assert watch.elapsed <= second + 1.0


class TestEventRingBuffer:
    def test_events_capped_with_drop_counter(self):
        reg = obs.Registry("t", max_events=5)
        for i in range(8):
            reg.event("e", i=i)
        assert len(reg.events) == 5
        assert reg.events_dropped == 3
        # The oldest three were evicted; the newest five survive.
        assert [e["i"] for e in reg.events] == [3, 4, 5, 6, 7]

    def test_snapshot_reports_drop_count(self):
        reg = obs.Registry("t", max_events=2)
        for i in range(4):
            reg.event("e", i=i)
        snap = reg.snapshot()
        assert snap["events_dropped"] == 2
        assert len(snap["events"]) == 2
        assert snap["counters"]["obs.events_dropped"] == 2

    def test_default_capacity_is_large(self):
        reg = obs.Registry("t")
        for i in range(100):
            reg.event("e", i=i)
        assert reg.events_dropped == 0

    def test_merged_events_respect_the_ring(self):
        reg = obs.Registry("parent", max_events=3)
        worker = obs.Registry("worker")
        for i in range(5):
            worker.event("w", i=i)
        reg.merge_snapshot(worker.snapshot())
        assert len(reg.events) == 3
        assert reg.events_dropped == 2


class TestThreadSafety:
    def test_span_stacks_are_thread_local(self):
        reg = obs.Registry("t")
        ready = threading.Barrier(2)
        errors = []

        def worker(label):
            try:
                for _ in range(200):
                    with reg.span(label):
                        ready_path = reg._span_stack()[-1]
                        # A sibling thread's span must never leak
                        # into this thread's path.
                        assert ready_path == label
                        with reg.span("inner"):
                            assert reg._span_stack()[-1] == \
                                f"{label}/inner"
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        snap = reg.snapshot()
        assert snap["timers"]["t0"]["count"] == 200
        assert snap["timers"]["t1/inner"]["count"] == 200
        assert "t0/t1" not in snap["timers"]

    def test_concurrent_scoped_swaps_restore_cleanly(self):
        before = obs.get_registry()

        def scope_worker():
            for _ in range(50):
                with obs.scoped():
                    pass

        threads = [threading.Thread(target=scope_worker)
                   for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert obs.get_registry() is before


class TestMergeSnapshot:
    def _worker_snapshot(self):
        worker = obs.Registry("worker-3")
        with worker.span("sat.solve"):
            pass
        worker.counter("sat.conflicts", 10)
        worker.event("step", k=1)
        return worker.snapshot()

    def test_timer_totals_add_and_maxima_combine(self):
        reg = obs.Registry("parent")
        snap = {"timers": {"solve": {"total_s": 2.0, "count": 3,
                                     "max_s": 1.5}},
                "counters": {}, "events": []}
        reg.merge_snapshot(snap)
        reg.merge_snapshot({"timers": {"solve": {"total_s": 1.0,
                                                 "count": 1,
                                                 "max_s": 0.2}},
                            "counters": {}, "events": []})
        stat = reg.snapshot()["timers"]["solve"]
        assert stat["total_s"] == pytest.approx(3.0)
        assert stat["count"] == 4
        assert stat["max_s"] == pytest.approx(1.5)

    def test_prefix_applies_to_timers_and_counters(self):
        reg = obs.Registry("parent")
        reg.merge_snapshot(self._worker_snapshot(), prefix="pool/0")
        snap = reg.snapshot()
        assert "pool/0/sat.solve" in snap["timers"]
        assert snap["counters"]["pool/0/sat.conflicts"] == 10

    def test_event_source_defaults_to_registry_name(self):
        reg = obs.Registry("parent")
        reg.merge_snapshot(self._worker_snapshot())
        (evt,) = reg.events
        assert evt["source"] == "worker-3"

    def test_event_source_prefers_prefix(self):
        reg = obs.Registry("parent")
        reg.merge_snapshot(self._worker_snapshot(), prefix="pool/7")
        (evt,) = reg.events
        assert evt["source"] == "pool/7"

    def test_event_offsets_rebase_onto_parent_epoch(self):
        reg = obs.Registry("parent")
        # A worker whose clock started 100 s after the parent's: its
        # "at 1.0 s" event happened at parent-relative 101.0 s.
        snap = {"name": "w", "epoch": reg.epoch_wall + 100.0,
                "timers": {}, "counters": {},
                "events": [{"name": "e", "at": 1.0}]}
        reg.merge_snapshot(snap)
        (evt,) = reg.events
        assert evt["at"] == pytest.approx(101.0)

    def test_epoch_survives_snapshot_round_trip(self):
        reg = obs.Registry("t")
        restored = obs.Registry.from_snapshot(reg.snapshot())
        assert restored.epoch_wall == reg.epoch_wall

    def test_legacy_snapshot_without_epoch_merges_unshifted(self):
        reg = obs.Registry("parent")
        snap = {"name": "old", "timers": {}, "counters": {},
                "events": [{"name": "e", "at": 2.5}]}
        reg.merge_snapshot(snap)
        (evt,) = reg.events
        assert evt["at"] == 2.5
        assert evt["source"] == "old"


class TestSolverIntegration:
    def _solver_with_search(self):
        # (a|b) & (!a|c) & (!b|!c) & (a|!c): satisfiable, needs search.
        solver = Solver()
        a, b, c = (solver.new_var() for _ in range(3))
        pos_, neg = (lambda v: 2 * v), (lambda v: 2 * v + 1)
        solver.add_clause([pos_(a), pos_(b)])
        solver.add_clause([neg(a), pos_(c)])
        solver.add_clause([neg(b), neg(c)])
        solver.add_clause([pos_(a), neg(c)])
        return solver

    def test_lifetime_totals_are_monotone(self):
        solver = self._solver_with_search()
        assert solver.solve() == SAT
        first = solver.stats()
        assert solver.solve([2 * 0 + 1]) in (SAT, UNSAT)
        second = solver.stats()
        for key in ("conflicts", "decisions", "propagations",
                    "restarts"):
            assert second[key] >= first[key]

    def test_last_call_stats_are_deltas(self):
        solver = self._solver_with_search()
        solver.solve()
        total_after_first = solver.stats()
        solver.solve()
        delta = solver.last_call_stats
        for key, value in solver.stats().items():
            assert value == total_after_first[key] + delta[key]

    def test_solver_publishes_to_scoped_registry(self):
        with obs.scoped() as reg:
            solver = self._solver_with_search()
            result = solver.solve()
        assert result == SAT
        assert reg.counter_value("sat.solve_calls") == 1
        assert reg.counter_value("sat.result.sat") == 1
        assert reg.snapshot()["timers"]["sat.solve"]["count"] == 1

    def test_bmc_emits_per_frame_events(self):
        b = NetlistBuilder("toggler")
        r = b.register(name="r")
        b.connect(r, b.not_(r))
        b.net.add_target(r)
        with obs.scoped() as reg:
            result = bmc(b.net, max_depth=4)
        assert result.status == "falsified"
        frames = [e for e in reg.events if e["name"] == "bmc.frame"]
        assert [e["t"] for e in frames] == [0, 1]
        assert frames[0]["result"] == "unsat"
        assert frames[1]["result"] == "sat"
        assert all(e["seconds"] >= 0.0 for e in frames)
