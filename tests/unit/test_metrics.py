"""Unit tests for the metrics layer (repro.obs.metrics)."""

import json
import os
import time

import pytest

from repro import obs
from repro.netlist import NetlistBuilder
from repro.obs import metrics as M
from repro.sat import SAT, Solver


@pytest.fixture
def enabled():
    """Metrics on for the duration of a test, restored afterwards."""
    with M.use_metrics(True):
        yield


@pytest.fixture
def fresh_registry():
    """An isolated scoped registry (no cross-test metric bleed)."""
    with obs.scoped(obs.Registry("t")) as reg:
        yield reg


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
class TestBuckets:
    def test_value_falls_inside_its_bucket_bounds(self):
        for value in (1e-6, 0.00321, 0.7, 1.0, 1.2589, 17.3, 9e4):
            idx = M.bucket_index(value)
            lo, hi = M.bucket_bounds(idx)
            assert lo <= value < hi or value == pytest.approx(lo)

    def test_bucket_width_ratio_is_fixed(self):
        lo, hi = M.bucket_bounds(0)
        assert hi / lo == pytest.approx(10 ** (1 / M.BUCKETS_PER_DECADE))
        lo2, hi2 = M.bucket_bounds(-37)
        assert hi2 / lo2 == pytest.approx(hi / lo)

    def test_buckets_tile_the_line(self):
        # hi of bucket i == lo of bucket i+1: no gaps, no overlap.
        for idx in (-30, -1, 0, 5):
            assert M.bucket_bounds(idx)[1] == \
                pytest.approx(M.bucket_bounds(idx + 1)[0])


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
class TestHistogram:
    def test_envelope_and_mean(self):
        h = M.Histogram()
        for v in (0.5, 2.0, 3.5):
            h.observe(v)
        assert h.count == 3
        assert h.min == 0.5 and h.max == 3.5
        assert h.mean == pytest.approx(2.0)

    def test_single_value_quantiles_are_exact(self):
        h = M.Histogram()
        h.observe(0.042)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.042)

    def test_quantiles_clamped_to_observed_range(self):
        h = M.Histogram()
        for v in (0.001, 0.002, 0.004, 0.008, 5.0):
            h.observe(v)
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_quantile_within_bucket_resolution(self):
        # 1000 distinct values: every quantile estimate must land in
        # (or adjacent clamping of) the bucket holding the true rank.
        values = sorted(1e-4 * (1.01 ** i) for i in range(1000))
        h = M.Histogram()
        for v in values:
            h.observe(v)
        for q in (0.50, 0.90, 0.99):
            true = values[int(q * (len(values) - 1))]
            lo, hi = M.bucket_bounds(M.bucket_index(true))
            assert lo * 0.999 <= h.quantile(q) <= hi * 1.001

    def test_nonpositive_routes_to_zero_bucket(self):
        h = M.Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        h.observe(1.0)
        assert h.zero == 2
        assert sum(h.buckets.values()) == 1
        assert h.count == 3
        # Low quantiles come from the zero bucket, clamped >= 0.
        assert h.quantile(0.0) == 0.0

    def test_merge_equals_single_recorder(self):
        values = [0.001 * (i + 1) ** 2 for i in range(200)]
        one = M.Histogram()
        a, b = M.Histogram(), M.Histogram()
        for i, v in enumerate(values):
            one.observe(v)
            (a if i % 2 else b).observe(v)
        a.merge(b)
        assert a.buckets == one.buckets
        assert a.count == one.count
        assert a.min == one.min and a.max == one.max
        for q in (0.5, 0.9, 0.99):
            assert a.quantile(q) == one.quantile(q)

    def test_merge_is_associative(self):
        parts = [M.Histogram() for _ in range(3)]
        for i in range(90):
            parts[i % 3].observe(0.01 * (i + 1))
        left = M.Histogram()
        for p in (parts[0], parts[1]):
            left.merge(p)
        left.merge(parts[2])
        right_inner = M.Histogram()
        right_inner.merge(parts[1])
        right_inner.merge(parts[2])
        right = M.Histogram()
        right.merge(parts[0])
        right.merge(right_inner)
        assert left.buckets == right.buckets
        assert left.count == right.count
        assert left.quantile(0.9) == right.quantile(0.9)

    def test_snapshot_round_trip(self):
        h = M.Histogram()
        for v in (0.0, 0.003, 0.7, 12.0):
            h.observe(v)
        back = M.Histogram.from_snapshot(
            json.loads(json.dumps(h.to_snapshot())))
        assert back.buckets == h.buckets
        assert back.count == h.count and back.zero == h.zero
        assert back.min == h.min and back.max == h.max
        assert back.quantile(0.5) == h.quantile(0.5)

    def test_snapshot_bucket_keys_sorted_numerically(self):
        h = M.Histogram()
        for v in (100.0, 0.001, 1.0):
            h.observe(v)
        keys = [int(k) for k in h.to_snapshot()["buckets"]]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Gauge / RateMeter / Ledger
# ----------------------------------------------------------------------
class TestGauge:
    def test_last_value_and_envelope(self):
        g = M.Gauge()
        for v in (5.0, 1.0, 3.0):
            g.set(v)
        assert g.value == 3.0
        assert g.min == 1.0 and g.max == 5.0 and g.n == 3

    def test_merge_unions_envelope(self):
        a, b = M.Gauge(), M.Gauge()
        a.set(2.0)
        b.set(7.0)
        b.set(0.5)
        a.merge(b)
        assert a.min == 0.5 and a.max == 7.0 and a.n == 3
        assert a.value == 0.5  # larger-n side's last write wins


class TestRateMeter:
    def test_rate_over_window(self):
        m = M.RateMeter()
        m.mark(10)
        m.first -= 2.0  # widen the window deterministically
        assert m.rate() == pytest.approx(5.0, rel=0.01)

    def test_merge_unions_window(self):
        a, b = M.RateMeter(), M.RateMeter()
        a.mark(3)
        b.mark(5)
        a.first, a.last = 100.0, 101.0
        b.first, b.last = 100.5, 103.0
        a.merge(b)
        assert a.count == 8
        assert a.first == 100.0 and a.last == 103.0
        assert a.rate() == pytest.approx(8 / 3.0)


class TestLedger:
    def test_ring_evicts_oldest_and_counts(self):
        led = M.Ledger(cap=3)
        for i in range(5):
            led.record({"i": i})
        assert [r["i"] for r in led.records] == [2, 3, 4]
        assert led.dropped == 2

    def test_top_by_seconds(self):
        led = M.Ledger()
        led.record({"q": "a", "seconds": 0.1})
        led.record({"q": "b"})  # missing key sorts as 0
        led.record({"q": "c", "seconds": 0.9})
        assert [r["q"] for r in led.top(2)] == ["c", "a"]

    def test_merge_tags_source_and_overflows(self):
        led = M.Ledger(cap=4)
        led.record({"q": "local"})
        led.merge({"dropped": 1,
                   "records": [{"q": f"w{i}"} for i in range(4)]},
                  source="worker-0")
        # 1 local + 4 merged = 5 > cap 4: one merge eviction, plus
        # the worker's own pre-merge eviction carries over.
        assert led.dropped == 2
        assert len(led.records) == 4
        assert all(r["source"] == "worker-0" for r in led.records)

    def test_stacked_merges_accumulate_dropped(self):
        led = M.Ledger(cap=2)
        led.merge({"records": [{"q": 1}, {"q": 2}]}, source="w0")
        assert led.dropped == 0
        led.merge({"records": [{"q": 3}, {"q": 4}]}, source="w1")
        assert led.dropped == 2
        assert [r["source"] for r in led.records] == ["w1", "w1"]


# ----------------------------------------------------------------------
# MetricsStore + registry protocol
# ----------------------------------------------------------------------
class TestMetricsStore:
    def test_snapshot_keys_sorted(self):
        store = M.MetricsStore()
        for name in ("zeta", "alpha", "mid"):
            store.histogram(name).observe(1.0)
            store.gauge(name).set(1.0)
            store.meter(name).mark()
        snap = store.snapshot()
        for section in ("histograms", "gauges", "meters"):
            assert list(snap[section]) == ["alpha", "mid", "zeta"]

    def test_merge_is_unprefixed_and_additive(self):
        a, b = M.MetricsStore(), M.MetricsStore()
        for _ in range(10):
            a.histogram("lat").observe(0.01)
            b.histogram("lat").observe(0.01)
        a.merge(b.snapshot(), source="w0")
        assert a.histogram("lat").count == 20

    def test_store_round_trip(self):
        store = M.MetricsStore()
        store.histogram("h").observe(0.5)
        store.gauge("g").set(3.0)
        store.meter("m").mark(2)
        store.ledger.record({"engine": "bmc"})
        back = M.MetricsStore.from_snapshot(
            json.loads(json.dumps(store.snapshot())))
        assert back.histogram("h").count == 1
        assert back.gauge("g").value == 3.0
        assert back.meter("m").count == 2
        assert list(back.ledger.records) == [{"engine": "bmc"}]


class TestRegistryIntegration:
    def test_lazy_store_no_metrics_section_when_untouched(self,
                                                          fresh_registry):
        assert "metrics" not in fresh_registry.snapshot()

    def test_observe_lands_in_active_registry(self, enabled,
                                              fresh_registry):
        M.observe("x.seconds", 0.25)
        snap = fresh_registry.snapshot()
        assert snap["metrics"]["histograms"]["x.seconds"]["count"] == 1

    def test_merge_snapshot_folds_metrics_unprefixed(self, enabled):
        with obs.scoped(obs.Registry("worker")) as wreg:
            for _ in range(7):
                M.observe("sat.solve_seconds", 0.001)
            M.record_query(engine="bmc", verdict=SAT)
            worker_snap = wreg.snapshot()
        with obs.scoped(obs.Registry("parent")) as preg:
            for _ in range(3):
                M.observe("sat.solve_seconds", 0.001)
            preg.merge_snapshot(worker_snap, prefix="parallel/pool/0")
            store = M.metrics_store(preg)
            # Histogram merged under its global name, not the prefix.
            assert store.histogram("sat.solve_seconds").count == 10
            snap_names = preg.snapshot()["metrics"]["histograms"]
            assert list(snap_names) == ["sat.solve_seconds"]
            # Ledger record tagged with the worker prefix.
            [rec] = list(store.ledger.records)
            assert rec["source"] == "parallel/pool/0"
            assert rec["engine"] == "bmc"

    def test_from_snapshot_restores_metrics(self, enabled):
        with obs.scoped(obs.Registry("a")) as reg:
            M.observe("h", 1.0)
            snap = reg.snapshot()
        back = obs.Registry.from_snapshot(
            json.loads(json.dumps(snap)))
        store = M.metrics_store(back, create=False)
        assert store is not None
        assert store.histogram("h").count == 1

    def test_to_markdown_lists_histograms(self, enabled,
                                          fresh_registry):
        for v in (0.001, 0.002, 0.004):
            M.observe("solve", v)
        md = fresh_registry.to_markdown()
        assert "| histogram |" in md
        assert "solve" in md

    def test_reset_clears_store(self, enabled, fresh_registry):
        M.observe("h", 1.0)
        fresh_registry.reset()
        assert "metrics" not in fresh_registry.snapshot()


# ----------------------------------------------------------------------
# Toggle + context + trace forwarding
# ----------------------------------------------------------------------
class TestToggle:
    def test_disabled_helpers_touch_nothing(self, fresh_registry):
        assert not M.metrics_enabled()
        M.observe("h", 1.0)
        M.gauge_set("g", 1.0)
        M.mark("m")
        M.record_query(engine="x")
        assert "metrics" not in fresh_registry.snapshot()

    def test_set_exports_env_for_workers(self):
        prev = M.set_metrics_enabled(True)
        try:
            assert os.environ.get(M.METRICS_ENV) == "1"
        finally:
            M.set_metrics_enabled(prev)
        if not prev:
            assert M.METRICS_ENV not in os.environ

    def test_use_metrics_restores(self):
        before = M.metrics_enabled()
        with M.use_metrics(True):
            assert M.metrics_enabled()
            with M.use_metrics(False):
                assert not M.metrics_enabled()
            assert M.metrics_enabled()
        assert M.metrics_enabled() == before


class TestQueryContext:
    def test_nesting_and_override(self, enabled):
        with M.query_context("bmc", frame=3):
            assert M.current_context() == {"engine": "bmc", "frame": 3}
            with M.query_context("induction", k=2):
                ctx = M.current_context()
                assert ctx["engine"] == "induction"
                assert ctx["k"] == 2
                assert ctx["frame"] == 3  # outer fields inherited
            assert M.current_context()["engine"] == "bmc"
        assert M.current_context() == {}

    def test_none_fields_dropped(self, enabled):
        with M.query_context("bmc", target=None, cert=True):
            ctx = M.current_context()
            assert "target" not in ctx and ctx["cert"] is True

    def test_record_query_merges_context(self, enabled,
                                         fresh_registry):
        with M.query_context("qbf", k=5):
            M.record_query(verdict="unsat", seconds=0.1)
        [rec] = list(M.metrics_store().ledger.records)
        assert rec["engine"] == "qbf" and rec["k"] == 5
        assert rec["verdict"] == "unsat"

    def test_disabled_context_is_empty(self, fresh_registry):
        with M.query_context("bmc", frame=1):
            assert M.current_context() == {}


class TestTraceForwarding:
    def test_query_records_flow_into_trace(self, enabled, tmp_path):
        path = str(tmp_path / "run.trace")
        with obs.scoped(obs.Registry("t")):
            obs.trace.start_trace(path)
            try:
                M.record_query(engine="bmc", frame=2, verdict=SAT)
            finally:
                obs.trace.stop_trace()
        records = [json.loads(line)
                   for line in open(path) if line.strip()]
        qs = [r for r in records if r.get("ty") == "Q"]
        assert len(qs) == 1
        assert qs[0]["fields"]["engine"] == "bmc"
        assert qs[0]["fields"]["frame"] == 2

    def test_chrome_export_maps_q_to_instant(self, enabled, tmp_path):
        path = str(tmp_path / "run.trace")
        with obs.scoped(obs.Registry("t")):
            obs.trace.start_trace(path)
            try:
                M.record_query(engine="qbf", k=3)
            finally:
                obs.trace.stop_trace()
        chrome = obs.trace.to_chrome(obs.trace.read_trace(path))
        names = [e["name"] for e in chrome["traceEvents"]]
        assert "query:qbf" in names


# ----------------------------------------------------------------------
# Solver boundary
# ----------------------------------------------------------------------
def _tiny_solver():
    solver = Solver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 2])
    return solver


class TestSolverLedger:
    def test_solve_records_histogram_and_ledger(self, enabled,
                                                fresh_registry):
        solver = _tiny_solver()
        assert solver.solve() == SAT
        store = M.metrics_store()
        assert store.histogram("sat.solve_seconds").count == 1
        [rec] = list(store.ledger.records)
        assert rec["engine"] == "sat"  # no context pushed
        assert rec["verdict"] == SAT
        assert rec["budget_charged"] == 0
        assert rec["seconds"] >= 0.0

    def test_solve_attributes_to_engine_context(self, enabled,
                                                fresh_registry):
        with M.query_context("bmc", frame=4):
            assert _tiny_solver().solve() == SAT
        [rec] = list(M.metrics_store().ledger.records)
        assert rec["engine"] == "bmc" and rec["frame"] == 4

    def test_disabled_solve_leaves_no_metrics(self, fresh_registry):
        assert _tiny_solver().solve() == SAT
        assert "metrics" not in fresh_registry.snapshot()


# ----------------------------------------------------------------------
# Overhead guard (disabled path)
# ----------------------------------------------------------------------
class TestOverhead:
    def test_disabled_path_is_cheap(self, fresh_registry):
        # Mirrors test_trace's absolute-ceiling style: 2000 disabled
        # calls must stay far under any measurable budget (each is
        # one global load + return).
        assert not M.metrics_enabled()
        start = time.perf_counter()
        for _ in range(2000):
            M.observe("h", 0.001)
            M.record_query(engine="x")
        assert time.perf_counter() - start < 0.1
