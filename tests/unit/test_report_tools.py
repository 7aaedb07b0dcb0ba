"""Unit tests for the human-facing tooling: repro-trace flame/diff
and the repro-report HTML builder."""

import json
import pathlib
import re

import pytest

from repro import obs
from repro.obs import trace
from repro.tools.report import build_report, flame_svg
from repro.tools.report import main as report_main
from repro.tools.trace import _self_times, _span_totals, collapsed_stacks
from repro.tools.trace import main as trace_main


@pytest.fixture(autouse=True)
def _tracing_off():
    trace.stop_trace()
    yield
    trace.stop_trace()


def _traced_run(path, spans):
    """Write a tiny trace: spans is a list of (outer, [inner...]).

    Inner spans busy-wait ~1ms so self-times survive microsecond
    rounding in the collapsed-stack output.
    """
    import time

    with obs.scoped(obs.Registry("t")):
        trace.start_trace(str(path))
        try:
            reg = obs.get_registry()
            for outer, inners in spans:
                with reg.span(outer):
                    for inner in inners:
                        with reg.span(inner):
                            time.sleep(0.002)
        finally:
            trace.stop_trace()
    return str(path)


def _results(rev="test", traced=True, wall=2.0):
    """A minimal but schema-shaped ``perf/run.py --out`` document."""
    def metric(unit, median):
        return {"unit": unit, "better": "lower", "bound": 0.25,
                "values": [median * 0.9, median, median * 1.2],
                "median": median, "q1": median * 0.95,
                "q3": median * 1.1, "n": 3, "spread": 0.15}

    summary = {
        "attempted": 15, "failed": 0, "fail_frac": 0.0, "failures": [],
        "end_to_end": {"wall_s": metric("s", wall),
                       "cpu_s": metric("s", wall * 0.98),
                       "setup_s": metric("s", 0.61),
                       "peak_rss_mb": metric("MiB", 100.3)},
        "passes": [],
    }
    if traced:
        summary.update({
            "traced_wall_s": wall, "self_time_sum_s": wall,
            "trace": "perf/out/prove.trace.jsonl",
            "per_layer": {
                "prove.calls": {"unit": "count", "better": "lower",
                                "value": 15},
                "prove.self_s": {"unit": "s", "better": "lower",
                                 "value": 0.25 * wall},
                "sat.calls": {"unit": "count", "better": "lower",
                              "value": 10668},
                "sat.self_s": {"unit": "s", "better": "lower",
                               "value": 0.75 * wall},
                "cert.calls": {"unit": "count", "better": "lower",
                               "value": 0},
                "unattributed_s": {"unit": "s", "better": "lower",
                                   "value": 0.0},
            },
        })
    return {"schema": "perf-bench-v1", "rev": rev, "seed": 0,
            "settings": {"repeat": 3, "seconds": None, "trace": 1,
                         "inject": None},
            "host": {"python": "3.11.7", "implementation": "CPython",
                     "system": "Linux", "machine": "x86_64",
                     "cpu": "Xeon", "nproc": 2},
            "workloads": {"prove": summary}}


# ----------------------------------------------------------------------
# repro-trace flame
# ----------------------------------------------------------------------
class TestFlame:
    def test_collapsed_stacks_format_and_self_time(self, tmp_path):
        path = _traced_run(tmp_path / "a.trace",
                           [("outer", ["inner", "inner"])])
        lines = collapsed_stacks(trace.read_trace(path))
        assert lines  # at least the inner frames
        for line in lines:
            stack, _, micros = line.rpartition(" ")
            assert re.fullmatch(r"\d+", micros), line
            assert ";" in stack or "/" not in stack
        # Nested paths use the collapsed-stack separator.
        assert any(line.startswith("outer;inner ") for line in lines)

    def test_flame_cli_writes_collapsed_file(self, tmp_path, capsys):
        path = _traced_run(tmp_path / "a.trace", [("w", ["x"])])
        out = str(tmp_path / "flame.txt")
        assert trace_main(["flame", path, "--out", out]) == 0
        content = open(out).read().strip().splitlines()
        assert all(re.fullmatch(r"\S+ \d+", line) for line in content)

    def test_flame_cli_missing_trace_exits_2(self, capsys):
        assert trace_main(["flame", "/nonexistent.trace"]) == 2


# ----------------------------------------------------------------------
# Span names that contain "/"
# ----------------------------------------------------------------------
class TestNestedSpanNames:
    """``span("ret/lp")`` inside ``span("ret")`` records the path
    ``ret/ret/lp``; its parent is ``ret``, not the unrecorded
    ``ret/ret``."""

    @pytest.fixture
    def records(self, tmp_path):
        import time

        path = str(tmp_path / "ret.trace")
        with obs.scoped(obs.Registry("t")):
            trace.start_trace(path)
            try:
                with obs.span("ret"):
                    with obs.span("ret/lp"):
                        time.sleep(0.01)
            finally:
                trace.stop_trace()
        return trace.read_trace(path)

    def test_self_times_add_up_to_the_root_total(self, records):
        totals, _ = _span_totals(records)
        assert set(totals) == {"ret", "ret/ret/lp"}
        self_times = _self_times(totals)
        assert sum(self_times.values()) == pytest.approx(totals["ret"])
        assert self_times["ret"] < 0.5 * self_times["ret/ret/lp"]

    def test_collapsed_stacks_follow_the_parent_chain(self, records):
        stacks = [line.rpartition(" ")[0]
                  for line in collapsed_stacks(records)]
        assert "ret;ret/lp" in stacks
        assert "ret;ret;lp" not in stacks

    def test_flame_svg_draws_one_root(self, records):
        totals, _ = _span_totals(records)
        svg = flame_svg(totals)
        assert len(re.findall(r"y='2' width", svg)) == 1
        assert ">ret/lp</text>" in svg


# ----------------------------------------------------------------------
# repro-trace diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_traces_show_no_shift(self, tmp_path, capsys):
        path = _traced_run(tmp_path / "a.trace", [("w", ["x"])])
        assert trace_main(["diff", path, path]) == 0
        out = capsys.readouterr().out
        # Identical inputs: zero-delta rows are filtered out.
        assert "no span differences" in out
        assert "no counter differences" in out

    def test_diff_reports_count_changes(self, tmp_path, capsys):
        a = _traced_run(tmp_path / "a.trace", [("w", ["x"])])
        b = _traced_run(tmp_path / "b.trace", [("w", ["x", "x", "x"])])
        assert trace_main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "x1->x3" in out

    def test_diff_missing_file_exits_2(self, tmp_path, capsys):
        a = _traced_run(tmp_path / "a.trace", [("w", [])])
        assert trace_main(["diff", a, "/nonexistent.trace"]) == 2


# ----------------------------------------------------------------------
# repro-report
# ----------------------------------------------------------------------
class TestReportHTML:
    def _assert_self_contained(self, doc):
        lowered = doc.lower()
        assert "<svg" in lowered
        assert "http" not in lowered
        assert "href" not in lowered
        assert "<script" not in lowered
        assert re.search(r"\bsrc\s*=", lowered) is None

    def test_report_is_self_contained(self):
        doc = build_report(_results())
        self._assert_self_contained(doc)

    def test_report_sections_present(self):
        doc = build_report(_results(wall=2.0))
        for needle in ("prove", "0 of 15 operations failed",
                       "2 [1.9, 2.2]", "100.3", "Per-layer self time",
                       "sat 1.500", "prove 0.500", "10668",
                       "seed 0", "repeat 3, trace 1"):
            assert needle in doc, needle
        # Layers that read 0 are counted, not listed.
        assert "cert.calls" not in doc
        assert "(2 metrics read 0)" in doc

    def test_untraced_run_has_no_layer_section(self):
        doc = build_report(_results(traced=False))
        assert "wall_s" in doc
        assert "Per-layer" not in doc
        assert "<svg" not in doc

    def test_committed_results_render_every_workload(self, tmp_path,
                                                     capsys):
        results = str(pathlib.Path(__file__).resolve().parents[2]
                      / "perf" / "results" / "seed-a.json")
        out = tmp_path / "report.html"
        assert report_main([results, "--out", str(out)]) == 0
        doc = out.read_text()
        self._assert_self_contained(doc)
        with open(results) as handle:
            committed = json.load(handle)
        for name, summary in committed["workloads"].items():
            assert f"<h2>{name}</h2>" in doc, name
            median = summary["end_to_end"]["wall_s"]["median"]
            assert f"{median:.4g} [" in doc, name

    def test_flame_svg_nests_by_path_depth(self):
        svg = flame_svg({"a": 1.0, "a/b": 0.6, "a/b/c": 0.3,
                         "d": 0.5})
        # Three distinct depths -> three distinct y offsets.
        ys = set(re.findall(r"y='(\d+)' width", svg))
        assert len(ys) == 3
        assert "a/b/c: 0.3" in svg  # tooltip carries the full path

    def test_flame_svg_empty_totals(self):
        assert "<svg" not in flame_svg({})

    def test_values_escaped(self):
        results = _results(rev="<b>r</b>")
        results["workloads"]["prove"]["failed"] = 1
        results["workloads"]["prove"]["failures"] = ["<script>x"]
        doc = build_report(results)
        assert "<script>x" not in doc
        assert "&lt;script&gt;x" in doc
        assert "&lt;b&gt;r&lt;/b&gt;" in doc

    def test_cli_writes_html_with_trace(self, tmp_path, capsys):
        results_path = tmp_path / "run.json"
        results_path.write_text(json.dumps(_results()))
        trace_path = _traced_run(tmp_path / "r.trace",
                                 [("bmc", ["frame", "frame"])])
        out = str(tmp_path / "report.html")
        assert report_main([str(results_path), "--trace", trace_path,
                            "--out", out]) == 0
        doc = open(out).read()
        self._assert_self_contained(doc)
        assert "Flamegraph" in doc
        assert "from trace" in doc
        assert "bmc/frame: " in doc

    def test_cli_refuses_another_schema(self, tmp_path, capsys):
        old_path = tmp_path / "old-bench.json"
        old_path.write_text(json.dumps({"schema": "repro-bench-v2",
                                        "rev": "t", "sections": {}}))
        out = tmp_path / "report.html"
        assert report_main([str(old_path), "--out", str(out)]) == 2
        assert "perf-bench-v1" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_defaults_output_name_from_rev(self, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        results_path = tmp_path / "zz.json"
        results_path.write_text(json.dumps(_results(rev="zz")))
        assert report_main([str(results_path)]) == 0
        assert (tmp_path / "report_zz.html").exists()
