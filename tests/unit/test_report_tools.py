"""Unit tests for the human-facing tooling: repro-trace flame/diff/
trajectory and the repro-report HTML builder."""

import json
import re

import pytest

from repro import obs
from repro.obs import metrics as M
from repro.obs import trace
from repro.tools.report import build_report, flame_svg
from repro.tools.report import main as report_main
from repro.tools.trace import (
    _artifact_order,
    collapsed_stacks,
    trajectory_table,
)
from repro.tools.trace import main as trace_main

BENCH_PR9 = "benchmarks/BENCH_pr9.json"


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


def _artifact(rev="test", solve=1.0, with_metrics=True):
    """A minimal but schema-shaped bench artifact."""
    data = {
        "rev": rev,
        "host": {"python": "3.x", "implementation": "CPython",
                 "system": "Linux", "machine": "x86_64"},
        "workload": {"profile": "smoke", "designs": ["counter8"]},
        "sections": {"bmc": {"seconds": solve,
                             "status": "falsified",
                             "depth_checked": 8},
                     "prove": {"seconds": 0.2, "status": "proven",
                               "method": "k_induction"}},
        "timers": {"bmc": {"total_s": solve, "count": 1,
                           "max_s": solve},
                   "bmc/frame": {"total_s": solve * 0.8, "count": 8,
                                 "max_s": solve * 0.2},
                   "bmc/frame/sat.solve": {"total_s": solve * 0.6,
                                           "count": 8,
                                           "max_s": solve * 0.2}},
        "counters": {"sat.conflicts": 100},
        "time_split": {"encode_seconds": 0.4,
                       "solve_seconds": solve,
                       "solve_propagate_seconds": solve * 0.5,
                       "solve_decide_seconds": solve * 0.2,
                       "solve_analyze_seconds": solve * 0.2,
                       "solve_other_seconds": solve * 0.1},
    }
    if with_metrics:
        hist = M.Histogram()
        for i in range(40):
            hist.observe(0.001 * (i + 1))
        data["metrics"] = {
            "histograms": {"sat.solve_seconds": hist.to_snapshot()},
            "solve_latency": dict(count=hist.count, mean=hist.mean,
                                  **hist.quantiles()),
            "ledger_top": [{"engine": "bmc", "frame": 7,
                            "verdict": "sat", "conflicts": 42,
                            "seconds": 0.04},
                           {"engine": "qbf", "k": 3,
                            "verdict": "unsat", "seconds": 0.01}],
            "ledger_dropped": 0,
        }
    return data


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
# repro-trace trajectory
# ----------------------------------------------------------------------
class TestTrajectory:
    def test_artifact_order_seed_then_prs_then_rest(self):
        paths = ["benchmarks/BENCH_pr10.json",
                 "benchmarks/BENCH_seed.json",
                 "benchmarks/BENCH_pr2.json",
                 "benchmarks/BENCH_exp.json"]
        ordered = sorted(paths, key=_artifact_order)
        assert [p.split("BENCH_")[1].split(".")[0] for p in ordered] \
            == ["seed", "pr2", "pr10", "exp"]

    def test_table_from_committed_artifacts(self, capsys):
        assert trace_main(["trajectory", "--dir", "benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "| rev |" in out
        assert "| seed |" in out
        assert "| pr9 |" in out

    def test_table_renders_metrics_columns_when_present(self,
                                                       tmp_path):
        art = _artifact(rev="pr42")
        p = tmp_path / "BENCH_pr42.json"
        p.write_text(json.dumps(art))
        table = trajectory_table([str(p)])
        header = table.splitlines()[0]
        assert "solve p50" in header and "p99" in header
        row = [line for line in table.splitlines()
               if line.startswith("| pr42 ")][0]
        assert "falsified@8" in row
        assert "proven (k_induction)" in row

    def test_missing_values_render_as_dash(self, tmp_path):
        art = _artifact(rev="pr7", with_metrics=False)
        p = tmp_path / "BENCH_pr7.json"
        p.write_text(json.dumps(art))
        row = [line for line in trajectory_table([str(p)]).splitlines()
               if line.startswith("| pr7 ")][0]
        assert "| - |" in row

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        assert trace_main(["trajectory", "--dir", str(tmp_path)]) == 2


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
        doc = build_report(_artifact())
        self._assert_self_contained(doc)

    def test_report_sections_present(self):
        doc = build_report(_artifact(), baseline=_artifact(solve=1.0))
        for needle in ("Flamegraph", "Latency distributions",
                       "slowest queries", "Time split",
                       "Regressions vs", "sat.solve_seconds",
                       "0 regressions"):
            assert needle in doc, needle

    def test_regression_flagged_against_faster_baseline(self):
        doc = build_report(_artifact(solve=10.0),
                           baseline=_artifact(solve=1.0))
        assert "REGRESSED" in doc

    def test_flame_svg_nests_by_path_depth(self):
        svg = flame_svg({"a": 1.0, "a/b": 0.6, "a/b/c": 0.3,
                         "d": 0.5})
        # Three distinct depths -> three distinct y offsets.
        ys = set(re.findall(r"y='(\d+)' width", svg))
        assert len(ys) == 3
        assert "a/b/c: 0.3" in svg  # tooltip carries the full path

    def test_flame_svg_empty_totals(self):
        assert "<svg" not in flame_svg({})

    def test_ledger_values_escaped(self):
        art = _artifact()
        art["metrics"]["ledger_top"][0]["verdict"] = "<script>x"
        doc = build_report(art)
        assert "<script>x" not in doc
        assert "&lt;script&gt;x" in doc

    def test_cli_writes_html_with_trace(self, tmp_path, capsys):
        art_path = tmp_path / "BENCH_t.json"
        art_path.write_text(json.dumps(_artifact()))
        base_path = tmp_path / "BENCH_base.json"
        base_path.write_text(json.dumps(_artifact(rev="base")))
        trace_path = _traced_run(tmp_path / "r.trace",
                                 [("bmc", ["frame", "frame"])])
        out = str(tmp_path / "report.html")
        assert report_main([str(art_path), "--trace", trace_path,
                            "--baseline", str(base_path),
                            "--out", out]) == 0
        doc = open(out).read()
        self._assert_self_contained(doc)
        assert "from trace" in doc
        assert "Regressions vs base" in doc

    def test_cli_refuses_baseline_of_another_workload(self, tmp_path,
                                                      capsys):
        art_path = tmp_path / "BENCH_t.json"
        art_path.write_text(json.dumps(_artifact()))
        out = tmp_path / "report.html"
        assert report_main([str(art_path), "--baseline", BENCH_PR9,
                            "--out", str(out)]) == 2
        assert "different workloads" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_defaults_output_name_from_rev(self, tmp_path,
                                               capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        art_path = tmp_path / "BENCH_t.json"
        art_path.write_text(json.dumps(_artifact(rev="zz")))
        assert report_main([str(art_path)]) == 0
        assert (tmp_path / "report_zz.html").exists()
