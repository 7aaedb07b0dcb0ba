"""Tier-1 smoke tests for the streaming trace layer end to end.

Covers the ISSUE 5 acceptance path: a tiny BMC run under
``REPRO_TRACE`` yields schema-valid JSONL and a Chrome-loadable
export; a ``jobs=2`` table run produces per-worker trace files that
stitch into one wall-clock-aligned timeline carrying BMC frame and
COM sweep-round progress events.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.table1 import run as run_table1
from repro.netlist import s27
from repro.obs import trace
from repro.tools.trace import main as trace_main
from repro.unroll import bmc

#: Keys required on every trace record.
COMMON_KEYS = {"ty", "t", "pid", "tid", "trace"}
#: Per-type required keys (schema repro-trace-v1).
TYPE_KEYS = {
    "M": {"schema", "role", "epoch"},
    "B": {"path", "name"},
    "E": {"path", "name", "dur"},
    "C": {"name", "delta", "value"},
    "I": {"name", "fields"},
    "P": {"source", "fields"},
}


def _validate_schema(records):
    assert records, "empty trace"
    assert records[0]["ty"] == "M"
    assert records[0]["schema"] == trace.TRACE_SCHEMA
    for record in records:
        assert COMMON_KEYS <= set(record), record
        assert record["ty"] in TYPE_KEYS, record
        assert TYPE_KEYS[record["ty"]] <= set(record), record


@pytest.fixture(autouse=True)
def _tracing_off_before_and_after():
    trace.stop_trace()
    yield
    trace.stop_trace()


class TestBmcUnderTrace:
    def test_tiny_bmc_trace_is_schema_valid(self, tmp_path):
        path = str(tmp_path / "bmc.jsonl")
        trace.start_trace(path)
        result = bmc(s27(), max_depth=4)
        trace.stop_trace()
        assert result.depth_checked > 0
        records = trace.read_trace(path)
        _validate_schema(records)
        # The BMC frame loop streamed both spans and progress beats.
        frame_spans = [r for r in records if r["ty"] == "E"
                       and r["name"] == "frame"]
        assert len(frame_spans) == result.depth_checked
        beats = [r for r in records if r["ty"] == "P"
                 and r["source"] == "bmc"]
        assert [b["fields"]["frame"] for b in beats] == \
            list(range(result.depth_checked))
        assert all("budget_s" in b["fields"] for b in beats)

    def test_chrome_export_cli(self, tmp_path, capsys):
        path = str(tmp_path / "bmc.jsonl")
        trace.start_trace(path)
        bmc(s27(), max_depth=3)
        trace.stop_trace()
        out = str(tmp_path / "timeline.json")
        assert trace_main(["export", path, "--format", "chrome",
                           "--out", out]) == 0
        with open(out) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events and document["displayTimeUnit"] == "ms"
        # Balanced span begin/end per name keeps the timeline loadable.
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends > 0

    def test_cli_exit_flushes_short_trace(self, tmp_path):
        # A short CLI run emits fewer records than the sink's buffer
        # holds; the atexit flush must still land them on disk.
        from repro.netlist import S27_BENCH
        bench = tmp_path / "s27.bench"
        bench.write_text(S27_BENCH)
        path = str(tmp_path / "cli.jsonl")
        env = dict(os.environ, REPRO_TRACE=path)
        env.pop(trace.TRACE_ID_ENV, None)
        src = os.path.join(os.path.dirname(__file__), "..", "..",
                           "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.bound", str(bench),
             "--strategy", "COM"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        records = trace.read_trace(path)
        _validate_schema(records)

    def test_summary_cli_reports_spans(self, tmp_path, capsys):
        path = str(tmp_path / "bmc.jsonl")
        trace.start_trace(path)
        bmc(s27(), max_depth=3)
        trace.stop_trace()
        assert trace_main(["summary", path]) == 0
        out = capsys.readouterr().out
        assert "top spans by self time" in out
        assert "bmc" in out


@pytest.mark.parallel
class TestJobs2Stitching:
    def test_table_jobs2_stitches_into_one_timeline(
            self, tmp_path, monkeypatch):
        base = str(tmp_path / "table.jsonl")
        monkeypatch.setenv(trace.TRACE_ENV, base)
        monkeypatch.delenv(trace.TRACE_ID_ENV, raising=False)
        sink = trace.trace_from_env()
        assert sink is not None
        # The table pipeline exercises the COM sweep in the workers;
        # a tiny BMC under the same parent trace covers the BMC frame
        # events the acceptance criteria name.
        bmc(s27(), max_depth=3)
        run_table1(scale=0.1, designs=["S27", "S298"], jobs=2)
        trace.stop_trace()

        paths = trace.discover_trace_files(base)
        assert len(paths) >= 2, \
            f"expected parent + worker files, got {paths}"
        records = trace.stitch_files(paths)
        _validate_schema(records)
        # One trace id across every process, parent pid + workers.
        assert len({r["trace"] for r in records}) == 1
        pids = {r["pid"] for r in records}
        assert os.getpid() in pids and len(pids) >= 2
        # Wall-clock aligned: the stitched stream is time-ordered.
        stamps = [r["t"] for r in records]
        assert stamps == sorted(stamps)
        # Worker-side sweep rounds and parent-side BMC frames are both
        # on the timeline.
        sources = {r["source"] for r in records if r["ty"] == "P"}
        assert "bmc" in sources
        assert "com.sweep" in sources
        sweep_pids = {r["pid"] for r in records if r["ty"] == "P"
                      and r["source"] == "com.sweep"}
        assert sweep_pids - {os.getpid()}, \
            "no sweep progress came from a worker process"
        # And the stitched stream exports to a loadable Chrome trace.
        document = trace.to_chrome(records)
        json.dumps(document)
        assert len(document["traceEvents"]) > 0
