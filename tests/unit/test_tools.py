"""Unit tests for the command-line tools and VCD writer."""

import argparse

import pytest

from repro.experiments import report as paper_report
from repro.experiments import runner
from repro.experiments.report import main as report_main
from repro.experiments.table1 import main as table1_main
from repro.experiments.table2 import main as table2_main
from repro.netlist import NetlistBuilder, NetlistError, s27, write_bench
from repro.sim import BitParallelSimulator
from repro.tools import load_netlist, save_netlist, trace_to_vcd
from repro.tools import bound as bound_tool
from repro.tools import check as check_tool
from repro.tools.bound import main as bound_main
from repro.tools.check import main as check_main
from repro.tools.convert import main as convert_main
from repro.tools.io import check_writable
from repro.tools.trace import main as trace_main
from repro.tools.vcd import counterexample_to_vcd
from repro.unroll import BOUNDED, FALSIFIED, bmc


@pytest.fixture
def s27_bench(tmp_path):
    path = tmp_path / "s27.bench"
    path.write_text(write_bench(s27()))
    return str(path)


@pytest.fixture
def counter_aag(tmp_path):
    """A free-running 3-bit counter whose target ``c == 5`` is first
    hit at depth 5."""
    b = NetlistBuilder("count5")
    regs = b.registers(3, prefix="c")
    b.connect_word(regs, b.increment(regs))
    target = b.buf(b.word_eq(regs, b.word_const(5, 3)), name="t")
    b.net.add_target(target)
    b.net.add_output(target)
    path = tmp_path / "count5.aag"
    save_netlist(b.net, str(path))
    return str(path)


class TestFileIO:
    def test_bench_round_trip(self, tmp_path, s27_bench):
        net = load_netlist(s27_bench)
        assert net.num_registers() == 3
        out = tmp_path / "copy.bench"
        save_netlist(net, str(out))
        again = load_netlist(str(out))
        assert again.num_registers() == 3

    def test_aiger_round_trip(self, tmp_path, s27_bench):
        net = load_netlist(s27_bench)
        out = tmp_path / "s27.aag"
        save_netlist(net, str(out))
        again = load_netlist(str(out))
        assert again.num_registers() == 3
        assert len(again.inputs) == 4

    def test_aiger_keeps_targets_that_are_not_outputs(self, tmp_path,
                                                      s27_bench):
        # Output o = r toggles; target ``never`` = r AND NOT r does not.
        b = NetlistBuilder("toggle")
        r = b.register(name="r")
        b.connect(r, b.not_(r))
        b.net.add_output(b.buf(r, name="o"))
        b.net.add_target(b.buf(b.and_(r, b.not_(r)), name="never"))
        path = tmp_path / "toggle.aag"
        save_netlist(b.net, str(path))
        again = load_netlist(str(path))
        assert len(again.targets) == len(again.outputs) == 1
        assert bmc(again, again.targets[0], max_depth=4).status == BOUNDED
        assert bmc(again, again.outputs[0], max_depth=4).status == \
            FALSIFIED
        # Targets that are the outputs keep the five-count header.
        net = load_netlist(s27_bench)
        assert net.targets == net.outputs
        out = tmp_path / "s27.aag"
        save_netlist(net, str(out))
        assert len(out.read_text().splitlines()[0].split()) == 6

    def test_binary_aiger_load(self, tmp_path):
        # Toggle latch with an AIGER 1.9 bad-state property, in the
        # binary 'aig' distribution format (HWMCC style).
        path = tmp_path / "toggle.aig"
        path.write_bytes(b"aig 1 0 1 1 0 1\n3\n2\n2\nb0 unsafe\n")
        net = load_netlist(str(path))
        assert net.num_registers() == 1
        assert len(net.targets) == 1

    def test_unknown_extension_rejected(self, tmp_path):
        bad = tmp_path / "x.v"
        bad.write_text("")
        with pytest.raises(NetlistError):
            load_netlist(str(bad))
        with pytest.raises(NetlistError):
            save_netlist(s27(), str(tmp_path / "y.v"))


class TestVCD:
    def test_basic_dump(self):
        b = NetlistBuilder("wave")
        r = b.register(name="r")
        b.connect(r, b.not_(r))
        b.net.add_target(r)
        trace = BitParallelSimulator(b.net).run(4, lambda v, c: 0,
                                                observe=[r])
        text = trace_to_vcd(b.net, trace)
        assert "$var wire 1" in text
        assert " r $end" in text
        # Toggling register changes value at every cycle.
        assert text.count("#") >= 4

    def test_only_changes_emitted(self):
        b = NetlistBuilder("const")
        r = b.register(name="r")
        b.connect(r, r)
        b.net.add_target(r)
        trace = BitParallelSimulator(b.net).run(5, lambda v, c: 0,
                                                observe=[r])
        text = trace_to_vcd(b.net, trace)
        # One initial value line only (value never changes).
        value_lines = [ln for ln in text.splitlines()
                       if ln and ln[0] in "01" and not
                       ln.startswith("1 ns")]
        assert len(value_lines) == 1

    def test_mismatched_lengths_rejected(self):
        net = s27()
        with pytest.raises(ValueError):
            trace_to_vcd(net, {0: [0, 1], 1: [0]})

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_to_vcd(s27(), {})

    def test_counterexample_dump(self):
        b = NetlistBuilder("hit")
        sig = b.input("i")
        for k in range(2):
            sig = b.register(sig, name=f"p{k}")
        b.net.add_target(sig)
        result = bmc(b.net, sig, max_depth=5)
        text = counterexample_to_vcd(b.net, sig, result.counterexample)
        assert "$enddefinitions" in text
        assert " i $end" in text


class TestCLIs:
    def test_bound_cli(self, capsys, s27_bench):
        assert bound_main([s27_bench, "--strategy", "COM"]) == 0
        out = capsys.readouterr().out
        assert "G17" in out
        assert "|T'|/|T| = 1/1" in out

    def test_bound_cli_recurrence_bounder(self, capsys, s27_bench):
        assert bound_main([s27_bench, "--strategy", "",
                           "--bounder", "recurrence"]) == 0
        out = capsys.readouterr().out
        assert "d̂(t)" in out

    def test_bound_cli_strategy_alternatives(self, capsys, s27_bench):
        assert bound_main([s27_bench, "--strategy",
                           "COM/RET/COM,RET,COM"]) == 0
        out = capsys.readouterr().out
        assert "portfolio: 3 alternative(s)" in out
        assert "via" in out
        assert "|T'|/|T| = 1/1" in out

    def test_bound_cli_alternatives_structural_bounder(self, capsys,
                                                        s27_bench):
        assert bound_main([s27_bench, "--strategy", "COM/RET",
                           "--bounder", "structural"]) == 0
        assert "|T'|/|T| = 1/1" in capsys.readouterr().out

    def test_check_cli_bmc_finds_hit(self, capsys, s27_bench, tmp_path):
        vcd_path = tmp_path / "cex.vcd"
        rc = check_main([s27_bench, "--vcd", str(vcd_path)])
        assert rc == 1  # target is hittable
        assert vcd_path.exists()
        assert "FALSIFIED" in capsys.readouterr().out

    def test_check_cli_induction(self, capsys, tmp_path):
        b = NetlistBuilder("stuck")
        r = b.register(name="r")
        b.connect(r, r)
        b.net.add_target(b.buf(r, name="t"))
        b.net.add_output(b.net.targets[0])
        path = tmp_path / "stuck.bench"
        path.write_text(write_bench(b.net))
        rc = check_main([str(path), "--method", "induction"])
        assert rc == 0
        assert "PROVEN" in capsys.readouterr().out

    def test_check_cli_induction_reports_like_bmc(self, capsys,
                                                  s27_bench, tmp_path):
        vcd_path = tmp_path / "cex.vcd"
        rc = check_main([s27_bench, "--method", "induction",
                         "--certify", "--vcd", str(vcd_path)])
        assert rc == 1
        assert "G17                  FALSIFIED at depth 0 [certified]" \
            in capsys.readouterr().out
        assert vcd_path.read_text().startswith("$date")

    def test_check_cli_cegar(self, capsys, tmp_path):
        b = NetlistBuilder("stuck2")
        r = b.register(name="r")
        b.connect(r, r)
        b.net.add_target(b.buf(r, name="t"))
        b.net.add_output(b.net.targets[0])
        path = tmp_path / "stuck2.bench"
        path.write_text(write_bench(b.net))
        rc = check_main([str(path), "--method", "cegar"])
        assert rc == 0
        assert "PROVEN" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["bmc", "induction", "cegar"])
    def test_check_cli_falsified_reports_alike(self, method, capsys,
                                               counter_aag, tmp_path):
        # Every method reports a hit with its depth, waveform and
        # certification, through the same verdict line.
        vcd_path = tmp_path / "w.vcd"
        rc = check_main([counter_aag, "--method", method, "--certify",
                         "--vcd", str(vcd_path)])
        assert rc == 1
        assert (f"FALSIFIED at depth 5 [certified] (waveform: "
                f"{vcd_path})") in capsys.readouterr().out
        assert vcd_path.read_text().startswith("$date")

    def test_convert_cli(self, capsys, s27_bench, tmp_path):
        dest = tmp_path / "out.aag"
        assert convert_main([s27_bench, str(dest)]) == 0
        assert dest.exists()
        assert load_netlist(str(dest)).num_registers() == 3

    def test_convert_cli_with_transform(self, capsys, s27_bench,
                                        tmp_path):
        dest = tmp_path / "out2.aag"
        assert convert_main([s27_bench, str(dest),
                             "--transform", "COM"]) == 0
        assert load_netlist(str(dest)).num_registers() <= 3


#: (CLI, argv) pairs that are bad input; ``{...}`` names a path made by
#: the test: a missing file, a file that is not a netlist, an empty
#: ``.bench``, s27, an empty trace, a trace with one span, output files
#: with a supported and an unsupported extension, and an output file in
#: a directory that does not exist.
BAD_INPUT = {
    "bound-missing": (bound_main, ["{missing}"]),
    "bound-not-a-netlist": (bound_main, ["{junk}"]),
    "bound-empty-bench": (bound_main, ["{empty}"]),
    "bound-strategy": (bound_main, ["{s27}", "--strategy", "BOGUS"]),
    "bound-alternative": (bound_main, ["{s27}", "--strategy", "COM/BOGUS"]),
    "bound-not-2-slow": (bound_main, ["{s27}", "--strategy", "CSLOW:2"]),
    "bound-recurrence-alternatives": (bound_main, [
        "{s27}", "--strategy", "COM/RET", "--bounder", "recurrence"]),
    "check-missing": (check_main, ["{missing}"]),
    "check-not-a-netlist": (check_main, ["{junk}"]),
    "check-empty-bench": (check_main, ["{empty}"]),
    "check-strategy": (check_main, ["{s27}", "--strategy", "BOGUS"]),
    "check-induction-strategy": (check_main, [
        "{s27}", "--method", "induction", "--strategy", "BOGUS"]),
    "convert-missing": (convert_main, ["{missing}", "{out}"]),
    "convert-not-a-netlist": (convert_main, ["{junk}", "{out}"]),
    "convert-empty-bench": (convert_main, ["{empty}", "{out}"]),
    "convert-transform": (convert_main, [
        "{s27}", "{out}", "--transform", "BOGUS"]),
    "convert-destination": (convert_main, ["{s27}", "{bad_out}"]),
    "bound-timeout": (bound_main, ["{s27}", "--timeout", "-1"]),
    # The portfolio runs its alternatives in one process: no --jobs.
    "bound-jobs": (bound_main, ["{s27}", "--strategy", "COM/RET",
                                "--jobs", "2"]),
    "bound-threshold": (bound_main, ["{s27}", "--threshold", "0"]),
    "bound-refine-gc": (bound_main, ["{s27}", "--refine-gc", "-1"]),
    "trace-summary-top": (trace_main, ["summary", "{trace}", "--top", "-1"]),
    "trace-diff-top": (trace_main, [
        "diff", "{trace}", "{trace}", "--top", "-1"]),
    # A trace path with no trace file behind it.
    "trace-summary-missing": (trace_main, ["summary", "{missing}"]),
    "trace-export-missing": (trace_main, ["export", "{missing}"]),
    "trace-flame-missing": (trace_main, ["flame", "{missing}"]),
    "trace-diff-missing": (trace_main, ["diff", "{trace}", "{missing}"]),
    # A trace file that holds no span records.
    "trace-flame-no-spans": (trace_main, ["flame", "{trace}"]),
    **{f"check-{method}-max-depth": (check_main, [
        "{s27}", "--method", method, "--max-depth", "-1"])
       for method in ("bmc", "induction", "cegar")},
    # Out-of-range numbers on the experiment CLIs: a negative deadline,
    # a scale that is not positive, a negative register cap and fewer
    # than one worker.
    **{f"{name}-{flag}": (main, [f"--{flag}", value])
       for name, main in (("table1", table1_main),
                          ("table2", table2_main),
                          ("report", report_main))
       for flag, value in (("timeout", "-1"), ("scale", "-1"),
                           ("max-registers", "-5"), ("jobs", "-2"))},
    "table1-scale-zero": (table1_main, ["--scale", "0"]),
    # A --designs value that names no design: an error before any
    # design runs, not the whole table.
    "table1-designs": (table1_main, ["--designs", ","]),
    "table2-designs": (table2_main, ["--designs", " , "]),
    "report-designs-t1": (report_main, ["--designs-t1", ","]),
    # An output path that cannot be written.  repro-paper-report and
    # repro-check refuse it before any table or check runs.
    "report-out": (report_main, ["--out", "{unwritable}"]),
    "check-vcd": (check_main, ["{s27}", "--vcd", "{unwritable}"]),
    "trace-export-out": (trace_main, [
        "export", "{trace}", "--out", "{unwritable}"]),
    "trace-flame-out": (trace_main, [
        "flame", "{spans}", "--out", "{unwritable}"]),
}


class TestCLIBadInput:
    """Bad input is a usage error: exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_exit_2_without_traceback(self, case, capsys, tmp_path,
                                      s27_bench):
        junk = tmp_path / "junk.aag"
        junk.write_text("hello world\n")
        empty = tmp_path / "empty.bench"
        empty.write_text("")
        trace = tmp_path / "run.trace"
        trace.write_text("")
        spans = tmp_path / "spans.trace"
        spans.write_text('{"ty": "E", "t": 1.0, "path": "run", '
                         '"dur": 0.5}\n')
        paths = {"missing": str(tmp_path / "missing.aag"),
                 "junk": str(junk), "empty": str(empty), "s27": s27_bench,
                 "trace": str(trace), "spans": str(spans),
                 "out": str(tmp_path / "out.aag"),
                 "bad_out": str(tmp_path / "out.xyz"),
                 "unwritable": str(tmp_path / "no_such_dir" / "out")}
        main, argv = BAD_INPUT[case]
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_unwritable_output_refused_before_any_run(
            self, monkeypatch, capsys, tmp_path, s27_bench):
        # The report's tables and the checks would take their full
        # time before the write fails; neither may start.
        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(paper_report, "generate_report", never)
        monkeypatch.setattr(check_tool, "load_or_exit", never)
        out = str(tmp_path / "no_such_dir" / "out")
        for main, argv in ((report_main, ["--out", out]),
                           (check_main, [s27_bench, "--vcd", out])):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"error: cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("main, argv", [
        (bound_main, ["{s27}"]),
        (table1_main, []),
        (table2_main, []),
        (report_main, []),
    ], ids=["bound", "table1", "table2", "report"])
    def test_unwritable_trace_path_refused_before_any_run(
            self, main, argv, monkeypatch, capsys, tmp_path, s27_bench):
        # REPRO_TRACE names a file in a directory that does not exist:
        # one usage error, before any netlist loads or table runs.
        def never(*args, **kwargs):
            raise AssertionError("ran before the trace path was opened")

        monkeypatch.setattr(bound_tool, "load_or_exit", never)
        monkeypatch.setattr(runner, "run_table", never)
        monkeypatch.setattr(paper_report, "generate_report", never)
        path = str(tmp_path / "no_such_dir" / "t.jsonl")
        monkeypatch.setenv("REPRO_TRACE", path)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(s27=s27_bench) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot write REPRO_TRACE path {path}" in err
        assert "Traceback" not in err

    def test_writable_output_probe_changes_nothing(self, tmp_path):
        parser = argparse.ArgumentParser()
        fresh = tmp_path / "fresh.md"
        check_writable(parser, str(fresh))
        assert not fresh.exists()
        kept = tmp_path / "kept.md"
        kept.write_text("old")
        check_writable(parser, str(kept))
        assert kept.read_text() == "old"

    @pytest.mark.parametrize("method", ["bmc", "induction", "cegar"])
    def test_check_without_targets(self, method, capsys, tmp_path):
        # A .bench without OUTPUT lines parses to a netlist with no
        # targets: nothing to check is a usage error, not a pass.
        path = tmp_path / "no_outputs.bench"
        path.write_text("INPUT(a)\nb = NOT(a)\n")
        with pytest.raises(SystemExit) as exc:
            check_main([str(path), "--method", method])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: no targets to check" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("strategy", ["COM,RET,COM",
                                          "COM/COM,RET,COM"])
    def test_bound_without_targets(self, strategy, capsys, tmp_path):
        # One strategy and /-separated alternatives alike: no targets
        # means nothing was bounded, not |T'|/|T| = 0/0.
        path = tmp_path / "no_outputs.bench"
        path.write_text("INPUT(a)\nb = NOT(a)\n")
        with pytest.raises(SystemExit) as exc:
            bound_main([str(path), "--strategy", strategy])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error: no targets to bound" in captured.err
        assert "Traceback" not in captured.err
        assert "|T'|/|T|" not in captured.out
