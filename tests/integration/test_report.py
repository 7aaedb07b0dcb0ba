"""Integration test for the markdown report generator."""

import pytest

from repro.experiments.report import generate_report, main
from repro.experiments.table1 import main as table1_main
from repro.experiments.table2 import main as table2_main


class TestReport:
    def test_generate_report_content(self):
        report = generate_report(scale=1.0, max_registers=None,
                                 designs_t1=["S27"],
                                 designs_t2=["W_SFA"])
        assert "# Experimental report" in report
        assert "Table 1" in report and "Table 2" in report
        assert "Headline shape" in report
        assert "paper full-scale" in report

    def test_main_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main(["--out", str(out), "--designs-t1", "S27",
                   "--designs-t2", "W_SFA", "--scale", "1.0"])
        assert rc == 0
        assert out.exists()
        assert "Σ" in out.read_text()

    def test_main_stdout(self, capsys):
        rc = main(["--designs-t1", "S27", "--designs-t2", "W_SFA",
                   "--scale", "1.0"])
        assert rc == 0
        assert "Experimental report" in capsys.readouterr().out


class TestDesignNames:
    """Unknown ``--designs`` names are a usage error, not an empty
    table; known names match case-insensitively."""

    @pytest.mark.parametrize("cli, argv", [
        (table1_main, ["--designs", "S27,BOGUS"]),
        (table2_main, ["--designs", "BOGUS"]),
        (main, ["--designs-t1", "BOGUS", "--designs-t2", "BOGUS"]),
        (main, ["--designs-t1", "S27", "--designs-t2", "s27"]),
    ])
    def test_unknown_design_rejected(self, capsys, cli, argv):
        with pytest.raises(SystemExit) as exc:
            cli(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown design(s)" in err
        assert "BOGUS" in err or "s27" in err

    def test_lower_case_name_selects_design(self, capsys):
        assert table1_main(["--designs", "s27", "--scale", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "S27" in out
        assert "Σ" in out and "0/0" not in out
