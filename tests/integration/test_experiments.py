"""Integration tests for the Table 1 / Table 2 experiment harness."""

import importlib
from functools import partial

import pytest

from repro.core import TBVEngine
from repro.diameter import StructuralAnalysis
from repro.experiments import (
    compare_useful_fractions,
    cumulative,
    evaluate_design,
    format_comparison,
    format_table,
    shape_holds,
)
from repro.experiments.runner import LATCHED_STRATEGY, PIPELINES, \
    _STRATEGY, _profile_tuple
from repro.experiments.table1 import run as run_table1
from repro.experiments.table2 import run as run_table2
from repro.gen import gp, iscas89
from repro.gen.profiles import USEFUL_THRESHOLD
from repro.transform import SweepConfig

FAST = SweepConfig(sim_cycles=8, sim_width=32, conflict_budget=300)

#: Small, fast, behaviour-diverse subsets for CI-grade runs.
T1_SUBSET = ["S953", "S641", "S1488", "S27", "S298"]
T2_SUBSET = ["L_SLB", "L_FLUSHN", "W_SFA"]


class TestTable1Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(scale=1.0, designs=T1_SUBSET,
                          sweep_config=FAST)

    def test_row_per_design(self, rows):
        assert {r.name for r in rows} == set(T1_SUBSET)

    def test_columns_complete(self, rows):
        for row in rows:
            assert set(row.columns) == {"original", "com", "crc"}
            for col in row.columns.values():
                assert col.targets > 0
                assert 0 <= col.useful <= col.targets

    def test_useful_counts_grow_along_pipeline(self, rows):
        sigma = cumulative(rows)
        assert sigma.columns["original"].useful <= \
            sigma.columns["com"].useful <= sigma.columns["crc"].useful

    def test_shape_matches_paper(self, rows):
        profiles = [iscas89.profile(n) for n in T1_SUBSET]
        comparisons = compare_useful_fractions(rows, profiles)
        assert shape_holds(comparisons)
        # CRC must deliver a strict improvement over the original on
        # this subset, as it does in the paper.
        assert comparisons[2].measured_useful > \
            comparisons[0].measured_useful

    def test_exact_match_on_selected_designs(self, rows):
        # These profiles reproduce the paper's trios exactly.
        by_name = {r.name: r for r in rows}
        for name in ("S953", "S641", "S1488"):
            row = by_name[name]
            trio = (row.columns["original"].useful,
                    row.columns["com"].useful,
                    row.columns["crc"].useful)
            assert trio == iscas89.profile(name).useful_trio, name

    def test_formatting_renders(self, rows):
        text = format_table(rows, "Table 1 subset")
        assert "Original Netlist" in text
        assert "Σ" in text
        comparisons = compare_useful_fractions(
            rows, [iscas89.profile(n) for n in T1_SUBSET])
        assert "paper" in format_comparison(comparisons, "cmp")


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table2(scale=0.5, designs=T2_SUBSET,
                          sweep_config=FAST)

    def test_row_per_design(self, rows):
        assert {r.name for r in rows} == set(T2_SUBSET)

    def test_monotone_useful(self, rows):
        sigma = cumulative(rows)
        assert sigma.columns["original"].useful <= \
            sigma.columns["crc"].useful

    def test_register_profiles_populated(self, rows):
        for row in rows:
            cc, ac, mcqc, gc = row.columns["original"].profile
            assert cc + ac + mcqc + gc > 0


class TestLatchedTable2:
    def test_latched_flow_runs_phase_front_end(self):
        from repro.experiments.table2 import run_latched

        rows = run_latched(scale=0.05, designs=["L_SLB"],
                           sweep_config=FAST)
        assert len(rows) == 1
        row = rows[0]
        assert row.name.endswith("-latched")
        # Every column's netlist was register-based after PHASE, so
        # profiles are populated and usefulness is monotone.
        for col in row.columns.values():
            assert sum(col.profile) >= 0
        assert row.columns["original"].useful <= \
            row.columns["crc"].useful + 1


class TestEvaluateDesign:
    def test_single_design_evaluation(self):
        net = iscas89.generate("S27")
        row = evaluate_design(net, sweep_config=FAST)
        assert row.name == "S27"
        assert row.columns["original"].targets == 1

    def test_scaled_generation_capped(self):
        from repro.experiments.runner import run_table

        rows = run_table(iscas89.generate,
                         [iscas89.profile("S13207_1")],
                         scale=1.0, max_registers=60,
                         sweep_config=FAST)
        cc, ac, mcqc, gc = rows[0].columns["original"].profile
        assert cc + ac + mcqc + gc <= 90  # cap plus motif slack


def independent_columns(net, strategies):
    """Each column from its own engine run and its own analysis: what
    evaluate_design computed before pipelines shared prefixes."""
    columns = {}
    for pipeline in PIPELINES:
        result = TBVEngine(strategies[pipeline],
                           sweep_config=FAST).run(net)
        columns[pipeline] = (
            _profile_tuple(StructuralAnalysis(result.netlist)),
            len(result.useful(USEFUL_THRESHOLD)), len(net.targets),
            result.average_bound(USEFUL_THRESHOLD))
    return columns


class TestSharedPrefixes:
    """evaluate_design computes each transform prefix once per design
    and reads the profile from the engine's own analysis; every column
    stays what an independent run gives."""

    @pytest.mark.parametrize("make, strategies", [
        pytest.param(partial(iscas89.generate, name), _STRATEGY, id=name)
        for name in ("S27", "S298", "S953")
    ] + [
        pytest.param(partial(gp.generate, name, scale=0.5), _STRATEGY,
                     id=name)
        for name in ("L_SLB", "W_SFA")
    ] + [
        pytest.param(partial(gp.generate_latched, "L_SLB", scale=0.05),
                     LATCHED_STRATEGY, id="L_SLB-latched"),
    ])
    def test_columns_match_independent_runs(self, make, strategies):
        net = make()
        row = evaluate_design(net, sweep_config=FAST,
                              strategy_map=strategies)
        shared = {pipeline: (col.profile, col.useful, col.targets,
                             col.average)
                  for pipeline, col in row.columns.items()}
        assert shared == independent_columns(net, strategies)

    def test_com_sweeps_the_original_and_the_retimed_netlist_once(
            self, monkeypatch):
        redundancy = importlib.import_module("repro.transform.redundancy")
        retime = importlib.import_module("repro.transform.retime")
        swept, retimed = [], []
        real_com, real_ret = redundancy.redundancy_removal, retime.retime

        def com(net, *args, **kwargs):
            swept.append(net)
            return real_com(net, *args, **kwargs)

        def ret(net, *args, **kwargs):
            result = real_ret(net, *args, **kwargs)
            retimed.append(result.netlist)
            return result

        monkeypatch.setattr(redundancy, "redundancy_removal", com)
        monkeypatch.setattr(retime, "retime", ret)
        net = iscas89.generate("S298")
        evaluate_design(net, sweep_config=FAST)
        assert len(retimed) == 1
        assert len(swept) == 2
        assert swept[0] is net and swept[1] is retimed[0]
