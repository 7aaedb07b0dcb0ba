"""Unit tests for strategy portfolios, fixed retiming, and bounded-COI
recurrence diameters."""

import importlib

import pytest

from repro.core import DEFAULT_STRATEGIES, compare_strategies
from repro.core.portfolio import run_strategy
from repro.diameter import (
    first_hit_time,
    recurrence_diameter,
    recurrence_diameter_for_target,
)
from repro.gen.protocols import fifo_with_flags
from repro.netlist import NetlistBuilder, NetlistError
from repro.transform import SweepConfig, retime

FAST = SweepConfig(sim_cycles=6, sim_width=32, conflict_budget=200)


def pipeline_plus_counter():
    """A pipeline target next to an unrelated free-running counter."""
    b = NetlistBuilder("mix")
    sig = b.input("i")
    for k in range(3):
        sig = b.register(sig, name=f"p{k}")
    t = b.buf(sig, name="t")
    b.net.add_target(t)
    regs = b.registers(4, prefix="c")
    b.connect_word(regs, b.increment(regs))
    b.net.add_output(b.buf(b.and_(*regs), name="obs"))
    return b.net, t


class TestPortfolio:
    def test_runs_all_strategies(self):
        net, t = pipeline_plus_counter()
        portfolio = compare_strategies(net, sweep_config=FAST)
        assert len(portfolio.outcomes) == len(DEFAULT_STRATEGIES)
        assert all(o.ok for o in portfolio.outcomes)

    def test_best_bound_is_minimum(self):
        net, t = pipeline_plus_counter()
        portfolio = compare_strategies(
            net, strategies=("", "COM,RET,COM"), sweep_config=FAST)
        bound, strategy = portfolio.best(t)
        per_strategy = []
        for outcome in portfolio.outcomes:
            for report in outcome.result.reports:
                if report.target == t and report.bound is not None:
                    per_strategy.append(report.bound)
        assert bound == min(per_strategy)

    def test_best_bound_sound(self):
        net, t = pipeline_plus_counter()
        portfolio = compare_strategies(net, sweep_config=FAST)
        bound, _ = portfolio.best(t)
        hit = first_hit_time(net, t)
        assert hit is not None and hit < bound

    def test_failing_strategy_recorded(self):
        net, t = pipeline_plus_counter()
        portfolio = compare_strategies(net, strategies=("CSLOW", "COM"),
                                       sweep_config=FAST)
        cslow = portfolio.outcomes[0]
        assert not cslow.ok and cslow.error
        assert portfolio.outcomes[1].ok

    def test_portfolio_useful_dominates_singles(self):
        net, t = pipeline_plus_counter()
        portfolio = compare_strategies(net, sweep_config=FAST)
        singles = [len(o.result.useful()) for o in portfolio.outcomes
                   if o.ok]
        assert portfolio.useful() >= max(singles)

    def test_shared_prefixes_match_independent_strategies(
            self, monkeypatch):
        # One of prove()'s benchmark properties, scoped as prove()
        # scopes it: COM,RET,COM resumes from the COM strategy's chain,
        # and every outcome is what the strategy gives on its own.
        net, t = fifo_with_flags(3, 2)
        scoped = net.copy()
        scoped.targets = [t]
        redundancy = importlib.import_module("repro.transform.redundancy")
        real_com = redundancy.redundancy_removal
        swept = []

        def com(net, *args, **kwargs):
            swept.append(net)
            return real_com(net, *args, **kwargs)

        monkeypatch.setattr(redundancy, "redundancy_removal", com)
        portfolio = compare_strategies(scoped, refine_gc_limit=6)
        assert len(swept) == 2  # COM, then COM,RET,COM's last COM
        for outcome in portfolio.outcomes:
            alone = run_strategy(scoped, outcome.strategy, None, 6, None)
            assert outcome.ok and alone.ok
            assert outcome.result.reports == alone.result.reports
        assert portfolio.best(t)[0] == 0

    def test_summary_renders(self):
        net, t = pipeline_plus_counter()
        portfolio = compare_strategies(net, strategies=("", "CSLOW"),
                                       sweep_config=FAST)
        text = portfolio.summary()
        assert "portfolio" in text
        assert "failed" in text


class TestFixedRetiming:
    def test_pinned_input_keeps_lag_zero(self):
        b = NetlistBuilder("pin")
        x = b.input("x")
        sig = x
        for k in range(3):
            sig = b.register(sig, name=f"p{k}")
        b.net.add_target(b.buf(sig, name="t"))
        free = retime(b.net)
        assert free.netlist.num_registers() == 0
        pinned = retime(b.net, fixed=[x])
        assert pinned.info["input_lags"]["x"] == 0
        # With the input pinned, registers can still move (the target
        # buffer absorbs them) but the input stream is untouched.
        assert pinned.step.kind is free.step.kind

    def test_pinning_register_rejected(self):
        b = NetlistBuilder("pinreg")
        x = b.input("x")
        r = b.register(x, name="r")
        b.net.add_target(b.buf(r, name="t"))
        with pytest.raises(NetlistError):
            retime(b.net, fixed=[r])

    def test_pinned_target_has_zero_lag(self):
        b = NetlistBuilder("pint")
        x = b.input("x")
        r = b.register(x, name="r")
        t = b.buf(r, name="t")
        b.net.add_target(t)
        result = retime(b.net, fixed=[x, t])
        assert result.step.lags[t] == 0
        # Nothing could move: the register count is preserved.
        assert result.netlist.num_registers() == 1


class TestBoundedCOIRecurrence:
    def test_coi_restriction_tightens(self):
        net, t = pipeline_plus_counter()
        full = recurrence_diameter(net, from_init=True, max_k=20)
        scoped = recurrence_diameter_for_target(net, t, max_k=20)
        assert scoped.exact
        # The pipeline cone alone still admits de-Bruijn-style simple
        # paths through all 2^3 states (the recurrence diameter's
        # inherent looseness on pipelines — Section 1), but the
        # unrelated free-running counter no longer multiplies in: the
        # full-design path exceeds the budget, the scoped one is exact.
        assert scoped.bound == 8
        assert not full.exact
        assert full.bound > scoped.bound

    def test_scoped_bound_still_sound(self):
        net, t = pipeline_plus_counter()
        scoped = recurrence_diameter_for_target(net, t, max_k=40)
        hit = first_hit_time(net, t)
        assert hit is not None and hit < scoped.bound
