"""Unit tests for the TBV engine (strategy pipelines + back-translation)."""

import time

import pytest

from repro.core import BOUNDED, PROVEN, TBVEngine, TRIVIAL_HIT
from repro.core import engine as engine_module
from repro.diameter import first_hit_time
from repro.gen import gp
from repro.netlist import NetlistBuilder, NetlistError, s27
from repro.resilience import Budget
from repro.transform import SweepConfig

from .test_fold import cslow_ring

FAST = SweepConfig(sim_cycles=4, sim_width=32, conflict_budget=500,
                   max_rounds=3)


def pipeline_with_junk(depth=3):
    """A pipeline plus redundant duplicate logic for COM to chew on."""
    b = NetlistBuilder("pipejunk")
    x = b.input("i")
    sig = x
    for k in range(depth):
        sig = b.register(sig, name=f"p{k}")
    dup = x
    for k in range(depth):
        dup = b.register(dup, name=f"q{k}")
    t = b.buf(b.or_(sig, dup), name="t")
    b.net.add_target(t)
    return b.net, t


class TestTBVEngine:
    def test_strategy_parsing(self):
        eng = TBVEngine("com, ret ,com")
        assert eng.strategy == ["COM", "RET", "COM"]

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            TBVEngine("COM,FROB").transform(NetlistBuilder().net)

    @pytest.mark.parametrize("strategy", ["COM,FROB", "COM:2", "CSLOW:x",
                                          "CSLOWX"])
    def test_unknown_token_rejected_at_construction(self, strategy):
        with pytest.raises(ValueError, match="unknown strategy token"):
            TBVEngine(strategy)

    def test_tokens_case_insensitive_with_cslow_factor(self):
        assert TBVEngine("com, cslow:2,RET").strategy == \
            ["COM", "CSLOW:2", "RET"]

    def test_empty_strategy_is_identity(self):
        net, t = pipeline_with_junk(2)
        result = TBVEngine("", sweep_config=FAST).run(net)
        assert result.netlist is net
        assert result.reports[0].status == BOUNDED

    def test_com_merges_duplicate_pipelines(self):
        net, t = pipeline_with_junk(3)
        chain = TBVEngine("COM", sweep_config=FAST).transform(net)
        assert chain.netlist.num_registers() == 3  # q* merged into p*

    def test_com_ret_com_eliminates_pipeline(self):
        net, t = pipeline_with_junk(3)
        result = TBVEngine("COM,RET,COM", sweep_config=FAST).run(net)
        assert result.netlist.num_registers() == 0
        report = result.reports[0]
        assert report.transformed_bound == 1  # combinational
        assert report.bound == 4  # Theorem 2: 1 + lag 3

    def test_back_translated_bound_sound(self):
        net, t = pipeline_with_junk(2)
        for strategy in ("", "COM", "COM,RET,COM"):
            result = TBVEngine(strategy, sweep_config=FAST).run(net)
            bound = result.reports[0].bound
            hit = first_hit_time(net, t)
            assert hit is not None and hit < bound, strategy

    def test_proven_status_for_constant_target(self):
        b = NetlistBuilder("dead")
        r = b.register(name="r")
        b.connect(r, r)  # stuck at 0
        t = b.buf(r, name="t")
        b.net.add_target(t)
        result = TBVEngine("COM", sweep_config=FAST).run(b.net)
        assert result.reports[0].status == PROVEN
        assert result.reports[0].bound == 0

    def test_trivial_hit_status(self):
        b = NetlistBuilder("alive")
        r = b.register(None, init=b.const1, name="r")
        b.connect(r, r)
        t = b.buf(r, name="t")
        b.net.add_target(t)
        result = TBVEngine("COM", sweep_config=FAST).run(b.net)
        assert result.reports[0].status == TRIVIAL_HIT

    def test_useful_and_average(self):
        net, t = pipeline_with_junk(2)
        result = TBVEngine("COM,RET,COM", sweep_config=FAST).run(net)
        useful = result.useful(threshold=50)
        assert len(useful) == 1
        assert result.average_bound(50) == useful[0].bound

    def test_custom_bounder_plugs_in(self):
        net, t = pipeline_with_junk(2)
        calls = []

        def bounder(final_net, target):
            calls.append(target)
            return 7

        result = TBVEngine("COM", bounder=bounder,
                           sweep_config=FAST).run(net)
        assert calls
        assert result.reports[0].transformed_bound == 7

    def test_cslow_strategy_token(self):
        b = NetlistBuilder("ring")
        r1 = b.register(name="s0")
        r2 = b.register(r1, name="s1")
        b.connect(r1, b.not_(r2))
        t = b.buf(r2, name="t")
        b.net.add_target(t)
        result = TBVEngine("CSLOW:2", sweep_config=FAST).run(b.net)
        assert result.netlist.num_registers() == 1
        report = result.reports[0]
        # Theorem 3: transformed bound doubled.
        assert report.bound == 2 * report.transformed_bound
        hit = first_hit_time(b.net, t)
        assert hit is not None and hit < report.bound

    def test_phase_strategy_token(self):
        b = NetlistBuilder("tp")
        clk1, clk2 = b.input("clk1"), b.input("clk2")
        l1 = b.latch(b.input("d"), clk1, name="L1")
        l2 = b.latch(l1, clk2, name="L2")
        t = b.buf(l2, name="t")
        b.net.add_target(t)
        result = TBVEngine("PHASE", sweep_config=FAST).run(b.net)
        assert result.netlist.latches == []
        report = result.reports[0]
        assert report.bound == 2 * report.transformed_bound


#: An input netlist each strategy token accepts.
TOKEN_INPUTS = {
    "COM": s27,
    "STRASH": s27,
    "RET": s27,
    "COI": s27,
    "PHASE": lambda: gp.generate_latched("L_SLB", scale=0.05),
    "CSLOW": lambda: cslow_ring(c=2)[0],
}


def snapshot(net):
    """Everything a transform could mutate: gates (type, fanins and
    name per vertex), targets and outputs."""
    return (net.name, list(net.gates()), list(net.targets),
            list(net.outputs))


class TestPrefixReuse:
    """``prefixes`` lets pipelines over one netlist share the chains of
    their common strategy prefixes."""

    @pytest.mark.parametrize("token", sorted(engine_module._TRANSFORMS))
    def test_transform_leaves_its_input_unchanged(self, token):
        # A stored chain's netlist is the next step's input in every
        # later pipeline, so no transform may mutate its input.
        assert set(TOKEN_INPUTS) == set(engine_module._TRANSFORMS)
        net = TOKEN_INPUTS[token]()
        before = snapshot(net)
        chain = TBVEngine(token, sweep_config=FAST).transform(net)
        assert chain.netlist is not net
        assert snapshot(net) == before

    def test_resumes_from_longest_prefix_and_stores_each_step(self):
        net = s27()
        prefixes = {}
        com = TBVEngine("COM", sweep_config=FAST).transform(
            net, prefixes=prefixes)
        assert prefixes == {("COM",): com}
        crc = TBVEngine("COM,RET,COM", sweep_config=FAST).transform(
            net, prefixes=prefixes)
        assert set(prefixes) == {("COM",), ("COM", "RET"),
                                 ("COM", "RET", "COM")}
        assert prefixes[("COM", "RET", "COM")] is crc
        assert crc.steps[0] is com.steps[0]
        assert prefixes[("COM", "RET")].netlist is not com.netlist
        again = TBVEngine("COM,RET,COM", sweep_config=FAST).transform(
            net, prefixes=prefixes)
        assert again is crc

    def test_failed_step_is_not_stored(self):
        net = s27()
        prefixes = {}
        with pytest.raises(NetlistError, match="not 2-slow"):
            TBVEngine("COM,CSLOW:2", sweep_config=FAST).transform(
                net, prefixes=prefixes)
        assert set(prefixes) == {("COM",)}

    def test_chain_over_another_netlist_is_not_reused(self):
        net = s27()
        prefixes = {}
        TBVEngine("COM", sweep_config=FAST).transform(
            net, prefixes=prefixes)
        other = net.copy()
        chain = TBVEngine("COM", sweep_config=FAST).transform(
            other, prefixes=prefixes)
        assert chain.original is other

    def test_step_that_ends_past_the_deadline_is_not_stored(
            self, monkeypatch):
        # A COM cut short by its budget may have merged less, so the
        # next pipeline must sweep again under its own budget.  COI
        # stands in for it: it always finishes, then waits out the
        # deadline.
        real = engine_module._TRANSFORMS["COI"]

        def coi_until_deadline(engine, net, arg, budget):
            result = real(engine, net, arg, budget)
            while budget.exhausted() is None:
                time.sleep(0.01)
            return result

        monkeypatch.setitem(engine_module._TRANSFORMS, "COI",
                            coi_until_deadline)
        prefixes = {}
        chain = TBVEngine("COI", sweep_config=FAST).transform(
            s27(), budget=Budget(wall_seconds=0.2), prefixes=prefixes)
        assert len(chain.steps) == 1
        assert prefixes == {}
