"""Unit tests for the top-level verification manager."""

import pytest

from repro import obs
from repro.cert import use_certification
from repro.core import FALSIFIED, PROVEN, UNKNOWN, prove
from repro.core.prove import ProofResult
from repro.diameter import first_hit_time
from repro.gen.protocols import round_robin_arbiter
from repro.netlist import NetlistBuilder
from repro.transform import SweepConfig
from repro.unroll import replay_counterexample

FAST = SweepConfig(sim_cycles=6, sim_width=32, conflict_budget=200)


def mod_counter_target(width, modulus, value):
    b = NetlistBuilder("mod")
    regs = b.registers(width, prefix="c")
    wrap = b.word_eq(regs, b.word_const(modulus - 1, width))
    bump = b.word_mux(wrap, b.word_const(0, width), b.increment(regs))
    b.connect_word(regs, bump)
    t = b.buf(b.word_eq(regs, b.word_const(value, width)), name="t")
    b.net.add_target(t)
    return b.net, t


class TestProve:
    def test_proves_by_transformation(self):
        # XOR of merged duplicate pipelines: COM discharges outright.
        b = NetlistBuilder("dup")
        x = b.input("x")
        a = c = x
        for k in range(2):
            a = b.register(a, name=f"a{k}")
            c = b.register(c, name=f"b{k}")
        t = b.buf(b.xor(a, c), name="t")
        b.net.add_target(t)
        result = prove(b.net, sweep_config=FAST)
        assert result.status == PROVEN
        assert result.method in ("transformation", "complete-bmc")

    def test_proves_by_complete_bmc(self):
        net, t = mod_counter_target(3, 6, 7)  # value 7 unreachable
        result = prove(net, sweep_config=FAST, refine_gc_limit=4)
        assert result.status == PROVEN
        assert result.method == "complete-bmc"
        assert result.bound == 6

    def test_falsifies_within_bound(self):
        net, t = mod_counter_target(3, 6, 4)  # reachable at time 4
        result = prove(net, sweep_config=FAST, refine_gc_limit=4)
        assert result.status == FALSIFIED
        assert result.counterexample.depth == first_hit_time(net, t)
        assert replay_counterexample(net, t, result.counterexample)

    def test_falls_back_to_induction(self):
        # Stuck register behind a big useless bound: k-induction wins.
        b = NetlistBuilder("stuckdeep")
        regs = b.registers(8, prefix="c")
        b.connect_word(regs, b.increment(regs))  # bound 256
        dead = b.register(name="dead")
        b.connect(dead, dead)
        t = b.buf(b.and_(dead, b.or_(*regs)), name="t")
        b.net.add_target(t)
        result = prove(b.net, sweep_config=FAST, max_complete_depth=16,
                       quick_bmc_depth=3, induction_k=3)
        assert result.status == PROVEN
        assert result.method in ("k-induction", "transformation",
                                 "localization")

    def test_deep_counterexample_via_quick_bmc_budget(self):
        # Bound 12 > 8 skips complete BMC; the hit at t = 9 lies past
        # induction_k + 1 = 9 frames but inside quick_bmc_depth = 10.
        net, t = mod_counter_target(4, 12, 9)
        result = prove(net, sweep_config=FAST, max_complete_depth=8,
                       refine_gc_limit=4)
        assert (result.status, result.method) == (FALSIFIED, "bmc")
        assert result.counterexample.depth == first_hit_time(net, t)
        assert replay_counterexample(net, t, result.counterexample)

    def test_unknown_when_everything_exhausted(self):
        # Large counter, unreachable value, and budgets too small for
        # any engine to conclude.
        net, t = mod_counter_target(6, 40, 60)
        result = prove(net, sweep_config=FAST, max_complete_depth=5,
                       quick_bmc_depth=2, induction_k=1)
        assert result.status == UNKNOWN
        assert result.log

    def test_requires_target(self):
        b = NetlistBuilder("none")
        b.input("x")
        with pytest.raises(ValueError):
            prove(b.net)

    def test_result_log_narrates(self):
        net, t = mod_counter_target(2, 3, 3)
        result = prove(net, sweep_config=FAST, refine_gc_limit=4)
        assert isinstance(result, ProofResult)
        assert any("portfolio" in line for line in result.log)
        assert result.seconds >= 0


def traced_prove(net, target, **kwargs):
    """``prove`` under a fresh registry; returns (result, snapshot)."""
    with obs.scoped(obs.Registry("prove")) as reg:
        result = prove(net, target, **kwargs)
        return result, reg.snapshot()


class TestPhaseHandoffs:
    """Later phases start from what earlier ones already solved."""

    ARBITER = dict(max_complete_depth=8, refine_gc_limit=3)

    def test_base_window_is_solved_once(self):
        # Bound 16 > 8 sends arbiter4 to k-induction, whose base case
        # is the search for shallow counterexamples: no quick BMC runs
        # before it and it calls no bmc() of its own.
        result, snap = traced_prove(*round_robin_arbiter(4),
                                    **self.ARBITER)
        assert (result.status, result.method, result.bound) == \
            (PROVEN, "k-induction", 16)
        timers = snap["timers"]
        assert not [p for p in timers if p.startswith("prove/quick-bmc")]
        assert not [p for p in timers
                    if p.startswith("prove/k-induction/bmc")]
        assert "prove/k-induction/induction/step" in timers

    def test_certified_k_induction_checks_each_window_once(self):
        with use_certification(True):
            result, snap = traced_prove(*round_robin_arbiter(4),
                                        **self.ARBITER)
        assert (result.status, result.method) == (PROVEN, "k-induction")
        # The base solver's proof log and the step solver's, each
        # checked once.
        assert snap["counters"]["cert.checked"] == 2
        assert "cert.failed" not in snap["counters"]

    @pytest.mark.parametrize("unrelated, bmc_runs", [(False, 1),
                                                      (True, 2)])
    def test_localization_counterexample_is_not_solved_again(
            self, unrelated, bmc_runs):
        # A 7-bit counter hits 12: bound 128 gets it past k-induction
        # and its 10-frame base window to localization.  With every
        # register kept the abstraction is exact and CEGAR's one BMC
        # runs on the netlist; an unrelated register makes CEGAR
        # concretize the abstract hit itself.  prove() runs no BMC of
        # its own on top.
        b = NetlistBuilder("count12")
        regs = b.registers(7, prefix="c")
        b.connect_word(regs, b.increment(regs))
        t = b.buf(b.word_eq(regs, b.word_const(12, 7)), name="t")
        b.net.add_target(t)
        if unrelated:
            u = b.register(name="u")
            b.connect(u, b.not_(u))
        result, snap = traced_prove(b.net, t)
        assert (result.status, result.method) == (FALSIFIED, "localization")
        assert result.counterexample.depth == 12
        assert replay_counterexample(b.net, t, result.counterexample)
        assert snap["timers"]["prove/localization/bmc"]["count"] == \
            bmc_runs
        assert snap["timers"]["prove/localization"]["count"] == 1
