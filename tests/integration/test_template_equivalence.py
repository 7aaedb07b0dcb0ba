"""Golden equivalence: template stamping vs the reference walk.

The template layer's parity contract (see :mod:`repro.sat.template`)
promises *identical solver state*, hence identical CDCL search, hence
identical verdicts, bounds and counterexample traces — not merely
equivalent ones.  These tests pin that end to end across the engines
that consume unrollings, by swapping the reference walk of
``tests/unit/test_template.py`` into :class:`~repro.unroll.Unrolling`,
and pin the cache economics (hits across portfolio strategies and
across worker processes).
"""

import pytest

from repro import obs
from repro.core import compare_strategies
from repro.core.prove import prove
from repro.diameter.recurrence import recurrence_diameter
from repro.netlist import NetlistBuilder, s27
from repro.sat.template import clear_template_cache
from repro.unroll import FALSIFIED, PROVEN, bmc, k_induction

from ..unit.test_template import walked_frames


def counter_target(width, hit_value):
    b = NetlistBuilder(f"counter{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.word_eq(regs, b.word_const(hit_value, width))
    b.net.add_target(b.buf(t, name="t"))
    return b.net


def unreachable_target():
    b = NetlistBuilder("stuck")
    r = b.register(name="r")
    b.connect(r, r)
    b.net.add_target(r)
    return b.net


def both_paths(run):
    """Run ``run()`` with unrolled frames walked, then stamped (cold
    cache)."""
    clear_template_cache()
    with walked_frames():
        direct = run()
    clear_template_cache()
    templated = run()
    return direct, templated


class TestGoldenVerdicts:
    def test_bmc_counterexample_is_bit_identical(self):
        net = counter_target(3, 5)
        direct, templ = both_paths(lambda: bmc(net, max_depth=10))
        assert direct.status == templ.status == FALSIFIED
        assert direct.depth_checked == templ.depth_checked
        cd, ct = direct.counterexample, templ.counterexample
        assert cd.depth == ct.depth
        assert cd.inputs == ct.inputs
        assert cd.initial_state == ct.initial_state

    def test_bmc_proven_matches(self):
        net = unreachable_target()
        direct, templ = both_paths(
            lambda: bmc(net, max_depth=10, complete_bound=3))
        assert direct == templ
        assert direct.status == PROVEN

    def test_bmc_s27_matches(self):
        net = s27()
        direct, templ = both_paths(lambda: bmc(net, max_depth=6))
        assert direct.status == templ.status
        assert direct.depth_checked == templ.depth_checked
        if direct.counterexample is not None:
            assert direct.counterexample == templ.counterexample

    def test_k_induction_proven_matches(self):
        net = unreachable_target()
        direct, templ = both_paths(lambda: k_induction(net, max_k=6))
        assert direct == templ
        assert direct.status == PROVEN

    def test_k_induction_falsified_matches(self):
        net = counter_target(2, 3)
        direct, templ = both_paths(lambda: k_induction(net, max_k=8))
        assert direct.status == templ.status == FALSIFIED
        assert direct.counterexample.inputs \
            == templ.counterexample.inputs
        assert direct.counterexample.initial_state \
            == templ.counterexample.initial_state

    @pytest.mark.parametrize("from_init", [False, True])
    def test_recurrence_bound_matches(self, from_init):
        net = counter_target(3, 7)
        direct, templ = both_paths(
            lambda: recurrence_diameter(net, from_init=from_init,
                                        max_k=12))
        assert direct.bound == templ.bound
        assert direct.exact == templ.exact

    def test_prove_full_stack_matches(self):
        net = s27()
        direct, templ = both_paths(lambda: prove(net))
        assert direct.status == templ.status
        assert direct.method == templ.method
        assert direct.bound == templ.bound


class TestCacheEconomics:
    def test_portfolio_strategies_share_one_compilation(self):
        """A multi-strategy portfolio run compiles each distinct
        netlist structure at most once; re-proving a *fresh* but
        structurally-identical netlist compiles nothing new — every
        template comes out of the cache (the key is the structural
        signature, not object identity)."""
        clear_template_cache()
        reg = obs.get_registry()
        hits0 = reg.counter_value("template.hits")
        compiles0 = reg.counter_value("template.compiles")
        stamped0 = reg.counter_value("template.frames_stamped")
        strategies = ("", "STRASH", "COM")
        prove(s27(), strategies=strategies)
        hits1 = reg.counter_value("template.hits") - hits0
        compiles1 = reg.counter_value("template.compiles") - compiles0
        stamped1 = reg.counter_value("template.frames_stamped") - stamped0
        assert compiles1 >= 1
        assert hits1 > 0
        assert stamped1 > 0
        # Second run over fresh objects: pure cache hits, zero
        # compiles.
        prove(s27(), strategies=strategies)
        compiles2 = reg.counter_value("template.compiles") \
            - compiles0 - compiles1
        hits2 = reg.counter_value("template.hits") - hits0 - hits1
        assert compiles2 == 0
        assert hits2 >= hits1 + compiles1

    def test_worker_processes_report_template_counters(self):
        """Under ``jobs=2`` each worker grows its own process-local
        cache; the merged snapshot surfaces their counters under the
        ``parallel/<pool>/<label>/`` prefix."""
        reg = obs.get_registry()
        snap0 = reg.snapshot()["counters"]
        compare_strategies(s27(), strategies=("COM", "COM,RET,COM"),
                           jobs=2)
        snap = reg.snapshot()["counters"]
        merged = {
            key: value - snap0.get(key, 0)
            for key, value in snap.items()
            if key.startswith("parallel/")
            and key.endswith("template.frames_stamped")
        }
        assert merged, "no worker template counters merged"
        assert sum(merged.values()) > 0
