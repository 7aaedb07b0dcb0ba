"""Unit tests for the reachable-state GC refinement."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.diameter import StructuralAnalysis, first_hit_time, \
    state_diameter
from repro.gen.protocols import round_robin_arbiter
from repro.netlist import NetlistBuilder

from ..property.strategies import small_netlists


def mod_counter(width, modulus):
    """A counter wrapping at ``modulus`` (reachable states < 2**width)."""
    b = NetlistBuilder(f"mod{modulus}")
    regs = b.registers(width, prefix="c")
    wrap = b.word_eq(regs, b.word_const(modulus - 1, width))
    bump = b.word_mux(wrap, b.word_const(0, width), b.increment(regs))
    b.connect_word(regs, bump)
    t = b.buf(b.word_eq(regs, b.word_const(modulus - 1, width)),
              name="t")
    b.net.add_target(t)
    return b.net, t


class TestGCRefinement:
    def test_mod6_counter_refined_to_six(self):
        net, t = mod_counter(3, 6)
        coarse = StructuralAnalysis(net)
        refined = StructuralAnalysis(net, refine_gc_limit=4)
        assert coarse.bound(t) == 8  # 2**3
        assert refined.bound(t) == 6  # reachable states

    def test_refinement_matches_paper_style_numbers(self):
        # A 6-register component with 33 reachable states yields the
        # paper's S1488-style bound of 33 instead of 64.
        net, t = mod_counter(6, 33)
        refined = StructuralAnalysis(net, refine_gc_limit=6)
        assert refined.bound(t) == 33

    def test_limit_zero_disables(self):
        net, t = mod_counter(3, 6)
        analysis = StructuralAnalysis(net, refine_gc_limit=0)
        assert analysis.bound(t) == 8

    def test_oversized_components_untouched(self):
        net, t = mod_counter(3, 6)
        analysis = StructuralAnalysis(net, refine_gc_limit=2)
        assert analysis.bound(t) == 8

    def test_refined_bound_still_sound(self):
        net, t = mod_counter(3, 5)
        refined = StructuralAnalysis(net, refine_gc_limit=4)
        hit = first_hit_time(net, t)
        assert hit is not None and hit < refined.bound(t)

    def test_composition_with_upstream_pipeline(self):
        # pipeline -> mod counter: d_in multiplies the refined count.
        b = NetlistBuilder("pipe-mod")
        en = b.input("en")
        for k in range(2):
            en = b.register(en, name=f"p{k}")
        regs = b.registers(3, prefix="c")
        wrap = b.word_eq(regs, b.word_const(4, 3))
        bump = b.word_mux(wrap, b.word_const(0, 3), b.increment(regs))
        b.connect_word(regs, b.word_mux(en, bump, regs))
        t = b.buf(b.and_(*regs), name="t")
        b.net.add_target(t)
        refined = StructuralAnalysis(b.net, refine_gc_limit=4)
        coarse = StructuralAnalysis(b.net)
        assert refined.bound(t) < coarse.bound(t)
        assert refined.bound(t) == 3 * 5  # d_in (pipe+1) * states

    def test_cache_reused(self):
        net, t = mod_counter(3, 6)
        analysis = StructuralAnalysis(net, refine_gc_limit=4)
        assert analysis.bound(t) == analysis.bound(t)


SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


@SETTINGS
@given(small_netlists(max_registers=3, max_inputs=2))
def test_refined_bounds_sound_on_random_netlists(net):
    target = net.targets[0]
    hit = first_hit_time(net, target)
    if hit is not None:
        bound = StructuralAnalysis(net, refine_gc_limit=4).bound(target)
        assert hit < bound


@pytest.mark.parametrize("requesters", range(3, 8))
def test_refined_arbiter_bounds_sound_against_exact_oracle(requesters):
    # The arbiter's one-hot token ring is one GC of ``requesters``
    # registers.  Refinement must stay at or above the exact state
    # diameter and beat the coarse 2**n; the refined value itself is
    # not pinned, so a tighter per-component rule may lower it.
    net, target = round_robin_arbiter(requesters)
    refined = StructuralAnalysis(
        net, refine_gc_limit=requesters).bound(target)
    coarse = StructuralAnalysis(net).bound(target)
    assert coarse == 2 ** requesters
    assert state_diameter(net) <= refined < coarse
