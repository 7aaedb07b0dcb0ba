"""Unit tests for localization refinement (CEGAR over Section 3.5)."""

from repro.diameter import first_hit_time
from repro.netlist import NetlistBuilder
from repro.transform.localize_cegar import (
    REFINED_OUT,
    localization_refinement,
)
from repro.unroll import replay_counterexample


def guarded_counter(width=3, guard_depth=2):
    """A counter whose target needs only nearby state to disprove,
    behind a pipeline of irrelevant registers."""
    b = NetlistBuilder("guard")
    regs = b.registers(width, prefix="c")
    wrap = b.word_eq(regs, b.word_const(5, width))
    bump = b.word_mux(wrap, b.word_const(0, width), b.increment(regs))
    b.connect_word(regs, bump)
    # Irrelevant pipeline cloud observed by an output only.
    sig = b.input("noise")
    for k in range(guard_depth):
        sig = b.register(sig, name=f"n{k}")
    b.net.add_output(sig)
    t = b.buf(b.word_eq(regs, b.word_const(7, width)), name="t")
    b.net.add_target(t)
    return b.net, t


def hittable_design():
    b = NetlistBuilder("hit")
    sig = b.input("i")
    for k in range(3):
        sig = b.register(sig, name=f"p{k}")
    b.net.add_target(b.buf(sig, name="t"))
    return b.net, b.net.targets[0]


class TestLocalizationRefinement:
    def test_proves_unreachable_target(self):
        net, t = guarded_counter()
        result = localization_refinement(net, t, initial_radius=1)
        assert result.status == "proven"
        assert first_hit_time(net, t) is None
        # The abstraction never needed the noise pipeline.
        assert result.abstraction_registers <= 3

    def test_finds_real_counterexample(self):
        net, t = hittable_design()
        result = localization_refinement(net, t, initial_radius=1)
        assert result.status == "falsified"
        assert result.counterexample.depth == first_hit_time(net, t)
        # The hit is a trace of the original netlist.
        assert replay_counterexample(net, t, result.counterexample)

    def test_spurious_counterexamples_refined_away(self):
        # Target compares two synchronized pipelines: localizing either
        # one produces spurious hits until both are restored.
        b = NetlistBuilder("sync")
        x = b.input("x")
        a = c = x
        for k in range(2):
            a = b.register(a, name=f"a{k}")
            c = b.register(c, name=f"b{k}")
        t = b.buf(b.xor(a, c), name="t")
        b.net.add_target(t)
        result = localization_refinement(b.net, t, initial_radius=0)
        assert result.status == "proven"
        assert result.iterations >= 1
        assert first_hit_time(b.net, t) is None

    def test_exhaustion_reported(self):
        # A genuinely huge-diameter target with a tiny depth budget.
        b = NetlistBuilder("deepcnt")
        regs = b.registers(6, prefix="c")
        b.connect_word(regs, b.increment(regs))
        t = b.buf(b.and_(*regs), name="t")
        b.net.add_target(t)
        result = localization_refinement(b.net, t, max_depth=4)
        assert result.status == REFINED_OUT

    def test_history_is_recorded(self):
        net, t = guarded_counter()
        result = localization_refinement(net, t)
        assert result.history
        assert "radius=" in result.history[0]

    def test_requires_target(self):
        import pytest

        b = NetlistBuilder("none")
        b.input("x")
        with pytest.raises(ValueError):
            localization_refinement(b.net)
