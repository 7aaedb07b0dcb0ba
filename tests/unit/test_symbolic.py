"""Unit tests for symbolic (BDD) reachability against the explicit oracle."""

import pytest

from repro.bdd import SymbolicNetlist
from repro.diameter import first_hit_time, initial_depth
from repro.diameter.symbolic import (
    symbolic_first_hit,
    symbolic_initial_depth,
    symbolic_reachability,
)
from repro.gen.protocols import fifo_with_flags, round_robin_arbiter
from repro.netlist import NetlistBuilder, s27


def counter(width):
    b = NetlistBuilder(f"cnt{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.buf(b.and_(*regs), name="t")
    b.net.add_target(t)
    return b.net, t


class TestSymbolicReachability:
    def test_counter_reaches_all_states(self):
        net, t = counter(3)
        result = symbolic_reachability(net)
        assert result.count_states() == 8
        assert result.depth == 7

    def test_onion_rings_partition(self):
        net, t = counter(2)
        result = symbolic_reachability(net)
        bdd = result.sym.bdd
        # Rings are pairwise disjoint and union to the reachable set.
        union = bdd.zero
        for i, ring in enumerate(result.onion_rings):
            for other in result.onion_rings[i + 1:]:
                assert bdd.and_(ring, other) is bdd.zero
            union = bdd.or_(union, ring)
        assert union is result.reachable

    def test_stuck_register_single_state(self):
        b = NetlistBuilder()
        r = b.register(name="r")
        b.connect(r, r)
        b.net.add_target(r)
        result = symbolic_reachability(b.net)
        assert result.count_states() == 1
        assert result.depth == 0

    def test_nondeterministic_init_enumerated(self):
        b = NetlistBuilder()
        iv = b.input("iv")
        r = b.register(None, init=iv, name="r")
        b.connect(r, r)
        b.net.add_target(r)
        result = symbolic_reachability(b.net)
        assert result.count_states() == 2

    def test_max_steps_truncates(self):
        net, t = counter(3)
        result = symbolic_reachability(net, max_steps=2)
        assert result.depth == 2


class TestNextStateMemo:
    """Each image step asks for every next-state function again; the
    view builds each one once."""

    def test_second_call_builds_nothing(self, monkeypatch):
        net, _ = round_robin_arbiter(3)
        sym = SymbolicNetlist(net)
        first = {vid: sym.next_state_function(vid)
                 for vid in net.state_elements}
        calls = []
        monkeypatch.setattr(sym, "cone", lambda *args: calls.append(args))
        for vid, node in first.items():
            assert sym.next_state_function(vid) is node
        assert calls == []

    @pytest.mark.parametrize("design, states, depth", [
        *((round_robin_arbiter(n)[0], n, 1) for n in range(3, 7)),
        (fifo_with_flags(3, 2)[0], 256, 4),
    ])
    def test_reachable_counts(self, design, states, depth):
        result = symbolic_reachability(design)
        assert (result.count_states(), result.depth) == (states, depth)


class TestAgreementWithExplicitOracle:
    def test_initial_depth_matches(self):
        for width in (1, 2, 3):
            net, t = counter(width)
            assert symbolic_initial_depth(net) == initial_depth(net)

    def test_initial_depth_matches_on_s27(self):
        net = s27()
        assert symbolic_initial_depth(net) == initial_depth(net)

    def test_first_hit_matches(self):
        net, t = counter(3)
        assert symbolic_first_hit(net, t) == first_hit_time(net, t) == 7

    def test_first_hit_unreachable(self):
        b = NetlistBuilder()
        r = b.register(name="r")
        b.connect(r, r)
        t = b.buf(r, name="t")
        b.net.add_target(t)
        assert symbolic_first_hit(b.net, t) is None

    def test_first_hit_combinational(self):
        b = NetlistBuilder()
        t = b.buf(b.input("x"), name="t")
        b.net.add_target(t)
        assert symbolic_first_hit(b.net, t) == 0

    def test_first_hit_with_step_limit(self):
        net, t = counter(3)
        assert symbolic_first_hit(net, t, max_steps=3) is None

    def test_scales_past_explicit_limit(self):
        # 12 memory cells + 6 inputs: beyond comfortable explicit
        # enumeration per step, fine symbolically.
        from repro.gen import blocks

        b = NetlistBuilder("mem")
        cells = blocks.add_memory(b, rows=4, width=3, prefix="m")
        t = b.buf(b.or_(*cells), name="t")
        b.net.add_target(t)
        assert symbolic_first_hit(b.net, t) == 1
