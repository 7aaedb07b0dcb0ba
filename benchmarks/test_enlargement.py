"""Benchmark: target enlargement (Section 3.4, Theorem 4).

Sweeps the enlargement depth ``k`` on counter-style targets and
measures (a) how much shallower the enlarged target's first hit gets —
the technique's purpose ("render a target which may be hit at a
shallower depth ... and with a higher probability") — and (b) the
preimage-computation cost.
"""

import pytest

from repro.diameter import first_hit_time, structural_diameter_bound
from repro.netlist import NetlistBuilder
from repro.transform import enlarge_target


def counter_target(width, value):
    b = NetlistBuilder(f"cnt{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.buf(b.word_eq(regs, b.word_const(value, width)), name="t")
    b.net.add_target(t)
    return b.net, t


@pytest.mark.parametrize("k", [1, 2, 3])
def test_enlargement_depth_sweep(benchmark, k):
    net, t = counter_target(4, 11)

    def enlarge():
        return enlarge_target(net, t, k=k)

    result = benchmark.pedantic(enlarge, rounds=1, iterations=1)
    mapped = result.step.target_map[t]
    hit_orig = first_hit_time(net, t)
    hit_enl = first_hit_time(result.netlist, mapped)
    print(f"\nk={k}: first hit {hit_orig} -> {hit_enl}")
    assert hit_enl == hit_orig - k  # counters: exactly k shallower
    # Theorem 4: the window invariant.
    assert hit_orig <= hit_enl + k


def test_enlargement_plus_bounding(benchmark):
    """The combined flow: enlarge, bound the enlarged target, apply
    Theorem 4 — the total window covers the original hit."""
    net, t = counter_target(3, 6)

    def flow():
        result = enlarge_target(net, t, k=2)
        mapped = result.step.target_map[t]
        bound = structural_diameter_bound(result.netlist, mapped)
        return bound + result.step.depth

    window = benchmark.pedantic(flow, rounds=1, iterations=1)
    hit = first_hit_time(net, t)
    assert hit < window


def test_enlargement_empties_unreachable_target(benchmark):
    b = NetlistBuilder("stuck")
    r = b.register(name="r")
    b.connect(r, r)
    t = b.buf(r, name="t")
    b.net.add_target(t)

    def enlarge():
        return enlarge_target(b.net, t, k=2)

    result = benchmark.pedantic(enlarge, rounds=1, iterations=1)
    mapped = result.step.target_map[t]
    assert first_hit_time(result.netlist, mapped) is None
