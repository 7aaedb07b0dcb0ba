"""Unit tests for unrolling, BMC and k-induction."""

import pytest

from repro import obs
from repro.netlist import GateType, Netlist, NetlistBuilder, s27
from repro.unroll import (
    ABORTED,
    BOUNDED,
    FALSIFIED,
    PROVEN,
    Unrolling,
    bmc,
    bmc_multi,
    k_induction,
    replay_counterexample,
)
from repro.sat import SAT, UNSAT


def counter_target(width, hit_value):
    """A width-bit counter with a target asserting counter == hit_value."""
    b = NetlistBuilder(f"counter{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.word_eq(regs, b.word_const(hit_value, width))
    t = b.buf(t, name="t")
    b.net.add_target(t)
    return b.net, t


def unreachable_target():
    """r holds 0 forever; target r is unreachable."""
    b = NetlistBuilder("stuck")
    r = b.register(name="r")
    b.connect(r, r)
    b.net.add_target(r)
    return b.net, r


class TestUnrolling:
    def test_frames_are_cached(self):
        net, _ = counter_target(2, 3)
        u = Unrolling(net)
        f1 = u.frame(1)
        assert u.frame(1) is f1
        assert len(u.frames) == 2

    def test_state_chaining(self):
        # Toggler: state at frame 1 is NOT of state at frame 0 = 1.
        b = NetlistBuilder()
        r = b.register(name="r")
        b.connect(r, b.not_(r))
        b.net.add_target(r)
        u = Unrolling(b.net)
        lit0 = u.literal(r, 0)
        lit1 = u.literal(r, 1)
        assert u.solver.solve([lit0]) == UNSAT  # starts at 0
        assert u.solver.solve([lit1]) == SAT

    def test_unconstrained_init(self):
        b = NetlistBuilder()
        r = b.register(name="r")  # init 0
        b.connect(r, r)
        b.net.add_target(r)
        u = Unrolling(b.net, constrain_init=False)
        assert u.solver.solve([u.literal(r, 0)]) == SAT

    def test_latch_unrolls_as_hold_mux(self):
        b = NetlistBuilder()
        d, clk = b.input("d"), b.input("clk")
        lat = b.latch(d, clk, name="l")
        b.net.add_target(lat)
        u = Unrolling(b.net)
        # Latch value at frame 0 is its initial 0.
        assert u.solver.solve([u.literal(lat, 0)]) == UNSAT
        # At frame 1 it can be 1 (clock and data high at frame 0).
        assert u.solver.solve([u.literal(lat, 1)]) == SAT


class TestBMC:
    def test_finds_counter_hit_at_exact_depth(self):
        net, t = counter_target(3, 5)
        result = bmc(net, t, max_depth=10)
        assert result.status == FALSIFIED
        assert result.counterexample.depth == 5

    def test_bounded_when_window_too_small(self):
        net, t = counter_target(3, 5)
        result = bmc(net, t, max_depth=4)
        assert result.status == BOUNDED
        assert not result.is_complete

    def test_proven_with_complete_bound(self):
        net, t = unreachable_target()
        result = bmc(net, t, max_depth=100, complete_bound=2)
        assert result.status == PROVEN
        assert result.is_complete

    def test_depth_zero_hit(self):
        b = NetlistBuilder()
        i = b.input("i")
        b.net.add_target(i)
        result = bmc(b.net, max_depth=3)
        assert result.status == FALSIFIED
        assert result.counterexample.depth == 0

    def test_counterexample_replays(self):
        net, t = counter_target(2, 2)
        result = bmc(net, t, max_depth=5)
        assert result.status == FALSIFIED
        assert replay_counterexample(net, t, result.counterexample)

    def test_nondeterministic_init_found_immediately(self):
        b = NetlistBuilder()
        iv = b.input("iv")
        r = b.register(None, init=iv, name="r")
        b.connect(r, r)
        b.net.add_target(r)
        result = bmc(b.net, max_depth=2)
        assert result.status == FALSIFIED
        assert result.counterexample.depth == 0

    def test_s27_output_hittable(self):
        net = s27()
        result = bmc(net, max_depth=4)
        # With the all-zero initial state G17 = NOT(G11) is 1 at once.
        assert result.status == FALSIFIED
        assert result.counterexample.depth == 0


class TestKInduction:
    def test_proves_stuck_register(self):
        net, t = unreachable_target()
        result = k_induction(net, t, max_k=3)
        assert result.status == PROVEN

    def test_falsifies_reachable_target(self):
        net, t = counter_target(2, 3)
        result = k_induction(net, t, max_k=6)
        assert result.status == FALSIFIED

    def test_proves_mutual_exclusion_invariant(self):
        # Two one-hot tokens r0, r1 rotating; target = both zero,
        # which never happens from the one-hot initial state.
        b = NetlistBuilder()
        r0 = b.register(None, init=b.const1, name="r0")
        r1 = b.register(None, init=b.const0, name="r1")
        b.connect(r0, r1)
        b.connect(r1, r0)
        t = b.buf(b.and_(b.not_(r0), b.not_(r1)), name="t")
        b.net.add_target(t)
        result = k_induction(b.net, t, max_k=4)
        assert result.status == PROVEN

    def test_inconclusive_returns_bounded(self):
        # A 3-bit counter whose target is value 7 reached at depth 7:
        # plain k-induction with tiny max_k cannot conclude, because
        # base cases only cover max_k + 1 depths.
        net, t = counter_target(3, 7)
        result = k_induction(net, t, max_k=2)
        assert result.status == BOUNDED

    def test_incremental_step_verdict_parity(self):
        # The persistent step unrolling (assumptions instead of unit
        # clauses, only the new frame's difference pairs per round)
        # must reproduce the one-shot verdicts across every outcome.
        cases = [
            (unreachable_target(), 4, PROVEN),
            (counter_target(2, 3), 6, FALSIFIED),
            (counter_target(3, 7), 2, BOUNDED),
            (counter_target(3, 7), 8, FALSIFIED),
        ]
        for (net, t), max_k, expected in cases:
            result = k_induction(net, t, max_k=max_k)
            assert result.status == expected, (net.name, max_k)

    def test_step_encoding_accumulates_quadratically(self):
        # Round k adds exactly k new difference-clause pairs, so a run
        # to max_k accumulates max_k*(max_k+1)/2 in total — the
        # marker of the O(k^3) -> O(k^2) re-encoding fix.  A stuck
        # register never reaches the target, so every step round runs.
        b = NetlistBuilder("idle")
        regs = b.registers(3, prefix="r")
        for r in regs:
            b.connect(r, r)
        t = b.buf(b.and_(b.and_(regs[0], regs[1]), regs[2]), name="t")
        b.net.add_target(t)
        with obs.scoped(obs.Registry("t")) as reg:
            result = k_induction(b.net, t, max_k=5)
            snap = reg.snapshot()
        assert result.status == PROVEN
        k = result.depth_checked
        assert snap["counters"]["induction.diff_clauses"] == \
            k * (k + 1) // 2
        assert snap["counters"]["induction.step_vars"] > 0

    @pytest.mark.parametrize("bits", [3, 4, 5])
    def test_inconclusive_run_adds_k_pairs_in_round_k(self, bits):
        # An n-bit counter targeting "all ones": the simple path
        # 2^n-2 -> 2^n-1 always exists, so every one of the n step
        # rounds runs inconclusively and the run ends BOUNDED.  The
        # persistent step unrolling adds k difference-clause pairs in
        # round k (n(n+1)/2 in total); re-encoding every round would
        # add k(k+1)/2 in round k.
        net, t = counter_target(bits, 2 ** bits - 1)
        with obs.scoped(obs.Registry("t")) as reg:
            result = k_induction(net, t, max_k=bits,
                                 conflict_budget=20000)
            counters = reg.snapshot()["counters"]
        assert result.status == BOUNDED
        assert result.depth_checked == bits
        assert counters["induction.diff_clauses"] == \
            bits * (bits + 1) // 2
        assert counters["induction.step_vars"] > 0


def contradiction_target():
    """Target = AND(x, NOT x), built raw so nothing simplifies it.

    The frame-0 query is UNSAT but only via search (one conflict), so a
    zero conflict budget forces an abort on the very first frame.
    """
    net = Netlist("contradiction")
    x = net.add_gate(GateType.INPUT, (), name="x")
    nx = net.add_gate(GateType.NOT, (x,))
    t = net.add_gate(GateType.AND, (x, nx))
    net.add_target(t)
    return net, t


class TestBMCDepthCheckedInvariant:
    """frames 0 .. depth_checked - 1 are definitively resolved."""

    def test_falsified_depth_checked_is_hit_plus_one(self):
        net, t = counter_target(3, 5)
        result = bmc(net, t, max_depth=10)
        assert result.status == FALSIFIED
        assert result.depth_checked == result.counterexample.depth + 1
        assert result.depth_checked == 6

    def test_aborted_at_depth_zero(self):
        net, t = contradiction_target()
        result = bmc(net, t, max_depth=5, conflict_budget=0)
        assert result.status == ABORTED
        assert result.depth_checked == 0
        assert result.counterexample is None
        assert not result.is_complete

    def test_aborted_mid_window(self):
        # The contradiction delayed by one register: frame 0 refutes by
        # propagation alone (init = 0), the frame-1 query needs its one
        # conflict and exhausts the zero budget — abort with exactly
        # one frame resolved.
        net = Netlist("delayed")
        x = net.add_gate(GateType.INPUT, (), name="x")
        nx = net.add_gate(GateType.NOT, (x,))
        a = net.add_gate(GateType.AND, (x, nx))
        r = net.add_gate(GateType.REGISTER, (a, net.const0()))
        net.add_target(r)
        result = bmc(net, r, max_depth=8, conflict_budget=0)
        assert result.status == ABORTED
        assert result.depth_checked == 1

    def test_complete_bound_above_max_depth_stays_bounded(self):
        net, t = unreachable_target()
        result = bmc(net, t, max_depth=3, complete_bound=10)
        assert result.status == BOUNDED
        assert result.depth_checked == 3
        assert not result.is_complete

    def test_complete_bound_zero_is_immediately_proven(self):
        net, t = unreachable_target()
        result = bmc(net, t, max_depth=20, complete_bound=0)
        assert result.status == PROVEN
        assert result.depth_checked == 0

    def test_proven_window_is_clamped_to_bound(self):
        net, t = unreachable_target()
        result = bmc(net, t, max_depth=100, complete_bound=2)
        assert result.status == PROVEN
        assert result.depth_checked == 2

    def test_bounded_equals_window(self):
        net, t = counter_target(3, 7)
        result = bmc(net, t, max_depth=4)
        assert result.status == BOUNDED
        assert result.depth_checked == 4

    def test_multi_proven_depth_equals_bound(self):
        net, t = unreachable_target()
        results = bmc_multi(net, [t], max_depth=6,
                            complete_bounds={t: 2})
        assert results[t].status == PROVEN
        assert results[t].depth_checked == 2

    def test_multi_bound_equal_to_max_depth_proven_after_loop(self):
        net, t = unreachable_target()
        results = bmc_multi(net, [t], max_depth=4,
                            complete_bounds={t: 4})
        assert results[t].status == PROVEN
        assert results[t].depth_checked == 4

    def test_multi_mixed_complete_bounds_under_query_budget(self):
        # Two unreachable targets, windows 2 and 10, and exactly the
        # query pool for frames 0-1 (two targets x two frames).  At
        # frame 2 the first target's window closes (PROVEN, no query
        # spent) while the second hits the dry pool: ABORTED at the
        # same frame with the structured reason.  This pins the
        # BMCResult contract: PROVEN depth_checked is the closed
        # window, ABORTED depth_checked is the first unverified frame.
        from repro.resilience import Budget

        b = NetlistBuilder("mixed")
        r0 = b.register(name="r0")
        r1 = b.register(name="r1")
        b.connect(r0, r0)
        b.connect(r1, r1)
        a = b.buf(r0, name="a")
        c = b.buf(r1, name="c")
        b.net.add_target(a)
        b.net.add_target(c)
        results = bmc_multi(b.net, [a, c], max_depth=8,
                            complete_bounds={a: 2, c: 10},
                            budget=Budget(queries=4, name="mixed"))
        assert results[a].status == PROVEN
        assert results[a].depth_checked == 2
        assert results[a].exhaustion_reason is None
        assert results[c].status == ABORTED
        assert results[c].depth_checked == 2
        assert results[c].exhaustion_reason == "queries"

    def test_multi_falsified_and_bounded_mix(self):
        b = NetlistBuilder("mix")
        r = b.register(name="r")
        b.connect(r, b.not_(r))
        hit = b.buf(r, name="hit")  # true at t = 1
        never = b.buf(b.and_(r, b.not_(r)), name="never")
        b.net.add_target(hit)
        b.net.add_target(never)
        results = bmc_multi(b.net, max_depth=3)
        assert results[hit].status == FALSIFIED
        assert results[hit].depth_checked == \
            results[hit].counterexample.depth + 1 == 2
        assert results[never].status == BOUNDED
        assert results[never].depth_checked == 3
