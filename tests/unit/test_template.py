"""Unit tests for compiled frame templates (repro.sat.template).

The load-bearing property is the parity contract: stamping a compiled
template must leave the solver in a state *element-wise identical* to
the reference walk defined here (:func:`walk_frame`: ``encode_frame``
plus the latch hold-mux tail) — same variable count, same clause
stream, same level-0 assignments.  Everything downstream (the golden
equivalence suite in ``tests/integration``) follows from it.
"""

from contextlib import contextmanager, nullcontext

import pytest

from repro import obs
from repro.netlist import GateType, NetlistBuilder, s27
from repro.sat import CnfSink, Solver, encode_frame, encode_mux, pos
from repro.sat import template as tmpl_mod
from repro.sat.template import (
    SLOT_BASE,
    FrameTemplate,
    _group_runs,
    _is_bulk_safe,
    clear_template_cache,
    compile_template,
    get_template,
    netlist_has_const0,
    template_cache_size,
)
from repro.unroll import Unrolling


def counter(width):
    b = NetlistBuilder(f"counter{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.word_eq(regs, b.word_const((1 << width) - 1, width))
    b.net.add_target(b.buf(t, name="t"))
    return b.net


def latched():
    """Registers with input-driven initial values, and a latch whose
    hold-mux tail feeds back into them."""
    b = NetlistBuilder("latched")
    clk, d, e = b.input("clk"), b.input("d"), b.input("e")
    r = b.register(init=b.and_(d, e), name="r")
    s = b.register(init=b.xor(d, e), name="s")
    lat = b.latch(b.xor(r, d), clk, name="l")
    b.connect(r, b.or_(lat, e))
    b.connect(s, b.and_(s, b.not_(lat)))
    b.net.add_target(b.and_(lat, s))
    return b.net


def walk_frame(net, sink, leaves):
    """The reference frame encoder: ``encode_frame`` over ``leaves``,
    then the next-state tail in state-element order — register next
    edges, and one hold-mux per latch."""
    lits = encode_frame(net, sink, dict(leaves))
    nxt = {}
    for vid in net.state_elements:
        gate = net.gate(vid)
        if gate.type is GateType.REGISTER:
            nxt[vid] = lits[gate.fanins[0]]
        else:
            data, clock = gate.fanins
            out = pos(sink.new_var())
            encode_mux(sink, out, lits[clock], lits[data], lits[vid])
            nxt[vid] = out
    return lits, nxt


def _walk_next_frame(self):
    lits, nxt = walk_frame(self.net, self.sink,
                           self.state_lits[len(self.frames)])
    self.frames.append(lits)
    self.state_lits.append(nxt)


@contextmanager
def walked_frames():
    """Every :class:`Unrolling` encodes its frames by :func:`walk_frame`
    instead of stamping its template."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Unrolling, "_encode_next_frame", _walk_next_frame)
        yield


def solver_fingerprint(solver):
    return (solver.num_vars, solver.clause_lits(),
            tuple(solver.assignment()), tuple(solver.trail_lits()),
            solver.ok)


def unrolling_fingerprint(net, frames, constrain_init, walk):
    clear_template_cache()
    with walked_frames() if walk else nullcontext():
        u = Unrolling(net, constrain_init=constrain_init)
        for t in range(frames):
            u.frame(t)
        return solver_fingerprint(u.solver) + (
            tuple(tuple(sorted(f.items())) for f in u.frames),
            tuple(tuple(sorted(s.items())) for s in u.state_lits),
        )


class TestBulkSafety:
    def test_short_clauses_are_not_bulk(self):
        assert not _is_bulk_safe((4,))
        assert not _is_bulk_safe(())

    def test_distinct_locals_are_bulk(self):
        assert _is_bulk_safe((2, 5, 7))

    def test_duplicate_local_variable_is_not_bulk(self):
        # lits 4 and 5 are the two phases of variable 2.
        assert not _is_bulk_safe((4, 5))
        assert not _is_bulk_safe((4, 4))

    def test_one_slot_is_bulk_two_are_not(self):
        s0 = SLOT_BASE
        s1 = SLOT_BASE + 2
        assert _is_bulk_safe((2, s0))
        assert _is_bulk_safe((s0, 3, 5))
        # Two slots could stamp to one variable (e.g. both pinned to
        # the shared constant), so they keep the add_clause route.
        assert not _is_bulk_safe((s0, s1))
        assert not _is_bulk_safe((2, s0, s1 ^ 1))


class TestGroupRuns:
    def test_empty(self):
        assert _group_runs((), ()) == ()

    def test_maximal_same_classification_runs(self):
        clauses = ((0, 2), (2, 4), (5,), (7,), (8, 10))
        safe = (True, True, False, False, True)
        assert _group_runs(clauses, safe) == (
            (True, ((0, 2), (2, 4))),
            (False, ((5,), (7,))),
            (True, (((8, 10)),)),
        )

    def test_runs_cover_stream_in_order(self):
        clauses = tuple((2 * i, 2 * i + 2) for i in range(7))
        safe = (True, False, True, True, False, False, True)
        runs = _group_runs(clauses, safe)
        flat = [cl for _, seg in runs for cl in seg]
        assert flat == list(clauses)


class TestCompile:
    def test_frame_mode_slots_are_state_elements(self):
        net = s27()
        t = compile_template(net)
        assert list(t.slots) == net.state_elements
        assert set(t.next_state) == set(net.state_elements)
        assert t.core_clauses <= len(t.clauses)
        assert t.signature == net.signature()

    def test_has_const0_matches_netlist_scan(self):
        net = s27()
        assert compile_template(net).has_const0 \
            == netlist_has_const0(net)

    def test_template_is_slotted_and_frozen_shaped(self):
        t = compile_template(counter(2))
        assert not hasattr(t, "__dict__")
        assert isinstance(t.clauses, tuple)
        assert all(isinstance(c, tuple) for c in t.clauses)


class TestStampParity:
    """Stamping == the reference walk, element for element."""

    @pytest.mark.parametrize("constrain_init", [True, False])
    @pytest.mark.parametrize("make", [s27, lambda: counter(3), latched])
    def test_unrolling_fingerprints_match(self, make, constrain_init):
        net = make()
        walked = unrolling_fingerprint(net, 5, constrain_init, True)
        templ = unrolling_fingerprint(net, 5, constrain_init, False)
        assert walked == templ

    def test_with_next_false_stops_at_core(self):
        # A latch forces a real hold-mux tail after the core.
        net = latched()
        t = compile_template(net)
        assert t.core_clauses < len(t.clauses)
        solver = Solver()
        sink = CnfSink(solver)
        state = {v: pos(sink.new_var()) for v in net.state_elements}
        if t.has_const0:
            _ = sink.true_lit
        before = solver.num_vars
        _, nxt = t.stamp(sink, state, with_next=False)
        assert nxt is None
        assert solver.num_vars - before == t.core_locals


class TestCacheAndToggle:
    def setup_method(self):
        clear_template_cache()

    def teardown_method(self):
        clear_template_cache()

    def test_cache_hit_returns_same_object_and_counts(self):
        reg = obs.get_registry()
        net = s27()
        compiles = reg.counter_value("template.compiles")
        hits = reg.counter_value("template.hits")
        a = get_template(net)
        b = get_template(net)
        assert a is b
        assert reg.counter_value("template.compiles") == compiles + 1
        assert reg.counter_value("template.hits") == hits + 1

    def test_cache_keyed_by_structure_not_identity(self):
        a = get_template(counter(2))
        b = get_template(counter(2))  # fresh object, same structure
        assert a is b

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(tmpl_mod, "_CACHE_MAX", 2)
        nets = [counter(w) for w in (2, 3, 4)]
        first = get_template(nets[0])
        get_template(nets[1])
        get_template(nets[2])  # evicts counter2
        assert template_cache_size() == 2
        assert get_template(nets[0]) is not first  # recompiled
