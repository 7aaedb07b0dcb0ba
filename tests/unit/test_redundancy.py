"""Unit tests for the COM (redundancy removal) engine."""

import pytest

from repro import obs
from repro.core import StepKind, prove
from repro.netlist import GateType, NetlistBuilder, s27
from repro.sim import BitParallelSimulator
from repro.transform import SweepConfig, redundancy, redundancy_removal
from repro.transform.redundancy import _InductiveChecker, _StepNumbering

from ..property.legacy_solver import CORES


def same_behaviour(net_a, net_b, target_a, target_b, cycles=8):
    def stim(net):
        def f(vid, cycle):
            return (hash((net.gate(vid).name, cycle)) >> 4) & 1
        return f
    tr_a = BitParallelSimulator(net_a).run(cycles, stim(net_a),
                                           observe=[target_a])
    tr_b = BitParallelSimulator(net_b).run(cycles, stim(net_b),
                                           observe=[target_b])
    return tr_a[target_a] == tr_b[target_b]


class TestRedundancyRemoval:
    def test_step_is_trace_equivalent(self):
        net = s27()
        result = redundancy_removal(net)
        assert result.step.kind is StepKind.TRACE_EQUIVALENT
        assert result.step.name == "COM"

    def test_duplicate_logic_merged(self):
        b = NetlistBuilder("dup")
        x, y = b.input("x"), b.input("y")
        g1 = b.net.add_gate(GateType.AND, (x, y))
        g2 = b.net.add_gate(GateType.AND, (y, x))
        r1 = b.register(g1, name="r1")
        r2 = b.register(g2, name="r2")
        t = b.buf(b.xor(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        # r1 == r2 sequentially, so the XOR collapses to constant 0.
        mapped = result.step.target_map[t]
        assert result.netlist.gate(mapped).type is GateType.CONST0
        assert result.netlist.num_registers() == 0

    def test_constant_register_removed(self):
        b = NetlistBuilder("const")
        r = b.register(name="r")
        b.connect(r, r)  # stuck at 0
        x = b.input("x")
        t = b.buf(b.or_(r, x), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 0
        mapped = result.step.target_map[t]
        # OR(0, x) = x: target becomes the input directly.
        assert result.netlist.gate(mapped).type is GateType.INPUT

    def test_constant_one_register_removed(self):
        b = NetlistBuilder("const1")
        r = b.register(None, init=b.const1, name="r")
        b.connect(r, r)
        x = b.input("x")
        t = b.buf(b.and_(r, x), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 0

    def test_equivalent_registers_merged(self):
        # Two registers computing the same stream from the same input.
        b = NetlistBuilder("eqregs")
        x = b.input("x")
        r1 = b.register(x, name="r1")
        r2 = b.register(x, name="r2")
        t = b.buf(b.and_(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 1

    def test_inequivalent_not_merged(self):
        b = NetlistBuilder("noteq")
        x, y = b.input("x"), b.input("y")
        r1 = b.register(x, name="r1")
        r2 = b.register(y, name="r2")
        t = b.buf(b.xor(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 2

    def test_init_mismatch_blocks_merge(self):
        # Same next-state function but different initial values: the
        # base case must reject merging r1 with r2.  (The sweeper is
        # still allowed — and expected — to prove the XNOR target
        # itself constant 0, since r1 != r2 is inductive.)
        b = NetlistBuilder("initdiff")
        r1 = b.register(name="r1")  # init 0
        r2 = b.register(None, init=b.const1, name="r2")
        b.connect(r1, b.not_(r1))
        b.connect(r2, b.not_(r2))
        t = b.buf(b.xnor(r1, r2), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        mapped = result.step.target_map[t]
        assert result.netlist.gate(mapped).type is GateType.CONST0
        # And the merge was of the target with const-0, never r1 == r2:
        # a (wrong) r1/r2 merge would have made the target constant 1.
        assert same_behaviour(b.net, result.netlist, t, mapped)

    def test_base_case_checked_before_induction(self):
        # Regression: u starts as the AND of 20 inputs, so simulation
        # never sees u = 1 and puts u, v, y and t in one constant-0
        # class.  Assuming that class on frame 0 proves it on frame 1,
        # and a base check run after the step fixpoint dropped only u,
        # keeping the y/t merges whose induction assumed u = 0.  From
        # an initial state with u = 1, t = 1 at cycle 1.
        b = NetlistBuilder("basetrap")
        ins = [b.input(f"i{k}") for k in range(20)]
        u = b.register(None, init=b.and_(*ins), name="u")
        b.connect(u, u)
        v = b.register(name="v")
        b.connect(v, v)
        y = b.register(name="y")
        b.connect(y, b.xor(b.xor(y, u), v))
        t = b.buf(y, name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        mapped = result.step.target_map[t]
        assert result.netlist.gate(mapped).type is not GateType.CONST0

        def ones_trace(net, vid):
            init = {i: 1 for i in net.inputs}
            return BitParallelSimulator(net).run(
                6, lambda i, cycle: 1, observe=[vid],
                init_inputs=init)[vid]

        assert ones_trace(b.net, t) == [0, 1, 0, 1, 0, 1]
        assert ones_trace(result.netlist, mapped) == ones_trace(b.net, t)
        assert prove(b.net, t).status == "falsified"

    def test_merge_refuted_by_base_case_stays_apart(self):
        # Simulation never sees u = 1, so u and v share a class, and so
        # do p and q.  The base case splits u from v.  Numbered under
        # the pre-base class, p' = XOR(AND(u, x), y) and q' =
        # XOR(AND(v, x), y) would hash alike and skip their step query;
        # yet from u = 1 with x = 1, p and q differ at cycle 1.
        b = NetlistBuilder("implytrap")
        ins = [b.input(f"i{k}") for k in range(20)]
        x, y = b.input("x"), b.input("y")
        u = b.register(None, init=b.and_(*ins), name="u")
        b.connect(u, u)
        v = b.register(name="v")
        b.connect(v, v)
        p = b.register(b.xor(b.and_(u, x), y), name="p")
        q = b.register(b.xor(b.and_(v, x), y), name="q")
        b.net.add_target(p)
        b.net.add_target(q)
        result = redundancy_removal(b.net)
        target_map = result.step.target_map
        assert target_map[p] != target_map[q]
        assert same_behaviour(b.net, result.netlist, p, target_map[p])
        assert same_behaviour(b.net, result.netlist, q, target_map[q])

    def test_implied_step_pairs_skip_the_solver(self):
        # With the twin registers a and b assumed equal on frame 0, the
        # step round's three pairs ({a, b}, {c, d} and their AND gates)
        # hash to equal frame-1 numbers: only the base case queries.
        b = NetlistBuilder("twins")
        x, y = b.input("x"), b.input("y")
        a = b.register(x, name="a")
        a2 = b.register(x, name="b")
        c = b.register(b.and_(a, y), name="c")
        d = b.register(b.and_(a2, y), name="d")
        b.net.add_target(c)
        b.net.add_target(d)
        with obs.scoped(obs.Registry("twins")) as reg:
            result = redundancy_removal(b.net)
        counters = reg.snapshot()["counters"]
        assert counters["com.implied"] == 3
        assert counters["com.sat_queries"] == 3
        assert counters["com.merges"] == 3
        target_map = result.step.target_map
        assert target_map[c] == target_map[d]

    def test_numbering_sorts_only_commutative_fanins(self):
        b = NetlistBuilder("order")
        s, x, y = b.input("s"), b.input("x"), b.input("y")
        and_xy = b.net.add_gate(GateType.AND, (x, y))
        and_yx = b.net.add_gate(GateType.AND, (y, x))
        mux_xy = b.net.add_gate(GateType.MUX, (s, x, y))
        mux_yx = b.net.add_gate(GateType.MUX, (s, y, x))
        numbers = _StepNumbering(b.net).frame1([])
        assert numbers[and_xy] == numbers[and_yx]
        assert numbers[mux_xy] != numbers[mux_yx]

    def test_semantics_preserved_on_s27(self):
        net = s27()
        result = redundancy_removal(net)
        mapped = result.step.target_map[net.targets[0]]
        assert same_behaviour(net, result.netlist, net.targets[0], mapped)

    def test_sequentially_equivalent_xor_chain(self):
        # g = x XOR x is constant 0; register of g is constant.
        b = NetlistBuilder("xc")
        x = b.input("x")
        g = b.net.add_gate(GateType.XOR, (x, x))
        r = b.register(g, name="r")
        t = b.buf(b.or_(r, x), name="t")
        b.net.add_target(t)
        result = redundancy_removal(b.net)
        assert result.netlist.num_registers() == 0

    def test_deep_pipeline_not_merged_to_constant(self):
        # Regression: registers deep in a pipeline look constant under
        # a short random-simulation window; the inductive refinement
        # must run to fixpoint (peeling one stage per round) instead of
        # merging them with const-0 after a capped number of rounds.
        b = NetlistBuilder("deep")
        sig = b.input("i")
        for k in range(7):
            sig = b.register(sig, name=f"p{k}")
        t = b.buf(sig, name="t")
        b.net.add_target(t)
        config = SweepConfig(sim_cycles=3, sim_width=16)
        result = redundancy_removal(b.net, config=config)
        assert result.netlist.num_registers() == 7
        mapped = result.step.target_map[t]
        assert same_behaviour(b.net, result.netlist, t, mapped, cycles=12)

    def test_capped_rounds_discard_unconverged_classes(self):
        b = NetlistBuilder("deepcap")
        sig = b.input("i")
        for k in range(7):
            sig = b.register(sig, name=f"p{k}")
        t = b.buf(sig, name="t")
        b.net.add_target(t)
        config = SweepConfig(sim_cycles=3, sim_width=16, max_rounds=1)
        result = redundancy_removal(b.net, config=config)
        # With one round the refinement cannot converge; everything
        # must be dropped rather than merged unsoundly.
        assert result.netlist.num_registers() == 7
        mapped = result.step.target_map[t]
        assert same_behaviour(b.net, result.netlist, t, mapped, cycles=12)

    def test_config_budgets_respected(self):
        net = s27()
        config = SweepConfig(sim_cycles=2, sim_width=8, conflict_budget=1,
                             max_rounds=1)
        result = redundancy_removal(net, config=config)
        # With a tiny budget merges may be missed, but the result must
        # still be behaviourally sound.
        mapped = result.step.target_map[net.targets[0]]
        assert same_behaviour(net, result.netlist, net.targets[0], mapped)


class TestClauseLoading:
    """A step round bulk-loads its guard and query clauses; the solver
    must end up exactly as if each clause had been added alone."""

    @staticmethod
    def fixture():
        b = NetlistBuilder("loading")
        x, y = b.input("x"), b.input("y")
        r = b.register(None, init=b.const(0), name="r")
        s = b.register(None, init=b.const(0), name="s")
        g = b.and_(x, r)
        h = b.or_(y, s)
        b.connect(r, g)
        b.connect(s, h)
        # A BUF shares its fanin's solver variable, a NOT shares it
        # negated, and the constant's literal is fixed at level 0.
        buf = b.net.add_gate(GateType.BUF, (r,))
        inv = b.net.add_gate(GateType.NOT, (s,))
        c0 = b.net.const0()
        t = b.buf(b.xor(buf, inv), name="t")
        b.net.add_target(t)
        classes = [sorted(cls) for cls in ([c0, g], [r, buf], [s, inv, h])]
        return b.net, classes, (r, buf, c0)

    @pytest.mark.parametrize("core", CORES)
    def test_split_step_matches_clause_by_clause(self, core, monkeypatch):
        monkeypatch.setattr(redundancy, "Solver", core)
        net, classes, (r, buf, c0) = self.fixture()
        bulk = _InductiveChecker(net, SweepConfig())
        single = _InductiveChecker(net, SweepConfig())
        solver = single.step_solver
        monkeypatch.setattr(solver, "add_clauses", lambda clauses: all(
            solver.add_clause(clause) for clause in clauses))
        assert type(bulk.step_solver) is core
        assert bulk.frame0[r] == bulk.frame0[buf]
        assert bulk.step_solver._value(bulk.frame0[c0]) is False
        assert bulk.split_step(classes) == single.split_step(classes)
        assert bulk.step_solver.clause_lits() == solver.clause_lits()
        assert bulk.step_solver.learnt_lits() == solver.learnt_lits()
        assert bulk.step_solver.stats() == solver.stats()
