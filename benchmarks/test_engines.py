"""Microbenchmarks for the substrate engines.

Not tied to a specific paper table; they track the throughput of the
pieces every experiment depends on (SAT, BDD, sweeping, retiming flow,
structural analysis) so regressions in the substrates are visible
independently of the end-to-end numbers.
"""

from repro.bdd import BDD, SymbolicNetlist
from repro.diameter import StructuralAnalysis
from repro.gen import iscas89
from repro.netlist import NetlistBuilder, s27
from repro.sat import Solver, neg, pos
from repro.sim import random_signatures
from repro.transform import RetimingGraph, min_register_lags, \
    redundancy_removal, retime


def test_sat_pigeonhole(benchmark):
    def php():
        solver = Solver()
        holes, pigeons = 5, 6
        var = {(p, h): solver.new_var() for p in range(pigeons)
               for h in range(holes)}
        for p in range(pigeons):
            solver.add_clause([pos(var[p, h]) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([neg(var[p1, h]),
                                       neg(var[p2, h])])
        return solver.solve()

    assert benchmark(php) == "unsat"


def test_bdd_counter_preimage(benchmark):
    b = NetlistBuilder("cnt")
    regs = b.registers(6, prefix="c")
    b.connect_word(regs, b.increment(regs))
    b.net.add_target(regs[-1])

    def preimages():
        sym = SymbolicNetlist(b.net)
        states = sym.bdd.var(sym.state_vars[regs[-1]])
        for _ in range(4):
            states = sym.preimage(states)
        return sym.bdd.count_nodes(states)

    assert benchmark(preimages) > 0


def test_random_signature_throughput(benchmark):
    net = iscas89.generate("PROLOG")
    result = benchmark.pedantic(
        lambda: random_signatures(net, cycles=8, width=64),
        rounds=2, iterations=1)
    assert len(result) == len(net)


def test_com_sweep_s27(benchmark):
    net = s27()
    result = benchmark.pedantic(lambda: redundancy_removal(net),
                                rounds=2, iterations=1)
    assert result.netlist.num_registers() <= net.num_registers()


def test_retiming_lp(benchmark):
    net = iscas89.generate("S6669", scale=0.5)
    graph = RetimingGraph(net)

    def solve():
        return min_register_lags(graph)

    lags = benchmark.pedantic(solve, rounds=2, iterations=1)
    assert lags


def test_retime_end_to_end(benchmark):
    net = iscas89.generate("S1196")
    result = benchmark.pedantic(lambda: retime(net),
                                rounds=2, iterations=1)
    assert result.netlist.num_registers() <= net.num_registers()


def test_structural_analysis_large(benchmark):
    net = iscas89.generate("S13207_1", scale=0.5)

    def analyze():
        analysis = StructuralAnalysis(net)
        return [analysis.bound(t) for t in net.targets]

    bounds = benchmark.pedantic(analyze, rounds=2, iterations=1)
    assert len(bounds) == len(net.targets)
