"""Coverage for remaining corners: compare helpers, VCD identifiers,
counterexample replay, Luby sequence, BDD cube cover, the latched
experiment strategies, and the set of ``REPRO_*`` variables."""

import ast
import re
from pathlib import Path

import repro
from repro.experiments import (
    LATCHED_STRATEGY,
    PipelineComparison,
    shape_holds,
)
from repro.netlist import NetlistBuilder
from repro.sat.solver import Solver
from repro.tools.vcd import _identifier
from repro.unroll import Counterexample, bmc, replay_counterexample


class TestCompareHelpers:
    def _cmp(self, fractions, targets=100):
        return [PipelineComparison(p, 0, 1, int(f * targets), targets)
                for p, f in zip(("original", "com", "crc"), fractions)]

    def test_shape_holds_monotone(self):
        assert shape_holds(self._cmp([0.3, 0.4, 0.5]))

    def test_shape_fails_on_regression(self):
        assert not shape_holds(self._cmp([0.5, 0.3, 0.2]))

    def test_slack_tolerates_small_dips(self):
        comparisons = self._cmp([0.30, 0.29, 0.40])
        assert not shape_holds(comparisons)
        assert shape_holds(comparisons, monotone_slack=2)

    def test_fraction_properties(self):
        c = PipelineComparison("com", 10, 40, 20, 40)
        assert c.paper_fraction == 0.25
        assert c.measured_fraction == 0.5

    def test_latched_strategy_map_shape(self):
        assert LATCHED_STRATEGY["original"] == "PHASE"
        assert LATCHED_STRATEGY["crc"].startswith("PHASE,")


class TestVCDIdentifiers:
    def test_identifiers_unique_and_printable(self):
        seen = {_identifier(i) for i in range(2000)}
        assert len(seen) == 2000
        assert all(all(33 <= ord(ch) <= 126 for ch in ident)
                   for ident in seen)

    def test_growth(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(100)) == 2


class TestReplay:
    def test_replay_rejects_wrong_counterexample(self):
        b = NetlistBuilder("pipe")
        sig = b.input("i")
        for k in range(2):
            sig = b.register(sig, name=f"p{k}")
        b.net.add_target(sig)
        real = bmc(b.net, sig, max_depth=5).counterexample
        assert replay_counterexample(b.net, sig, real)
        # Zeroed inputs cannot hit the target.
        fake = Counterexample(depth=real.depth,
                              inputs=[{v: 0 for v in inp}
                                      for inp in real.inputs],
                              initial_state=real.initial_state)
        assert not replay_counterexample(b.net, sig, fake)

    def test_replay_depth_beyond_trace(self):
        b = NetlistBuilder("x")
        i = b.input("i")
        b.net.add_target(i)
        cex = Counterexample(depth=3, inputs=[{i: 1}])
        assert not replay_counterexample(b.net, i, cex)


class TestLuby:
    def test_prefix(self):
        seq = [Solver._luby(i) for i in range(1, 16)]
        assert seq == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_zero_index_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            Solver._luby(0)


class TestBDDCubeCover:
    def test_cubes_exactly_cover(self):
        import itertools

        from repro.bdd import BDD

        bdd = BDD()
        f = bdd.or_(bdd.and_(bdd.var(0), bdd.var(1)),
                    bdd.and_(bdd.not_(bdd.var(0)), bdd.var(2)))
        cubes = bdd.cubes(f)
        for bits in itertools.product([False, True], repeat=3):
            env = dict(enumerate(bits))
            in_some_cube = any(
                all(env[var] == val for var, val in cube.items())
                for cube in cubes)
            assert in_some_cube == bdd.evaluate(f, env)


class TestEnvironmentVariables:
    #: Every ``REPRO_*`` variable the library reads.  Each one doubles
    #: the configurations to test, so a new one must be added here
    #: (and to the table in docs/architecture.md) on purpose.
    EXPECTED = {
        "REPRO_CERT", "REPRO_PROGRESS", "REPRO_SAT_DEBUG",
        "REPRO_SAT_PROOF", "REPRO_TRACE", "REPRO_TRACE_ID",
    }

    def test_repro_variables_are_pinned(self):
        found = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) \
                        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value):
                    found.add(node.value)
        assert found == self.EXPECTED
