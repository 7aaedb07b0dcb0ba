"""Unit tests for the CDCL SAT solver and the literal helpers.

Layout-sensitive tests parametrize over the shipped solver and the
reference core of ``tests/property/legacy_solver.py``.
"""

import heapq
import itertools
import random

import pytest

import repro.sat
from repro.sat import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    lit_not,
    lit_sign,
    lit_var,
    neg,
    pos,
)

from ..property.legacy_solver import CORES, LegacySolver


def brute_force_sat(num_vars, clauses):
    """Reference oracle: enumerate all assignments."""
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(
                bits[lit_var(l)] != lit_sign(l) for l in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def check_model(solver, clauses):
    for clause in clauses:
        assert any(
            solver.model[lit_var(l)] != lit_sign(l) for l in clause
        ), f"model does not satisfy {clause}"


class TestLiterals:
    def test_encoding_round_trip(self):
        assert lit_var(pos(5)) == 5
        assert lit_var(neg(5)) == 5
        assert not lit_sign(pos(5))
        assert lit_sign(neg(5))
        assert lit_not(pos(3)) == neg(3)
        assert lit_not(neg(3)) == pos(3)


class TestSolverBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve() == SAT

    def test_unit_clause(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([pos(v)])
        assert s.solve() == SAT
        assert s.model[v] is True

    def test_contradictory_units(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([pos(v)])
        assert s.add_clause([neg(v)]) is False
        assert s.solve() == UNSAT

    def test_simple_implication_chain(self):
        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        s.add_clause([neg(a), pos(b)])
        s.add_clause([neg(b), pos(c)])
        s.add_clause([pos(a)])
        assert s.solve() == SAT
        assert s.model[a] and s.model[b] and s.model[c]

    def test_xor_constraints_unsat(self):
        # a xor b, b xor c, a xor c is unsatisfiable (odd cycle).
        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        for x, y in [(a, b), (b, c), (a, c)]:
            s.add_clause([pos(x), pos(y)])
            s.add_clause([neg(x), neg(y)])
        assert s.solve() == UNSAT

    def test_tautology_ignored(self):
        s = Solver()
        v = s.new_var()
        assert s.add_clause([pos(v), neg(v)])
        assert s.solve() == SAT

    def test_model_satisfies_clauses(self):
        clauses = [
            [pos(0), pos(1)],
            [neg(0), pos(2)],
            [neg(1), neg(2)],
            [pos(0), neg(2)],
        ]
        s = Solver()
        for c in clauses:
            s.add_clause(c)
        assert s.solve() == SAT
        check_model(s, clauses)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = Solver()
        v = s.new_var()
        assert s.solve([pos(v)]) == SAT
        assert s.model[v] is True
        assert s.solve([neg(v)]) == SAT
        assert s.model[v] is False

    def test_conflicting_assumptions_unsat_then_recover(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([neg(a), pos(b)])
        assert s.solve([pos(a), neg(b)]) == UNSAT
        # Without the bad assumption the formula stays satisfiable.
        assert s.solve([pos(a)]) == SAT
        assert s.model[b] is True

    def test_incremental_clause_addition(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([pos(a), pos(b)])
        assert s.solve() == SAT
        s.add_clause([neg(a)])
        s.add_clause([neg(b)])
        assert s.solve() == UNSAT

    def test_assumptions_do_not_persist(self):
        s = Solver()
        v = s.new_var()
        assert s.solve([neg(v)]) == SAT
        s.add_clause([pos(v)])
        assert s.solve() == SAT
        assert s.model[v] is True


class TestModelStaleness:
    """``model`` is valid only after SAT: every ``solve()`` clears it
    first, so a non-SAT answer can never leak the previous call's
    assignment."""

    def test_unsat_after_sat_clears_model(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([pos(v)])
        assert s.solve() == SAT
        assert s.model[v] is True
        s.add_clause([neg(v)])
        assert s.solve() == UNSAT
        assert s.model == []

    def test_unsat_assumptions_after_sat_clear_model(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([neg(a), pos(b)])
        assert s.solve() == SAT
        assert len(s.model) == s.num_vars
        assert s.solve([pos(a), neg(b)]) == UNSAT
        assert s.model == []
        with pytest.raises(IndexError):
            s.value(a)

    def test_unknown_clears_model(self):
        # Solve something satisfiable, then starve a hard PHP query:
        # the UNKNOWN answer must not leave the old model behind.
        s = Solver()
        v = s.new_var()
        s.add_clause([pos(v)])
        assert s.solve() == SAT
        holes, pigeons = 4, 5
        var = {(p, h): s.new_var() for p in range(pigeons)
               for h in range(holes)}
        for p in range(pigeons):
            s.add_clause([pos(var[p, h]) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([neg(var[p1, h]), neg(var[p2, h])])
        assert s.solve(conflict_budget=1) == UNKNOWN
        assert s.model == []


class TestSolverStress:
    def test_pigeonhole_4_into_3_unsat(self):
        # PHP(4,3): 4 pigeons, 3 holes; classic UNSAT instance that
        # exercises conflict analysis and learning.
        s = Solver()
        holes = 3
        pigeons = 4
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = s.new_var()
        for p in range(pigeons):
            s.add_clause([pos(var[p, h]) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([neg(var[p1, h]), neg(var[p2, h])])
        assert s.solve() == UNSAT

    def test_random_3sat_agrees_with_brute_force(self):
        rng = random.Random(42)
        for trial in range(40):
            nv = rng.randint(3, 8)
            nc = rng.randint(2, 4 * nv)
            clauses = []
            for _ in range(nc):
                width = rng.randint(1, 3)
                vs = rng.sample(range(nv), min(width, nv))
                clauses.append(
                    [pos(v) if rng.random() < 0.5 else neg(v) for v in vs]
                )
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(list(c))
            expected = brute_force_sat(nv, clauses)
            result = s.solve()
            assert result == (SAT if expected else UNSAT), \
                f"trial {trial}: clauses={clauses}"
            if result == SAT:
                check_model(s, clauses)

    def test_conflict_budget_returns_unknown(self):
        # A hard instance with a conflict budget of 1 should give up.
        s = Solver()
        holes, pigeons = 5, 6
        var = {(p, h): s.new_var() for p in range(pigeons)
               for h in range(holes)}
        for p in range(pigeons):
            s.add_clause([pos(var[p, h]) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([neg(var[p1, h]), neg(var[p2, h])])
        assert s.solve(conflict_budget=1) == UNKNOWN
        # And with no budget it finishes.
        assert s.solve() == UNSAT

    def test_many_incremental_solves(self):
        s = Solver()
        vs = [s.new_var() for _ in range(10)]
        for i in range(9):
            s.add_clause([neg(vs[i]), pos(vs[i + 1])])
        for i in range(10):
            assert s.solve([pos(vs[0])]) == SAT
            assert all(s.model[v] for v in vs)


@pytest.mark.parametrize("core", CORES)
class TestBulkLoad:
    """new_vars + add_clauses_bulk: the template stamping fast path
    must leave the solver state-identical to the slow path, on both
    cores."""

    def test_new_vars_matches_repeated_new_var(self, core):
        a, b = core(), core()
        for _ in range(7):
            a.new_var()
        base = b.new_vars(7)
        assert base == 0
        assert a.num_vars == b.num_vars == 7
        assert a.assignment() == b.assignment()
        assert len(a._watches) == len(b._watches)
        assert sorted(a._heap) == sorted(b._heap)
        # Non-positive counts allocate nothing.
        assert b.new_vars(0) == 7
        assert b.new_vars(-3) == 7
        assert b.num_vars == 7

    def test_bulk_matches_individual_adds(self, core):
        clauses = [[pos(0), neg(1)], [pos(1), pos(2), neg(3)],
                   [neg(0), pos(3)]]
        a, b = core(), core()
        a.new_vars(4)
        b.new_vars(4)
        for cl in clauses:
            assert a.add_clause(list(cl))
        assert b.add_clauses_bulk([list(cl) for cl in clauses])
        assert a.clause_lits() == b.clause_lits()
        assert a.solve() == b.solve() == SAT

    def test_bulk_normalises_assigned_literals_like_add_clause(
            self, core):
        def build(use_bulk):
            s = core()
            s.new_vars(5)
            assert s.add_clause([pos(0)])  # level-0 assignment
            batch = [
                [pos(0), pos(1)],          # satisfied: dropped
                [neg(0), pos(2), pos(3)],  # falsified lit removed
                [pos(3), neg(4)],          # untouched
            ]
            if use_bulk:
                assert s.add_clauses_bulk(batch)
            else:
                for cl in batch:
                    assert s.add_clause(cl)
            return (s.clause_lits(), s.assignment(),
                    s.trail_lits(), s.num_vars)

        assert build(False) == build(True)

    def test_bulk_unit_outcome_propagates(self, core):
        s = core()
        s.new_vars(3)
        assert s.add_clause([neg(1)])
        # [1, 2] loses the falsified literal 1 -> unit on 2.
        assert s.add_clauses_bulk([[pos(1), pos(2)]])
        assert s.assignment()[2] is True

    def test_bulk_empty_outcome_is_unsat(self, core):
        s = core()
        s.new_vars(2)
        assert s.add_clause([neg(0)])
        assert s.add_clause([neg(1)])
        assert not s.add_clauses_bulk([[pos(0), pos(1)]])
        assert s.solve() == UNSAT

    def test_bulk_after_prior_unsat_is_noop(self, core):
        s = core()
        s.new_vars(1)
        assert s.add_clause([pos(0)])
        assert not s.add_clause([neg(0)])
        assert not s.add_clauses_bulk([[pos(0), neg(0)]])


class TestCoreToggle:
    """One solver core ships: ``Solver`` is the flat core itself, and
    the reference core is a test-side subclass."""

    def test_default_core_is_flat(self):
        assert type(Solver()) is Solver

    def test_both_cores_are_solvers(self):
        assert isinstance(LegacySolver(), Solver)

    def test_direct_core_construction_ignores_toggle(self):
        # No second core, core switch or debug toggle is exported.
        for name in ("FlatSolver", "LegacySolver",
                     "debug_checks_enabled", "set_debug_checks"):
            assert not hasattr(repro.sat, name)
            assert name not in repro.sat.__all__


@pytest.mark.parametrize("core", CORES)
class TestVsidsRescale:
    """Regression for the stale-heap-key bug: rescaling activities
    past 1e100 must rebuild the lazy-deletion heap, or _pick_branch
    keeps popping variables in pre-rescale priority order."""

    def test_decisions_follow_current_activities_after_rescale(
            self, core):
        s = core()
        a, b = s.new_var(), s.new_var()
        # Stale heap entries carrying near-overflow keys.
        s._activity[a] = 9e99
        s._activity[b] = 8e99
        s._heap = [(-9e99, a), (-8e99, b)]
        heapq.heapify(s._heap)
        # Bumping b crosses 1e100 and rescales: a -> 0.9, b -> 1.1.
        s._var_inc = 3e99
        s._bump_var(b)
        assert s._var_inc == pytest.approx(3e-1)
        assert s._activity[a] == pytest.approx(0.9)
        assert s._activity[b] == pytest.approx(1.1)
        # b now has the highest activity and must be decided first;
        # with stale keys the heap would still pop a (key -9e99).
        lit = s._pick_branch()
        assert lit is not None and lit >> 1 == b

    def test_rescaled_heap_has_no_stale_keys(self, core):
        s = core()
        vs = [s.new_var() for _ in range(4)]
        s._var_inc = 6e99
        for v in vs:
            s._bump_var(v)  # activities reach 6e99, keys stale soon
        s._bump_var(vs[0])  # crosses 1e100: rescale + heap rebuild
        act = s._activity
        assert all(key == -act[var] for key, var in s._heap)


class TestDecisionHeap:
    """The flat core keeps one live heap entry per variable: its key is
    the variable's current activity, and older keys are stale."""

    @staticmethod
    def live_entries(solver):
        act = solver._activity
        live = [0] * solver.num_vars
        for key, var in solver._heap:
            if key == -act[var]:
                live[var] += 1
        return live

    def check(self, solver):
        live = self.live_entries(solver)
        values = solver.assignment()
        for var in range(solver.num_vars):
            assert live[var] == solver._heaped[var] <= 1
            if values[var] is None:
                assert live[var] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_one_live_entry_per_unassigned_variable(self, seed):
        rng = random.Random(seed)
        s = Solver()
        n = 40
        s.new_vars(n)
        for _ in range(170):
            s.add_clause([2 * v + rng.randint(0, 1)
                          for v in rng.sample(range(n), 3)])
        self.check(s)
        for step in range(25):
            if step == 12:
                s._var_inc = 1e99  # the next bumps rescale
            if rng.random() < 0.3:
                s.add_clause([2 * v + rng.randint(0, 1)
                              for v in rng.sample(range(n), 3)])
            assumptions = [2 * v + rng.randint(0, 1)
                           for v in rng.sample(range(n), 3)]
            s.solve(assumptions)
            self.check(s)
        assert s.conflicts > 0


class TestDetachIntegrity:
    """A clause missing from a watcher list during detach is real
    corruption: both cores raise."""

    def test_flat_detach_miss_always_raises(self):
        s = Solver()
        s.new_vars(3)
        assert s.add_clause([pos(0), pos(1), pos(2)])
        cref = s._clauses[0]
        s._detach(cref)
        with pytest.raises(RuntimeError, match="watcher corruption"):
            s._detach(cref)

    def test_legacy_detach_miss_raises_under_debug(self):
        s = LegacySolver()
        s.new_vars(3)
        assert s.add_clause([pos(0), pos(1), pos(2)])
        clause = s._clauses[0]
        s._detach(clause)
        with pytest.raises(RuntimeError, match="watcher corruption"):
            s._detach(clause)


@pytest.mark.parametrize("core", CORES)
class TestDebugWatchInvariant:
    """The watcher sweep (``_check_watches``, which the oracle's
    PHP(8,7) test runs after each learnt-DB reduction) notices a
    watched literal that left its clause's first two slots."""

    def test_corrupted_watcher_is_detected(self, core):
        s = core()
        s.new_vars(3)
        s.add_clause([pos(0), pos(1), pos(2)])
        s._check_watches()
        if core is LegacySolver:
            clause = s._clauses[0]
            clause.lits = [clause.lits[2], clause.lits[1],
                           clause.lits[0]]
        else:
            cref = s._clauses[0]
            arena = s._arena
            base = cref + 2
            arena[base], arena[base + 2] = arena[base + 2], arena[base]
        with pytest.raises(RuntimeError):
            s._check_watches()


@pytest.mark.parametrize("core", CORES)
class TestAddClausesBulkRouting:
    """add_clauses routes pre-validated clauses through the bulk fast
    path; the resulting state must stay element-wise identical to
    per-clause loading."""

    def _mixed_clauses(self):
        return [
            [pos(0)],                       # unit: slow
            [pos(1), neg(2)],               # bulk
            [pos(2), pos(3), neg(4)],       # bulk
            [pos(1), neg(1)],               # taut: slow
            [neg(0), pos(5)],               # bulk (norm.)
            [pos(3), pos(3), pos(4)],       # dup: slow
            [neg(3), neg(5)],               # bulk
        ]

    def _solver(self, core):
        # add_clauses takes pre-allocated variables only.
        s = core()
        s._ensure_var(5)
        return s

    def test_matches_per_clause_loading(self, core):
        a, b = self._solver(core), self._solver(core)
        assert a.add_clauses(self._mixed_clauses())
        for cl in self._mixed_clauses():
            assert b.add_clause(cl)
        assert a.num_vars == b.num_vars
        assert a.clause_lits() == b.clause_lits()
        assert a.assignment() == b.assignment()
        assert a.trail_lits() == b.trail_lits()
        assert a.solve() == b.solve()

    def test_uses_bulk_runs(self, core, monkeypatch):
        s = self._solver(core)
        batches = []
        original = s.add_clauses_bulk

        def spy(batch):
            batches.append(len(batch))
            return original(batch)

        monkeypatch.setattr(s, "add_clauses_bulk", spy)
        assert s.add_clauses(self._mixed_clauses())
        # Maximal runs between slow-path clauses: [2], [1], [1].
        assert batches == [2, 1, 1]

    def test_detects_unsat(self, core):
        s = core()
        s._ensure_var(1)
        assert not s.add_clauses([[pos(0), pos(1)], [pos(0)], [neg(0)]])
        assert s.solve() == UNSAT
