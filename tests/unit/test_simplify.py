"""Unit tests for the inprocessing pass (:mod:`repro.sat.simplify`).

The simplifier's driver is shared by both solver cores through the
``_simp_*`` primitive layer, so every behavioural test here runs
against :class:`LegacySolver` and :class:`FlatSolver` and asserts the
same outcome — the dual-path oracle contract extended over
inprocessing.
"""

import pytest

from repro.cert.drat import check_proof
from repro.sat import (
    SAT,
    UNSAT,
    FlatSolver,
    LegacySolver,
    set_debug_checks,
)
from repro.sat.simplify import (
    BVE_MAX_OCC,
    _match,
    _normalize,
    _resolve,
    _signature,
    simplify_round,
)

#: Both data-layout cores; the simplifier must drive them identically.
CORES = [LegacySolver, FlatSolver]


def P(var):
    return var << 1


def N(var):
    return (var << 1) | 1


def check_model(model, clauses):
    for clause in clauses:
        assert any(model[l >> 1] != (l & 1 == 1) for l in clause), \
            (clause, model)


def php_clauses(solver, pigeons, holes):
    """Load an UNSAT pigeonhole instance; returns its clauses."""
    var = {(p, h): solver.new_var() for p in range(pigeons)
           for h in range(holes)}
    clauses = []
    for p in range(pigeons):
        clauses.append([P(var[p, h]) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([N(var[p1, h]), N(var[p2, h])])
    for clause in clauses:
        solver.add_clause(list(clause))
    return clauses


class TestHelpers:
    def test_signature_is_subset_necessary_condition(self):
        small = [P(0), N(3)]
        big = [P(0), N(3), P(7)]
        assert _signature(small) & ~_signature(big) == 0
        other = [P(1), P(2)]
        assert _signature(small) & ~_signature(other) != 0

    def test_match_subsumption_and_ssr(self):
        assert _match([P(0), P(1)], {P(0), P(1), P(2)}) == -1
        # P(1) appears flipped: self-subsuming resolution on var 1.
        assert _match([P(0), P(1)], {P(0), N(1), P(2)}) == P(1)
        # Two flips is not SSR.
        assert _match([P(0), P(1)], {N(0), N(1)}) == -2
        assert _match([P(0), P(3)], {P(0), P(1)}) == -2

    def test_resolve_dedupes_and_detects_tautology(self):
        res = _resolve([P(0), P(1)], [N(0), P(1), P(2)], 0)
        assert res == [P(1), P(2)]
        assert _resolve([P(0), P(1)], [N(0), N(1)], 0) is None

    def test_normalize_strips_false_and_detects_satisfied(self):
        values = {P(0): False, N(0): True, P(1): None, N(1): None,
                  P(2): True, N(2): False}
        status, kept = _normalize(values.get, [P(0), P(1)])
        assert (status, kept) == ("ok", [P(1)])
        status, kept = _normalize(values.get, [P(0), P(2), P(1)])
        assert status == "sat" and kept is None


@pytest.mark.parametrize("core", CORES)
class TestSubsumptionAndStrengthening:
    def test_subsumed_clause_is_deleted(self, core):
        s = core()
        s.new_vars(3)
        for v in range(3):  # isolate subsumption from elimination
            s.freeze(v)
        s.add_clause([P(0), P(1)])
        s.add_clause([P(0), P(1), P(2)])
        assert simplify_round(s)
        assert (P(0), P(1)) in s.clause_lits()
        assert all(set(c) != {P(0), P(1), P(2)}
                   for c in s.clause_lits())
        assert s.stats()["simplify_subsumed"] == 1

    def test_self_subsuming_resolution_strengthens(self, core):
        s = core()
        s.new_vars(3)
        for v in range(3):
            s.freeze(v)
        s.add_clause([P(0), P(1)])
        s.add_clause([N(0), P(1), P(2)])
        assert simplify_round(s)
        # {~a, b, c} resolves with {a, b} into {b, c}, which subsumes
        # it; the stored clause lost ~a.
        assert any(set(c) == {P(1), P(2)} for c in s.clause_lits())
        assert all(N(0) not in c for c in s.clause_lits())
        assert s.stats()["simplify_strengthened"] >= 1

    def test_level0_satisfied_clause_removed(self, core):
        s = core()
        s.new_vars(3)
        s.add_clause([P(0)])
        s.add_clause([P(0), P(1), P(2)])
        s.add_clause([N(1), P(2)])
        assert simplify_round(s)
        assert all(P(0) not in c for c in s.clause_lits())

    def test_strengthening_to_unit_propagates(self, core):
        # {a} + {~a, b} strengthens the binary to the unit {b}, which
        # must be asserted, not stored.
        s = core()
        s.new_vars(2)
        s.add_clause([P(0)])
        s.add_clause([N(0), P(1)])
        assert simplify_round(s)
        assert s.clause_lits() == []
        assert s.solve() == SAT
        assert s.model == [True, True]


@pytest.mark.parametrize("core", CORES)
class TestVariableElimination:
    def test_eliminated_variable_reconstructed_in_model(self, core):
        s = core()
        s.new_vars(3)
        clauses = [[P(0), P(1)], [N(0), P(2)]]
        for c in clauses:
            s.add_clause(list(c))
        assert simplify_round(s)
        assert s.stats()["simplify_eliminated_vars"] >= 1
        assert s.solve() == SAT
        # The model covers eliminated variables and satisfies the
        # *original* clauses, not just the resolvents.
        assert len(s.model) == 3
        check_model(s.model, clauses)

    def test_frozen_variable_is_never_eliminated(self, core):
        s = core()
        s.new_vars(3)
        for v in range(3):
            s.freeze(v)
        s.add_clause([P(0), P(1)])
        s.add_clause([N(0), P(2)])
        assert simplify_round(s)
        assert s.stats().get("simplify_eliminated_vars", 0) == 0
        assert sorted(s.clause_lits()) == [(P(0), P(1)), (N(0), P(2))]

    def test_assumptions_freeze_their_variables(self, core):
        # Variable 0 would be eliminated by a round fired inside
        # solve(); assuming ~a must still work on later calls because
        # _search freezes (and restores) assumption variables.
        s = core()
        s.new_vars(3)
        clauses = [[P(0), P(1)], [N(0), P(2)], [P(1), P(2)]]
        for c in clauses:
            s.add_clause(list(c))
        assert simplify_round(s)
        assert s.solve([N(0), N(2)]) == SAT
        model = list(s.model)
        assert model[0] is False and model[2] is False
        check_model(model, clauses)

    def test_reintroducing_eliminated_variable_restores(self, core):
        s = core()
        s.new_vars(3)
        clauses = [[P(0), P(1)], [N(0), P(2)]]
        for c in clauses:
            s.add_clause(list(c))
        assert simplify_round(s)
        assert s.stats()["simplify_eliminated_vars"] >= 1
        # A new clause over the eliminated variable forces restoration
        # of its original clauses (and drops its reconstruction
        # records).
        s.add_clause([N(1)])
        s.add_clause([N(2)])
        assert s.solve() == UNSAT or s.solve() == SAT
        result = s.solve()
        # {a|b, ~a|c, ~b, ~c}: b false forces a, a forces c, c false.
        assert result == UNSAT
        assert s.stats()["simplify_restored_vars"] >= 1

    def test_high_occurrence_variable_skipped(self, core):
        s = core()
        n = BVE_MAX_OCC + 2
        s.new_vars(n + 1)
        for v in range(1, n + 1):  # only variable 0 is a candidate
            s.freeze(v)
        # Variable 0 occurs in BVE_MAX_OCC + 2 clauses: never
        # eliminated.
        for i in range(1, n + 1):
            s.add_clause([P(0), P(i)] if i % 2 else [N(0), P(i)])
        assert simplify_round(s)
        assert s.stats().get("simplify_eliminated_vars", 0) == 0
        assert any(l >> 1 == 0 for c in s.clause_lits() for l in c)


@pytest.mark.parametrize("core", CORES)
class TestCertifiedSimplification:
    def test_unsat_after_explicit_round_proof_checks(self, core):
        s = core(proof=True)
        php_clauses(s, 3, 2)
        # Fodder over fresh variables so the round exercises
        # subsumption, strengthening, and elimination before search.
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([P(a), P(b)])
        s.add_clause([P(a), P(b), P(c)])   # subsumed
        s.add_clause([N(a), P(b), P(c)])   # strengthened to {b, c}
        if simplify_round(s):
            assert s.solve() == UNSAT
        else:  # the round itself refuted the formula
            s._ok = False
            s._conclude_unsat(())
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]

    def test_php_with_inprocessing_restarts_proof_checks(self, core):
        # Large enough to restart and fire rounds naturally inside
        # solve(); the checker must accept the interleaved
        # subsumption/strengthening/elimination proof lines.
        s = core(proof=True)
        php_clauses(s, 6, 5)
        assert s.solve() == UNSAT
        assert s.stats().get("simplify_rounds", 0) >= 1
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]
        assert result.deletions > 0


@pytest.mark.parametrize("core", CORES)
class TestLevel0ReasonsStayDerivable:
    """A round never makes a level-0 fact underivable for the checker.

    The solver keeps level-0 literals on its trail and deletes the
    clauses they satisfy, reasons included; the checker re-derives
    those literals by unit propagation from the logged clauses alone.
    """

    def test_reason_deleted_as_satisfied(self, core):
        s = core(proof=True)
        for _ in range(7):
            s.new_var()
        s.add_clause([N(4), N(1)])   # the reason of the level-0 ~v1
        s.add_clause([P(4)])
        s.add_clause([P(6), P(1)])   # v6 follows from ~v1
        # The solve-entry round deletes (~v4 | ~v1): satisfied at
        # level 0.
        assert s.solve() == SAT
        s.add_clause([N(6)])
        assert s.solve() == UNSAT
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]

    def test_reason_created_by_round_deleted_next_round(self, core):
        s = core(proof=True)
        x, a, y = s.new_var(), s.new_var(), s.new_var()
        for var in (x, a, y):
            s.freeze(var)
        s.add_clause([N(x), P(y)])   # becomes the reason of y
        s.add_clause([P(x), P(a)])
        s.add_clause([P(x), N(a)])   # strengthened to the unit x
        assert simplify_round(s)
        assert s.trail_lits() == [P(x), P(y)]
        # The next round deletes (~x | y), satisfied at level 0.
        assert simplify_round(s)
        s.add_clause([N(y)])
        assert s.solve() == UNSAT
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]

    def test_learnt_reason_unlocked_by_round_then_reduced(self, core):
        s = core(proof=True)
        x, a, b, z, p, c, d, e = (s.new_var() for _ in range(8))
        for var in range(8):
            s.freeze(var)
        # Under a and b, deciding ~x conflicts: learnt (x | ~a | ~b).
        s.add_clause([N(a), P(x), P(z)])
        s.add_clause([N(b), P(x), N(z)])
        # The same gadget again gives a second, more active learnt.
        s.add_clause([N(c), P(p), P(e)])
        s.add_clause([N(d), P(p), N(e)])
        assert s.solve([P(a), P(b)]) == SAT
        assert s.solve([P(c), P(d)]) == SAT
        reason = sorted([P(x), N(a), N(b)])
        assert reason in [sorted(c) for c in s.learnt_lits()]
        s.add_clause([P(a)])
        s.add_clause([P(b)])         # x now holds through the learnt
        assert P(x) in s.trail_lits()
        assert simplify_round(s)     # drops every level-0 reason
        s._reduce_db()
        assert reason not in [sorted(c) for c in s.learnt_lits()]
        s.add_clause([N(x)])
        assert s.solve() == UNSAT
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]


@pytest.mark.parametrize("core", CORES)
class TestStatsMidLifetime:
    def test_counters_appearing_mid_lifetime_delta_correctly(self, core):
        # Regression: simplify_* keys first appear in stats() when a
        # round fires *inside* a solve() call; the per-call delta must
        # treat the missing before-value as zero instead of raising or
        # reporting garbage.  The first call is budgeted, so it skips
        # the solve-entry round and the keys genuinely do not exist
        # yet.
        s = core()
        s.new_vars(2)
        s.add_clause([P(0), P(1)])
        assert s.solve(conflict_budget=1000) == SAT
        before = s.stats()
        assert "simplify_rounds" not in before
        assert "simplify_rounds" not in s.last_call_stats
        php_clauses(s, 6, 5)
        assert s.solve() == UNSAT
        now = s.stats()
        assert now["simplify_rounds"] >= 1
        for key, total in now.items():
            assert s.last_call_stats[key] == total - before.get(key, 0)

    def test_direct_round_counters_survive_a_noop_solve(self, core):
        s = core()
        s.new_vars(3)
        s.add_clause([P(0), P(1)])
        s.add_clause([P(0), P(1), P(2)])
        assert simplify_round(s)
        lifetime = s.stats()["simplify_subsumed"]
        assert s.solve() == SAT
        assert s.stats()["simplify_subsumed"] == lifetime
        assert s.last_call_stats.get("simplify_subsumed", 0) == 0


@pytest.mark.parametrize("core", CORES)
class TestDebugWatchInvariant:
    def test_watches_hold_after_strengthening_rounds(self, core):
        previous = set_debug_checks(True)
        try:
            s = core()
            s.new_vars(4)
            s.add_clause([P(0), P(1), P(2)])
            s.add_clause([N(0), P(1), P(3)])
            s.add_clause([P(0), P(1)])
            assert simplify_round(s)
            s._debug_check_watches()
            php_clauses(s, 6, 5)
            assert s.solve() == UNSAT  # rounds + reduce_db sweeps run
            s._debug_check_watches()
        finally:
            set_debug_checks(previous)

    def test_corrupted_watcher_is_detected(self, core):
        s = core()
        s.new_vars(3)
        s.add_clause([P(0), P(1), P(2)])
        s._debug_check_watches()
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
            s._debug_check_watches()
