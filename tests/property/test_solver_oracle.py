"""Randomized dual-path oracle for the shipped solver and its reference.

The shipped flat-array core (:class:`repro.sat.Solver`) and the
reference object core (:class:`~.legacy_solver.LegacySolver`, a
subclass that overrides every data-layout primitive) run one search
loop and must execute it *identically* — decision for decision.  So
this suite does not settle for "same verdict": on every random
instance it asserts equal verdicts, equal models, equal final trails,
and equal ``stats()`` counters across the cores, cross-checked against
a brute-force enumerator where feasible.

Instance shapes mirror real callers: one-shot random 3-CNF, the
incremental clause-add/solve interleave of SAT sweeping, and the
assumption-sequence shape of BMC/k-induction.  The reference core's
one job is to be this suite's reference — the larger stress sweeps
run in tier-1 too.
"""

import itertools
import random

import pytest

from repro.cert.drat import check_proof
from repro.resilience import FaultPlan, inject
from repro.sat import SAT, UNSAT, Solver

from .legacy_solver import CORES, LegacySolver


def random_clauses(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        w = rng.randint(1, width)
        vs = rng.sample(range(num_vars), min(w, num_vars))
        clauses.append([2 * v + (rng.random() < 0.5) for v in vs])
    return clauses


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[l >> 1] != (l & 1 == 1) for l in c)
               for c in clauses):
            return True
    return False


def check_model(model, clauses):
    for clause in clauses:
        assert any(model[l >> 1] != (l & 1 == 1) for l in clause)


def threshold_3cnf(rng, min_vars, max_vars):
    """A random 3-CNF near the satisfiability threshold (4.3 clauses
    per variable) as ``(num_vars, script of adds)``: hard enough that
    solving it learns clauses."""
    nv = rng.randint(min_vars, max_vars)
    return nv, [("add", [2 * v + (rng.random() < 0.5)
                         for v in rng.sample(range(nv), 3)])
                for _ in range(int(4.3 * nv))]


def pigeonhole(solver, pigeons, holes):
    """Load PHP(pigeons, holes) into ``solver``: each pigeon sits in
    a hole, no two share one.  UNSAT when pigeons > holes."""
    var = {(p, h): solver.new_var() for p in range(pigeons)
           for h in range(holes)}
    for p in range(pigeons):
        solver.add_clause([2 * var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([2 * var[p1, h] + 1,
                                   2 * var[p2, h] + 1])


def counting(calls, name, method, then=lambda: None):
    """``method`` (a solver's bound method) wrapped to count its calls
    in ``calls[name]`` and to call ``then`` after each one."""
    def wrapper():
        calls[name] += 1
        method()
        then()
    return wrapper


def observe(solver):
    """Everything the oracle compares after each solve() call."""
    return (list(solver.model), solver.trail_lits(), solver.ok,
            solver.stats(), dict(solver.last_call_stats),
            solver.last_exhaustion)


def run_script(core, num_vars, script, proof=False):
    """Run an (op, payload) script through a fresh core; returns the
    observation sequence, and with ``proof`` the log's events and
    hint table as its last entry."""
    solver = core(proof=proof)
    solver.new_vars(num_vars)
    out = []
    for op, payload in script:
        if op == "add":
            out.append(solver.add_clause(list(payload)))
        elif op == "solve":
            result = solver.solve(list(payload))
            out.append((result,) + observe(solver))
        else:  # pragma: no cover
            raise AssertionError(op)
    if proof:
        out.append((solver.proof.events, solver.proof.hints))
    return out


class TestOneShotEquivalence:
    def test_random_3sat_cores_agree_exactly(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(60):
            nv = rng.randint(3, 10)
            clauses = random_clauses(rng, nv, rng.randint(2, 4 * nv))
            script = [("add", c) for c in clauses] + [("solve", ())]
            legacy = run_script(LegacySolver, nv, script)
            flat = run_script(Solver, nv, script)
            assert legacy == flat, f"trial {trial}: {clauses}"
            result = flat[-1][0]
            expected = brute_force_sat(nv, clauses)
            assert result == (SAT if expected else UNSAT), \
                f"trial {trial}: {clauses}"
            if result == SAT:
                check_model(flat[-1][1], clauses)

    def test_clause_database_evolution_matches(self):
        # Learnt clauses are part of the search state; a hard UNSAT
        # instance (pigeonhole) must leave identical databases.
        def php(core, pigeons, holes):
            s = core()
            pigeonhole(s, pigeons, holes)
            result = s.solve()
            return (result, s.clause_lits(), s.learnt_lits(),
                    s.stats())

        legacy = php(LegacySolver, 5, 4)
        flat = php(Solver, 5, 4)
        assert legacy[0] == UNSAT
        assert legacy == flat


class TestIncrementalEquivalence:
    def test_interleaved_adds_and_solves(self):
        # The SAT-sweeping shape: grow the formula between calls.
        rng = random.Random(17)
        for trial in range(25):
            nv = rng.randint(4, 9)
            script = []
            for _ in range(rng.randint(2, 4)):
                for c in random_clauses(rng, nv, rng.randint(1, nv)):
                    script.append(("add", c))
                script.append(("solve", ()))
            legacy = run_script(LegacySolver, nv, script)
            flat = run_script(Solver, nv, script)
            assert legacy == flat, f"trial {trial}: {script}"

    def test_assumption_sequences(self):
        # The BMC/k-induction shape: fixed formula, per-call
        # assumption literals.
        rng = random.Random(23)
        for trial in range(25):
            nv = rng.randint(4, 9)
            script = [("add", c) for c in
                      random_clauses(rng, nv, rng.randint(3, 3 * nv))]
            for _ in range(rng.randint(2, 5)):
                vs = rng.sample(range(nv), rng.randint(0, 3))
                script.append(
                    ("solve",
                     [2 * v + (rng.random() < 0.5) for v in vs]))
            legacy = run_script(LegacySolver, nv, script)
            flat = run_script(Solver, nv, script)
            assert legacy == flat, f"trial {trial}: {script}"

    def test_conflict_budget_exhaustion_matches(self):
        def starved(core):
            s = core()
            pigeonhole(s, 6, 5)
            result = s.solve(conflict_budget=20)
            return (result,) + observe(s)

        assert starved(LegacySolver) == starved(Solver)


class TestStatsInvariants:
    @pytest.mark.parametrize("core", CORES)
    def test_lifetime_counters_are_monotone_and_sum_deltas(self, core):
        rng = random.Random(5)
        s = core()
        s.new_vars(8)
        for c in random_clauses(rng, 8, 20):
            s.add_clause(c)
        initial = s.stats()  # loading units already propagates
        previous = dict(initial)
        totals = dict.fromkeys(previous, 0)
        for _ in range(6):
            vs = rng.sample(range(8), 2)
            s.solve([2 * v + (rng.random() < 0.5) for v in vs])
            now = s.stats()
            for key in now:
                assert now[key] >= previous[key]
                assert s.last_call_stats[key] \
                    == now[key] - previous[key]
                totals[key] += s.last_call_stats[key]
            previous = now
        assert all(totals[k] == previous[k] - initial[k]
                   for k in totals)


class TestSimplifyEquivalence:
    """The solver does no clause simplification of its own (the netlist
    passes reduce a problem before it is encoded), so a restart keeps
    every clause: both cores must log the same proof, and it holds no
    deletion until learnt-DB reduction first runs."""

    def test_certified_php_with_inprocessing(self):
        # Restarts used to fire inprocessing rounds; now they must leave
        # the proof log as pure additions.  PHP(7,6) restarts 5 times
        # and stops short of reduction's first 1,000 learnts.
        def php(core):
            s = core(proof=True)
            pigeonhole(s, 7, 6)
            result = s.solve()
            check = check_proof(s.proof)
            assert check.ok, check.errors[:3]
            return (result, s.clause_lits(), s.learnt_lits(),
                    s.stats(), s.proof.events, s.proof.hints)

        legacy = php(LegacySolver)
        flat = php(Solver)
        assert legacy[0] == UNSAT
        assert legacy[3]["restarts"] >= 1
        assert all(kind != "d" for kind, _ in legacy[4])
        assert legacy == flat


class TestOracleStress:
    """Larger randomized sweeps."""

    def test_large_random_sweep(self):
        # Threshold 3-CNF, so that the cores are compared through
        # conflict analysis, minimization and learnt clauses; the
        # conflict floor keeps the sweep from drifting back to scripts
        # that unit propagation alone settles.
        rng = random.Random(0xBEEF)
        conflicts = 0
        for trial in range(150):
            nv, script = threshold_3cnf(rng, 8, 20)
            for _ in range(rng.randint(1, 4)):
                vs = rng.sample(range(nv), rng.randint(0, 4))
                script.append(
                    ("solve",
                     [2 * v + (rng.random() < 0.5) for v in vs]))
            legacy = run_script(LegacySolver, nv, script)
            flat = run_script(Solver, nv, script)
            assert legacy == flat, f"trial {trial}"
            conflicts += flat[-1][4]["conflicts"]
        assert conflicts >= 500

    def test_php_reduce_db_and_restarts_agree(self):
        # PHP(8,7) is the smallest pigeonhole instance that reaches
        # learnt-DB reduction (the first one waits for 1,000 learnts),
        # and the flat core compacts its arena after it.  Each counted
        # reduction ends with the full watcher sweep, so a reduction
        # that leaves a watch list inconsistent fails here.  Both cores
        # log a proof: the logs and hint tables must be identical, and
        # each core's, which holds the solver's own deletions, must
        # check with nearly every lemma concluding on its hints.  A
        # clause-id map that reduction or compaction left stale would
        # send later hints to unrelated clauses, and that share would
        # collapse.
        def php(core):
            s = core(proof=True)
            calls = {"_reduce_db": 0, "_compact": 0}
            s._reduce_db = counting(calls, "_reduce_db", s._reduce_db,
                                    then=s._check_watches)
            s._compact = counting(calls, "_compact", s._compact)
            pigeonhole(s, 8, 7)
            result = s.solve()
            return s, calls, (result, s.learnt_lits(), s.stats(),
                              s.proof.events, s.proof.hints)

        legacy_solver, legacy_calls, legacy = php(LegacySolver)
        flat_solver, flat_calls, flat = php(Solver)
        assert legacy[0] == UNSAT
        assert legacy == flat
        assert legacy_calls["_reduce_db"] == flat_calls["_reduce_db"] >= 1
        assert flat_calls["_compact"] >= 1
        for solver in (legacy_solver, flat_solver):
            check = check_proof(solver.proof)
            assert check.ok, check.errors[:3]
            assert check.deletions > 0
            assert check.lemmas_hinted >= 0.9 * check.lemmas_checked

    @pytest.mark.timeout_guard(60)
    def test_hint_chains_survive_corrupted_learnts(self):
        # The corrupt_learnt fault records sign-flipped learnt clauses:
        # such a clause can be a reason with a true literal besides
        # the one it implies, a later analysis can put that literal
        # into its clause, and minimization can drop it again.  A walk
        # over the dropped literals' reasons that followed a reason's
        # own literal never ended on this instance.  Both cores must
        # finish and log the same events and hints.
        nv, script = threshold_3cnf(random.Random(8), 10, 30)
        script.append(("solve", ()))
        runs = []
        for core in (LegacySolver, Solver):
            with inject(FaultPlan(corrupt_learnt=range(10 ** 6))) as plan:
                runs.append(run_script(core, nv, script, proof=True))
            assert plan.corrupted
        assert runs[0] == runs[1]
        assert runs[1][-1][1], "no hint chain"

    def test_proof_logging_leaves_the_search_alone(self):
        # Logging a proof, hint chains included, only observes: a
        # logging solver answers, assigns and counts exactly as a
        # plain one, and both cores log the same events and hints.
        rng = random.Random(0xD1CE)
        for trial in range(40):
            nv, script = threshold_3cnf(rng, 12, 30)
            for _ in range(rng.randint(1, 4)):
                vs = rng.sample(range(nv), rng.randint(0, 4))
                script.append(
                    ("solve",
                     [2 * v + (rng.random() < 0.5) for v in vs]))
            plain = run_script(Solver, nv, script)
            logged = run_script(Solver, nv, script, proof=True)
            assert logged[:-1] == plain, f"trial {trial}"
            assert logged[-1][1], f"trial {trial}: no hint chain"
            assert run_script(LegacySolver, nv, script, proof=True) \
                == logged, f"trial {trial}"
