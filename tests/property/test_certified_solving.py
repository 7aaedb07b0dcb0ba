"""Certified solving, checked by oracles that share no code with it.

``Solver(proof=True)`` must answer exactly as ``Solver()`` does, since
proof logging only observes the search; that is why the ``sat.*``
counts of a certified run match an uncertified one.  Each answer must
also check on its own:

* every UNSAT passes the DRAT checker (:mod:`repro.cert.drat`);
* every SAT model satisfies every clause added so far and the
  assumptions;
* the checker decides every proof alike with and without the hint
  chains the solver logged beside it: hints only order unit
  propagation.

Scripts interleave clause additions of width 1-3 with solves under
0-4 assumptions: the incremental shape of BMC and SAT sweeping.
"""

import random

import pytest

from repro.cert.drat import check_events, check_proof
from repro.sat import SAT, UNSAT, Solver

SCRIPTS_PER_SEED = 300


def random_script(rng):
    """A random incremental script over 4-8 variables."""
    num_vars = rng.randint(4, 8)
    script = []
    for _ in range(rng.randint(2, 6)):
        for _ in range(rng.randint(1, 8)):
            vs = rng.sample(range(num_vars), rng.randint(1, 3))
            script.append(("add", [2 * v + rng.randint(0, 1)
                                   for v in vs]))
        vs = rng.sample(range(num_vars), rng.randint(0, 4))
        script.append(("solve", [2 * v + rng.randint(0, 1)
                                 for v in vs]))
    return num_vars, script


def satisfies(model, clause):
    return any(model[lit >> 1] != bool(lit & 1) for lit in clause)


def run_script(num_vars, script, proof):
    """Run ``script``; returns the solver and, per solve, everything a
    caller can observe about it."""
    solver = Solver(proof=proof)
    for _ in range(num_vars):
        solver.new_var()
    added = []
    observed = []
    for op, lits in script:
        if op == "add":
            added.append(lits)
            solver.add_clause(list(lits))
            continue
        result = solver.solve(lits)
        if result == SAT:
            model = solver.model
            for clause in added + [[lit] for lit in lits]:
                assert satisfies(model, clause), (clause, model)
        observed.append((result, list(solver.model),
                         solver.trail_lits(), solver.stats()))
    return solver, observed


@pytest.mark.parametrize("seed", range(3))
def test_certified_scripts(seed):
    rng = random.Random(seed)
    refuted = 0
    for index in range(SCRIPTS_PER_SEED):
        num_vars, script = random_script(rng)
        certified, seen = run_script(num_vars, script, proof=True)
        _, plain = run_script(num_vars, script, proof=False)
        assert seen == plain, f"script {index}"
        proof = certified.proof
        hinted = check_proof(proof, require_conclusion=False)
        bare = check_events(proof.events, require_conclusion=False)
        assert (hinted.ok, hinted.conclusions) \
            == (bare.ok, bare.conclusions), f"script {index}"
        if any(entry[0] == UNSAT for entry in seen):
            refuted += 1
            result = check_proof(proof)
            assert result.ok, (index, script, result.errors[:3])
    # The sweep must exercise the UNSAT side, not only models.
    assert refuted > SCRIPTS_PER_SEED // 4
