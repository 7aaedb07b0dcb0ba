"""Certified clause-database simplification in the SAT cores.

The solver's one clause-database simplification is learnt-DB reduction
(``_reduce_db``, followed on the flat core by arena compaction); it
never removes a problem clause.  Each core's proof log must carry
reduction's deletions and still check.
"""

import pytest

from repro.cert.drat import check_proof
from repro.cert.proof import clause_key
from repro.sat import UNSAT

from ..property.legacy_solver import CORES


def php_clauses(solver, pigeons, holes):
    """Load an UNSAT pigeonhole instance."""
    var = {(p, h): solver.new_var() for p in range(pigeons)
           for h in range(holes)}
    for p in range(pigeons):
        solver.add_clause([2 * var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([2 * var[p1, h] + 1,
                                   2 * var[p2, h] + 1])


@pytest.mark.parametrize("core", CORES)
class TestCertifiedSimplification:
    def test_php_with_inprocessing_restarts_proof_checks(self, core):
        # PHP(8,7) restarts and passes reduction's first threshold of
        # 1,000 learnts, so the proof interleaves learnts with their
        # deletions; every deleted clause must be a logged learnt.
        s = core(proof=True)
        php_clauses(s, 8, 7)
        assert s.solve() == UNSAT
        assert s.stats()["restarts"] >= 1
        result = check_proof(s.proof)
        assert result.ok, result.errors[:3]
        assert result.deletions > 0
        learnts = {clause_key(lits)
                   for kind, lits in s.proof.events if kind == "a"}
        assert all(clause_key(lits) in learnts
                   for kind, lits in s.proof.events if kind == "d")
