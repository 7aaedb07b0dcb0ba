"""DRAT-style proof event logs emitted by the SAT solver.

A :class:`ProofLog` records every clause-database mutation the solver
performs, in order, as immutable events:

* ``("i", lits)`` — an *input* (problem) clause, logged exactly once at
  the public loading boundary (``add_clause`` / ``add_clauses_bulk``)
  with its **original** literals, before any level-0 normalisation.
  Input clauses are the checker's trust base: they are never verified,
  only consumed.
* ``("a", lits)`` — a *learned* clause (post-minimization), including
  unit learnts that never enter the learnt database proper.  Every
  ``a`` event must have the RUP property with respect to the clauses
  active at that point — this is what :mod:`repro.cert.drat` checks.
* ``("d", lits)`` — a learnt clause *deleted* by learnt-DB
  reduction.  The solver's watched-literal scheme permutes clause
  literals in place after the addition was logged, so deletions are
  matched by the canonical :func:`clause_key` (sorted literal *set*),
  never by literal order;
  duplicate copies of a clause remain distinct instances — deleting
  one leaves the others live (see :func:`clause_key`).
* ``("u", assumptions)`` — an UNSAT *conclusion*: the solver claimed
  ``unsat`` under exactly these assumption literals (the empty tuple
  for an unconditional refutation).  Unit propagation over the active
  clauses plus the assumptions must yield a conflict.

The log lives in memory, one per solver built with ``proof=True``.

This module imports nothing from ``repro`` — :mod:`repro.sat.solver`
must be able to import it without cycles, exactly like the resilience
error taxonomy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["EVENT_KINDS", "ProofLog", "clause_key"]

#: Event tags, in the order they typically appear.
EVENT_KINDS = ("i", "a", "d", "u")


def clause_key(lits: Iterable[int]) -> Tuple[int, ...]:
    """The canonical key under which deletion events are matched to
    clause instances: the sorted *set* of literals.

    Two properties matter, and both bit the naive sorted-tuple key:

    * duplicate *literals* are semantically irrelevant — inputs are
      logged pre-normalisation (e.g. XOR clauses over aliased frame
      literals repeat a literal) while the solver's stored copy is
      deduplicated, so a deletion of the stored form must still match
      the logged instance;
    * duplicate *copies* of a clause are distinct instances — the
      checker keeps one bookkeeping stack per key, so deleting one
      copy pops a single instance and leaves the other copies live.
    """
    return tuple(sorted(set(lits)))


class ProofLog:
    """An in-memory clausal proof log.

    Events are ``(kind, lits)`` tuples with ``kind`` in
    :data:`EVENT_KINDS` and ``lits`` an immutable tuple of 0-based
    literals (the :mod:`repro.sat.cnf` encoding).  Literal tuples are
    snapshotted at logging time: callers may hand over the very lists
    the solver will keep mutating (watched-literal swaps), the log is
    unaffected.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Tuple[str, Tuple[int, ...]]] = []

    # ------------------------------------------------------------------
    # Logging (called from the solver hot paths; each is one append)
    # ------------------------------------------------------------------
    def _log(self, kind: str, lits: Iterable[int]) -> None:
        self.events.append((kind, tuple(lits)))

    def input(self, lits: Iterable[int]) -> None:
        """Log an original problem clause (the checker's axiom set)."""
        self._log("i", lits)

    def learnt(self, lits: Iterable[int]) -> None:
        """Log a learned clause (must be RUP at this point)."""
        self._log("a", lits)

    def delete(self, lits: Iterable[int]) -> None:
        """Log a clause deletion (learnt-DB reduction); matched
        against one live instance by :func:`clause_key`."""
        self._log("d", lits)

    def conclude_unsat(self, assumptions: Iterable[int] = ()) -> None:
        """Log an UNSAT verdict under ``assumptions`` (may be empty)."""
        self._log("u", assumptions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Event counts per kind (``i`` / ``a`` / ``d`` / ``u``)."""
        out = {kind: 0 for kind in EVENT_KINDS}
        for kind, _ in self.events:
            out[kind] += 1
        return out

    def __len__(self) -> int:
        return len(self.events)
