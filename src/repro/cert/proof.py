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

Every ``i`` and ``a`` event is also a clause *id*: its position among
the log's ``i``/``a`` events, counting from 0 (the numbering the
checker uses).  :meth:`ProofLog.input` and :meth:`ProofLog.learnt`
return the id they assign.

Beside the events the log keeps a *hint table*, :attr:`ProofLog.hints`:
for a learned clause, the ids of the clauses the solver's conflict
analysis and minimization resolved on, in trail order, keyed by the
lemma's id.  The table is a side channel: the events keep their
``(kind, lits)`` shape, and a log without hints (a hand-built event
list, say) checks as before.  Hints are untrusted search advice, the
RUP half of LRAT (see :mod:`repro.cert.drat`): they may name any id,
and a wrong one costs the checker time, never a verdict.

The log lives in memory, one per solver built with ``proof=True``.

This module imports nothing from ``repro`` — :mod:`repro.sat.solver`
must be able to import it without cycles, exactly like the resilience
error taxonomy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

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

    __slots__ = ("events", "hints", "_clauses")

    def __init__(self) -> None:
        self.events: List[Tuple[str, Tuple[int, ...]]] = []
        #: Hint chains (clause ids in trail order) keyed by lemma id.
        self.hints: Dict[int, Tuple[int, ...]] = {}
        #: ``i``/``a`` events so far: the id the next clause gets.
        self._clauses = 0

    # ------------------------------------------------------------------
    # Logging (called from the solver hot paths)
    # ------------------------------------------------------------------
    def _add(self, kind: str, lits: Iterable[int]) -> int:
        """Log a clause addition; returns its clause id."""
        self.events.append((kind, tuple(lits)))
        cid = self._clauses
        self._clauses = cid + 1
        return cid

    def input(self, lits: Iterable[int]) -> int:
        """Log an original problem clause (the checker's axiom set);
        returns its clause id."""
        return self._add("i", lits)

    def learnt(self, lits: Iterable[int],
               hints: Sequence[int] = ()) -> int:
        """Log a learned clause (must be RUP at this point) and the
        ids of the clauses its derivation resolved on; returns its
        clause id."""
        cid = self._add("a", lits)
        if hints:
            self.hints[cid] = tuple(hints)
        return cid

    def delete(self, lits: Iterable[int]) -> None:
        """Log a clause deletion (learnt-DB reduction); matched
        against one live instance by :func:`clause_key`."""
        self.events.append(("d", tuple(lits)))

    def conclude_unsat(self, assumptions: Iterable[int] = ()) -> None:
        """Log an UNSAT verdict under ``assumptions`` (may be empty)."""
        self.events.append(("u", tuple(assumptions)))

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
