"""The reference SAT core: one Python object per clause.

:class:`LegacySolver` is the original object-based core of
:class:`repro.sat.Solver`.  It subclasses the shipped solver and
overrides every data-layout primitive (propagation, analysis,
attach/detach, the VSIDS heap, learnt-DB reduction), so it runs the
shipped ``_search`` over a different layout: ``_Clause`` objects with
literal lists, watcher lists of ``(clause, blocker)`` tuples,
``None``/``bool`` assignment cells and a lazy-deletion decision heap.
Both make the same decisions, so verdicts, models, trails and
statistics must match *exactly*, and so must the proofs they log,
hint chains included (this core records each chain as its analysis
resolves, the shipped one walks the trail again); any divergence is
a bug in one of them.  The cross-core oracle
(``test_solver_oracle.py``) and the tests parametrized over
:data:`CORES` compare them.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Tuple

import pytest

from repro.sat.cnf import lit_not, lit_sign, lit_var
from repro.sat.solver import Solver


class _Clause:
    """A clause of the legacy object core; ``cid`` is its proof clause
    id (-1 without a proof)."""

    __slots__ = ("lits", "learnt", "activity", "cid")

    def __init__(self, lits: List[int], learnt: bool,
                 cid: int = -1) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.cid = cid


class LegacySolver(Solver):
    """The original object-based core: one ``_Clause`` per clause,
    watcher lists of ``(clause, blocker)`` pairs.

    Kept as the reference implementation behind the dual-path oracle
    (see the module docstring); construct it directly.
    """

    def __init__(self, proof: bool = False) -> None:
        super().__init__(proof)
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        #: Watcher lists, indexed by falsified literal; entries are
        #: ``(clause, blocker)`` where ``blocker`` is some literal of
        #: the clause (usually the other watch) whose truth proves the
        #: clause satisfied without touching it.
        self._watches: List[List[tuple]] = []
        self._assign: List[Optional[bool]] = []
        self._level: List[int] = []
        self._reason: List[Optional[_Clause]] = []
        self._polarity: List[bool] = []

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        var = self.num_vars
        self.num_vars += 1
        self._watches.append([])
        self._watches.append([])
        self._assign.append(None)
        self._level.append(0)
        self._reason.append(None)
        self._polarity.append(False)
        self._activity.append(0.0)
        heapq.heappush(self._heap, (0.0, var))
        return var

    def new_vars(self, n: int) -> int:
        """Allocate ``n`` fresh variables at once; returns the first.

        State-identical to ``n`` :meth:`new_var` calls (same side
        tables, same heap entries in the same order).
        """
        base = self.num_vars
        if n <= 0:
            return base
        self.num_vars = base + n
        self._watches.extend([] for _ in range(2 * n))
        self._assign.extend([None] * n)
        self._level.extend([0] * n)
        self._reason.extend([None] * n)
        self._polarity.extend([False] * n)
        self._activity.extend([0.0] * n)
        heap = self._heap
        for var in range(base, base + n):
            heapq.heappush(heap, (0.0, var))
        return base

    def _store_problem_clause(self, clause: List[int], cid: int) -> None:
        c = _Clause(clause, learnt=False, cid=cid)
        self._clauses.append(c)
        self._attach(c)

    def add_clauses_bulk(self, clauses: Iterable[List[int]]) -> bool:
        """Bulk-load pre-validated clauses, skipping normalisation.

        Same caller contract and semantics as
        :meth:`repro.sat.Solver.add_clauses_bulk`, producing an
        element-wise identical clause database.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
        assign = self._assign
        watches = self._watches
        out = self._clauses
        append = out.append
        slow = self._add_clause_raw
        proof = self._proof
        for lits in clauses:
            cid = -1
            if proof is not None:
                # Original literals, before any normalisation or
                # watched-literal reordering mutates the list.
                cid = proof.input(lits)
            for lit in lits:
                if assign[lit >> 1] is not None:
                    break
            else:
                clause = _Clause(lits, False, cid)
                append(clause)
                watches[lits[0] ^ 1].append((clause, lits[1]))
                watches[lits[1] ^ 1].append((clause, lits[0]))
                continue
            # Level-0 normalisation, inline.  ``v != (lit & 1)`` is
            # "literal true" (bool compares equal to int): keep
            # unassigned literals, drop falsified ones, skip the
            # clause on a satisfied one — exactly add_clause's rules
            # minus the duplicate/tautology checks the caller contract
            # makes unreachable.
            keep = []
            kappend = keep.append
            sat = False
            for lit in lits:
                v = assign[lit >> 1]
                if v is None:
                    kappend(lit)
                elif v != (lit & 1):
                    sat = True
                    break
            if sat:
                continue
            if len(keep) >= 2:
                clause = _Clause(keep, False, cid)
                append(clause)
                watches[keep[0] ^ 1].append((clause, keep[1]))
                watches[keep[1] ^ 1].append((clause, keep[0]))
            elif not slow(keep):  # empty or unit: rare, delegate
                return False
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        v = self._assign[lit_var(lit)]
        if v is None:
            return None
        return (not v) if lit_sign(lit) else v

    def _model_values(self) -> List[bool]:
        return [bool(v) for v in self._assign]

    def _attach(self, clause: _Clause) -> None:
        lits = clause.lits
        self._watches[lits[0] ^ 1].append((clause, lits[1]))
        self._watches[lits[1] ^ 1].append((clause, lits[0]))

    def _enqueue(self, lit: int, reason: Optional[_Clause] = None) -> bool:
        val = self._value(lit)
        if val is not None:
            return val
        var = lit_var(lit)
        self._assign[var] = not lit_sign(lit)
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._polarity[var] = self._assign[var]
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            watchers = self._watches[lit]
            assign = self._assign
            i = 0
            j = 0
            n = len(watchers)
            false_lit = lit ^ 1
            while i < n:
                clause, blocker = watchers[i]
                i += 1
                # Blocker fast path: some literal of the clause is
                # already true, so the clause is satisfied and need
                # not be loaded at all.  (True == 1, so the comparison
                # is one int op; None compares unequal to both.)
                if assign[blocker >> 1] == (blocker & 1) ^ 1:
                    watchers[j] = (clause, blocker)
                    j += 1
                    continue
                lits = clause.lits
                # Ensure the falsified literal is in slot 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value(first) is True:
                    watchers[j] = (clause, first)
                    j += 1
                    continue
                # Search for a new watch.
                found = False
                for k in range(2, len(lits)):
                    if self._value(lits[k]) is not False:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[lits[1] ^ 1].append((clause, first))
                        found = True
                        break
                if found:
                    continue
                # Unit or conflicting.
                watchers[j] = (clause, first)
                j += 1
                if self._value(first) is False:
                    # Conflict: keep remaining watchers, reset queue.
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    self._qhead = len(self._trail)
                    return clause
                self._enqueue(first, clause)
            del watchers[j:]
        return None

    def _analyze(self, conflict: _Clause) -> tuple:
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        lit = None
        reason: Optional[_Clause] = conflict
        resolved: List[_Clause] = []
        idx = len(self._trail) - 1
        while True:
            assert reason is not None
            resolved.append(reason)
            self._bump_clause(reason)
            start = 0 if lit is None else 1
            # After the first iteration lits[0] is the enqueued literal.
            lits = reason.lits
            if lit is not None and lits[0] != lit:
                # Reason clause stores the implied literal first; if not,
                # locate it and skip it.
                lits = [lit] + [x for x in lits if x != lit]
            for q in lits[start:]:
                var = lit_var(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= self._decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[lit_var(self._trail[idx])]:
                idx -= 1
            lit = self._trail[idx]
            idx -= 1
            var = lit_var(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[var]
        learnt[0] = lit_not(lit)
        # Clause minimization: drop literals implied by the rest.
        kept = self._minimize(learnt, seen)
        if self._proof is not None:
            # The hint chain, in trail order: minimization's reasons,
            # then analysis's, which it met walking the trail back.
            dropped = [q for q in learnt if q not in kept]
            self._chain = self._dropped_reasons(dropped) \
                + [clause.cid for clause in reversed(resolved)]
        learnt = kept
        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the literal with the second-highest level.
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[lit_var(learnt[i])] > \
                        self._level[lit_var(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self._level[lit_var(learnt[1])]
        return learnt, back_level

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        for lit in learnt[1:]:
            seen[lit_var(lit)] = True
        out = [learnt[0]]
        for lit in learnt[1:]:
            reason = self._reason[lit_var(lit)]
            if reason is None:
                out.append(lit)
                continue
            redundant = all(
                seen[lit_var(q)] or self._level[lit_var(q)] == 0
                for q in reason.lits if lit_var(q) != lit_var(lit)
            )
            if not redundant:
                out.append(lit)
        for lit in learnt[1:]:
            seen[lit_var(lit)] = False
        return out

    def _dropped_reasons(self, dropped: List[int]) -> List[int]:
        """The proof ids of the reasons of the literals minimization
        dropped, each after those of the dropped literals its reason
        rests on: a depth-first walk from each literal in clause
        order, over its reason's literals in order."""
        chain: List[int] = []
        visited = set()

        def visit(lit: int) -> None:
            visited.add(lit)
            reason = self._reason[lit_var(lit)]
            for q in reason.lits:
                if q in dropped and q not in visited:
                    visit(q)
            chain.append(reason.cid)

        for lit in dropped:
            if lit not in visited:
                visit(lit)
        return chain

    def _record_learnt(self, learnt: List[int]) -> None:
        cid = -1
        if self._proof is not None:
            # Post-minimization literals (minimization preserves RUP);
            # unit learnts are logged too — they never enter _learnts,
            # only the level-0 trail.
            cid = self._proof.learnt(learnt, self._chain)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learnt=True, cid=cid)
        clause.activity = self._cla_inc
        self._learnts.append(clause)
        self._attach(clause)
        self._enqueue(learnt[0], clause)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            var = lit_var(lit)
            self._assign[var] = None
            self._reason[var] = None
            heapq.heappush(self._heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _pick_branch(self) -> Optional[int]:
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self._assign[var] is None:
                return (var << 1) | (0 if self._polarity[var] else 1)
        for var in range(self.num_vars):
            if self._assign[var] is None:
                return (var << 1) | (0 if self._polarity[var] else 1)
        return None

    def _bump_var(self, var: int) -> None:
        act = self._activity
        act[var] += self._var_inc
        if act[var] > 1e100:
            self._rescale_activities()
            # Rescaling invalidates every key already sitting in the
            # lazy-deletion heap (they carry the un-rescaled
            # magnitudes, so _pick_branch would pop in stale priority
            # order for the rest of the run).  Rebuild the heap from
            # the *current* activities of its member variables.
            heap = [(-act[v], v)
                    for v in sorted({v for _, v in self._heap})]
            heapq.heapify(heap)
            self._heap = heap
        heapq.heappush(self._heap, (-act[var], var))

    def _bump_clause(self, clause: _Clause) -> None:
        if clause.learnt:
            clause.activity += self._cla_inc

    def _reduce_db(self) -> None:
        # A learnt clause is *locked* (must be kept) while it is the
        # reason of its asserting literal's variable; reasons always
        # store that literal in slot 0, so lock detection is one table
        # probe per clause — no scan over all variables, no id()-keyed
        # side set.
        learnts = self._learnts
        learnts.sort(key=lambda c: c.activity)
        keep_from = len(learnts) // 2
        reason = self._reason
        removed = []
        kept = []
        for i, clause in enumerate(learnts):
            lits = clause.lits
            if i < keep_from and len(lits) > 2 \
                    and reason[lits[0] >> 1] is not clause:
                removed.append(clause)
            else:
                kept.append(clause)
        proof = self._proof
        for clause in removed:
            if proof is not None:
                proof.delete(clause.lits)
            self._detach(clause)
        self._learnts = kept

    def _detach(self, clause: _Clause) -> None:
        for lit in (clause.lits[0], clause.lits[1]):
            watchers = self._watches[lit ^ 1]
            for idx in range(len(watchers)):
                if watchers[idx][0] is clause:
                    del watchers[idx]
                    break
            else:
                # A detach miss means the watcher lists no longer
                # agree with the clause's watched literals — real
                # corruption that a silent pass would mask.
                raise RuntimeError(
                    "watcher corruption: clause "
                    f"{tuple(clause.lits)} missing from the watch "
                    f"list of literal {lit ^ 1}")

    def _check_watches(self) -> None:
        """Raise unless every watcher entry is consistent: the watched
        literal sits in its clause's first two slots and the blocker
        occurs in the clause.  A full sweep, for tests."""
        for idx, watchers in enumerate(self._watches):
            lit = idx ^ 1
            for clause, blocker in watchers:
                lits = clause.lits
                if lit not in lits[:2] or blocker not in lits:
                    raise RuntimeError(
                        "watcher corruption: literal "
                        f"{lit} watches clause {tuple(lits)} "
                        f"(blocker {blocker})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clause_lits(self) -> List[Tuple[int, ...]]:
        return [tuple(c.lits) for c in self._clauses]

    def learnt_lits(self) -> List[Tuple[int, ...]]:
        return [tuple(c.lits) for c in self._learnts]

    def assignment(self) -> List[Optional[bool]]:
        return list(self._assign)


#: Both layouts as test parameters.  The ids name the layouts: one
#: object per clause, and the shipped solver's flat arrays.
CORES = [pytest.param(LegacySolver, id="LegacySolver"),
         pytest.param(Solver, id="FlatSolver")]
