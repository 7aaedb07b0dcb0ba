"""The flat-array CDCL core.

:class:`FlatSolver` is the default :class:`~repro.sat.solver.Solver`
core.  It executes the exact same search as the legacy object core
(the control loop is shared — see ``Solver._search``) but lays the hot
state out as contiguous flat arrays instead of per-clause Python
objects:

* **Clause arena** — one flat integer list.  A clause is a *reference*
  (``cref``), the index of its inline header: ``arena[cref]`` is the
  literal count, ``arena[cref + 1]`` the clause's index into the
  learnt-activity table (``-1`` for problem clauses), and the literals
  follow at ``arena[cref + 2:]``.  The arena starts with a two-word
  pad so that ``0`` is never a valid reference.
* **Watcher lists** — per literal, a flat interleaved integer list
  ``[cref0, blocker0, cref1, blocker1, ...]``; the blocker is a
  literal of the clause whose truth lets propagation skip the clause
  without touching the arena at all.
* **Assignment / reason / level** — plain integer tables:
  ``_assign[v]`` is ``-1`` (unassigned), ``0`` (false) or ``1``
  (true); ``_reason[v]`` is a cref or ``-1``; a literal ``p`` is true
  iff ``_assign[p >> 1] == (p & 1) ^ 1``.

Removing a learnt clause only unlinks it from the watcher lists; the
arena words become garbage and are reclaimed by :meth:`_compact` once
they outnumber the live words.  Compaction rewrites crefs in place
(watchers, reasons, clause indices) and is invisible to the search.

The layout removes object allocation and attribute dispatch from the
propagation/analysis inner loops, which profile as the solver's hot
path (``python -m cProfile -s tottime`` ranks ``_propagate``,
``_analyze`` and ``_pick_branch`` first).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from .solver import Solver, debug_checks_enabled

#: Words of header before a clause's literals in the arena.
_HDR = 2


class FlatSolver(Solver):
    """The arena-backed CDCL core (see the module docstring)."""

    def __init__(self) -> None:
        super().__init__()
        #: Clause arena; pad so cref 0 is never valid (reason table
        #: uses -1 as "no reason", watcher code may treat 0 as falsy).
        self._arena: List[int] = [0, 0]
        #: Activities of learnt clauses, indexed by the header's
        #: activity slot (problem clauses carry -1 there).
        self._cla_act: List[float] = []
        #: Problem / learnt clause references, insertion-ordered.
        self._clauses: List[int] = []
        self._learnts: List[int] = []
        #: Per-literal interleaved [cref, blocker, ...] watcher lists.
        self._watches: List[List[int]] = []
        self._assign: List[int] = []
        self._level: List[int] = []
        self._reason: List[int] = []
        self._polarity: List[int] = []
        #: Dead arena words left behind by removed learnt clauses.
        self._garbage = 0

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        var = self.num_vars
        self.num_vars += 1
        self._watches.append([])
        self._watches.append([])
        self._assign.append(-1)
        self._level.append(0)
        self._reason.append(-1)
        self._polarity.append(0)
        self._activity.append(0.0)
        heapq.heappush(self._heap, (0.0, var))
        return var

    def new_vars(self, n: int) -> int:
        """Allocate ``n`` fresh variables at once; returns the first.

        State-identical to ``n`` :meth:`new_var` calls — the template
        stamping fast path uses it to skip per-variable call overhead.
        """
        base = self.num_vars
        if n <= 0:
            return base
        self.num_vars = base + n
        self._watches.extend([] for _ in range(2 * n))
        self._assign.extend([-1] * n)
        self._level.extend([0] * n)
        self._reason.extend([-1] * n)
        self._polarity.extend([0] * n)
        self._activity.extend([0.0] * n)
        heap = self._heap
        for var in range(base, base + n):
            heapq.heappush(heap, (0.0, var))
        return base

    def _alloc_clause(self, lits: List[int], learnt: bool) -> int:
        arena = self._arena
        cref = len(arena)
        if learnt:
            act_idx = len(self._cla_act)
            self._cla_act.append(0.0)
        else:
            act_idx = -1
        arena.append(len(lits))
        arena.append(act_idx)
        arena.extend(lits)
        return cref

    def _store_problem_clause(self, clause: List[int]) -> None:
        cref = self._alloc_clause(clause, learnt=False)
        self._clauses.append(cref)
        self._attach(cref)

    def add_clauses_bulk(self, clauses: Iterable[List[int]]) -> bool:
        """Bulk-load pre-validated clauses, skipping normalisation.

        Same caller contract and semantics as
        :meth:`LegacySolver.add_clauses_bulk` — at least two literals
        per clause, pairwise-distinct variables, ownership transfer —
        producing an element-wise identical clause database.
        """
        if not self._ok:
            return False
        if self._elim_count:
            clauses = self._restore_for_bulk(clauses)
            if not self._ok:
                return False
        self._cancel_until(0)
        assign = self._assign
        arena = self._arena
        watches = self._watches
        out = self._clauses
        append = out.append
        slow = self._add_clause_raw
        proof = self._proof
        for lits in clauses:
            if proof is not None:
                # Original literals, before any normalisation or
                # watched-literal reordering mutates the list.
                proof.input(lits)
            for lit in lits:
                if assign[lit >> 1] >= 0:
                    break
            else:
                cref = len(arena)
                arena.append(len(lits))
                arena.append(-1)
                arena.extend(lits)
                append(cref)
                ws = watches[lits[0] ^ 1]
                ws.append(cref)
                ws.append(lits[1])
                ws = watches[lits[1] ^ 1]
                ws.append(cref)
                ws.append(lits[0])
                continue
            # Level-0 normalisation, inline (mirrors the legacy core).
            keep = []
            kappend = keep.append
            sat = False
            for lit in lits:
                v = assign[lit >> 1]
                if v < 0:
                    kappend(lit)
                elif v != (lit & 1):
                    sat = True
                    break
            if sat:
                continue
            if len(keep) >= 2:
                if proof is not None and len(keep) < len(lits):
                    # Stored residue differs from the logged input
                    # (level-0-false literals stripped): log it as a
                    # RUP lemma so a later deletion of the stored
                    # form matches a live instance in the checker.
                    proof.learnt(keep)
                cref = len(arena)
                arena.append(len(keep))
                arena.append(-1)
                arena.extend(keep)
                append(cref)
                ws = watches[keep[0] ^ 1]
                ws.append(cref)
                ws.append(keep[1])
                ws = watches[keep[1] ^ 1]
                ws.append(cref)
                ws.append(keep[0])
            elif not slow(keep):  # empty or unit: rare, delegate
                return False
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        v = self._assign[lit >> 1]
        if v < 0:
            return None
        return v == (lit & 1) ^ 1

    def _attach(self, cref: int) -> None:
        arena = self._arena
        l0 = arena[cref + 2]
        l1 = arena[cref + 3]
        ws = self._watches[l0 ^ 1]
        ws.append(cref)
        ws.append(l1)
        ws = self._watches[l1 ^ 1]
        ws.append(cref)
        ws.append(l0)

    def _enqueue(self, lit: int, reason: int = -1) -> bool:
        var = lit >> 1
        v = self._assign[var]
        sign_flip = (lit & 1) ^ 1
        if v >= 0:
            return v == sign_flip
        self._assign[var] = sign_flip
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = sign_flip
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        trail = self._trail
        arena = self._arena
        assign = self._assign
        level = self._level
        reason = self._reason
        polarity = self._polarity
        trail_append = trail.append
        watches = self._watches
        qhead = self._qhead
        propagations = 0
        conflict = -1
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            ws = watches[lit]
            false_lit = lit ^ 1
            cur_level = len(self._trail_lim)
            i = 0
            j = 0
            n = len(ws)
            while i < n:
                cref = ws[i]
                blocker = ws[i + 1]
                i += 2
                # Blocker fast path: clause already satisfied.
                if assign[blocker >> 1] == (blocker & 1) ^ 1:
                    ws[j] = cref
                    ws[j + 1] = blocker
                    j += 2
                    continue
                base = cref + 2
                # Ensure the falsified literal is in slot 1.
                l0 = arena[base]
                if l0 == false_lit:
                    l0 = arena[base + 1]
                    arena[base] = l0
                    arena[base + 1] = false_lit
                v0 = assign[l0 >> 1]
                if v0 == (l0 & 1) ^ 1:
                    ws[j] = cref
                    ws[j + 1] = l0
                    j += 2
                    continue
                # Search for a new watch.
                end = base + arena[cref]
                found = False
                for k in range(base + 2, end):
                    lk = arena[k]
                    if assign[lk >> 1] != lk & 1:  # not false
                        arena[base + 1] = lk
                        arena[k] = false_lit
                        nws = watches[lk ^ 1]
                        nws.append(cref)
                        nws.append(l0)
                        found = True
                        break
                if found:
                    continue
                # Unit or conflicting.
                ws[j] = cref
                ws[j + 1] = l0
                j += 2
                if v0 >= 0:  # l0 false (not-true and assigned): conflict
                    while i < n:
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        i += 2
                        j += 2
                    del ws[j:]
                    qhead = len(trail)
                    conflict = cref
                    break
                var = l0 >> 1
                assign[var] = (l0 & 1) ^ 1
                level[var] = cur_level
                reason[var] = cref
                polarity[var] = assign[var]
                trail_append(l0)
            else:
                del ws[j:]
                continue
            break
        self._qhead = qhead
        self.propagations += propagations
        return conflict if conflict >= 0 else None

    def _analyze(self, conflict: int) -> tuple:
        arena = self._arena
        trail = self._trail
        level = self._level
        reasons = self._reason
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * self.num_vars
        counter = 0
        lit = None
        reason = conflict
        idx = len(trail) - 1
        cur_level = len(self._trail_lim)
        cla_act = self._cla_act
        cla_inc = self._cla_inc
        while True:
            act_idx = arena[reason + 1]
            if act_idx >= 0:
                cla_act[act_idx] += cla_inc
            size = arena[reason]
            lits = arena[reason + 2: reason + 2 + size]
            start = 0 if lit is None else 1
            if lit is not None and lits[0] != lit:
                # Reason clause stores the implied literal first; if
                # not, locate it and skip it.
                lits = [lit] + [x for x in lits if x != lit]
            for q in lits[start:]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            lit = trail[idx]
            idx -= 1
            var = lit >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = reasons[var]
        learnt[0] = lit ^ 1
        learnt = self._minimize(learnt, seen)
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = level[learnt[1] >> 1]
        return learnt, back_level

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        arena = self._arena
        level = self._level
        reasons = self._reason
        for lit in learnt[1:]:
            seen[lit >> 1] = True
        out = [learnt[0]]
        for lit in learnt[1:]:
            reason = reasons[lit >> 1]
            if reason < 0:
                out.append(lit)
                continue
            var = lit >> 1
            redundant = True
            for k in range(reason + 2, reason + 2 + arena[reason]):
                q = arena[k]
                if (q >> 1) != var and not seen[q >> 1] \
                        and level[q >> 1] != 0:
                    redundant = False
                    break
            if not redundant:
                out.append(lit)
        for lit in learnt[1:]:
            seen[lit >> 1] = False
        return out

    def _record_learnt(self, learnt: List[int]) -> None:
        if self._proof is not None:
            # Post-minimization literals (minimization preserves RUP);
            # unit learnts are logged too — they never enter _learnts,
            # only the level-0 trail.
            self._proof.learnt(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0])
            return
        cref = self._alloc_clause(learnt, learnt=True)
        self._cla_act[self._arena[cref + 1]] = self._cla_inc
        self._learnts.append(cref)
        self._attach(cref)
        self._enqueue(learnt[0], cref)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        reason = self._reason
        act = self._activity
        heap = self._heap
        push = heapq.heappush
        for i in range(len(trail) - 1, bound - 1, -1):
            var = trail[i] >> 1
            assign[var] = -1
            reason[var] = -1
            push(heap, (-act[var], var))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    def _pick_branch(self) -> Optional[int]:
        heap = self._heap
        assign = self._assign
        polarity = self._polarity
        while heap:
            _, var = heapq.heappop(heap)
            if assign[var] < 0:
                return (var << 1) | (polarity[var] ^ 1)
        for var in range(self.num_vars):
            if assign[var] < 0:
                return (var << 1) | (polarity[var] ^ 1)
        return None

    def _reduce_db(self) -> None:
        # Lock detection matches the legacy core: a learnt clause must
        # be kept while it is the reason of its slot-0 literal's
        # variable — one table probe, no variable scan.
        arena = self._arena
        cla_act = self._cla_act
        reason = self._reason
        learnts = self._learnts
        learnts.sort(key=lambda c: cla_act[arena[c + 1]])
        keep_from = len(learnts) // 2
        kept = []
        garbage = self._garbage
        proof = self._proof
        for i, cref in enumerate(learnts):
            size = arena[cref]
            if i < keep_from and size > 2 \
                    and reason[arena[cref + 2] >> 1] != cref:
                if proof is not None:
                    # Snapshot the (watch-permuted) literals before
                    # the arena words become garbage.
                    proof.delete(arena[cref + 2: cref + 2 + size])
                self._detach(cref)
                garbage += size + _HDR
            else:
                kept.append(cref)
        self._learnts = kept
        self._garbage = garbage
        if garbage * 2 > len(arena):
            self._compact()
        if debug_checks_enabled():
            self._debug_check_watches()

    def _detach(self, cref: int) -> None:
        arena = self._arena
        for lit in (arena[cref + 2], arena[cref + 3]):
            ws = self._watches[lit ^ 1]
            for i in range(0, len(ws), 2):
                if ws[i] == cref:
                    del ws[i:i + 2]
                    break
            else:
                # Unlike the legacy core's historical silent pass,
                # the flat core always treats a detach miss as the
                # watcher corruption it is.
                raise RuntimeError(
                    f"watcher corruption: clause ref {cref} missing "
                    f"from the watch list of literal {lit ^ 1}")

    def _compact(self) -> None:
        """Reclaim garbage arena words left by removed learnt clauses.

        Copies live clauses (problem first, then learnts, preserving
        order) into a fresh arena, rewrites every stored cref
        (clause indices, watcher lists, reason table) and rebuilds the
        learnt-activity table densely.  Watcher order is preserved, so
        the search is completely unaffected.
        """
        old = self._arena
        old_act = self._cla_act
        new: List[int] = [0, 0]
        new_act: List[float] = []
        remap: Dict[int, int] = {}
        for group in (self._clauses, self._learnts):
            for idx, cref in enumerate(group):
                size = old[cref]
                act_idx = old[cref + 1]
                ncref = len(new)
                remap[cref] = ncref
                new.append(size)
                if act_idx >= 0:
                    new.append(len(new_act))
                    new_act.append(old_act[act_idx])
                else:
                    new.append(-1)
                new.extend(old[cref + 2: cref + 2 + size])
                group[idx] = ncref
        for ws in self._watches:
            for i in range(0, len(ws), 2):
                ws[i] = remap[ws[i]]
        reason = self._reason
        for var in range(self.num_vars):
            r = reason[var]
            if r >= 0:
                # Reasons are always live: problem clauses are never
                # removed and locked learnts are kept by _reduce_db.
                reason[var] = remap[r]
        self._arena = new
        self._cla_act = new_act
        self._garbage = 0

    # ------------------------------------------------------------------
    # Inprocessing primitives (driven by repro.sat.simplify)
    # ------------------------------------------------------------------
    def _simp_lits(self, cref: int) -> List[int]:
        arena = self._arena
        return arena[cref + 2: cref + 2 + arena[cref]]

    def _simp_shrink(self, cref: int, new_lits: List[int]) -> None:
        # Detach on the OLD watched literals before rewriting the
        # arena words, then re-attach on the new first two — a
        # strengthened clause's watchers are rebuilt, never inherited.
        # The tail words between the new and old size become arena
        # garbage (reclaimed by _compact).
        self._detach(cref)
        arena = self._arena
        old_size = arena[cref]
        size = len(new_lits)
        arena[cref] = size
        arena[cref + 2: cref + 2 + size] = new_lits
        self._garbage += old_size - size
        self._attach(cref)

    def _simp_remove(self, cref: int) -> None:
        self._detach(cref)
        self._garbage += self._arena[cref] + _HDR

    def _simp_gc(self) -> None:
        if self._garbage * 2 > len(self._arena):
            self._compact()

    def _simp_clear_reasons(self) -> None:
        reason = self._reason
        for lit in self._trail:
            reason[lit >> 1] = -1

    def _debug_check_watches(self) -> None:
        """Assert every watcher entry is consistent: the watched
        literal sits in its clause's first two arena slots and the
        blocker occurs in the clause.  Debug-only (full sweep)."""
        arena = self._arena
        for idx, ws in enumerate(self._watches):
            lit = idx ^ 1
            for i in range(0, len(ws), 2):
                cref = ws[i]
                lits = arena[cref + 2: cref + 2 + arena[cref]]
                if lit not in lits[:2] or ws[i + 1] not in lits:
                    raise RuntimeError(
                        "watcher corruption: literal "
                        f"{lit} watches clause ref {cref} "
                        f"{tuple(lits)} (blocker {ws[i + 1]})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _lits_of(self, cref: int) -> Tuple[int, ...]:
        arena = self._arena
        return tuple(arena[cref + 2: cref + 2 + arena[cref]])

    def clause_lits(self) -> List[Tuple[int, ...]]:
        return [self._lits_of(c) for c in self._clauses]

    def learnt_lits(self) -> List[Tuple[int, ...]]:
        return [self._lits_of(c) for c in self._learnts]

    def assignment(self) -> List[Optional[bool]]:
        return [None if v < 0 else bool(v) for v in self._assign]
