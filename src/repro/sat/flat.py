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
  without touching the arena at all.  ``_watches[p]`` holds the
  clauses that watch ``p ^ 1`` and is visited when ``p`` is assigned.
* **Values** — one table per *literal*: ``_vals[p]`` is ``1`` when
  literal ``p`` is true, ``0`` when it is false and ``-1`` when it is
  unassigned, so a truth test is one load and one compare.  Assigning
  a variable writes both of its literals' entries, and so does
  unassigning it.
* **Reason / level / polarity** — plain per-variable integer tables;
  ``_reason[v]`` is a cref or ``-1``.

Propagation leaves a kept watcher entry where it is: it writes only
a blocker that changed, and deletes an entry whose watch moved to
another literal, so the kept entries keep their order.  A binary
clause has no replacement watch to search for, so propagation goes
straight to its unit-or-conflict test.  Conflict analysis marks
variables in one ``_seen`` table that it leaves all false, instead of
allocating one per conflict.

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

    def __init__(self, proof: bool = False) -> None:
        super().__init__(proof)
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
        #: Per-literal values: 1 true, 0 false, -1 unassigned.
        self._vals: List[int] = []
        self._level: List[int] = []
        self._reason: List[int] = []
        self._polarity: List[int] = []
        #: Per-variable flag: 1 while the variable has its one live
        #: decision-heap entry (see :meth:`_pick_branch`).
        self._heaped: List[int] = []
        #: Conflict analysis's per-variable marks, all False between
        #: conflicts.
        self._seen: List[bool] = []
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
        self._vals.append(-1)
        self._vals.append(-1)
        self._level.append(0)
        self._reason.append(-1)
        self._polarity.append(0)
        self._activity.append(0.0)
        self._heaped.append(1)
        self._seen.append(False)
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
        self._vals.extend([-1] * (2 * n))
        self._level.extend([0] * n)
        self._reason.extend([-1] * n)
        self._polarity.extend([0] * n)
        self._activity.extend([0.0] * n)
        self._heaped.extend([1] * n)
        self._seen.extend([False] * n)
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
        self._cancel_until(0)
        vals = self._vals
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
                if vals[lit] >= 0:
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
                v = vals[lit]
                if v < 0:
                    kappend(lit)
                elif v:
                    sat = True
                    break
            if sat:
                continue
            if len(keep) >= 2:
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
        v = self._vals[lit]
        if v < 0:
            return None
        return v == 1

    def _model_values(self) -> List[bool]:
        return [v == 1 for v in self._vals[::2]]

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
        vals = self._vals
        v = vals[lit]
        if v >= 0:
            return v == 1
        vals[lit] = 1
        vals[lit ^ 1] = 0
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._polarity[var] = (lit & 1) ^ 1
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        trail = self._trail
        arena = self._arena
        vals = self._vals
        level = self._level
        reason = self._reason
        polarity = self._polarity
        trail_append = trail.append
        watches = self._watches
        qhead = self._qhead
        cur_level = len(self._trail_lim)
        propagations = 0
        conflict = -1
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            ws = watches[lit]
            false_lit = lit ^ 1
            i = 0
            n = len(ws)
            while i < n:
                # Blocker fast path: clause already satisfied.
                if vals[ws[i + 1]] == 1:
                    i += 2
                    continue
                cref = ws[i]
                base = cref + 2
                # Ensure the falsified literal is in slot 1.
                l0 = arena[base]
                if l0 == false_lit:
                    l0 = arena[base + 1]
                    arena[base] = l0
                    arena[base + 1] = false_lit
                v0 = vals[l0]
                if v0 == 1:
                    ws[i + 1] = l0
                    i += 2
                    continue
                size = arena[cref]
                if size > 2:
                    # Search for a new watch.
                    for k in range(base + 2, base + size):
                        lk = arena[k]
                        if vals[lk]:  # not false
                            arena[base + 1] = lk
                            arena[k] = false_lit
                            nws = watches[lk ^ 1]
                            nws.append(cref)
                            nws.append(l0)
                            del ws[i:i + 2]
                            n -= 2
                            break
                    else:
                        size = 2  # no replacement: unit or conflicting
                    if size > 2:
                        continue
                # Unit or conflicting.
                ws[i + 1] = l0
                i += 2
                if v0 == 0:
                    conflict = cref
                    break
                vals[l0] = 1
                vals[l0 ^ 1] = 0
                var = l0 >> 1
                level[var] = cur_level
                reason[var] = cref
                polarity[var] = (l0 & 1) ^ 1
                trail_append(l0)
            if conflict >= 0:
                qhead = len(trail)
                break
        self._qhead = qhead
        self.propagations += propagations
        return conflict if conflict >= 0 else None

    def _analyze(self, conflict: int) -> tuple:
        arena = self._arena
        trail = self._trail
        level = self._level
        reasons = self._reason
        seen = self._seen
        act = self._activity
        heaped = self._heaped
        var_inc = self._var_inc
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        counter = 0
        lit = -1
        reason = conflict
        idx = len(trail) - 1
        cur_level = len(self._trail_lim)
        cla_act = self._cla_act
        cla_inc = self._cla_inc
        while True:
            act_idx = arena[reason + 1]
            if act_idx >= 0:
                cla_act[act_idx] += cla_inc
            base = reason + 2
            end = base + arena[reason]
            if lit < 0:
                lits = arena[base:end]
            elif arena[base] == lit:
                lits = arena[base + 1:end]
            else:
                # Reason clause stores the implied literal first; if
                # not, skip it wherever it is.
                lits = [x for x in arena[base:end] if x != lit]
            for q in lits:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    # _bump_var inlined for an assigned variable: its
                    # heap entry goes stale unless the bump rescales.
                    bumped = act[var] + var_inc
                    if bumped > 1e100:
                        self._bump_var(var)
                        var_inc = self._var_inc
                    else:
                        act[var] = bumped
                        heaped[var] = 0
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
        vals = self._vals
        reason = self._reason
        act = self._activity
        heaped = self._heaped
        heap = self._heap
        push = heapq.heappush
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            vals[lit] = -1
            vals[lit ^ 1] = -1
            var = lit >> 1
            reason[var] = -1
            if not heaped[var]:
                heaped[var] = 1
                push(heap, (-act[var], var))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    def _pick_branch(self) -> Optional[int]:
        # One live entry per variable, keyed by its current activity:
        # an entry with any other key was superseded by a bump and is
        # skipped.  Every unassigned variable keeps its live entry, so
        # the first live unassigned pop is the highest activity (lowest
        # index on ties), the legacy core's pick.
        heap = self._heap
        act = self._activity
        heaped = self._heaped
        vals = self._vals
        polarity = self._polarity
        pop = heapq.heappop
        while heap:
            key, var = pop(heap)
            if key != -act[var]:
                continue
            heaped[var] = 0
            if vals[var << 1] < 0:
                return (var << 1) | (polarity[var] ^ 1)
        for var in range(self.num_vars):
            if vals[var << 1] < 0:
                return (var << 1) | (polarity[var] ^ 1)
        return None

    def _bump_var(self, var: int) -> None:
        act = self._activity
        act[var] += self._var_inc
        if act[var] > 1e100:
            self._rescale_activities()
            # Every key changed: rebuild the heap from the live
            # entries' variables, which keys ``var`` afresh too.
            heaped = self._heaped
            heap = [(-act[v], v) for v in range(self.num_vars)
                    if heaped[v]]
            heapq.heapify(heap)
            self._heap = heap
        elif self._vals[var << 1] >= 0:
            # Conflict analysis bumps assigned variables: the old entry
            # goes stale, and _cancel_until pushes the new key once the
            # variable is unassigned.
            self._heaped[var] = 0
        elif self._heaped[var]:
            heapq.heappush(self._heap, (-act[var], var))

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
        return [None if v < 0 else v == 1 for v in self._vals[::2]]
