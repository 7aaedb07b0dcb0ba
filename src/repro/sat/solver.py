"""A CDCL SAT solver on flat integer arrays.

Implements the standard conflict-driven clause-learning architecture —
two-watched-literal propagation with blocker literals, first-UIP
conflict analysis with recursive clause minimization, VSIDS decision
heuristics with phase saving, Luby restarts and learnt-clause
database reduction — in pure Python.  It is the reasoning engine
behind SAT sweeping (Section 3.1), BMC, k-induction, and the
recurrence-diameter computation.  It does no preprocessing or
inprocessing of its own: problems shrink before they reach it, on the
netlist (COM, COI, structural hashing and constant folding).

:class:`Solver` keeps its search (:meth:`Solver._search`: the control
loop, budget governance, statistics and the normalising clause loader)
apart from the data-layout primitives it runs on (``_propagate``,
``_analyze``, ``_enqueue``, ``_cancel_until``, ``_pick_branch``, ...).
The test suite's reference core (``tests/property/legacy_solver.py``)
subclasses it and overrides every primitive with one Python object per
clause; both run the same search, so the cross-core oracle compares
verdicts, models, trails and statistics decision for decision.

The hot state is laid out as contiguous flat arrays instead of
per-clause Python objects:

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
arena words become garbage and are reclaimed by :meth:`Solver._compact`
once they outnumber the live words.  Compaction rewrites crefs in
place (watchers, reasons, clause indices) and is invisible to the
search.

The layout removes object allocation and attribute dispatch from the
propagation/analysis inner loops, which profile as the solver's hot
path (``python -m cProfile -s tottime`` ranks ``_propagate``,
``_analyze`` and ``_pick_branch`` first).

Literals use the 0-based encoding of :mod:`repro.sat.cnf` (variable
``v`` gives positive literal ``2*v``, negative ``2*v + 1``).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..cert.proof import ProofLog
from ..resilience import Budget, EngineFailure, EXHAUSTED_CONFLICTS, \
    EXHAUSTED_DEADLINE
from ..resilience import faults as _faults
from .cnf import lit_not, lit_var

#: Tri-state results of :meth:`Solver.solve`.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Words of header before a clause's literals in the arena.
_HDR = 2


class Solver:
    """An incremental CDCL SAT solver with assumption support.

    The search control loop, budget governance, statistics and the
    normalising slow-path clause loader run on the data-layout
    primitives (propagation, analysis, attach/detach, VSIDS tables)
    over the flat arrays of the module docstring.

    ``Solver(proof=True)`` keeps a DRAT-style proof log
    (:attr:`proof`) for its whole life; it is the only way a solver
    gets one.  Beside each learnt clause the log holds its hint chain
    (:meth:`_hint_chain`), the clauses its derivation resolved on,
    which the DRAT checker follows before it propagates.  Logging only
    observes, so the search is identical with and without it.
    """

    def __init__(self, proof: bool = False) -> None:
        self.num_vars = 0
        #: Activity table, binary heap of ``(-activity, var)`` entries
        #: (one live entry per variable, MiniSat's discipline: see
        #: :meth:`_pick_branch`), trail of literals, decision-level
        #: marks.
        self._activity: List[float] = []
        self._heap: List[tuple] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._ok = True
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
        #: The satisfying assignment of the last ``solve()`` call,
        #: indexed by variable — valid ONLY when that call returned
        #: :data:`SAT`.  Cleared at the start of every ``solve()``, so
        #: after an UNSAT/UNKNOWN call it is empty rather than the
        #: previous call's stale assignment; :meth:`value` then raises
        #: ``IndexError``.
        self.model: List[bool] = []
        # Statistics.  Semantics: *lifetime totals*, monotonically
        # non-decreasing across incremental solve() calls (MiniSat
        # convention).  Never read these expecting per-call values;
        # use stats() for a snapshot or last_call_stats for the deltas
        # of the most recent solve().
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        #: Per-call deltas of the last :meth:`solve` invocation.
        self.last_call_stats: Dict[str, int] = {}
        #: Why the last :meth:`solve` returned ``unknown``: one of the
        #: :data:`repro.resilience.EXHAUSTION_REASONS`, or None when
        #: the call was conclusive (or inconclusive for a non-resource
        #: reason, e.g. an injected spurious unknown).
        self.last_exhaustion: Optional[str] = None
        #: DRAT-style proof event log (repro.cert), or None unless the
        #: solver was built with ``proof=True`` — the hot paths then
        #: guard on a single ``is not None`` per batch/conflict/solve.
        self._proof: Optional[ProofLog] = ProofLog() if proof else None
        #: Proof mode only: the proof's clause id of every stored
        #: clause, keyed by cref (:meth:`_compact` remaps it).  The
        #: bulk loader keys a clause's id by the arena's end before it
        #: stores the clause, so a clause that normalisation drops
        #: leaves an entry there that the next allocation overwrites.
        self._ids: Dict[int, int] = {}
        #: Proof mode only: the hint chain of the clause
        #: :meth:`_analyze` derived last (see :meth:`_hint_chain`).
        self._chain: List[int] = []

    def stats(self) -> Dict[str, int]:
        """A snapshot of the four lifetime statistic totals."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }

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

    def _ensure_var(self, var: int) -> None:
        while self.num_vars <= var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        May be called between :meth:`solve` calls (the solver first
        backtracks to decision level 0).
        """
        if not self._ok:
            return False
        cid = -1
        if self._proof is not None:
            # Log the *original* clause — the checker's trust base is
            # exactly what the caller asserted, not the level-0
            # normalised residue (dropped literals are re-derived by
            # unit propagation from the logged unit clauses).
            lits = list(lits)
            cid = self._proof.input(lits)
        return self._add_clause_raw(lits, cid)

    def _add_clause_raw(self, lits: Iterable[int], cid: int = -1) -> bool:
        """The normalising clause loader, *without* proof logging —
        internal callers (bulk-load delegation) log the original
        clause themselves and must not log its normalised residue as
        a second input.  ``cid`` is the logged clause's proof id (-1
        without a proof)."""
        if not self._ok:
            return False
        self._cancel_until(0)
        seen: Dict[int, int] = {}
        clause: List[int] = []
        for lit in lits:
            self._ensure_var(lit_var(lit))
            if self._value(lit) is True:
                return True  # satisfied at level 0
            if self._value(lit) is False:
                continue  # falsified at level 0: drop literal
            if lit in seen:
                continue
            if lit_not(lit) in seen:
                return True  # tautology
            seen[lit] = 1
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0]):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        self._store_problem_clause(clause, cid)
        return True

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

    def _store_problem_clause(self, clause: List[int], cid: int) -> None:
        cref = self._alloc_clause(clause, learnt=False)
        if cid >= 0:
            self._ids[cref] = cid
        self._clauses.append(cref)
        self._attach(cref)

    def add_clauses(self, clauses: Iterable[List[int]]) -> bool:
        """Add ``clauses`` in order, as one :meth:`add_clause` each would.

        Pre-validated clauses — at least two literals over pairwise
        distinct variables (no duplicate literals, no tautologies) —
        are routed through the :meth:`add_clauses_bulk` fast path in
        maximal runs, and the solver takes ownership of their lists;
        anything else (units, empties, duplicates, tautologies) takes
        the normalising :meth:`add_clause` slow path at its original
        stream position, so the resulting solver state is element-wise
        identical to loading every clause individually.  Every variable
        must already be allocated.
        """
        batch: List[List[int]] = []
        for clause in clauses:
            if len(clause) >= 2 and \
                    len({lit >> 1 for lit in clause}) == len(clause):
                # Bulk-eligible; the bulk loader re-checks level-0
                # assignments per clause, so interleaved units are
                # still normalised correctly.
                batch.append(clause)
                continue
            if batch:
                if not self.add_clauses_bulk(batch):
                    return False
                batch = []
            if not self.add_clause(clause):
                return False
        if batch:
            return self.add_clauses_bulk(batch)
        return True

    def add_clauses_bulk(self, clauses: Iterable[List[int]]) -> bool:
        """Bulk-load pre-validated clauses, skipping normalisation.

        The fast path behind template stamping
        (:mod:`repro.sat.template`).  Caller contract, per clause:

        * at least two literals, over already-allocated variables;
        * pairwise-distinct variables (no duplicate literals, no
          tautologies);
        * the solver takes ownership of each literal list (watched-
          literal reordering mutates it in place — never reuse one).

        A clause whose variables are all unassigned at decision level
        0 is stored and watch-attached directly; a clause touching a
        level-0-assigned variable gets the satisfied-clause/
        falsified-literal normalisation of :meth:`add_clause` applied
        inline (the distinct-variables contract rules out the
        duplicate/tautology cases, and the rare empty/unit outcomes
        are delegated back to :meth:`add_clause`) — this keeps the
        resulting clause database identical to adding every clause
        individually.  Returns False if the formula became trivially
        UNSAT.
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
        ids = self._ids
        for lits in clauses:
            if proof is not None:
                # Original literals, before any normalisation or
                # watched-literal reordering mutates the list; a
                # stored clause lands at the arena's end.
                ids[len(arena)] = proof.input(lits)
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
            # Level-0 normalisation, inline: keep unassigned literals,
            # drop falsified ones, skip the clause on a satisfied one —
            # exactly add_clause's rules minus the duplicate/tautology
            # checks the caller contract makes unreachable.
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
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> str:
        """Solve under ``assumptions``; returns ``sat``/``unsat``/``unknown``.

        ``conflict_budget`` contract (COM's sweep forwards
        ``SweepConfig.conflict_budget`` here; the engines that solve to
        a verdict pass none):

        * ``None`` — unlimited: search until conclusive;
        * ``n >= 0`` — explore at most ``n`` conflicts, then give up
          with ``unknown`` (``0`` therefore aborts at the *first*
          conflict; conflict-free instances still conclude);
        * negative — a :class:`ValueError` (it used to silently mean
          "unlimited", which callers confused with ``0``).

        ``budget`` is a cooperative :class:`repro.resilience.Budget`
        deadline checked at call entry and then once per conflict (and
        every 256 decisions, for conflict-free instances): once it has
        passed the call returns ``unknown`` with the structured reason
        in :attr:`last_exhaustion`.  On ``sat``,
        :attr:`model` holds a satisfying assignment indexed by
        variable; on any other result it is cleared to the empty list
        (it previously retained the prior SAT call's assignment, so an
        incremental SAT-then-UNSAT sequence silently exposed a stale
        model), and :meth:`value` raises ``IndexError``.

        Statistic counters accumulate across calls (lifetime totals);
        the per-call deltas land in :attr:`last_call_stats` and are
        published to the active :mod:`repro.obs` registry under the
        ``sat.*`` counters and the ``sat.solve`` span.
        """
        if conflict_budget is not None and conflict_budget < 0:
            raise ValueError("conflict_budget must be None or >= 0, "
                             f"got {conflict_budget}")
        self.model = []  # never expose a stale assignment (see above)
        before = self.stats()
        reg = obs.get_registry()
        with reg.span("sat.solve"):
            result = self._solve_governed(assumptions, conflict_budget,
                                          budget)
        delta = {key: total - before[key]
                 for key, total in self.stats().items()}
        self.last_call_stats = delta
        reg.counter("sat.solve_calls")
        reg.counter(f"sat.result.{result}")
        for key, value in delta.items():
            if value:
                reg.counter(f"sat.{key}", value)
        return result

    def _solve_governed(
        self,
        assumptions: Sequence[int],
        conflict_budget: Optional[int],
        budget: Optional[Budget],
    ) -> str:
        """Fault-injection and budget gatekeeping around the search."""
        self.last_exhaustion = None
        try:
            fault = _faults.on_solve()
        except EngineFailure:
            obs.counter("faults.crash")
            raise
        if fault is not None:
            obs.counter(f"faults.{fault}")
            if fault == _faults.FAULT_TIMEOUT:
                # Behave exactly like a blown wall-clock deadline.
                self.last_exhaustion = EXHAUSTED_DEADLINE
            if fault != _faults.FAULT_CORRUPT_MODEL:
                return UNKNOWN
            # corrupt_model runs the search normally and falsifies
            # the *answer* afterwards (see below).
        if budget is not None:
            reason = budget.exhausted()
            if reason is not None:
                self.last_exhaustion = reason
                return UNKNOWN
        result = self._search(assumptions, conflict_budget, budget)
        if fault == _faults.FAULT_CORRUPT_MODEL and result == SAT \
                and self.model:
            # The scripted decode/transport fault: the search was
            # sound, but the reported model carries one flipped bit.
            # Only witness replay (repro.cert) can notice.
            self.model[0] = not self.model[0]
        return result

    def _budget_stop(self, budget: Budget) -> Optional[str]:
        """Cooperative in-search budget check: the exhaustion reason
        (None to keep searching)."""
        reason = budget.exhausted()
        if reason is not None:
            self._cancel_until(0)
            self.last_exhaustion = reason
        return reason

    def _search(
        self,
        assumptions: Sequence[int],
        conflict_budget: Optional[int],
        budget: Optional[Budget] = None,
    ) -> str:
        """The CDCL control loop.

        It touches the clause database and the assignment only
        through the data-layout primitives (``_propagate``,
        ``_analyze``, ``_pick_branch``, ...), so a subclass that
        overrides every primitive runs this exact search — decision
        for decision — over its own layout.
        """
        if not self._ok:
            self._conclude_unsat(())
            return UNSAT
        self._cancel_until(0)
        propagate = self._propagate
        analyze = self._analyze
        pick_branch = self._pick_branch
        fault_plan = _faults.active_plan()
        if propagate() is not None:
            self._ok = False
            self._conclude_unsat(())
            return UNSAT
        assumptions = list(assumptions)
        budget_start = self.conflicts
        restart_idx = 1
        limit = 128 * self._luby(restart_idx)
        conflicts_here = 0
        max_learnts = max(1000, 2 * len(self._clauses))
        while True:
            conflict = propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._ok = False
                    # A level-0 conflict refutes the formula outright
                    # (no assumption decision is involved).
                    self._conclude_unsat(())
                    return UNSAT
                learnt, back_level = analyze(conflict)
                if fault_plan is not None \
                        and fault_plan.next_learnt(learnt):
                    # Scripted soundness fault: the corrupted clause
                    # is recorded, proof-logged and *used* exactly as
                    # if conflict analysis had miscompiled it.
                    obs.counter("faults.corrupt_learnt")
                # Backtracking may unwind assumption levels; the decision
                # loop below re-applies them (and reports UNSAT if one
                # has become falsified by learned clauses).
                self._cancel_until(back_level)
                self._record_learnt(learnt)
                self._decay_activities()
                if (self.conflicts & 2047) == 0:
                    # Heartbeat every 2048 conflicts: one mask test on
                    # the hot path, a progress record only when due.
                    obs.progress("sat", conflicts=self.conflicts,
                                 decisions=self.decisions,
                                 learnts=len(self._learnts))
                if budget is not None and \
                        self._budget_stop(budget) is not None:
                    return UNKNOWN
                if conflict_budget is not None and \
                        self.conflicts - budget_start >= conflict_budget:
                    self._cancel_until(0)
                    self.last_exhaustion = EXHAUSTED_CONFLICTS
                    return UNKNOWN
                if conflicts_here >= limit:
                    self.restarts += 1
                    restart_idx += 1
                    limit = 128 * self._luby(restart_idx)
                    conflicts_here = 0
                    self._cancel_until(0)
                if len(self._learnts) >= max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
                continue
            # No conflict: extend with assumption or decision.
            if self._decision_level() < len(assumptions):
                lit = assumptions[self._decision_level()]
                self._ensure_var(lit_var(lit))
                val = self._value(lit)
                if val is True:
                    # Already implied: open an empty decision level so
                    # level bookkeeping still tracks assumption count.
                    self._trail_lim.append(len(self._trail))
                    continue
                if val is False:
                    # Refuted *under these assumptions*: everything on
                    # the trail is unit-propagation-derivable from the
                    # clause DB plus the assumption literals, so the
                    # checker re-derives this conflict from the logged
                    # clauses and the recorded assumptions alone.
                    self._conclude_unsat(tuple(assumptions))
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit)
                continue
            lit = pick_branch()
            if lit is None:
                self.model = self._model_values()
                self._cancel_until(0)
                return SAT
            self.decisions += 1
            # Deadline probe for conflict-free instances
            # (pure propagation never reaches the conflict-side check).
            if budget is not None and (self.decisions & 255) == 0 \
                    and self._budget_stop(budget) is not None:
                return UNKNOWN
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit)

    def value(self, var: int) -> bool:
        """Value of ``var`` in the last model.

        Only meaningful after a :data:`SAT` result; any other result
        clears the model, so this raises ``IndexError``.
        """
        return self.model[var]

    # ------------------------------------------------------------------
    # Search bookkeeping
    # ------------------------------------------------------------------
    def _conclude_unsat(self, assumptions: Tuple[int, ...]) -> None:
        """Close the proof on an UNSAT return (no-op when logging is
        off).  Every UNSAT exit of ``_search`` calls this with the
        assumption literals the refutation is conditional on (the
        empty tuple for an unconditional one)."""
        if self._proof is not None:
            self._proof.conclude_unsat(assumptions)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _rescale_activities(self) -> None:
        """Scale every activity and the bump increment by 1e-100 once
        an activity passes 1e100; the caller then rebuilds its heap."""
        act = self._activity
        for v in range(self.num_vars):
            act[v] *= 1e-100
        self._var_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= 0.999

    @staticmethod
    def _luby(i: int) -> int:
        """The Luby restart sequence 1,1,2,1,1,2,4,... (1-based index).

        MiniSat's formulation: find the finite subsequence containing
        index ``i`` and its position within it.
        """
        if i < 1:
            raise ValueError("the Luby sequence is 1-based")
        x = i - 1
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) >> 1
            seq -= 1
            x %= size
        return 1 << seq

    # ------------------------------------------------------------------
    # Data-layout primitives
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        v = self._vals[lit]
        if v < 0:
            return None
        return v == 1

    def _model_values(self) -> List[bool]:
        """The current assignment as a model, indexed by variable
        (unassigned reads False)."""
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
        # Clause minimization: drop literals implied by the rest.
        kept = self._minimize(learnt, seen)
        if self._proof is not None:
            self._chain = self._hint_chain(conflict, learnt, kept)
        learnt = kept
        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the literal with the second-highest level.
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

    def _hint_chain(self, conflict: int, learnt: List[int],
                    kept: List[int]) -> List[int]:
        """The proof ids of the clauses :meth:`_analyze` resolved on to
        derive ``kept`` from ``conflict``, in trail order: the reasons
        of the literals minimization dropped from ``learnt`` (each
        after the reasons of the dropped literals it rests on), then
        those of the current-level literals analysis resolved away,
        then the conflict itself.  Unit propagation from the negated
        clause asserts each reason's literal in turn and ends falsifying
        the conflict, so the DRAT checker can follow the chain instead
        of searching the whole clause set.

        Called only when a proof is kept: analysis itself records
        nothing, and this walks the current level back from the
        conflict to the first UIP again, marking as analysis did.
        """
        arena = self._arena
        reasons = self._reason
        ids = self._ids
        chain: List[int] = []
        if len(kept) < len(learnt):
            # Minimization's reasons, depth first in clause and reason
            # literal order, each after those of the dropped literals
            # it rests on.  Besides its own variable, a reason holds
            # only variables assigned before it, so this terminates;
            # its own can sit in ``waiting`` only after a corrupted
            # learnt clause (the ``corrupt_learnt`` fault) put a true
            # literal into ``learnt``.
            waiting = set(learnt).difference(kept)
            for root in learnt:
                stack = [root] if root in waiting else []
                while stack:
                    lit = stack[-1]
                    var = lit >> 1
                    reason = reasons[var]
                    deps = [q for q in arena[reason + 2: reason + 2
                                             + arena[reason]]
                            if q in waiting and q >> 1 != var]
                    if deps:
                        deps.reverse()
                        stack.extend(deps)
                        continue
                    stack.pop()
                    if lit in waiting:
                        waiting.discard(lit)
                        chain.append(ids[reason])
        trail = self._trail
        level = self._level
        seen = self._seen
        cur_level = len(self._trail_lim)
        uip = learnt[0] >> 1
        marked: List[int] = []
        mark = marked.append
        resolved = [ids[conflict]]
        reason = conflict
        idx = len(trail)
        while True:
            for q in arena[reason + 2: reason + 2 + arena[reason]]:
                var = q >> 1
                if not seen[var] and level[var] == cur_level:
                    seen[var] = True
                    mark(var)
            idx -= 1
            while not seen[trail[idx] >> 1]:
                idx -= 1
            var = trail[idx] >> 1
            if var == uip:
                break
            reason = reasons[var]
            resolved.append(ids[reason])
        for var in marked:
            seen[var] = False
        resolved.reverse()
        chain.extend(resolved)
        return chain

    def _record_learnt(self, learnt: List[int]) -> None:
        cid = -1
        if self._proof is not None:
            # Post-minimization literals (minimization preserves RUP);
            # unit learnts are logged too — they never enter _learnts,
            # only the level-0 trail.
            cid = self._proof.learnt(learnt, self._chain)
        if len(learnt) == 1:
            self._enqueue(learnt[0])
            return
        cref = self._alloc_clause(learnt, learnt=True)
        if cid >= 0:
            self._ids[cref] = cid
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
        # index on ties).
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
        # A learnt clause is *locked* (must be kept) while it is the
        # reason of its asserting literal's variable; reasons always
        # store that literal in slot 0, so lock detection is one table
        # probe per clause — no variable scan.
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

    def _detach(self, cref: int) -> None:
        arena = self._arena
        for lit in (arena[cref + 2], arena[cref + 3]):
            ws = self._watches[lit ^ 1]
            for i in range(0, len(ws), 2):
                if ws[i] == cref:
                    del ws[i:i + 2]
                    break
            else:
                # A detach miss means the watcher lists no longer
                # agree with the clause's watched literals — real
                # corruption that a silent pass would mask.
                raise RuntimeError(
                    f"watcher corruption: clause ref {cref} missing "
                    f"from the watch list of literal {lit ^ 1}")

    def _compact(self) -> None:
        """Reclaim garbage arena words left by removed learnt clauses.

        Copies live clauses (problem first, then learnts, preserving
        order) into a fresh arena, rewrites every stored cref
        (clause indices, watcher lists, reason table, proof ids) and
        rebuilds the learnt-activity table densely.  Watcher order is
        preserved, so the search is completely unaffected.
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
        if self._proof is not None:
            ids = self._ids
            self._ids = {ncref: ids[cref] for cref, ncref in remap.items()}
        self._arena = new
        self._cla_act = new_act
        self._garbage = 0

    def _check_watches(self) -> None:
        """Raise unless every watcher entry is consistent: the watched
        literal sits in its clause's first two arena slots and the
        blocker occurs in the clause.  A full sweep, for tests."""
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
    # Introspection (layout-independent: tests and the oracle use these
    # instead of poking the arrays)
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """False once the formula is known trivially UNSAT."""
        return self._ok

    @property
    def proof(self) -> Optional[ProofLog]:
        """The DRAT-style proof event log, or None unless the solver
        was constructed with ``proof=True``."""
        return self._proof

    def trail_lits(self) -> List[int]:
        """The current assignment trail, as literals in enqueue order."""
        return list(self._trail)

    def _lits_of(self, cref: int) -> Tuple[int, ...]:
        arena = self._arena
        return tuple(arena[cref + 2: cref + 2 + arena[cref]])

    def clause_lits(self) -> List[Tuple[int, ...]]:
        """Problem clauses in insertion order (current literal order)."""
        return [self._lits_of(c) for c in self._clauses]

    def learnt_lits(self) -> List[Tuple[int, ...]]:
        """Learnt clauses currently in the database."""
        return [self._lits_of(c) for c in self._learnts]

    def assignment(self) -> List[Optional[bool]]:
        """Per-variable values (None = unassigned)."""
        return [None if v < 0 else v == 1 for v in self._vals[::2]]
