"""A CDCL SAT solver on a flat-array core, with a reference core.

Implements the standard conflict-driven clause-learning architecture —
two-watched-literal propagation with blocker literals, first-UIP
conflict analysis with recursive clause minimization, VSIDS decision
heuristics with phase saving, Luby restarts and learnt-clause
database reduction — in pure Python.  It is the reasoning engine
behind SAT sweeping (Section 3.1), BMC, k-induction, and the
recurrence-diameter computation.  It does no preprocessing or
inprocessing of its own: problems shrink before they reach it, on the
netlist (COM, COI, structural hashing and constant folding).

Two cores share one search loop (:meth:`Solver._search`) and differ
only in how the hot state is laid out:

* :class:`FlatSolver` keeps clauses in a flat integer *arena* with
  inline headers, watcher lists as flat interleaved
  ``[clause-ref, blocker, ...]`` integer arrays, a per-literal value
  table and plain integer reason/level tables — no per-clause Python
  objects on the hot path (see :mod:`repro.sat.flat`).
  ``Solver()`` always builds this core, and ``isinstance(x, Solver)``
  holds for it.
* :class:`LegacySolver` keeps the original per-clause ``_Clause``
  objects.  It is the reference implementation of the randomized
  dual-path oracle suite and is only ever constructed directly: both
  cores execute the exact same search (decision for decision), so
  verdicts, models, trails and statistics must match *exactly* — any
  divergence is a bug in one of the cores.

Literals use the 0-based encoding of :mod:`repro.sat.cnf` (variable
``v`` gives positive literal ``2*v``, negative ``2*v + 1``).
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..cert.proof import ProofLog
from ..resilience import Budget, Cancelled, EngineFailure, \
    EXHAUSTED_CONFLICTS, EXHAUSTED_DEADLINE
from ..resilience import faults as _faults
from .cnf import CNF, lit_not, lit_sign, lit_var

#: Tri-state results of :meth:`Solver.solve`.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


# ----------------------------------------------------------------------
# Debug-checks toggle: watcher-integrity violations become loud
# ----------------------------------------------------------------------
_DEBUG_ENV = "REPRO_SAT_DEBUG"
_debug_checks = os.environ.get(_DEBUG_ENV, "0").strip().lower() \
    not in ("0", "false", "off", "no", "")


def debug_checks_enabled() -> bool:
    """Whether internal-consistency violations raise instead of pass."""
    return _debug_checks


def set_debug_checks(enabled: bool) -> bool:
    """Set the debug-checks toggle; returns the previous value."""
    global _debug_checks
    previous = _debug_checks
    _debug_checks = bool(enabled)
    return previous


class _Clause:
    """A clause of the legacy object core."""

    __slots__ = ("lits", "learnt", "activity")

    def __init__(self, lits: List[int], learnt: bool) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0


class Solver:
    """An incremental CDCL SAT solver with assumption support.

    ``Solver()`` is a facade that constructs the flat-array core
    (:class:`FlatSolver`).  This base class carries everything
    core-independent — the search control loop, budget governance,
    statistics, and the normalising slow-path clause loader — while
    the cores implement the data-layout primitives (propagation,
    analysis, attach/detach, VSIDS tables).

    ``Solver(proof=True)`` keeps a DRAT-style proof log
    (:attr:`proof`) for its whole life; it is the only way a solver
    gets one.  Logging only observes, so the search is identical
    with and without it.
    """

    def __new__(cls, *args, **kwargs):
        if cls is Solver:
            from .flat import FlatSolver
            cls = FlatSolver
        return object.__new__(cls)

    def __init__(self, proof: bool = False) -> None:
        self.num_vars = 0
        #: Shared across cores: activity table, binary heap of
        #: ``(-activity, var)`` entries, trail of literals,
        #: decision-level marks.  The cores pick the same variable
        #: from different heaps: :class:`LegacySolver`'s lazy-deletion
        #: heap takes an entry on every unassign and every bump, while
        #: :class:`FlatSolver` keeps one live entry per variable
        #: (MiniSat's discipline) and skips the stale keys bumps leave.
        self._activity: List[float] = []
        self._heap: List[tuple] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._ok = True
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

    def stats(self) -> Dict[str, int]:
        """A snapshot of the four lifetime statistic totals."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }

    # ------------------------------------------------------------------
    # Problem construction (core-independent slow paths)
    # ------------------------------------------------------------------
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
        if self._proof is not None:
            # Log the *original* clause — the checker's trust base is
            # exactly what the caller asserted, not the level-0
            # normalised residue (dropped literals are re-derived by
            # unit propagation from the logged unit clauses).
            lits = list(lits)
            self._proof.input(lits)
        return self._add_clause_raw(lits)

    def _add_clause_raw(self, lits: Iterable[int]) -> bool:
        """The normalising clause loader, *without* proof logging —
        internal callers (bulk-load delegation) log the original
        clause themselves and must not log its normalised residue as
        a second input."""
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
        self._store_problem_clause(clause)
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        """Load all clauses of a :class:`~repro.sat.cnf.CNF` through
        :meth:`add_clauses`."""
        if cnf.num_vars:
            self._ensure_var(cnf.num_vars - 1)
        return self.add_clauses([list(clause) for clause in cnf.clauses])

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
        in :attr:`last_exhaustion`; a cancelled budget raises
        :class:`~repro.resilience.Cancelled`.  On ``sat``,
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
            if budget.cancelled:
                raise Cancelled(budget_name=budget.name)
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
        """Cooperative in-search budget check; raises on cancellation,
        returns the exhaustion reason (None to keep searching)."""
        if budget.cancelled:
            self._cancel_until(0)
            raise Cancelled(budget_name=budget.name)
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
        """The CDCL control loop, shared verbatim by both cores.

        Only data-layout primitives (``_propagate``, ``_analyze``,
        ``_pick_branch``, ...) are core-specific; keeping the loop
        itself in one place is what makes the dual-path oracle's
        exact-equivalence contract (identical decisions, conflicts,
        models, trails) hold by construction.
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
            # Deadline/cancellation probe for conflict-free instances
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
    # Shared internals
    # ------------------------------------------------------------------
    def _conclude_unsat(self, assumptions: Tuple[int, ...]) -> None:
        """Close the proof on an UNSAT return (no-op when logging is
        off).  Every UNSAT exit of ``_search`` calls this with the
        assumption literals the refutation is conditional on (the
        empty tuple for an unconditional one)."""
        if self._proof is not None:
            self._proof.conclude_unsat(assumptions)

    def _debug_check_watches(self) -> None:
        """Core-specific watcher-integrity sweep (debug builds)."""
        raise NotImplementedError

    def _model_values(self) -> List[bool]:
        """The current assignment as a model, indexed by variable
        (unassigned reads False); the core-specific half of a SAT
        answer."""
        raise NotImplementedError

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _rescale_activities(self) -> None:
        """Scale every activity and the bump increment by 1e-100 once
        an activity passes 1e100; the core then rebuilds its heap."""
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
    # Introspection (stable across cores; tests and the oracle use
    # these instead of poking core-specific internals)
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

    def clause_lits(self) -> List[Tuple[int, ...]]:
        """Problem clauses in insertion order (current literal order)."""
        raise NotImplementedError

    def learnt_lits(self) -> List[Tuple[int, ...]]:
        """Learnt clauses currently in the database."""
        raise NotImplementedError

    def assignment(self) -> List[Optional[bool]]:
        """Per-variable values (None = unassigned)."""
        raise NotImplementedError


class LegacySolver(Solver):
    """The original object-based core: one ``_Clause`` per clause,
    watcher lists of ``(clause, blocker)`` pairs.

    Kept as the reference implementation behind the dual-path oracle
    (see the module docstring); ``Solver()`` never builds it, so
    construct it directly.
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
        tables, same heap entries in the same order) — the template
        stamping fast path uses it to skip per-variable call overhead.
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

    def _store_problem_clause(self, clause: List[int]) -> None:
        c = _Clause(clause, learnt=False)
        self._clauses.append(c)
        self._attach(c)

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
        0 is constructed and watch-attached directly; a clause touching
        a level-0-assigned variable gets the satisfied-clause/
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
        assign = self._assign
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
                if assign[lit >> 1] is not None:
                    break
            else:
                clause = _Clause(lits, False)
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
                clause = _Clause(keep, False)
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
        idx = len(self._trail) - 1
        while True:
            assert reason is not None
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
        learnt = self._minimize(learnt, seen)
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

    def _record_learnt(self, learnt: List[int]) -> None:
        if self._proof is not None:
            # Post-minimization literals (minimization preserves RUP);
            # unit learnts are logged too — they never enter _learnts,
            # only the level-0 trail.
            self._proof.learnt(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learnt=True)
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
        if _debug_checks:
            self._debug_check_watches()

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
                if _debug_checks:
                    raise RuntimeError(
                        "watcher corruption: clause "
                        f"{tuple(clause.lits)} missing from the watch "
                        f"list of literal {lit ^ 1}")

    def _debug_check_watches(self) -> None:
        """Assert every watcher entry is consistent: the watched
        literal sits in its clause's first two slots and the blocker
        occurs in the clause.  Debug-only (full sweep)."""
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


# The flat core lives in its own module; imported last so it can extend
# the Solver base defined above (the facade dispatches lazily, so this
# import is only a convenience re-export).
from .flat import FlatSolver  # noqa: E402  (circular-safe tail import)
