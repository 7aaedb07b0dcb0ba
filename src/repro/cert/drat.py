"""A stdlib RUP/DRAT proof checker with backward checking and trimming.

Validates the UNSAT side of a solver run *independently of the CDCL
code*: the only trusted facts are the ``i`` (input clause) events of a
:class:`~repro.cert.proof.ProofLog`; everything else is re-derived by
unit propagation, the one inference rule simple enough to audit by
eye.

Checking is *backward*, DRAT-trim style.  The event timeline is first
replayed structurally, pairing each deletion with exactly one clause
*instance* it removed — matched by the canonical
:func:`~repro.cert.proof.clause_key` (sorted literal set), because
the solver's watched-literal swaps permute stored literal order and
its add-time normalisation deduplicates literals after the addition
was logged, while duplicate copies of one clause must remain distinct
instances (deleting a copy leaves the others live).  The checker then
walks the timeline in reverse:

* at a ``u`` (UNSAT conclusion) event, unit propagation over the
  clauses active *at that point* plus the recorded assumption literals
  must derive a conflict; the conflict cone (the conflicting clause
  and, transitively, every reason clause of the literals involved) is
  marked *needed*;
* at a ``d`` event, the deleted clause is re-activated (it was live
  before this point);
* at an ``a`` (learned clause) event, the lemma is deactivated first
  and then — only if some later check marked it needed — verified to
  have the RUP property: propagating the negation of its literals over
  the remaining active clauses must conflict.  Its cone is marked in
  turn.  Lemmas nothing depended on are *trimmed*, never checked —
  that is what makes backward checking cheaper than forward checking,
  and the surviving marked ``i`` clauses form the unsatisfiable *core*.

Every check is unit propagation on two watched literals, which the
backward pass makes cheap to keep (see :class:`_Propagator`): a false
literal visits only the clauses watching it, watches moved by one
check need no repair before the next, and a clause detached at its
addition event never returns, so it is dropped from a watch list for
good when propagation meets it there.

Soundness: if every conclusion and every marked lemma checks, each
``u`` event's claimed UNSAT-under-assumptions verdict is a theorem of
the input clauses alone.  A corrupted lemma (see the ``corrupt_learnt``
fault of :mod:`repro.resilience.faults`) either breaks its own RUP
check or leaves the verdict genuinely valid.

Everything here is pure stdlib and imports only the proof-log module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .proof import ProofLog, clause_key

__all__ = ["CheckResult", "check_events", "check_proof"]

#: Safety valve: stop accumulating error strings past this many (the
#: checker still finishes, so the statistics stay meaningful).
_MAX_ERRORS = 50


@dataclass
class CheckResult:
    """Outcome of a proof check.

    ``ok`` is True iff every UNSAT conclusion and every needed lemma
    verified (and, under ``require_conclusion``, at least one
    conclusion was present).  ``lemmas_trimmed`` counts learned
    clauses no conclusion transitively depended on; ``core_inputs``
    is the size of the marked unsatisfiable core among the inputs.
    """

    ok: bool
    errors: List[str] = field(default_factory=list)
    conclusions: int = 0
    inputs_total: int = 0
    core_inputs: int = 0
    lemmas_total: int = 0
    lemmas_checked: int = 0
    lemmas_trimmed: int = 0
    deletions: int = 0


class _Clause:
    """A logged clause instance (identity-hashed; never compared)."""

    __slots__ = ("lits", "kind", "active", "needed")

    def __init__(self, lits: Iterable[int], kind: str) -> None:
        # Input events log pre-normalization literals, which may
        # repeat (e.g. XOR clauses over aliased frame literals); a
        # duplicate could fill both watch slots, so that (x | x)
        # would never be asserted as the unit it is.  Dedupe here —
        # order-preserving, semantics unchanged.  A list, because the
        # propagator swaps its watched literals into positions 0 and 1.
        self.lits = list(dict.fromkeys(lits))
        self.kind = kind  # "i" or "a"
        self.active = True
        self.needed = False


class _Propagator:
    """Unit propagation over an activatable clause set, on two watched
    literals.

    A clause of two or more literals is watched on ``lits[0]`` and
    ``lits[1]``: it sits on the watch lists of exactly those two
    literals, and only a watched literal turning false makes
    propagation visit it.  The visit keeps the clause when its other
    watch is true, otherwise moves the watch to a literal that is not
    false, and failing that finds the clause unit (its other watch is
    asserted) or falsified (the conflict).  Unit clauses are asserted
    from ``_units`` at the start of every check, and any active empty
    clause in ``_empty`` is a conflict by itself.

    Why watches need no repair: every check starts and ends with an
    empty assignment, so between checks any two literals of a clause
    form a valid watch pair.

    Why lazy dropping is sound: going backward, every clause is
    attached at most once and detached at most once, and it never
    comes back.  So :meth:`detach` only clears the clause's ``active``
    flag, and propagation drops an inactive clause from a watch list
    for good when it meets it there.  ``_units`` and ``_empty`` are
    append-only and skip inactive entries.
    """

    def __init__(self, num_vars: int) -> None:
        self._assign = [-1] * num_vars  # -1 unassigned / 0 false / 1 true
        self._reason: List[Optional[_Clause]] = [None] * num_vars
        self._watches: List[List[_Clause]] = [
            [] for _ in range(2 * num_vars)]
        self._units: List[_Clause] = []
        self._empty: List[_Clause] = []

    def attach(self, clause: _Clause) -> None:
        clause.active = True
        lits = clause.lits
        if len(lits) >= 2:
            self._watches[lits[0]].append(clause)
            self._watches[lits[1]].append(clause)
        elif lits:
            self._units.append(clause)
        else:
            self._empty.append(clause)

    @staticmethod
    def detach(clause: _Clause) -> None:
        clause.active = False

    def check(self, roots: Sequence[int]) -> Optional[List[_Clause]]:
        """Propagate active units plus ``roots`` (asserted literals).

        Returns the conflict cone (the clauses the derived conflict
        depends on) when unit propagation conflicts, None when it
        reaches a conflict-free fixpoint.  The assignment is fully
        undone before returning, so checks are independent.
        """
        for clause in self._empty:
            if clause.active:
                return [clause]
        assign = self._assign
        reason = self._reason
        watches = self._watches
        trail: List[int] = []
        conflict: Optional[Tuple[Optional[_Clause], Optional[int]]] = None

        def enqueue(lit: int, why: Optional[_Clause]) -> bool:
            var = lit >> 1
            val = (lit & 1) ^ 1
            cur = assign[var]
            if cur >= 0:
                return cur == val
            assign[var] = val
            reason[var] = why
            trail.append(lit)
            return True

        for clause in self._units:
            if clause.active and not enqueue(clause.lits[0], clause):
                conflict = (clause, clause.lits[0])
                break
        if conflict is None:
            for lit in roots:
                if not enqueue(lit, None):
                    conflict = (None, lit)
                    break
        head = 0
        while conflict is None and head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watching = watches[false_lit]
            size = len(watching)
            i = j = 0
            while i < size:
                clause = watching[i]
                i += 1
                if not clause.active:
                    continue  # detached for good: drop it
                lits = clause.lits
                other = lits[0]
                if other == false_lit:
                    other = lits[1]
                    lits[0] = other
                    lits[1] = false_lit
                value = assign[other >> 1]
                if value == (other & 1) ^ 1:  # satisfied by the other
                    watching[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if assign[lit >> 1] != lit & 1:  # not false
                        lits[1] = lit
                        lits[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    watching[j] = clause
                    j += 1
                    if value < 0:  # unit: assert the other watch
                        var = other >> 1
                        assign[var] = (other & 1) ^ 1
                        reason[var] = clause
                        trail.append(other)
                    else:
                        conflict = (clause, None)
                        break
            # [j, i) held dropped or moved entries; after a conflict
            # the unvisited rest from i on stays watched.
            del watching[j:i]
        cone: Optional[List[_Clause]] = None
        if conflict is not None:
            cone = self._explain(conflict)
        for lit in trail:
            assign[lit >> 1] = -1
            reason[lit >> 1] = None
        return cone

    def _explain(
        self, conflict: Tuple[Optional[_Clause], Optional[int]]
    ) -> List[_Clause]:
        """The conflict cone: the conflicting clause plus, transitively,
        the reason clause of every literal it rests on."""
        clause, clash_lit = conflict
        cone: List[_Clause] = []
        work: List[int] = []
        if clause is not None:
            cone.append(clause)
            work.extend(clause.lits)
        if clash_lit is not None:
            work.append(clash_lit)
        seen = set()
        reason = self._reason
        while work:
            var = work.pop() >> 1
            if var in seen:
                continue
            seen.add(var)
            why = reason[var]
            if why is not None:
                cone.append(why)
                work.extend(why.lits)
        return cone


def check_events(
    events: Iterable[Tuple[str, Tuple[int, ...]]],
    require_conclusion: bool = True,
) -> CheckResult:
    """Check a proof event stream (see the module docstring).

    ``require_conclusion`` demands at least one ``u`` event — a
    certification caller asking "was this UNSAT answer derived?" must
    fail on a log that never concluded anything.
    """
    result = CheckResult(ok=True)
    errors = result.errors

    def report(message: str) -> None:
        if len(errors) < _MAX_ERRORS:
            errors.append(message)
        result.ok = False

    # ---- forward structural replay -----------------------------------
    timeline: List[Tuple[str, object]] = []
    clauses: List[_Clause] = []
    by_key: dict = {}
    max_var = -1
    for index, (kind, lits) in enumerate(events):
        for lit in lits:
            if lit > max_var * 2 + 1:
                max_var = lit >> 1
        if kind in ("i", "a"):
            clause = _Clause(lits, kind)
            clauses.append(clause)
            # Instances are stacked per canonical key (sorted literal
            # *set* — clause_key): duplicate-literal forms of the same
            # clause share one stack, while duplicate *copies* stay
            # separate instances on it, so a deletion pops exactly one
            # copy and leaves the rest live.
            by_key.setdefault(clause_key(lits), []).append(clause)
            timeline.append((kind, clause))
        elif kind == "d":
            stack = by_key.get(clause_key(lits))
            if not stack:
                report(f"event #{index}: deletion of a clause never "
                       f"added: {tuple(lits)}")
                continue
            clause = stack.pop()
            clause.active = False
            result.deletions += 1
            timeline.append(("d", clause))
        elif kind == "u":
            timeline.append(("u", tuple(lits)))
        else:
            report(f"event #{index}: unknown event kind {kind!r}")
    result.inputs_total = sum(1 for c in clauses if c.kind == "i")
    result.lemmas_total = len(clauses) - result.inputs_total

    # ---- backward checking pass --------------------------------------
    prop = _Propagator(max_var + 1)
    for clause in clauses:
        if clause.active:
            prop.attach(clause)
    for position in range(len(timeline) - 1, -1, -1):
        kind, payload = timeline[position]
        if kind == "u":
            assumptions = payload  # type: ignore[assignment]
            cone = prop.check(list(assumptions))
            result.conclusions += 1
            if cone is None:
                report(f"event #{position}: UNSAT conclusion under "
                       f"assumptions {tuple(assumptions)} is not "
                       "derivable by unit propagation")
            else:
                for clause in cone:
                    clause.needed = True
        elif kind == "d":
            prop.attach(payload)  # live again before the deletion point
        else:  # "i" / "a" addition: leaves scope going backward
            clause = payload
            prop.detach(clause)
            if clause.kind != "a":
                continue
            if not clause.needed:
                result.lemmas_trimmed += 1
                continue
            result.lemmas_checked += 1
            cone = prop.check([lit ^ 1 for lit in clause.lits])
            if cone is None:
                report(f"event #{position}: learned clause "
                       f"{tuple(clause.lits)} is not RUP (unit propagation "
                       "on its negation does not conflict)")
            else:
                for needed in cone:
                    needed.needed = True
    result.core_inputs = sum(
        1 for c in clauses if c.kind == "i" and c.needed)
    if require_conclusion and result.conclusions == 0:
        report("proof log contains no UNSAT conclusion to check")
    return result


def check_proof(proof: ProofLog,
                require_conclusion: bool = True) -> CheckResult:
    """Convenience wrapper over :func:`check_events`."""
    return check_events(proof.events,
                        require_conclusion=require_conclusion)
