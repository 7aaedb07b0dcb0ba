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
instances (deleting a copy leaves the others live).  Each instance
becomes an integer clause id with its own literal list.  The checker
then walks the timeline in reverse:

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

Every check is unit propagation on two watched literals with blocker
literals (see :class:`_Propagator`): a false literal visits only the
clauses watching it, and a clause whose blocker is true is skipped
without reading its literals.  A lemma's check first follows its
*hints*, when the log has some: the ids of the clauses the solver's
conflict analysis resolved on, in trail order (the RUP half of LRAT,
Cruz-Filipe et al., CADE 2017).  Walking them, the check asserts the
free literal of each clause that is unit and stops at the first that
is falsified, so it touches the lemma's conflict cone instead of the
whole unrolling; hints that run out first hand over to the watched
propagation, which carries on from what they asserted.  The *level-0*
assignment — the unit propagation fixpoint of the active clauses
alone — is kept between checks, so a check propagates only its roots
above level 0 and undoes only that part.  A clause detached going
backward never comes back, so propagation drops it from a watch list
for good when it meets it there.

Soundness: if every conclusion and every marked lemma checks, each
``u`` event's claimed UNSAT-under-assumptions verdict is a theorem of
the input clauses alone.  A check is sound because every literal it
uses is derivable by unit propagation from the clauses active at that
point.  For the literals above level 0 that is plain: the check
derives them itself, from its roots, over active clauses.  For a
level-0 literal it is an invariant of the kept assignment: each one
was asserted by an active unit clause or propagated by an active
clause whose other literals were already false at level 0, so by
induction along the level-0 trail each one is derivable from its
reasons.  Attaching a clause keeps every reason active, and detaching
a clause that is no level-0 literal's reason does too, so the
invariant survives both; detaching a reason discards level 0, and the
next check rebuilds it from scratch.  Level 0 is also discarded
whenever it might stop being the *complete* fixpoint — when a unit or
empty clause is attached, or a clause that is unit or falsified under
level 0 — so no check misses a conflict that propagation from scratch
would find; and a level-0 conflict, whose cone may rest on any active
clause, is discarded at the next detach.  A corrupted lemma (see the
``corrupt_learnt`` fault of :mod:`repro.resilience.faults`) either
breaks its own RUP check or leaves the verdict genuinely valid.

Hints are untrusted, and soundness does not rest on them.  A hinted
step is a unit-propagation step: it asserts a literal only when every
other literal of an *active* clause is false under the current
assignment, and it concludes only on an active clause whose literals
are all false.  Ids that name no clause, or a clause that is not
active at the check (every clause added at or after the lemma is
inactive going backward), are dropped; a satisfied clause, or one
with two free literals, is passed over.  So the walk derives only
literals that unit propagation from the roots derives, and the
watched propagation that follows reaches the same fixpoint as without
hints (unit propagation is confluent): a check conflicts with its
hints exactly when it conflicts without them.  Hints change only how
fast a check concludes and which reasons its cone holds, hence which
lemmas are trimmed; the cone is explained from the reasons actually
used, so it is a genuine conflict set of active clauses.

Everything here is pure stdlib and imports only the proof-log module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

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
    lemmas_hinted: int = 0
    lemmas_trimmed: int = 0
    deletions: int = 0


class _Propagator:
    """Unit propagation over an activatable set of clause ids, on two
    watched literals, keeping the level-0 fixpoint between checks.

    ``clauses[cid]`` is clause ``cid``'s literal list (duplicate-free);
    the propagator owns it and swaps its watched literals into
    positions 0 and 1.  A clause of two or more literals sits on the
    watch lists of ``lits[0]`` and ``lits[1]`` as an ``[id, blocker]``
    pair; ``_watches[lit]`` is visited when ``lit`` turns false.  The
    visit skips the clause when its blocker is true, keeps it when its
    other watch is true, otherwise moves the watch to a literal that is
    not false, and failing that finds the clause unit (its other watch
    is asserted, with the clause as its reason) or falsified (the
    conflict).  ``_val`` holds one entry per literal: 1 true, 0 false,
    -1 unassigned.

    Level 0 is the fixpoint of the active unit clauses under
    propagation, rebuilt from an empty assignment when ``_held`` is
    False; ``_zero_cone`` is its conflict cone when it conflicts.  A
    check asserts its roots on top of level 0 and undoes only what it
    added.  The events that discard level 0 are exactly those that
    could make it wrong (see the module docstring): :meth:`detach` of
    a level-0 literal's reason or while level 0 conflicts, and
    :meth:`attach` of a unit or empty clause or of a clause that is
    unit or falsified under level 0.  A clause attached while level 0
    is held gets two unassigned watches, unless level 0 satisfies it.

    Between checks every watch is valid for the kept level 0: a
    clause's watched literal is false at level 0 only when level 0
    satisfies the clause, and a check's own assignments are undone as
    a whole.  Going backward every clause is attached at most once and
    detached at most once, so :meth:`detach` only clears its
    ``_active`` flag, and propagation drops an inactive clause from a
    watch list for good when it meets it there.  ``_units`` and
    ``_empty`` are append-only and skip inactive entries.

    A check may carry *hints*, clause ids to try in order before the
    watched propagation (see :meth:`_follow`); ``hinted`` counts the
    checks whose hints alone reached the conflict.
    """

    def __init__(self, num_vars: int, clauses: List[List[int]]) -> None:
        self._lits = clauses
        self._active = [False] * len(clauses)
        self._val = [-1] * (2 * num_vars)
        self._reason = [-1] * num_vars
        self._watches: List[List[int]] = [
            [] for _ in range(2 * num_vars)]
        self._units: List[int] = []
        self._empty: List[int] = []
        self._trail: List[int] = []
        self._held = False
        self._zero_cone: Optional[List[int]] = None
        self.hinted = 0

    def attach(self, cid: int) -> None:
        self._active[cid] = True
        lits = self._lits[cid]
        if len(lits) < 2:
            (self._units if lits else self._empty).append(cid)
            self._held = False
            return
        if self._held and self._zero_cone is None:
            val = self._val
            if val[lits[0]] >= 0 or val[lits[1]] >= 0:
                self._watch_under_level0(lits)
        self._watches[lits[0]] += (cid, lits[1])
        self._watches[lits[1]] += (cid, lits[0])

    def _watch_under_level0(self, lits: List[int]) -> None:
        """Move two unassigned literals into the watch slots of a
        clause attached while level 0 is held; a clause level 0
        satisfies keeps its watches, and one that is unit or falsified
        under level 0 discards level 0."""
        val = self._val
        free = []
        for k, lit in enumerate(lits):
            value = val[lit]
            if value == 1:
                return
            if value < 0:
                free.append(k)
        if len(free) < 2:
            self._held = False
            return
        for slot, k in enumerate(free[:2]):
            lits[slot], lits[k] = lits[k], lits[slot]

    def detach(self, cid: int) -> None:
        self._active[cid] = False
        if not self._held:
            return
        if self._zero_cone is not None:
            self._held = False
            return
        lits = self._lits[cid]
        if lits and self._reason[lits[0] >> 1] == cid:
            self._held = False

    def check(self, roots: Sequence[int],
              hints: Sequence[int] = ()) -> Optional[List[int]]:
        """Propagate ``roots`` (asserted literals) on top of level 0,
        following ``hints`` first (see :meth:`_follow`).

        Returns the conflict cone (the ids of the clauses the derived
        conflict depends on) when unit propagation conflicts, None when
        it reaches a conflict-free fixpoint.  Everything above level 0
        is undone before returning, so checks are independent.
        """
        if not self._held:
            self._rebuild()
        if self._zero_cone is not None:
            return self._zero_cone
        val = self._val
        trail = self._trail
        mark = len(trail)
        conflict: Optional[Tuple[int, int]] = None
        for lit in roots:
            value = val[lit]
            if value == 0:
                conflict = (-1, lit)
                break
            if value < 0:
                val[lit] = 1
                val[lit ^ 1] = 0
                trail.append(lit)
        if conflict is None and hints:
            conflict = self._follow(hints)
            if conflict is not None:
                self.hinted += 1
        if conflict is None:
            conflict = self._propagate(mark)
        cone = None if conflict is None else self._explain(*conflict)
        reason = self._reason
        for lit in trail[mark:]:
            val[lit] = -1
            val[lit ^ 1] = -1
            reason[lit >> 1] = -1
        del trail[mark:]
        return cone

    def _rebuild(self) -> None:
        """Recompute level 0 from an empty assignment."""
        val = self._val
        reason = self._reason
        trail = self._trail
        for lit in trail:
            val[lit] = -1
            val[lit ^ 1] = -1
            reason[lit >> 1] = -1
        trail.clear()
        self._held = True
        self._zero_cone = None
        active = self._active
        conflict: Optional[Tuple[int, int]] = None
        for cid in self._empty:
            if active[cid]:
                conflict = (cid, -1)
                break
        else:
            lits_of = self._lits
            for cid in self._units:
                if not active[cid]:
                    continue
                lit = lits_of[cid][0]
                value = val[lit]
                if value == 0:
                    conflict = (cid, lit)
                    break
                if value < 0:
                    val[lit] = 1
                    val[lit ^ 1] = 0
                    reason[lit >> 1] = cid
                    trail.append(lit)
            else:
                conflict = self._propagate(0)
        if conflict is not None:
            self._zero_cone = self._explain(*conflict)

    def _follow(self, hints: Sequence[int]) -> Optional[Tuple[int, int]]:
        """Unit propagation along ``hints``, clause ids in the order
        they are likely to become unit: each id out of range or of an
        inactive clause is dropped, a satisfied clause or one with two
        free literals is passed over, a unit clause's free literal is
        asserted with the clause as its reason, and a falsified clause
        ends the walk as the conflict, ``(clause id, -1)``.  Returns
        None when the hints run out first; the watched propagation
        then carries on from the literals asserted so far."""
        val = self._val
        reason = self._reason
        lits_of = self._lits
        active = self._active
        append = self._trail.append
        count = len(lits_of)
        for cid in hints:
            if cid < 0 or cid >= count or not active[cid]:
                continue
            free = -1
            for lit in lits_of[cid]:
                value = val[lit]
                if value < 0:
                    if free >= 0:
                        break  # two free literals: not unit yet
                    free = lit
                elif value:
                    break  # satisfied
            else:
                if free < 0:
                    return (cid, -1)
                val[free] = 1
                val[free ^ 1] = 0
                reason[free >> 1] = cid
                append(free)
        return None

    def _propagate(self, head: int) -> Optional[Tuple[int, int]]:
        """Propagate the trail from ``head``; returns ``(clause id,
        -1)`` for the falsified clause, or None at a fixpoint."""
        val = self._val
        reason = self._reason
        watches = self._watches
        lits_of = self._lits
        active = self._active
        trail = self._trail
        append = trail.append
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            ws = watches[false_lit]
            i = 0
            n = len(ws)
            while i < n:
                if val[ws[i + 1]] == 1:  # blocker true: satisfied
                    i += 2
                    continue
                cid = ws[i]
                if not active[cid]:  # detached for good: drop it
                    del ws[i:i + 2]
                    n -= 2
                    continue
                lits = lits_of[cid]
                other = lits[0]
                if other == false_lit:
                    other = lits[1]
                    lits[0] = other
                    lits[1] = false_lit
                value = val[other]
                if value == 1:  # satisfied by the other watch
                    ws[i + 1] = other
                    i += 2
                    continue
                for k in range(2, len(lits)):
                    lit = lits[k]
                    if val[lit] != 0:  # not false: watch it instead
                        lits[1] = lit
                        lits[k] = false_lit
                        watches[lit] += (cid, other)
                        del ws[i:i + 2]
                        n -= 2
                        break
                else:
                    if value == 0:
                        return (cid, -1)
                    # Unit: assert the other watch.
                    val[other] = 1
                    val[other ^ 1] = 0
                    reason[other >> 1] = cid
                    append(other)
                    ws[i + 1] = other
                    i += 2
        return None

    def _explain(self, cid: int, clash: int) -> List[int]:
        """The conflict cone: the conflicting clause ``cid`` (-1 for
        a root that clashed) plus, transitively, the reason of every
        literal it rests on, starting from ``clash`` (-1 for none)."""
        lits_of = self._lits
        reason = self._reason
        cone: List[int] = []
        work: List[int] = []
        if cid >= 0:
            cone.append(cid)
            work.extend(lits_of[cid])
        if clash >= 0:
            work.append(clash)
        seen = set()
        while work:
            var = work.pop() >> 1
            if var in seen:
                continue
            seen.add(var)
            why = reason[var]
            if why >= 0:
                cone.append(why)
                work.extend(lits_of[why])
        return cone


def check_events(
    events: Iterable[Tuple[str, Tuple[int, ...]]],
    require_conclusion: bool = True,
    hints: Optional[Mapping[int, Sequence[int]]] = None,
) -> CheckResult:
    """Check a proof event stream (see the module docstring).

    ``require_conclusion`` demands at least one ``u`` event — a
    certification caller asking "was this UNSAT answer derived?" must
    fail on a log that never concluded anything.  ``hints`` maps a
    lemma's clause id to the clause ids its check follows first (a
    :class:`~repro.cert.proof.ProofLog`'s hint table); they change
    how fast a check concludes and which clauses its cone holds,
    never whether it concludes.
    """
    if hints is None:
        hints = {}
    result = CheckResult(ok=True)
    errors = result.errors

    def report(message: str) -> None:
        if len(errors) < _MAX_ERRORS:
            errors.append(message)
        result.ok = False

    # ---- forward structural replay -----------------------------------
    timeline: List[Tuple[str, object]] = []
    clauses: List[List[int]] = []
    lemma: List[bool] = []
    live: List[bool] = []
    by_key: dict = {}
    max_lit = -1
    for index, (kind, lits) in enumerate(events):
        if lits:
            top = max(lits)
            if top > max_lit:
                max_lit = top
        if kind in ("i", "a"):
            cid = len(clauses)
            # Input events log pre-normalization literals, which may
            # repeat (e.g. XOR clauses over aliased frame literals); a
            # duplicate could fill both watch slots, so that (x | x)
            # would never be asserted as the unit it is.  Dedupe here —
            # order-preserving, semantics unchanged.
            clauses.append(list(dict.fromkeys(lits)))
            lemma.append(kind == "a")
            live.append(True)
            # Instances are stacked per canonical key (sorted literal
            # *set* — clause_key): duplicate-literal forms of the same
            # clause share one stack, while duplicate *copies* stay
            # separate instances on it, so a deletion pops exactly one
            # copy and leaves the rest live.
            by_key.setdefault(clause_key(lits), []).append(cid)
            timeline.append((kind, cid))
        elif kind == "d":
            stack = by_key.get(clause_key(lits))
            if not stack:
                report(f"event #{index}: deletion of a clause never "
                       f"added: {tuple(lits)}")
                continue
            cid = stack.pop()
            live[cid] = False
            result.deletions += 1
            timeline.append(("d", cid))
        elif kind == "u":
            timeline.append(("u", tuple(lits)))
        else:
            report(f"event #{index}: unknown event kind {kind!r}")
    result.lemmas_total = sum(lemma)
    result.inputs_total = len(clauses) - result.lemmas_total

    # ---- backward checking pass --------------------------------------
    prop = _Propagator((max_lit >> 1) + 1, clauses)
    for cid, is_live in enumerate(live):
        if is_live:
            prop.attach(cid)
    needed = [False] * len(clauses)
    for position in range(len(timeline) - 1, -1, -1):
        kind, payload = timeline[position]
        if kind == "u":
            assumptions = payload  # type: ignore[assignment]
            cone = prop.check(assumptions)
            result.conclusions += 1
            if cone is None:
                report(f"event #{position}: UNSAT conclusion under "
                       f"assumptions {tuple(assumptions)} is not "
                       "derivable by unit propagation")
            else:
                for cid in cone:
                    needed[cid] = True
        elif kind == "d":
            prop.attach(payload)  # live again before the deletion point
        else:  # "i" / "a" addition: leaves scope going backward
            cid = payload
            prop.detach(cid)
            if kind != "a":
                continue
            if not needed[cid]:
                result.lemmas_trimmed += 1
                continue
            result.lemmas_checked += 1
            cone = prop.check([lit ^ 1 for lit in clauses[cid]],
                              hints.get(cid, ()))
            if cone is None:
                report(f"event #{position}: learned clause "
                       f"{tuple(clauses[cid])} is not RUP (unit "
                       "propagation on its negation does not conflict)")
            else:
                for needed_id in cone:
                    needed[needed_id] = True
    result.lemmas_hinted = prop.hinted
    result.core_inputs = sum(
        1 for cid, is_lemma in enumerate(lemma)
        if needed[cid] and not is_lemma)
    if require_conclusion and result.conclusions == 0:
        report("proof log contains no UNSAT conclusion to check")
    return result


def check_proof(proof: ProofLog,
                require_conclusion: bool = True) -> CheckResult:
    """Convenience wrapper over :func:`check_events`: the log's events
    with its hint table."""
    return check_events(proof.events,
                        require_conclusion=require_conclusion,
                        hints=proof.hints)
