"""COM: redundancy removal by inductive SAT sweeping (Section 3.1).

"The idea of this approach is to attempt to identify two semantically-
equivalent vertices u and v; when two such vertices are found, all
fanout edges from v are moved to u ... Identification of semantically-
equivalent vertices may be performed efficiently by structural analysis
or by BDD and SAT sweeping with no need to analyze the state space of
the netlist."

The engine reproduced here follows the classic van Eijk scheme:

1. ternary constant propagation seeds constant merges;
2. random simulation from the initial states partitions vertices into
   candidate equivalence classes;
3. the classes are refined against the *base* frame, one frame
   constrained to the initial states, until every class holds in every
   initial state;
4. that partition is refined to an inductive fixpoint: assume every
   class equal on a free current frame, require each member equal to
   its class representative on the next frame (SAT), split what fails;
5. surviving classes are merged onto their topologically-shallowest
   representative and the netlist is rebuilt (hash-consing doubles as
   the structural-analysis merge pass).

The base case comes first.  Any refinement of a partition that holds
in every initial state still holds there, so the step fixpoint needs
no second base check.  The reverse order is unsound: dropping a member
that differs in some initial state keeps the merges whose induction
assumed the dropped equality.

Each step round guards all of its frame-0 equalities with one fresh
activation literal ``act`` (``act -> (a <-> b)`` per pair).  Every
query assumes ``[act, diff]``, and the round retires ``act`` with one
level-0 unit, so the assumption prefix is one decision level deep
whatever the number of pairs.

A SAT answer is a model of the round's equalities that assigns every
candidate's literal.  Each candidate's value in it becomes one bit of
a per-round signature.  A member whose signature differs from its
representative's is refuted without a SAT call (``com.model_refuted``),
and the refuted members of a class are regrouped by signature.  The
base phase splits by its models the same way.

Many step pairs need no SAT call at all, because the round's own
frame-0 equalities imply them by structure (the waste FRAIG-style
sweeping avoids by merging before it calls SAT).  Each step round first
numbers the vertices, one hashing pass per frame
(:class:`_StepNumbering`).  On frame 0, inputs, latches and registers
get fresh numbers, a gate gets the number of its type and its fanins'
numbers (sorted where the fanins commute), and each class member takes
the number of its class's first member in topological order.  On frame
1, a register is numbered by its next-state fanin's frame-0 number,
inputs and latches are fresh, and gates hash as before; frame 1 assumes
no class.  By induction over the order, equal frame-0 numbers
mean equal frame-0 values in every assignment that satisfies the
round's equalities, so equal frame-1 numbers mean equal frame-1 values
there too.  The query ``[act, diff]`` assumes exactly those equalities,
so a member whose frame-1 number equals its representative's is UNSAT
by construction: it is kept without a query (``com.implied``), and no
SAT model can separate it either.  The base phase keeps its queries,
which cost about a tenth of a millisecond each.

Why the result does not depend on the query order: a model of one
partition's equalities also satisfies the equalities of every finer
partition, which assume less.  So a pair that a model separates is
separated in every inductive refinement, and each split keeps the
coarsest inductive refinement of the base partition intact; the loop
ends exactly there.  That needs every query to be conclusive.  An
inconclusive query drops its pair and a corrupted model can only
over-split; both are sound, since the loop stops only at a round in
which every pair was proven (UNSAT, by a query or by structure).

Redundancy removal preserves the semantics of every retained vertex,
so by Theorem 1 diameter bounds carry over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..core.record import StepKind, TransformResult, TransformStep
from ..netlist import (
    GateType,
    Netlist,
    combinational_fanins,
    rebuild,
    topological_order,
)
from ..netlist.types import COMMUTATIVE_TYPES
from ..resilience import Budget
from ..sat import SAT, UNSAT, CnfSink, Solver, encode_init_state, \
    lit_not, pos
from ..sat.template import get_template
from ..sim import constant_state_elements, random_signatures


@dataclass
class SweepConfig:
    """Tunables for the sweeping engine.

    ``max_rounds`` caps the inductive refinement; the refinement must
    reach a *fixpoint* for the surviving merges to be sound (each
    survivor's proof assumes the other candidates), so if the cap is
    hit while classes are still splitting, ALL remaining candidate
    classes are discarded.  ``None`` (the default) iterates to the
    fixpoint, which is reached after at most one round per candidate
    pair.

    ``conflict_budget`` follows the ``Solver.solve`` contract (None =
    unlimited, ``n >= 0`` = per-query cap) and applies to every sweep
    query individually; an inconclusive query simply drops its pair,
    which is always sound.
    """

    sim_cycles: int = 16
    sim_width: int = 64
    seed: int = 2004
    conflict_budget: Optional[int] = 2000
    max_rounds: Optional[int] = None
    max_class_size: int = 64


#: Plan codes of the vertices the numbering treats as sources: inputs
#: and latches get a fresh number on both frames, registers a fresh one
#: on frame 0 and one keyed by their next-state fanin's frame-0 number
#: on frame 1.  Gates use their type's index in ``GateType``.
_FRESH = -1
_REGISTER = -2
_CODES = {gtype: code for code, gtype in enumerate(GateType)}


class _StepNumbering:
    """Structural numbers of the step's two frames under one round's
    classes: equal frame-1 numbers mean equal frame-1 values wherever
    every class holds on frame 0 (see the module docstring)."""

    def __init__(self, net: Netlist) -> None:
        # The netlist does not change during a sweep, so the walk is
        # planned once: per vertex in topological order, its code and
        # fanins (a register's next-state fanin), and whether the
        # fanins commute.
        self.plan: List[Tuple[int, int, object, bool]] = []
        for vid in topological_order(net):
            gate = net.gate(vid)
            gtype = gate.type
            if gtype is GateType.REGISTER:
                self.plan.append((vid, _REGISTER, gate.fanins[0], False))
            elif gtype is GateType.INPUT or gtype is GateType.LATCH:
                self.plan.append((vid, _FRESH, None, False))
            else:
                self.plan.append((vid, _CODES[gtype], gate.fanins,
                                  gtype in COMMUTATIVE_TYPES))
        self.size = max(net, default=-1) + 1

    def frame1(self, classes: List[List[int]]) -> List[int]:
        """Frame-1 numbers, indexed by vid, while ``classes`` hold on
        frame 0."""
        class_of = {v: index for index, cls in enumerate(classes)
                    for v in cls}
        fixed: Dict[int, int] = {}
        n0 = [0] * self.size
        table: Dict[Tuple[int, ...], int] = {}
        for vid, code, fanins, commutes in self.plan:
            index = class_of.get(vid)
            if index is not None and index in fixed:
                n0[vid] = fixed[index]
                continue
            if code < 0:
                num = ~vid
            else:
                key = [n0[f] for f in fanins]
                if commutes:
                    key.sort()
                key.append(code)
                num = table.setdefault(tuple(key), len(table))
            n0[vid] = num
            if index is not None:
                # The first member reached numbers its whole class.
                fixed[index] = num
        n1 = [0] * self.size
        table = {}
        for vid, code, fanins, commutes in self.plan:
            if code == _FRESH:
                n1[vid] = ~vid
                continue
            if code == _REGISTER:
                key = [n0[fanins]]
            else:
                key = [n1[f] for f in fanins]
                if commutes:
                    key.sort()
            key.append(code)
            n1[vid] = table.setdefault(tuple(key), len(table))
        return n1


def _levels(net: Netlist) -> Dict[int, int]:
    levels: Dict[int, int] = {}
    for vid in topological_order(net):
        fanins = combinational_fanins(net, vid)
        levels[vid] = 0 if not fanins else 1 + max(
            levels[f] for f in fanins)
    return levels


class _InductiveChecker:
    """SAT models of the initial-state base frame and of the induction
    step; both phases split classes the same way (:meth:`_split`)."""

    def __init__(self, net: Netlist, config: SweepConfig,
                 budget: Optional[Budget] = None) -> None:
        self.config = config
        self.budget = budget
        self.numbering = _StepNumbering(net)
        # One "frame" template serves all three encodes below: frame 0
        # with its next-state tail (a full stamp), and the tail-less
        # frame 1 / base frame (``with_next=False`` stops at the core
        # boundary).
        tmpl = get_template(net)
        # Step model: frame 0 with free leaves feeding frame 1.
        self.step_solver = Solver()
        sink = CnfSink(self.step_solver)
        state0 = {vid: pos(self.step_solver.new_var())
                  for vid in net.state_elements}
        if tmpl.has_const0:
            # Pin the shared true literal up front (see
            # Unrolling._bootstrap).
            _ = sink.true_lit
        with obs.span("encode"):
            self.frame0, state1 = tmpl.stamp(sink, state0)
            assert state1 is not None
            self.frame1, _ = tmpl.stamp(sink, state1, with_next=False)
        # Base model: single frame constrained to the initial states.
        self.base_solver = Solver()
        base_sink = CnfSink(self.base_solver)
        base_state = {vid: pos(self.base_solver.new_var())
                      for vid in net.state_elements}
        if tmpl.has_const0:
            _ = base_sink.true_lit
        encode_init_state(net, base_sink, base_state)
        with obs.span("encode"):
            self.base_frame, _ = tmpl.stamp(base_sink, base_state,
                                            with_next=False)

    def split_base(self, classes: List[List[int]]
                   ) -> Tuple[List[List[int]], List[List[int]]]:
        """Split ``classes`` by their values in the initial states."""
        return self._split(self.base_solver, self.base_frame, classes, [])

    def split_step(self, classes: List[List[int]]
                   ) -> Tuple[List[List[int]], List[List[int]]]:
        """One refinement round: split ``classes`` by their frame-1
        values while every class holds on frame 0."""
        solver = self.step_solver
        act = pos(solver.new_var())
        off = lit_not(act)
        guards: List[List[int]] = []
        for cls in classes:
            a = self.frame0[cls[0]]
            for other in cls[1:]:
                b = self.frame0[other]
                # act -> (a <-> b)
                guards.append([off, lit_not(a), b])
                guards.append([off, a, lit_not(b)])
        # One call loads them all, and the database ends up clause for
        # clause as if each were added alone (a pair that shares a
        # solver variable gives tautologies, which add_clause drops).
        solver.add_clauses(guards)
        split = self._split(solver, self.frame1, classes, [act],
                            self.numbering.frame1(classes))
        # Retire the round: one level-0 unit satisfies all of its guard
        # clauses for good and takes ``act`` off the decision heap.
        solver.add_clause([lit_not(act)])
        return split

    def _split(self, solver: Solver, lits: Dict[int, int],
               classes: List[List[int]], assumptions: List[int],
               numbers: Optional[List[int]] = None
               ) -> Tuple[List[List[int]], List[List[int]]]:
        """Check every class member against its representative
        (``cls[0]``) under ``assumptions``.

        Returns ``(kept, split)``: each representative with the members
        proven equal to it, and the other members regrouped by their
        signature.  A signature holds one bit per SAT model of this
        pass: the member's value in the model, read for every member of
        ``classes``.  Every model satisfies ``assumptions``, so a member
        whose signature already differs from its representative's is
        refuted without a SAT call.  A member whose structural number
        (``numbers``, the step round's :meth:`_StepNumbering.frame1`)
        equals its representative's is kept without one.  An
        inconclusive query drops its pair.  Classes stay sorted by vid;
        singletons are dropped.
        """
        members = [(v, lits[v] >> 1, lits[v] & 1)
                   for cls in classes for v in cls]
        sig = {v: 0 for v, _, _ in members}
        bit = 1
        kept_classes: List[List[int]] = []
        refuted_groups: List[List[int]] = []
        for cls in classes:
            rep = cls[0]
            kept = [rep]
            refuted = []
            for other in cls[1:]:
                if sig[other] != sig[rep]:
                    obs.counter("com.model_refuted")
                    refuted.append(other)
                    continue
                if numbers is not None and numbers[other] == numbers[rep]:
                    obs.counter("com.implied")
                    kept.append(other)
                    continue
                result = self._differ(solver, lits[rep], lits[other],
                                      assumptions)
                if result == UNSAT:
                    kept.append(other)
                    continue
                refuted.append(other)
                if result == SAT:
                    model = solver.model
                    for v, var, negated in members:
                        if model[var] != negated:
                            sig[v] |= bit
                    bit <<= 1
            if len(kept) > 1:
                kept_classes.append(kept)
            refuted_groups.append(refuted)
        split: List[List[int]] = []
        for refuted in refuted_groups:
            groups: Dict[int, List[int]] = {}
            for v in refuted:
                groups.setdefault(sig[v], []).append(v)
            split.extend(g for g in groups.values() if len(g) > 1)
        return kept_classes, split

    def _differ(self, solver: Solver, la: int, lb: int,
                assumptions: List[int]) -> str:
        """Solve ``assumptions AND la != lb``."""
        diff = pos(solver.new_var())
        off = lit_not(diff)
        # diff -> (a xor b)  (one direction suffices for the query)
        solver.add_clauses([[off, la, lb], [off, lit_not(la), lit_not(lb)]])
        obs.counter("com.sat_queries")
        result = solver.solve(assumptions + [diff],
                              conflict_budget=self.config.conflict_budget,
                              budget=self.budget)
        # Retire the one-shot indicator: a level-0 unit permanently
        # satisfies its guard clauses and removes the variable from
        # the decision heap.  Without this, every query leaves a live
        # unconstrained indicator behind, and the incremental solver
        # wastes decisions and propagations on the accumulated junk in
        # all later queries (hundreds per sweep).  The unit leaves
        # ``solver.model`` intact for the caller.
        solver.add_clause([off])
        return result


def _candidate_classes(net: Netlist,
                       config: SweepConfig) -> List[List[int]]:
    """Vertices grouped by random-simulation signature, each class
    sorted by vid and capped at ``config.max_class_size``."""
    signatures = random_signatures(net, cycles=config.sim_cycles,
                                   width=config.sim_width, seed=config.seed)
    classes: Dict[Tuple[int, ...], List[int]] = {}
    for vid, sig in signatures.items():
        classes.setdefault(sig, []).append(vid)
    out = []
    for members in classes.values():
        members.sort()
        if len(members) > 1:
            out.append(members[:config.max_class_size])
    return out


def _pairs(classes: List[List[int]]) -> int:
    return sum(len(cls) - 1 for cls in classes)


def inductive_classes(
    net: Netlist,
    classes: List[List[int]],
    config: SweepConfig,
    budget: Optional[Budget] = None,
) -> List[List[int]]:
    """Refine candidate ``classes`` (each sorted by vid) to the classes
    COM may merge.

    The base case comes first: classes are split until each holds in
    every initial state.  The step fixpoint then refines that
    partition until assuming every class on frame 0 proves every class
    on frame 1.  With every query conclusive, the result is the
    coarsest refinement of ``classes`` that holds in every initial
    state and is inductive.  Budget exhaustion in either phase, or a
    ``max_rounds`` cap hit before the fixpoint, returns no class.
    """
    if not classes:
        return []
    if _budget_drained(budget):
        obs.counter("com.budget_aborts")
        return []
    checker = _InductiveChecker(net, config, budget)
    # The base relation assumes nothing, so a class is final once its
    # representative is checked; split-off groups are checked next.
    verified: List[List[int]] = []
    pending = classes
    while pending:
        if _budget_drained(budget):
            obs.counter("com.budget_aborts")
            return []
        kept, pending = checker.split_base(pending)
        verified.extend(kept)
    classes = verified
    # Every changing round removes at least one pair, so the fixpoint
    # arrives within `pairs` rounds; an explicit cap (if configured)
    # is a resource valve.
    pairs = _pairs(classes)
    limit = pairs + 1 if config.max_rounds is None \
        else config.max_rounds
    for round_index in range(limit):
        if not classes:
            return []
        if _budget_drained(budget):
            # Mid-refinement exhaustion: the classes are not at a
            # fixpoint, so none of the pending proofs stand.
            obs.counter("com.budget_aborts")
            return []
        obs.counter("com.rounds")
        kept, split = checker.split_step(classes)
        classes = kept + split
        remaining = _pairs(classes)
        changed = remaining < pairs
        pairs = remaining
        obs.progress("com.sweep", round=round_index, of=limit,
                     classes=len(classes), pairs=pairs, changed=changed)
        if not changed:
            return classes
    # Unconverged survivors were only proven under assumptions that may
    # since have been refuted: merging them would be unsound.
    return []


def redundancy_removal(
    net: Netlist,
    config: Optional[SweepConfig] = None,
    name_suffix: str = "com",
    budget: Optional[Budget] = None,
) -> TransformResult:
    """Apply the COM redundancy-removal engine to ``net``.

    Returns a :class:`TransformResult` whose step is trace-equivalence
    preserving (Theorem 1): the diameter bound of any retained vertex
    set is unchanged.  Instrumented under the ``transform.com`` span
    with ``com.rounds`` / ``com.sat_queries`` / ``com.model_refuted``
    (pairs refuted by a stored model, without a query) /
    ``com.implied`` (step pairs the round's frame-0 merges imply by
    structure, kept without a query) / ``com.merges`` counters.

    ``budget`` makes the sweep cooperative: exhaustion, in the base
    case or the step fixpoint, discards every SAT-derived candidate
    class (the surviving merges would otherwise rest on an unfinished
    refinement — discarding is sound, the transform simply merges
    less) and is recorded via the ``com.budget_aborts`` counter.
    Ternary-constant merges never need SAT and are kept.
    """
    with obs.span("transform.com"):
        return _sweep(net, config or SweepConfig(), name_suffix, budget)


def _budget_drained(budget: Optional[Budget]) -> bool:
    """Cooperative sweep check: True when the budget is exhausted and
    SAT work must stop."""
    if budget is None:
        return False
    return budget.exhausted() is not None


def _sweep(
    net: Netlist,
    config: SweepConfig,
    name_suffix: str,
    budget: Optional[Budget] = None,
) -> TransformResult:
    substitution: Dict[int, int] = {}

    # Phase 1: ternary constants (state elements stuck at a constant).
    const_map = constant_state_elements(net)
    work = net
    if const_map:
        base = net.copy()
        c0 = base.const0()
        c1_candidates = [v for v, g in base.gates()
                         if g.type is GateType.NOT and g.fanins == (c0,)]
        c1 = c1_candidates[0] if c1_candidates else base.add_gate(
            GateType.NOT, (c0,))
        substitution = {vid: (c1 if value else c0)
                        for vid, value in const_map.items()}
        work = base

    # Phase 2: simulation candidates refined to the base case and then
    # to an inductive fixpoint.
    verified = inductive_classes(work, _candidate_classes(work, config),
                                 config, budget)
    if verified:
        levels = _levels(work)

        def rep_key(v: int):
            gate = work.gate(v)
            is_const = gate.type is GateType.CONST0 or (
                gate.type is GateType.NOT
                and work.gate(gate.fanins[0]).type is GateType.CONST0)
            return (0 if is_const else 1, levels.get(v, 0), v)

        def resolves_to(v: int) -> int:
            seen = set()
            while v in substitution and v not in seen:
                seen.add(v)
                v = substitution[v]
            return v

        for cls in verified:
            rep = min(cls, key=rep_key)
            for other in cls:
                if other == rep or other in substitution:
                    continue
                if resolves_to(rep) == other:
                    continue  # would create a substitution cycle
                substitution[other] = rep

    obs.counter("com.merges", len(substitution))
    out, mapping = rebuild(work, substitution=substitution,
                           name=f"{net.name}-{name_suffix}")
    target_map = {t: mapping.get(t) for t in net.targets}
    step = TransformStep(
        name="COM",
        kind=StepKind.TRACE_EQUIVALENT,
        target_map=target_map,
    )
    return TransformResult(netlist=out, step=step, mapping=mapping)
