"""Compiled frame templates: encode the transition relation once,
stamp it per time frame by offset arithmetic.

Every engine in the stack (BMC, k-induction, the recurrence diameter
engine, COM's inductive sweep) instantiates the *same* combinational
frame once per time step.  Re-walking the netlist through
:func:`repro.sat.tseitin.encode_frame` for every frame costs a full
topological traversal plus dict-based Tseitin dispatch.  Following
the BMC folklore of Eén & Sörensson (temporal induction: encode the
transition relation once, instantiate by variable renaming), this
module compiles a netlist into a flat, immutable
:class:`FrameTemplate` — an integer clause array plus literal slot
maps — and stamps frame ``t`` with pure integer arithmetic, feeding
the solver through the
:meth:`repro.sat.solver.Solver.add_clauses_bulk` fast path.  Stamping
is the only frame encoder: every engine above encodes its frames
through :func:`get_template`.

Template literal space
----------------------
A compiled clause stores two kinds of literals:

* **local** literals (``lit < SLOT_BASE``): template-internal
  variables, numbered ``0 .. num_locals - 1`` with the usual
  ``2 * var + sign`` packing.  Stamping shifts them by ``2 * base``
  where ``base`` is the first solver variable allocated for the frame.
* **slot** literals (``lit >= SLOT_BASE``): per-frame parameters
  (the state elements; primary inputs are fresh locals), packed as
  ``SLOT_BASE + 2 * slot + sign``.  Stamping looks them up in a flat
  table built from the caller's slot values.
  ``SLOT_BASE`` is even, so ``lit ^ 1`` negates both kinds uniformly
  (``encode_frame`` negates leaf literals for NOT gates).

One extra slot carries the shared true/false literal backing CONST0.

Parity contract
---------------
Stamping leaves the solver in a state *element-wise identical* to the
reference walk — :func:`~repro.sat.tseitin.encode_frame` per frame
followed by the latch hold-mux tail, in the order
:func:`compile_template` records them: the same number of variables
allocated in the same order, the same clauses in the same stream
order, and the same level-0 normalisation decisions.  Clauses with
pairwise-distinct local variables and at most one slot literal cannot
stamp into duplicates or tautologies, so they are eligible for bulk
loading (the loader re-checks level-0 assignments per clause);
anything else goes through the normalising
:meth:`~repro.sat.solver.Solver.add_clause` exactly as the walk
would.  ``tests/unit/test_template.py`` pins the contract at the
encoder level; identical solver state means identical CDCL search, so
verdicts, bounds and counterexample models follow.

Cache
-----
:func:`get_template` keeps a process-wide LRU keyed by the netlist's
structural signature (see
:meth:`repro.netlist.netlist.Netlist.signature`), so every strategy,
engine, and experiment row — including each worker process of
:mod:`repro.parallel` — reuses one compilation per distinct netlist.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..netlist import GateType, Netlist
from .cnf import pos
from .tseitin import CnfSink, encode_frame, encode_mux

#: First slot literal.  Even (so ``lit ^ 1`` negates slots too) and far
#: above any realistic local-variable literal.
SLOT_BASE = 1 << 40


def netlist_has_const0(net: Netlist) -> bool:
    """Whether ``net`` contains a CONST0 vertex
    (:attr:`FrameTemplate.has_const0`).

    Callers pre-touch the sink's shared true literal on this condition
    before their first stamp, which fixes where the true literal lands
    in the variable numbering — every search, and every solver counter,
    depends on that numbering.
    """
    return any(g.type is GateType.CONST0 for _, g in net.gates())


class _TemplateSink:
    """A recording CnfSink stand-in: runs ``encode_frame`` symbolically.

    ``new_var`` hands out consecutive local indices; clauses are
    recorded verbatim in template literal space; the true/false
    properties return the dedicated TRUE slot literal (and note that
    the template needs it) without emitting the unit clause — the real
    sink provides its own pinned true literal at stamp time.
    """

    __slots__ = ("num_locals", "clauses", "_true", "uses_true")

    def __init__(self, num_slots: int) -> None:
        self.num_locals = 0
        self.clauses: List[Tuple[int, ...]] = []
        self._true = SLOT_BASE + 2 * num_slots
        self.uses_true = False

    def new_var(self) -> int:
        var = self.num_locals
        self.num_locals += 1
        return var

    def add_clause(self, lits) -> None:
        self.clauses.append(tuple(lits))

    @property
    def true_lit(self) -> int:
        self.uses_true = True
        return self._true

    @property
    def false_lit(self) -> int:
        self.uses_true = True
        return self._true ^ 1


def _is_bulk_safe(clause: Tuple[int, ...]) -> bool:
    """Eligible for :meth:`Solver.add_clauses_bulk`: >= 2 literals,
    pairwise-distinct local variables, and at most ONE slot literal.

    Such a clause cannot stamp into a duplicate or a tautology: local
    variables are distinct by construction, and a slot value's
    variable always predates the frame's fresh locals (every caller
    allocates slot literals before stamping), so the lone slot cannot
    collide with them.  Two slot literals could stamp to the same
    variable (e.g. two state elements pinned to the shared constant),
    so those clauses keep the normalising ``add_clause`` route.  The
    remaining hazard — a literal assigned at level 0 (slot constants,
    mid-stamp unit propagation) — is re-checked per clause by the bulk
    loader itself."""
    if len(clause) < 2:
        return False
    seen = set()
    slots = 0
    for lit in clause:
        if lit >= SLOT_BASE:
            slots += 1
            if slots > 1:
                return False
            continue
        var = lit >> 1
        if var in seen:
            return False
        seen.add(var)
    return True


def _group_runs(
    clauses: Tuple[Tuple[int, ...], ...], safe: Tuple[bool, ...]
) -> Tuple[Tuple[bool, Tuple[Tuple[int, ...], ...]], ...]:
    """Group a clause stream into maximal same-classification runs."""
    runs: List[Tuple[bool, Tuple[Tuple[int, ...], ...]]] = []
    start = 0
    for idx in range(1, len(clauses) + 1):
        if idx == len(clauses) or safe[idx] != safe[start]:
            runs.append((safe[start], clauses[start:idx]))
            start = idx
    return tuple(runs)


class FrameTemplate:
    """One netlist's transition relation, compiled to a flat clause
    array ready for per-frame stamping.  Immutable; shared freely
    across solvers and threads."""

    __slots__ = ("slots", "num_locals", "core_locals",
                 "clauses", "bulk_safe", "core_clauses", "lit_map",
                 "next_state", "uses_true", "has_const0", "signature",
                 "runs_core", "runs_tail", "runs_all")

    def __init__(self, slots: Tuple[int, ...],
                 num_locals: int, core_locals: int,
                 clauses: Tuple[Tuple[int, ...], ...],
                 bulk_safe: Tuple[bool, ...], core_clauses: int,
                 lit_map: Dict[int, int], next_state: Dict[int, int],
                 uses_true: bool, has_const0: bool,
                 signature: str) -> None:
        #: Slot vids in slot order (callers pass values keyed by vid).
        self.slots = slots
        self.num_locals = num_locals
        #: Locals/clauses up to this boundary encode the frame itself;
        #: the rest is the next-state tail (latch hold-muxes), skipped
        #: when stamping ``with_next=False``.
        self.core_locals = core_locals
        self.clauses = clauses
        self.bulk_safe = bulk_safe
        self.core_clauses = core_clauses
        #: vid -> template literal for every encoded vertex.
        self.lit_map = lit_map
        #: state vid -> template literal of its next-state function.
        self.next_state = next_state
        self.uses_true = uses_true
        self.has_const0 = has_const0
        self.signature = signature
        #: Stream-order runs of ``(is_bulk, clause_tuple)`` segments —
        #: maximal consecutive same-classification groups, split at the
        #: core boundary so ``with_next=False`` stamps ``runs_core``
        #: alone.  Grouped once here so the stamp loop touches a
        #: handful of segments instead of branching per clause.
        self.runs_core = _group_runs(clauses[:core_clauses],
                                     bulk_safe[:core_clauses])
        self.runs_tail = _group_runs(clauses[core_clauses:],
                                     bulk_safe[core_clauses:])
        self.runs_all = self.runs_core + self.runs_tail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FrameTemplate slots={len(self.slots)} "
                f"locals={self.num_locals} clauses={len(self.clauses)}>")

    def stamp(
        self,
        sink: CnfSink,
        slot_vals: Dict[int, int],
        with_next: bool = True,
    ) -> Tuple[Dict[int, int], Optional[Dict[int, int]]]:
        """Instantiate one frame into ``sink``.

        ``slot_vals`` maps every slot vid to its literal in the sink's
        solver.  Returns ``(lits, next_state)``: the vertex-to-literal
        map of the frame and (when ``with_next``) the literals of the
        successor state; ``with_next=False`` stops at the core
        boundary (no latch hold-muxes — the COM frame-1 shape).

        Certification note: stamping goes through the solver's public
        ``add_clause`` / ``add_clauses_bulk`` entry points, never a
        private fast path — so when the solver keeps a DRAT-style
        proof log (``Solver(proof=True)``), every stamped clause is
        recorded as an input event.
        """
        nslots = len(self.slots)
        tab = [0] * (2 * nslots + 2)
        for i, vid in enumerate(self.slots):
            lit = slot_vals[vid]
            tab[2 * i] = lit
            tab[2 * i + 1] = lit ^ 1
        if self.uses_true:
            true = sink.true_lit
            tab[2 * nslots] = true
            tab[2 * nslots + 1] = true ^ 1
        num = self.num_locals if with_next else self.core_locals
        runs = self.runs_all if with_next else self.runs_core
        solver = sink.backend
        off = 2 * solver.new_vars(num) if num else 0
        bulk = solver.add_clauses_bulk
        add_clause = solver.add_clause
        SB = SLOT_BASE
        bulk_count = 0
        for is_bulk, seg in runs:
            if is_bulk:
                bulk([[lit + off if lit < SB else tab[lit - SB]
                       for lit in cl] for cl in seg])
                bulk_count += len(seg)
            else:
                for cl in seg:
                    add_clause([lit + off if lit < SB
                                else tab[lit - SB] for lit in cl])
        lits = {vid: (lit + off if lit < SB else tab[lit - SB])
                for vid, lit in self.lit_map.items()}
        nxt: Optional[Dict[int, int]] = None
        if with_next:
            nxt = {vid: (lit + off if lit < SB else tab[lit - SB])
                   for vid, lit in self.next_state.items()}
        reg = obs.get_registry()
        reg.counter("template.frames_stamped")
        if bulk_count:
            reg.counter("template.bulk_clauses", bulk_count)
        return lits, nxt


def compile_template(net: Netlist) -> FrameTemplate:
    """Compile ``net`` into a :class:`FrameTemplate` (uncached).

    The compiler *is* :func:`~repro.sat.tseitin.encode_frame`, run
    against a recording sink with the state elements' slot literals as
    leaves — so the template clause stream is by construction the exact
    stream the reference walk emits, just in template literal space.
    """
    states = net.state_elements
    sink = _TemplateSink(len(states))
    leaves = {vid: SLOT_BASE + 2 * i for i, vid in enumerate(states)}
    lit_map = encode_frame(net, sink, leaves)
    core_locals = sink.num_locals
    core_clauses = len(sink.clauses)
    # The next-state tail: register next edges, and one hold-mux per
    # latch in state-element order.
    next_state: Dict[int, int] = {}
    for vid in states:
        gate = net.gate(vid)
        if gate.type is GateType.REGISTER:
            next_state[vid] = lit_map[gate.fanins[0]]
        else:
            data, clock = gate.fanins
            out = pos(sink.new_var())
            encode_mux(sink, out, lit_map[clock], lit_map[data],
                       lit_map[vid])
            next_state[vid] = out
    return FrameTemplate(
        slots=tuple(states),
        num_locals=sink.num_locals,
        core_locals=core_locals,
        clauses=tuple(sink.clauses),
        bulk_safe=tuple(_is_bulk_safe(c) for c in sink.clauses),
        core_clauses=core_clauses,
        lit_map=lit_map,
        next_state=next_state,
        uses_true=sink.uses_true,
        has_const0=netlist_has_const0(net),
        signature=net.signature(),
    )


#: Process-wide LRU of compiled templates.  Each worker process of
#: :mod:`repro.parallel` grows its own (templates are not shipped
#: across the pickle boundary; the netlist is, and recompilation is a
#: one-time cost per worker surfaced by the ``template.compiles``
#: counter in merged snapshots).
_CACHE_MAX = 64
_cache: "OrderedDict[str, FrameTemplate]" = OrderedDict()
_cache_lock = threading.Lock()


def get_template(net: Netlist) -> FrameTemplate:
    """The compiled template for ``net``, via the LRU cache.

    Keyed by the netlist's memoized structural signature, so two
    structurally-identical netlists (e.g. the same design generated in
    two strategies, or re-generated inside a worker process) share one
    compilation.  Publishes ``template.hits`` / ``template.compiles``
    counters and the ``encode.compile`` span.
    """
    key = net.signature()
    with _cache_lock:
        tmpl = _cache.get(key)
        if tmpl is not None:
            _cache.move_to_end(key)
    if tmpl is not None:
        obs.counter("template.hits")
        return tmpl
    reg = obs.get_registry()
    with reg.span("encode.compile"):
        tmpl = compile_template(net)
    reg.counter("template.compiles")
    with _cache_lock:
        _cache[key] = tmpl
        while len(_cache) > _CACHE_MAX:
            _cache.popitem(last=False)
    return tmpl


def clear_template_cache() -> None:
    """Drop every cached compilation (tests, cold-path benches)."""
    with _cache_lock:
        _cache.clear()


def template_cache_size() -> int:
    """Number of live cache entries (introspection for tests)."""
    with _cache_lock:
        return len(_cache)
