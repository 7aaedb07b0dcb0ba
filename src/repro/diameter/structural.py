"""Structural compositional diameter overapproximation.

Reproduces the fast structural technique of Baumgartner, Kuehlmann and
Abraham (CAV 2002) as summarized in Section 4 of the paper: the netlist
is partitioned into an acyclic sequence of components over the register
dependency graph, and an overapproximate diameter bound is derived
compositionally.  Four component classes are distinguished:

* **CC** — constant components: all state elements provably hold their
  initial constants (ternary fixpoint).  They do not increase diameter.
* **AC** — acyclic components: a one-stage pipeline of arbitrary width.
  They increment the diameter by one regardless of width.
* **MC/QC** — memory/queue components: hold-mux cells clustered into
  atomically-updated rows.  They multiply the diameter by the number of
  rows plus one, regardless of row bit-width.
* **GC** — general components (the catch-all for other SCCs).  Their
  diameter may be exponential in the register count; as in the paper's
  experiments, "rather than using more expensive diameter bounding
  techniques ... we assume an exponential diameter increase".

Composition along the component DAG (documented design choice — the
exact CAV'02 composition rule is not published in closed form; this
variant is validated against the exact oracle in the test-suite)::

    d_in(C) = max(1, compose(predecessor components of C))
    CC:     d(C) = d_in(C)
    AC:     d(C) = d_in(C) + 1
    MC/QC:  d(C) = d_in(C) * (rows + 1)
    GC:     d(C) = d_in(C) * 2**k              (k = state elements)

where ``compose`` is the sibling composition described below: a group
of purely memoryless (AC/CC-cone) siblings combines with ``max``,
while stateful siblings multiply and the deepest memoryless window
adds on top.  The *same* rule applies at every merge point — a
target's combinational cone and a component's inputs alike — because
the phase-correlation argument does not care whether the joint
valuation is observed at a target or latched into a downstream
component.

The GC rule uses the full state count ``2**k``: anything smaller is
refuted by the exact oracle (a k-bit counter first hits its terminal
value at time ``2**k - 1``, so a completeness bound below ``2**k`` is
unsound).  The paper's engine reports slightly tighter GC numbers
(e.g. 33 for a 6-register component), suggesting a per-component
reachability refinement; we keep the provably sound variant and note
the difference in EXPERIMENTS.md.

and the bound of a target combines the components feeding its
combinational cone (1 for purely combinational targets, matching
"the diameter of a combinational netlist is 1").  Memoryless sibling
components (pure AC/CC cones, whose outputs are a function of a
bounded input window) combine with ``max``; *stateful* siblings
cannot — their trajectories phase-correlate through shared inputs or
plain time (two autonomous mod-``p``/mod-``q`` counters reach a joint
state only at time ``~p*q``), so their bounds multiply, and a
memoryless sibling then adds its pipeline depth on top (the joint
state is reachable within ``depth`` steps of replaying the stateful
part's witness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .. import obs
from ..netlist import (
    GateType,
    Netlist,
    condensation_order,
    cone_of_influence,
    register_graph,
    state_support,
)
from ..resilience import Budget
from ..sim import constant_state_elements

#: Component kind tags.
CC, AC, MC, QC, GC = "CC", "AC", "MC", "QC", "GC"


@dataclass(frozen=True)
class Component:
    """A classified component of the register dependency graph."""

    kind: str
    members: FrozenSet[int]
    rows: int = 0

    @property
    def size(self) -> int:
        """Number of state elements in the component."""
        return len(self.members)


@dataclass
class CellPattern:
    """A hold-mux register cell: ``next = sel ? data : self``."""

    sel: int
    data: int


def _skip_buffers(net: Netlist, vid: int) -> int:
    while net.gate(vid).type is GateType.BUF:
        vid = net.gate(vid).fanins[0]
    return vid


def detect_cell(net: Netlist, reg: int) -> Optional[CellPattern]:
    """Detect the memory-cell pattern on a register's next function.

    Recognizes ``MUX(sel, data, reg)`` and ``MUX(sel, reg, data)``
    (modulo buffers), plus the AND/OR decomposition
    ``OR(AND(sel, data), AND(NOT sel, reg))``.  Latches are cells by
    construction (``clock ? data : held``).
    """
    gate = net.gate(reg)
    if gate.type is GateType.LATCH:
        data, clock = gate.fanins
        return CellPattern(sel=clock, data=data)
    nxt = _skip_buffers(net, gate.fanins[0])
    ngate = net.gate(nxt)
    if ngate.type is GateType.MUX:
        sel, then, else_ = (
            _skip_buffers(net, f) for f in ngate.fanins)
        if else_ == reg and then != reg:
            return CellPattern(sel=sel, data=then)
        if then == reg and else_ != reg:
            return CellPattern(sel=sel, data=else_)
        return None
    if ngate.type is GateType.OR and len(ngate.fanins) == 2:
        sides = []
        for f in ngate.fanins:
            g = net.gate(_skip_buffers(net, f))
            if g.type is GateType.AND and len(g.fanins) == 2:
                sides.append(tuple(_skip_buffers(net, x) for x in g.fanins))
            else:
                return None
        for hold_side, load_side in (sides, reversed(sides)):
            if reg in hold_side:
                guard = hold_side[0] if hold_side[1] == reg else hold_side[1]
                ggate = net.gate(guard)
                if ggate.type is GateType.NOT:
                    sel = _skip_buffers(net, ggate.fanins[0])
                    if sel in load_side:
                        data = (load_side[0] if load_side[1] == sel
                                else load_side[1])
                        if data != reg:
                            return CellPattern(sel=sel, data=data)
    return None


def _extract_cube(net: Netlist, vid: int) -> Optional[Dict[int, bool]]:
    """Interpret ``vid`` as a conjunction of leaf literals, if possible.

    Returns ``{leaf: polarity}`` for an AND-tree over (possibly negated)
    inputs/state elements, or None when the cone is not a plain cube.
    Used to prove one-hot row selects mutually exclusive.
    """
    cube: Dict[int, bool] = {}
    stack: List[Tuple[int, bool]] = [(vid, True)]
    while stack:
        v, polarity = stack.pop()
        v = _skip_buffers(net, v)
        gate = net.gate(v)
        if gate.type is GateType.NOT:
            stack.append((gate.fanins[0], not polarity))
        elif gate.type is GateType.AND and polarity:
            stack.extend((f, True) for f in gate.fanins)
        elif gate.type is GateType.INPUT or gate.is_state:
            if cube.get(v, polarity) != polarity:
                return None  # contradictory literal: not a clean cube
            cube[v] = polarity
        else:
            return None
    return cube


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def add(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class StructuralAnalysis:
    """Component decomposition, classification and diameter bounds.

    ``refine_gc_limit`` enables the reachable-state refinement for
    small general components: a GC with at most that many registers is
    extracted (its non-component fanins freed — an overapproximation,
    so still sound), its reachable state count ``N`` is computed
    symbolically, and the GC rule becomes ``d_in * N`` instead of
    ``d_in * 2**k``.  The paper's per-component numbers (e.g. 33 for a
    6-register component) indicate its engine used exactly this kind
    of refinement.

    This engine is the designated degradation fallback of the whole
    stack (it always terminates), so a ``budget`` never aborts the
    analysis: exhaustion only disables the *optional* GC refinement —
    the component falls back to the sound ``2**k`` rule and a
    ``structural.refinement_skips`` counter records the skip.
    """

    def __init__(self, net: Netlist, refine_gc_limit: int = 0,
                 budget: Optional[Budget] = None) -> None:
        self.net = net
        self.refine_gc_limit = refine_gc_limit
        self.budget = budget
        self.graph = register_graph(net)
        self.constants = constant_state_elements(net)
        self.components: List[Component] = []
        self.component_of: Dict[int, Component] = {}
        self._preds: Dict[Component, Set[Component]] = {}
        self._bound_cache: Dict[Component, int] = {}
        self._support_cache: Dict[int, FrozenSet[int]] = {}
        self._gc_states_cache: Dict[Component, int] = {}
        self._cone_cache: Dict[Component, FrozenSet[Component]] = {}
        with obs.span("diameter.structural") as analysis_span:
            self._decompose()
        reg = obs.get_registry()
        for kind, count in self.register_profile().items():
            if count:
                reg.counter(f"structural.registers.{kind}", count)
        reg.counter("structural.components", len(self.components))
        obs.progress("structural", components=len(self.components),
                     registers=len(net.state_elements),
                     seconds=round(analysis_span.seconds, 6))

    # ------------------------------------------------------------------
    # Decomposition and classification
    # ------------------------------------------------------------------
    def _decompose(self) -> None:
        net = self.net
        sccs, scc_preds = condensation_order(self.graph)
        kinds: Dict[FrozenSet[int], str] = {}
        cells: Dict[int, CellPattern] = {}
        for scc in sccs:
            members = set(scc)
            if members <= set(self.constants):
                kinds[scc] = CC
                continue
            if len(members) == 1:
                (reg,) = members
                self_loop = reg in self.graph[reg]
                if not self_loop:
                    kinds[scc] = AC
                    continue
                cell = detect_cell(net, reg)
                if cell is not None and reg not in state_support(
                        net, cell.sel) and reg not in state_support(
                        net, cell.data):
                    cells[reg] = cell
                    kinds[scc] = MC  # provisional; clustered below
                    continue
                kinds[scc] = GC
                continue
            kinds[scc] = GC

        clusters = self._cluster_cells(cells)
        components: List[Component] = []
        comp_of: Dict[int, Component] = {}
        clustered_cells: Set[int] = set()
        for cluster in clusters:
            clustered_cells.update(cluster.members)
            components.append(cluster)
            for m in cluster.members:
                comp_of[m] = cluster
        for scc in sccs:
            if next(iter(scc)) in clustered_cells:
                continue
            kind = kinds[scc]
            if kind is MC:  # unclustered single cell: one-row memory
                comp = Component(MC, scc, rows=1)
            elif kind is GC:
                comp = Component(GC, scc)
            else:
                comp = Component(kind, scc)
            components.append(comp)
            for m in scc:
                comp_of[m] = comp

        # Build the component digraph and collapse any cycles that
        # clustering may have introduced into GC components.
        components, comp_of = self._ensure_acyclic(components, comp_of)
        self.components = components
        self.component_of = comp_of
        self._preds = self._component_preds(components, comp_of)

    def _cluster_cells(self, cells: Dict[int, CellPattern]
                       ) -> List[Component]:
        """Group hold-mux cells into memory (MC) / queue (QC) components.

        Rules (each validated for soundness against the exact oracle):
        same select vertex -> same row; a cell whose data reads another
        cell joins its cluster (queues); cells whose selects are
        provably mutually-exclusive cubes over the same leaves join one
        memory (one row written per cycle).
        """
        net = self.net
        uf = _UnionFind()
        for reg in cells:
            uf.add(reg)
        by_sel: Dict[int, List[int]] = {}
        for reg, cell in cells.items():
            by_sel.setdefault(cell.sel, []).append(reg)
        for group in by_sel.values():
            for other in group[1:]:
                uf.union(group[0], other)
        for reg, cell in cells.items():
            for dep in state_support(net, cell.data):
                if dep in cells and dep != reg:
                    uf.union(reg, dep)
        # One-hot rows: selects that are cubes over identical leaves and
        # pairwise-distinct are mutually exclusive.
        cube_groups: Dict[FrozenSet[int], List[Tuple[int, Tuple]]] = {}
        for sel in by_sel:
            cube = _extract_cube(net, sel)
            if cube is not None and cube:
                key = frozenset(cube)
                cube_groups.setdefault(key, []).append(
                    (sel, tuple(sorted(cube.items()))))
        for group in cube_groups.values():
            distinct = {cube for _, cube in group}
            if len(distinct) == len(group) and len(group) > 1:
                first = by_sel[group[0][0]][0]
                for sel, _ in group[1:]:
                    uf.union(first, by_sel[sel][0])

        clusters: Dict[int, List[int]] = {}
        for reg in cells:
            clusters.setdefault(uf.find(reg), []).append(reg)
        out: List[Component] = []
        for members in clusters.values():
            if len(members) == 1 and not any(
                    dep in cells for dep in state_support(
                        net, cells[members[0]].data) if dep != members[0]):
                continue  # left for the per-SCC path (single-cell MC)
            # Rows: update groups keyed by (select, internal data deps).
            rows = set()
            is_queue = False
            for reg in members:
                cell = cells[reg]
                internal = frozenset(
                    dep for dep in state_support(net, cell.data)
                    if dep in cells and uf.find(dep) == uf.find(reg))
                if internal:
                    is_queue = True
                rows.add((cell.sel, internal))
            kind = QC if is_queue else MC
            out.append(Component(kind, frozenset(members), rows=len(rows)))
        return out

    def _ensure_acyclic(self, components: List[Component],
                        comp_of: Dict[int, Component]
                        ) -> Tuple[List[Component], Dict[int, Component]]:
        index = {id(c): i for i, c in enumerate(components)}
        digraph: Dict[int, Set[int]] = {i: set() for i in range(
            len(components))}
        for reg, succs in self.graph.items():
            for succ in succs:
                a = index[id(comp_of[reg])]
                b = index[id(comp_of[succ])]
                if a != b:
                    digraph[a].add(b)
        from ..netlist import strongly_connected_components
        merged: List[Component] = []
        for scc in strongly_connected_components(digraph):
            if len(scc) == 1:
                merged.append(components[next(iter(scc))])
                continue
            members: Set[int] = set()
            for i in scc:
                members |= components[i].members
            merged.append(Component(GC, frozenset(members)))
        out_of: Dict[int, Component] = {}
        for comp in merged:
            for m in comp.members:
                out_of[m] = comp
        return merged, out_of

    def _component_preds(self, components: List[Component],
                         comp_of: Dict[int, Component]
                         ) -> Dict[Component, Set[Component]]:
        preds: Dict[Component, Set[Component]] = {
            c: set() for c in components}
        for reg, succs in self.graph.items():
            for succ in succs:
                a, b = comp_of[reg], comp_of[succ]
                if a is not b:
                    preds[b].add(a)
        return preds

    # ------------------------------------------------------------------
    # Profiles and bounds
    # ------------------------------------------------------------------
    def register_profile(self) -> Dict[str, int]:
        """State-element counts per component kind (table columns)."""
        profile = {CC: 0, AC: 0, MC: 0, QC: 0, GC: 0}
        for comp in self.components:
            profile[comp.kind] += comp.size
        return profile

    def component_bound(self, comp: Component) -> int:
        """Compositional diameter bound of ``comp``'s outputs."""
        if comp in self._bound_cache:
            return self._bound_cache[comp]
        # Iterative DAG evaluation (components may chain deeply).
        stack = [comp]
        while stack:
            c = stack[-1]
            if c in self._bound_cache:
                stack.pop()
                continue
            missing = [p for p in self._preds[c]
                       if p not in self._bound_cache]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            # The predecessors jointly feed this component's inputs:
            # that is a merge point exactly like a target's cone, so
            # the same stateful-multiply / memoryless-add composition
            # applies (a plain max would under-approximate the first
            # joint input valuation of two stateful feeders).
            d_in = max(1, self._composed_bound(list(self._preds[c])))
            if c.kind is CC:
                d = d_in
            elif c.kind is AC:
                d = d_in + 1
            elif c.kind in (MC, QC):
                d = d_in * (c.rows + 1)
            else:  # GC
                d = d_in * self._gc_state_bound(c)
            self._bound_cache[c] = d
        return self._bound_cache[comp]

    def _gc_state_bound(self, comp: Component) -> int:
        """State-count bound for a GC: reachable count when small
        enough to refine, ``2**k`` otherwise.  An exhausted budget
        also falls back to ``2**k`` — skipping the refinement loses
        tightness, never soundness."""
        if comp.size > self.refine_gc_limit:
            return 1 << comp.size
        if comp in self._gc_states_cache:
            return self._gc_states_cache[comp]
        if self.budget is not None and self.budget.exhausted() is not None:
            obs.counter("structural.refinement_skips")
            return 1 << comp.size
        with obs.span("diameter.structural/gc_refine"):
            count = self._reachable_component_states(comp)
        obs.counter("structural.gc_refinements")
        self._gc_states_cache[comp] = count
        return count

    def _reachable_component_states(self, comp: Component) -> int:
        """Reachable-state count of the component with its external
        fanins freed (an overapproximation of the real environment,
        hence sound: the real reachable set is a subset of the counted
        one, and any diameter is below the state count)."""
        from ..diameter.symbolic import symbolic_reachability
        from ..netlist import Gate, GateType, rebuild

        work = self.net.copy()
        for vid in self.net.state_elements:
            if vid not in comp.members:
                work.replace_gate(vid, Gate(GateType.INPUT, (),
                                            work.gate(vid).name))
        cone, remap = rebuild(work, roots=sorted(comp.members))
        result = symbolic_reachability(cone)
        count = result.count_states()
        return max(1, min(count, 1 << comp.size))

    def _cone_components(self, comp: Component) -> FrozenSet[Component]:
        """Components in ``comp``'s cone of influence (``comp`` plus
        every transitive ancestor, through next *and* init edges)."""
        if comp not in self._cone_cache:
            coi = cone_of_influence(self.net, sorted(comp.members))
            self._cone_cache[comp] = frozenset(
                self.component_of[v] for v in coi
                if v in self.component_of)
        return self._cone_cache[comp]

    def _cone_has_history(self, comp: Component) -> bool:
        """True when the component's cone holds multi-step state (a
        GC/MC/QC anywhere upstream); pure AC/CC cones are memoryless
        functions of a bounded window of past inputs."""
        return any(c.kind in (GC, MC, QC)
                   for c in self._cone_components(comp))

    def _composed_bound(self, comps: List[Component]) -> int:
        """Soundly compose the bounds of sibling components that
        jointly feed one merge point (a target's combinational cone,
        or a downstream component's inputs).

        Siblings cannot simply take the ``max`` of their bounds: even
        input-disjoint stateful siblings phase-correlate through time
        (a free-running toggler is ``1`` only at even cycles, so a
        joint valuation with a sibling can first occur well after both
        components' individual bounds).  Stateful sibling bounds
        therefore *multiply* — the joint trajectory lives in the
        product state space, and the orbit/CRT argument bounds the
        first joint occurrence below the product — while memoryless
        (pure AC/CC cone) siblings add their window depth on top:
        replay the stateful witness, then append the ``depth`` inputs
        that fill the deepest window.  A group that is memoryless
        throughout keeps the ``max`` rule: its joint output is a
        function of the last ``depth`` inputs, all free.

        A sibling already inside another sibling's cone is accounted
        for by that sibling's d_in chain (which now uses this same
        composition at every interior merge point); only the maximal
        components contribute, so chains do not self-multiply.
        An empty group composes to 1 (purely combinational inputs).
        """
        if not comps:
            return 1
        maximal = [c for c in comps
                   if not any(other is not c
                              and c in self._cone_components(other)
                              for other in comps)]
        stateful = [c for c in maximal if self._cone_has_history(c)]
        memoryless = [c for c in maximal if c not in stateful]
        if not stateful:
            return max(self.component_bound(c) for c in memoryless)
        bound = 1
        for comp in stateful:
            bound *= self.component_bound(comp)
        depth = max((self.component_bound(c) - 1 for c in memoryless),
                    default=0)
        return bound + depth

    def bound(self, target: int) -> int:
        """Diameter bound ``d̂(t)`` of a target vertex: the sound
        sibling composition (:meth:`_composed_bound`) of the
        components feeding its combinational cone; 1 for a purely
        combinational target."""
        support = state_support(self.net, target)
        if not support:
            return 1
        comps: List[Component] = []
        for s in sorted(support):
            comp = self.component_of[s]
            if comp not in comps:
                comps.append(comp)
        return self._composed_bound(comps)

    def bounds(self, targets: Optional[List[int]] = None) -> Dict[int, int]:
        """Bounds for all (or the given) targets."""
        if targets is None:
            targets = list(self.net.targets)
        return {t: self.bound(t) for t in targets}


def structural_diameter_bound(net: Netlist, target: int) -> int:
    """One-shot convenience wrapper around :class:`StructuralAnalysis`."""
    return StructuralAnalysis(net).bound(target)
