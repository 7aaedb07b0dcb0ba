"""SAT-based target enlargement (all-solutions preimage enumeration).

The BDD enlargement of :mod:`repro.transform.enlarge` is the classic
implementation; prior work the paper cites ([24]) advocates keeping
the enlarged target *structural* for "better synergy with simulation
and SAT-based analysis".  This variant never builds a BDD: each
preimage is computed by all-solutions SAT enumeration — solve for a
(state, input) pair driving into the current frontier, generalize the
state part to a cube by dropping literals that are not needed, block
it, repeat — and the frontier is re-synthesized as an OR of cube ANDs.

Exponential in the worst case like any preimage computation, but the
cube generalization keeps typical frontiers compact, and the result is
bit-for-bit a netlist (Theorem 4 applies unchanged).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import obs
from ..core.record import StepKind, TransformResult, TransformStep
from ..netlist import GateType, Netlist, rebuild
from ..sat import SAT, CnfSink, Solver, lit_not, pos
from ..sat.template import get_template

#: A cube: state-element vid -> required value.
Cube = Dict[int, int]


def _frontier_lit(sink: CnfSink, state_lits: Dict[int, int],
                  cubes: List[Cube]) -> int:
    """Literal asserting the state (given by lits) lies in the cubes."""
    if not cubes:
        return sink.false_lit
    terms = []
    for cube in cubes:
        lits = [state_lits[vid] if value else lit_not(state_lits[vid])
                for vid, value in cube.items()]
        if not lits:
            return sink.true_lit
        term = pos(sink.new_var())
        for lit in lits:
            sink.add_clause([lit_not(term), lit])
        sink.add_clause([term] + [lit_not(x) for x in lits])
        terms.append(term)
    out = pos(sink.new_var())
    sink.add_clause([lit_not(out)] + terms)
    for term in terms:
        sink.add_clause([out, lit_not(term)])
    return out


def _enumerate_preimage(net: Netlist, cubes: List[Cube],
                        block_cubes: List[Cube],
                        max_cubes: int) -> Optional[List[Cube]]:
    """States with a transition into ``cubes``, minus ``block_cubes``.

    Returns None when the enumeration exceeds ``max_cubes`` (caller
    falls back or aborts).
    """
    solver = Solver()
    sink = CnfSink(solver)
    tmpl = get_template(net, "frame")
    state0 = {vid: pos(solver.new_var()) for vid in net.state_elements}
    if tmpl.has_const0:
        _ = sink.true_lit  # pin before the frame (see Unrolling)
    with obs.span("encode"):
        _, state1 = tmpl.stamp(sink, state0)
    assert state1 is not None
    solver.add_clause([_frontier_lit(sink, state1, cubes)])
    # Exclude already-covered states (inductive simplification).
    for cube in block_cubes:
        solver.add_clause([
            lit_not(state0[vid]) if value else state0[vid]
            for vid, value in cube.items()])

    # Sound cube generalization: preimage membership is a function of
    # the state variables feeding the next-state cones of the frontier
    # cubes' variables only — assignments to anything else project out.
    relevant = _relevant_state_vars(net, cubes)
    found: List[Cube] = []
    while True:
        if solver.solve() != SAT:
            return found
        model = solver.model
        cube = {vid: int(model[lit >> 1])
                for vid, lit in state0.items() if vid in relevant}
        found.append(cube)
        if not cube:
            return found  # universal preimage: the empty cube covers
        if len(found) > max_cubes:
            return None
        # Block the cube (blocks its whole projection fiber).
        solver.add_clause([
            lit_not(state0[vid]) if value else state0[vid]
            for vid, value in cube.items()])


def _relevant_state_vars(net: Netlist, cubes: List[Cube]) -> set:
    """State variables the frontier-membership function depends on."""
    from ..netlist import state_support

    relevant = set()
    for cube in cubes:
        for vid in cube:
            gate = net.gate(vid)
            if gate.type is GateType.REGISTER:
                relevant |= state_support(net, gate.fanins[0])
            else:  # latch hold-mux: depends on data, clock and itself
                relevant |= state_support(net, gate.fanins[0])
                relevant |= state_support(net, gate.fanins[1])
                relevant.add(vid)
    return relevant


def enlarge_target_sat(net: Netlist, target: Optional[int] = None,
                       k: int = 1, max_cubes: int = 256,
                       name_suffix: str = "enlsat") -> TransformResult:
    """SAT-enumeration variant of :func:`repro.transform.enlarge.
    enlarge_target`; same contract (Theorem 4, ``depth = k``).

    Raises :class:`ValueError` when a preimage exceeds ``max_cubes``
    cubes (use the BDD variant or raise the budget).
    """
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    if k < 0:
        raise ValueError("enlargement depth must be >= 0")

    # S_0: states where the target can be asserted now, enumerated the
    # same way over a single frame (no next-state tail needed).
    solver = Solver()
    sink = CnfSink(solver)
    tmpl = get_template(net, "frame")
    state_lits = {vid: pos(solver.new_var())
                  for vid in net.state_elements}
    if tmpl.has_const0:
        _ = sink.true_lit
    with obs.span("encode"):
        lits, _ = tmpl.stamp(sink, state_lits, with_next=False)
    solver.add_clause([lits[target]])
    from ..netlist import state_support

    target_support = state_support(net, target)
    frontier: List[Cube] = []
    while True:
        if solver.solve() != SAT:
            break
        model = solver.model
        cube = {vid: int(model[lit >> 1])
                for vid, lit in state_lits.items()
                if vid in target_support}
        frontier.append(cube)
        if len(frontier) > max_cubes:
            raise ValueError("S_0 exceeds the cube budget")
        blocking = [lit_not(state_lits[vid]) if value else state_lits[vid]
                    for vid, value in cube.items()]
        if not blocking:
            break  # the target is state-independent: S_0 is universal
        solver.add_clause(blocking)

    covered: List[Cube] = list(frontier)
    for _ in range(k):
        nxt = _enumerate_preimage(net, frontier, covered, max_cubes)
        if nxt is None:
            raise ValueError("preimage exceeds the cube budget")
        frontier = nxt
        covered = covered + nxt

    work = net.copy()
    # Resynthesize the frontier structurally: OR of cube ANDs.
    const0 = work.const0()
    or_terms: List[int] = []
    not_cache: Dict[int, int] = {}

    def negate(vid: int) -> int:
        if vid not in not_cache:
            not_cache[vid] = work.add_gate(GateType.NOT, (vid,))
        return not_cache[vid]

    for cube in frontier:
        literals = [vid if value else negate(vid)
                    for vid, value in cube.items()]
        if not literals:
            or_terms = [work.add_gate(GateType.NOT, (const0,))]
            break
        if len(literals) == 1:
            or_terms.append(literals[0])
        else:
            or_terms.append(work.add_gate(GateType.AND, tuple(literals)))
    if not or_terms:
        enlarged = const0
    elif len(or_terms) == 1:
        enlarged = or_terms[0]
    else:
        enlarged = work.add_gate(GateType.OR, tuple(or_terms))
    work.targets = [enlarged]
    out, mapping = rebuild(work, name=f"{net.name}-{name_suffix}")
    step = TransformStep(
        name=f"ENLARGE-SAT[{k}]",
        kind=StepKind.TARGET_ENLARGE,
        target_map={t: mapping.get(enlarged) for t in net.targets},
        depth=k,
    )
    return TransformResult(netlist=out, step=step, mapping=mapping)
