"""Three-valued (0/1/X) simulation.

Used to detect *constant* state elements: starting from the initial
state (with ``X`` for nondeterministic initial values) and ``X`` on all
primary inputs, the ternary state is iterated to a least fixpoint under
the information ordering (``0``/``1`` above ``X``).  Any state element
whose fixpoint value is still 0 or 1 provably holds that constant in
every reachable state — the *constant components* (CCs) of the
structural diameter bound, and merge fodder for the COM engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..netlist import Gate, GateType, Netlist, topological_order

#: The "unknown" value.
X = 2


def _meet(a: int, b: int) -> int:
    """Information meet: equal values stay, conflicts go to X."""
    return a if a == b else X


#: Plan entry kinds.
_STATE, _INPUT, _GATE = 0, 1, 2


def _plan(net: Netlist) -> List[Tuple[int, int, Gate]]:
    """``(vid, kind, gate)`` in topological order, built once per
    :func:`constant_state_elements` call."""
    plan = []
    for vid in topological_order(net):
        gate = net.gate(vid)
        if gate.is_state:
            kind = _STATE
        elif gate.type is GateType.INPUT:
            kind = _INPUT
        else:
            kind = _GATE
        plan.append((vid, kind, gate))
    return plan


def _eval_plan(plan: List[Tuple[int, int, Gate]], state: Dict[int, int],
               inputs: Dict[int, int]) -> Dict[int, int]:
    values: Dict[int, int] = {}
    for vid, kind, gate in plan:
        if kind == _GATE:
            values[vid] = _eval(gate, values)
        elif kind == _STATE:
            values[vid] = state.get(vid, X)
        else:
            values[vid] = inputs.get(vid, X)
    return values


def _eval(gate, values: Dict[int, int]) -> int:
    t = gate.type
    f = gate.fanins
    if t is GateType.CONST0:
        return 0
    if t is GateType.BUF:
        return values[f[0]]
    if t is GateType.NOT:
        v = values[f[0]]
        return X if v == X else 1 - v
    if t in (GateType.AND, GateType.NAND):
        out = 1
        for x in f:
            v = values[x]
            if v == 0:
                out = 0
                break
            if v == X:
                out = X
        if t is GateType.NAND:
            return X if out == X else 1 - out
        return out
    if t in (GateType.OR, GateType.NOR):
        out = 0
        for x in f:
            v = values[x]
            if v == 1:
                out = 1
                break
            if v == X:
                out = X
        if t is GateType.NOR:
            return X if out == X else 1 - out
        return out
    if t in (GateType.XOR, GateType.XNOR):
        out = 0
        for x in f:
            v = values[x]
            if v == X:
                return X
            out ^= v
        return (1 - out) if t is GateType.XNOR else out
    if t is GateType.MUX:
        s, a, b = (values[x] for x in f)
        if s == 1:
            return a
        if s == 0:
            return b
        return _meet(a, b)
    raise ValueError(f"cannot ternary-evaluate gate type {t}")


def ternary_initial_state(net: Netlist) -> Dict[int, int]:
    """Ternary initial state: constant inits resolved, inputs give X."""
    values: Dict[int, int] = {}
    init_edges = [net.gate(r).fanins[1] for r in net.registers]
    for vid in topological_order(net, init_edges):
        gate = net.gate(vid)
        if gate.type is GateType.INPUT or gate.is_state:
            values[vid] = X
        else:
            values[vid] = _eval(gate, values)
    state: Dict[int, int] = {}
    for vid in net.state_elements:
        gate = net.gate(vid)
        if gate.type is GateType.REGISTER:
            state[vid] = values.get(gate.fanins[1], X)
        else:
            state[vid] = 0  # latches initialize to 0 by convention
    return state


def constant_state_elements(net: Netlist,
                            max_iterations: Optional[int] = None
                            ) -> Dict[int, int]:
    """State elements provably constant in all reachable states.

    Runs the ternary fixpoint and returns ``{vid: constant_value}`` for
    every state element still binary at the fixpoint.  The fixpoint is
    reached in at most ``|R| + 1`` iterations (each iteration can only
    move values down the information order).
    """
    state = ternary_initial_state(net)
    limit = max_iterations or (len(state) + 1)
    plan = _plan(net)
    updates = [(vid, net.gate(vid)) for vid in state]
    for _ in range(limit):
        values = _eval_plan(plan, state, {})
        nxt: Dict[int, int] = {}
        changed = False
        for vid, gate in updates:
            if gate.type is GateType.REGISTER:
                new = _meet(state[vid], values[gate.fanins[0]])
            else:
                data, clock = gate.fanins
                c = values[clock]
                if c == 0:
                    new = state[vid]
                elif c == 1:
                    new = _meet(state[vid], values[data])
                else:
                    new = _meet(state[vid], _meet(values[data], state[vid]))
            if new != state[vid]:
                changed = True
            nxt[vid] = new
        state = nxt
        if not changed:
            break
    return {vid: val for vid, val in state.items() if val != X}
