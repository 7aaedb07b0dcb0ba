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

import heapq
from typing import Dict, List, Optional

from ..netlist import Gate, GateType, Netlist, topological_order

#: The "unknown" value.
X = 2


def _meet(a: int, b: int) -> int:
    """Information meet: equal values stay, conflicts go to X."""
    return a if a == b else X


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

    Each iteration is synchronous: every state element's next value
    comes from the current state.  The iterations are event-driven.
    The first evaluates every gate and every state element.  A later
    one re-evaluates, in topological order, only the gates downstream
    of a state element that changed, and recomputes only the binary
    state elements that read a changed value (a state element only
    ever changes to X, where it stays).  Every other value would come
    out the same, so each iteration ends in the state a full pass
    would reach, also when ``max_iterations`` stops early.
    """
    state = ternary_initial_state(net)
    limit = max_iterations or (len(state) + 1)
    order = topological_order(net)
    # Per vertex: the topological positions of the gates reading it,
    # and the state elements whose update reads it.
    fanouts: Dict[int, List[int]] = {}
    readers: Dict[int, List[int]] = {}
    values: Dict[int, int] = {}
    for position, vid in enumerate(order):
        gate = net.gate(vid)
        if gate.is_state:
            values[vid] = state[vid]
            edges = gate.fanins[:1] if gate.type is GateType.REGISTER \
                else gate.fanins
            for f in edges:
                readers.setdefault(f, []).append(vid)
        elif gate.type is GateType.INPUT:
            values[vid] = X
        else:
            values[vid] = _eval(gate, values)
            for f in gate.fanins:
                fanouts.setdefault(f, []).append(position)
    due = list(state)
    for _ in range(limit):
        changed = [(vid, new) for vid, new in
                   ((vid, _next_state(net.gate(vid), state[vid], values))
                    for vid in due)
                   if new != state[vid]]
        if not changed:
            break
        touched = set()
        queue: List[int] = []
        queued = set()
        for vid, new in changed:
            state[vid] = values[vid] = new
            touched.update(readers.get(vid, ()))
            for position in fanouts.get(vid, ()):
                if position not in queued:
                    queued.add(position)
                    heapq.heappush(queue, position)
        while queue:
            vid = order[heapq.heappop(queue)]
            new = _eval(net.gate(vid), values)
            if new == values[vid]:
                continue
            values[vid] = new
            touched.update(readers.get(vid, ()))
            for position in fanouts.get(vid, ()):
                if position not in queued:
                    queued.add(position)
                    heapq.heappush(queue, position)
        due = [vid for vid in state if vid in touched and state[vid] != X]
    return {vid: val for vid, val in state.items() if val != X}


def _next_state(gate: Gate, current: int, values: Dict[int, int]) -> int:
    """A state element's value after one step from ``current``."""
    if gate.type is GateType.REGISTER:
        return _meet(current, values[gate.fanins[0]])
    data, clock = gate.fanins
    c = values[clock]
    if c == 0:
        return current
    if c == 1:
        return _meet(current, values[data])
    return _meet(current, _meet(values[data], current))
