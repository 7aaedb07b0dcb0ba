"""Property tests: the event-driven ternary fixpoint.

``constant_state_elements`` re-evaluates only the gates downstream of a
changed state element.  The oracle is the plain synchronous loop, in
which every iteration evaluates every gate and every state element.
Both must return the same map, also when ``max_iterations`` stops them
before the fixpoint; and on netlists small enough to enumerate, every
reported constant must hold in every reachable state.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.diameter.exact import ExplicitStateSpace
from repro.netlist import Gate, GateType, Netlist, NetlistBuilder, \
    topological_order
from repro.sim import X, constant_state_elements, ternary_initial_state
from repro.sim.ternary import _eval, _meet

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

_STATE, _INPUT, _GATE = 0, 1, 2


def _plan(net: Netlist) -> List[Tuple[int, int, Gate]]:
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


def _eval_plan(plan, state, inputs):
    values: Dict[int, int] = {}
    for vid, kind, gate in plan:
        if kind == _GATE:
            values[vid] = _eval(gate, values)
        elif kind == _STATE:
            values[vid] = state.get(vid, X)
        else:
            values[vid] = inputs.get(vid, X)
    return values


def full_fixpoint(net: Netlist,
                  max_iterations: Optional[int] = None) -> Dict[int, int]:
    """The full-pass loop: every gate, every state element, every
    iteration."""
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


@st.composite
def sequential_netlists(draw, max_inputs=3, max_registers=4,
                        max_latches=2, max_gates=14):
    """Registers with constant or input-driven (X) initial values,
    some tied to constants or to themselves, latches, and random
    gates; no target (the fixpoint ignores targets)."""
    b = NetlistBuilder("ternary")
    inputs = [b.input(f"i{k}") for k in range(draw(st.integers(
        1, max_inputs)))]
    regs = []
    for k in range(draw(st.integers(1, max_registers))):
        if draw(st.booleans()) and draw(st.booleans()):
            init = draw(st.sampled_from(inputs))
        else:
            init = b.const(draw(st.integers(0, 1)))
        regs.append(b.register(None, init=init, name=f"r{k}"))
    signals = inputs + regs + [b.const0, b.const1]
    latches = []
    for k in range(draw(st.integers(0, max_latches))):
        latch = b.latch(draw(st.sampled_from(signals)),
                        draw(st.sampled_from(signals)), name=f"l{k}")
        latches.append(latch)
        signals.append(latch)
    for _ in range(draw(st.integers(1, max_gates))):
        op = draw(st.sampled_from(["and", "or", "xor", "not", "mux"]))
        a = draw(st.sampled_from(signals))
        c = draw(st.sampled_from(signals))
        if op == "and":
            signals.append(b.and_(a, c))
        elif op == "or":
            signals.append(b.or_(a, c))
        elif op == "xor":
            signals.append(b.xor(a, c))
        elif op == "not":
            signals.append(b.not_(a))
        else:
            signals.append(b.mux(draw(st.sampled_from(signals)), a, c))
    for reg in regs:
        tie = draw(st.sampled_from(["signal", "constant", "self"]))
        if tie == "constant":
            b.connect(reg, draw(st.sampled_from([b.const0, b.const1])))
        elif tie == "self":
            b.connect(reg, reg)
        else:
            b.connect(reg, draw(st.sampled_from(signals)))
    for latch in latches:
        # Rewire the data and clock edges to late signals too.
        b.net.set_fanins(latch, (draw(st.sampled_from(signals)),
                                 draw(st.sampled_from(signals))))
    return b.net


@settings(SETTINGS, max_examples=200)
@given(sequential_netlists(max_gates=24), st.sampled_from([None, 1, 2, 3]))
def test_event_driven_fixpoint_equals_full_passes(net, max_iterations):
    assert constant_state_elements(net, max_iterations) == \
        full_fixpoint(net, max_iterations)


@SETTINGS
@given(sequential_netlists(max_inputs=2, max_registers=3, max_latches=1,
                           max_gates=8))
def test_constants_hold_in_every_reachable_state(net):
    constants = constant_state_elements(net)
    space = ExplicitStateSpace(net)
    position = {vid: k for k, vid in enumerate(space.state_vids)}
    for state in space.reachable_states():
        for vid, value in constants.items():
            assert state[position[vid]] == value


def test_reconvergent_gate_waits_for_every_changed_fanin():
    # r falls to X in the first iteration; g = r OR NOT r reads it
    # directly and through h.  Evaluating g before h would keep g at 1
    # and q binary.
    b = NetlistBuilder("reconvergent")
    r = b.register(None, init=b.const(0), name="r")
    b.connect(r, b.input("i"))
    g = b.or_(r, b.not_(r))
    q = b.register(None, init=b.const(1), name="q")
    b.connect(q, g)
    assert constant_state_elements(b.net) == full_fixpoint(b.net) == {}
