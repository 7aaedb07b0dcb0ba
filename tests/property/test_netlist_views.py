"""Property test: a netlist's memoized views follow every mutation.

Random netlists take random sequences of ``add``, ``set_fanins``,
``replace_gate`` and ``copy``.  After each step, every memoized view
(``state_elements``, ``inputs``, ``registers``, ``latches`` and the
whole-netlist ``topological_order``) must equal a from-scratch
computation; a copy's mutations must leave the original's views alone;
and mutating a returned list must not change the next answer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netlist import Gate, GateType, Netlist, topological_order

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])

_ARITY = {GateType.BUF: 1, GateType.NOT: 1, GateType.MUX: 3,
          GateType.REGISTER: 2, GateType.LATCH: 2}
_TYPES = [GateType.INPUT, GateType.REGISTER, GateType.LATCH,
          GateType.BUF, GateType.NOT, GateType.AND, GateType.OR,
          GateType.XOR, GateType.MUX]
_STATE = (GateType.REGISTER, GateType.LATCH)


def views(net):
    return {"state_elements": net.state_elements, "inputs": net.inputs,
            "registers": net.registers, "latches": net.latches,
            "topological_order": topological_order(net)}


def from_scratch(net):
    """The same views without any memo: a scan of the gates, and a sort
    from explicit roots (which :func:`topological_order` never
    memoizes)."""
    gates = list(net.gates())
    return {"state_elements": [v for v, g in gates if g.type in _STATE],
            "inputs": [v for v, g in gates if g.type is GateType.INPUT],
            "registers": [v for v, g in gates
                          if g.type is GateType.REGISTER],
            "latches": [v for v, g in gates if g.type is GateType.LATCH],
            "topological_order": topological_order(net, list(net))}


def draw_gate(data, net, rank, vid, gtype=None):
    """A gate for vertex ``vid``.  Its combinational fanins all rank
    below ``vid`` (``rank`` is a random order fixed at creation, so the
    topological order is not the id order), and no mutation can close
    a combinational cycle; the sequential edges of registers and
    latches may point anywhere."""
    if gtype is None:
        gtype = data.draw(st.sampled_from(_TYPES))
    if gtype is GateType.INPUT:
        return Gate(gtype)
    pool = list(net) if gtype in _STATE \
        else [v for v in net if rank[v] < rank[vid]]
    if not pool:
        return Gate(GateType.INPUT)
    arity = _ARITY.get(gtype) or data.draw(st.integers(1, 3))
    fanins = tuple(data.draw(st.sampled_from(pool)) for _ in range(arity))
    return Gate(gtype, fanins)


def add(data, net, rank):
    vid = len(net)
    rank[vid] = data.draw(st.integers(0, 100))
    assert net.add(draw_gate(data, net, rank, vid)) == vid


def check(net, originals):
    expected = from_scratch(net)
    got = views(net)
    assert got == expected
    for value in got.values():
        # A caller scribbling on an answer must not reach the memo.
        value.append(-1)
        value.reverse()
    assert views(net) == expected
    for original, snapshot in originals:
        assert views(original) == snapshot


@SETTINGS
@given(st.data())
def test_views_follow_every_mutation(data):
    net = Netlist("views")
    rank = {}
    for _ in range(data.draw(st.integers(1, 6))):
        add(data, net, rank)
    originals = []
    check(net, originals)
    steps = data.draw(st.lists(
        st.sampled_from(["add", "set_fanins", "replace_gate", "copy"]),
        min_size=1, max_size=20))
    for step in steps:
        vid = data.draw(st.sampled_from(list(net)))
        if step == "add":
            add(data, net, rank)
        elif step == "set_fanins":
            gate = draw_gate(data, net, rank, vid, net.gate(vid).type)
            if gate.type is net.gate(vid).type:
                net.set_fanins(vid, gate.fanins)
        elif step == "replace_gate":
            net.replace_gate(vid, draw_gate(data, net, rank, vid))
        else:
            # Mutations from here on go to the copy; the original keeps
            # the views it had.
            originals.append((net, from_scratch(net)))
            net = net.copy()
        check(net, originals)
