"""And-inverter graphs (AIGs) with complemented edges.

The COM engine the paper uses ([27], "Circuit-based Boolean
reasoning") operates on a two-input AND / inverter representation with
structural hashing and local two-level rewriting.  This module provides
that representation: an :class:`AIG` holds AND nodes, latches
(registers) and inputs; *literals* carry the inversion bit
(``2*node + complement``), so inverters are free and structurally
hashed away.  Conversions to and from the general gate netlist are
provided — the AIG is also the natural form for AIGER I/O
(:mod:`repro.netlist.aiger`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .netlist import Netlist
from .types import GateType, NetlistError

#: The constant-false literal (node 0 uncomplemented).
FALSE = 0
#: The constant-true literal (node 0 complemented).
TRUE = 1


def aig_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1

def aig_node(lit: int) -> int:
    """Node index of a literal."""
    return lit >> 1


def aig_complemented(lit: int) -> bool:
    """True iff the literal carries an inversion."""
    return bool(lit & 1)


class AIG:
    """An and-inverter graph with hash-consed AND nodes.

    Node 0 is the constant false; nodes are densely numbered.  Each
    node is one of ``const``, ``input``, ``latch`` or ``and``.  Latches
    carry a ``next`` literal and a binary initial value (AIGER
    semantics: initial values are constants; nondeterministic initial
    values must be modeled by the caller with an input feeding a mux,
    as AIGER does).
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        # Parallel arrays describing nodes; index 0 is the constant.
        self._kind: List[str] = ["const"]
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._init: List[int] = [0]
        self._strash: Dict[Tuple[int, int], int] = {}
        self.inputs: List[int] = []
        self.latches: List[int] = []
        self.outputs: List[int] = []  # literals
        #: AIGER 1.9 bad-state properties (literals); when non-empty
        #: they — not the outputs — define the verification targets.
        self.bad: List[int] = []
        self.names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: Optional[str] = None) -> int:
        """Add a primary input; returns its (positive) literal."""
        node = self._new_node("input")
        self.inputs.append(node)
        if name:
            self.names[node] = name
        return node << 1

    def add_latch(self, init: int = 0, name: Optional[str] = None) -> int:
        """Add a latch (register) with constant ``init``; returns its
        literal.  Wire its next-state with :meth:`set_next`."""
        if init not in (0, 1):
            raise NetlistError("AIG latch initial values are binary")
        node = self._new_node("latch")
        self._init[node] = init
        self.latches.append(node)
        if name:
            self.names[node] = name
        return node << 1

    def set_next(self, latch_lit: int, next_lit: int) -> None:
        """Set the next-state literal of a latch."""
        node = aig_node(latch_lit)
        if self._kind[node] != "latch":
            raise NetlistError(f"node {node} is not a latch")
        self._check_lit(next_lit)
        self._fanin0[node] = next_lit

    def add_and(self, a: int, b: int) -> int:
        """The literal of ``a AND b`` (hash-consed, locally simplified)."""
        self._check_lit(a)
        self._check_lit(b)
        if a > b:
            a, b = b, a
        if a == FALSE or b == FALSE or a == aig_not(b):
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a if a != TRUE else b
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = self._new_node("and")
            self._fanin0[node] = a
            self._fanin1[node] = b
            self._strash[key] = node
        return node << 1

    def add_or(self, a: int, b: int) -> int:
        """The literal of ``a OR b`` (De Morgan over AND)."""
        return aig_not(self.add_and(aig_not(a), aig_not(b)))

    def add_xor(self, a: int, b: int) -> int:
        """The literal of ``a XOR b`` (three ANDs)."""
        return self.add_or(self.add_and(a, aig_not(b)),
                           self.add_and(aig_not(a), b))

    def add_mux(self, sel: int, then: int, else_: int) -> int:
        """The literal of ``sel ? then : else_``."""
        return self.add_or(self.add_and(sel, then),
                           self.add_and(aig_not(sel), else_))

    def add_output(self, lit: int, name: Optional[str] = None) -> None:
        """Register ``lit`` as a primary output."""
        self._check_lit(lit)
        self.outputs.append(lit)
        if name:
            self.names.setdefault(aig_node(lit), name)

    def add_bad(self, lit: int, name: Optional[str] = None) -> None:
        """Register ``lit`` as an AIGER 1.9 bad-state property."""
        self._check_lit(lit)
        self.bad.append(lit)
        if name:
            self.names.setdefault(aig_node(lit), name)

    def _new_node(self, kind: str) -> int:
        node = len(self._kind)
        self._kind.append(kind)
        self._fanin0.append(0)
        self._fanin1.append(0)
        self._init.append(0)
        return node

    def _check_lit(self, lit: int) -> None:
        if not 0 <= aig_node(lit) < len(self._kind):
            raise NetlistError(f"literal {lit} references unknown node")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._kind)

    def kind(self, node: int) -> str:
        """The node's kind: const/input/latch/and."""
        return self._kind[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        """The two fanin literals of an AND node."""
        if self._kind[node] != "and":
            raise NetlistError(f"node {node} is not an AND")
        return self._fanin0[node], self._fanin1[node]

    def next_of(self, node: int) -> int:
        """The next-state literal of a latch node."""
        if self._kind[node] != "latch":
            raise NetlistError(f"node {node} is not a latch")
        return self._fanin0[node]

    def init_of(self, node: int) -> int:
        """The binary initial value of a latch node."""
        return self._init[node]

    def num_ands(self) -> int:
        """Number of AND nodes."""
        return sum(1 for k in self._kind if k == "and")

    def evaluate(self, inputs: Dict[int, int],
                 state: Optional[Dict[int, int]] = None
                 ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Evaluate one cycle: returns (node values, next state).

        ``inputs`` maps input nodes to 0/1; ``state`` maps latch nodes
        to 0/1 (default: initial values).
        """
        if state is None:
            state = {n: self._init[n] for n in self.latches}
        values: Dict[int, int] = {0: 0}
        for node in range(1, len(self._kind)):
            kind = self._kind[node]
            if kind == "input":
                values[node] = inputs.get(node, 0) & 1
            elif kind == "latch":
                values[node] = state.get(node, self._init[node]) & 1
            else:
                a, b = self._fanin0[node], self._fanin1[node]
                va = values[aig_node(a)] ^ (a & 1)
                vb = values[aig_node(b)] ^ (b & 1)
                values[node] = va & vb
        nxt = {}
        for node in self.latches:
            lit = self._fanin0[node]
            nxt[node] = values[aig_node(lit)] ^ (lit & 1)
        return values, nxt

    def lit_value(self, values: Dict[int, int], lit: int) -> int:
        """Resolve a literal against a node-value map."""
        return values[aig_node(lit)] ^ (lit & 1)


# ----------------------------------------------------------------------
# Conversions
# ----------------------------------------------------------------------
def netlist_to_aig(net: Netlist) -> Tuple[AIG, Dict[int, int]]:
    """Convert a gate netlist to an AIG.

    Returns ``(aig, literal_of_vertex)``.  Latch-free except for
    registers; level-sensitive latches are rejected (phase-abstract
    first).  Nondeterministic register initial values are modeled the
    AIGER way: the register initializes to 0 and a fresh input muxed at
    time 0 — here approximated by rejecting non-constant init cones
    that cannot be evaluated to a constant.

    Targets become AIGER 1.9 bad-state properties unless they are
    exactly the outputs; that case keeps the pre-1.9 form, in which
    :func:`aig_to_netlist` reads the outputs as the targets.
    """
    from .traversal import topological_order
    from ..sim.ternary import X, ternary_initial_state

    if net.latches:
        raise NetlistError("convert latches via phase abstraction first")
    aig = AIG(net.name)
    lit_of: Dict[int, int] = {}
    init_state = ternary_initial_state(net)
    # Registers first (feedback).
    for vid in net.registers:
        init = init_state.get(vid, X)
        if init is X:
            raise NetlistError(
                f"register {vid} has a nondeterministic initial value; "
                f"AIG conversion requires constant initial values")
        lit_of[vid] = aig.add_latch(init, net.gate(vid).name)
    for vid in topological_order(net):
        gate = net.gate(vid)
        if vid in lit_of:
            continue
        t = gate.type
        if t is GateType.CONST0:
            lit_of[vid] = FALSE
        elif t is GateType.INPUT:
            lit_of[vid] = aig.add_input(gate.name)
        elif t is GateType.BUF:
            lit_of[vid] = lit_of[gate.fanins[0]]
        elif t is GateType.NOT:
            lit_of[vid] = aig_not(lit_of[gate.fanins[0]])
        elif t in (GateType.AND, GateType.NAND):
            out = TRUE
            for f in gate.fanins:
                out = aig.add_and(out, lit_of[f])
            lit_of[vid] = aig_not(out) if t is GateType.NAND else out
        elif t in (GateType.OR, GateType.NOR):
            out = FALSE
            for f in gate.fanins:
                out = aig.add_or(out, lit_of[f])
            lit_of[vid] = aig_not(out) if t is GateType.NOR else out
        elif t in (GateType.XOR, GateType.XNOR):
            out = FALSE
            for f in gate.fanins:
                out = aig.add_xor(out, lit_of[f])
            lit_of[vid] = aig_not(out) if t is GateType.XNOR else out
        elif t is GateType.MUX:
            s, a, b = (lit_of[f] for f in gate.fanins)
            lit_of[vid] = aig.add_mux(s, a, b)
        else:  # pragma: no cover
            raise NetlistError(f"cannot convert gate type {t}")
    for vid in net.registers:
        aig.set_next(lit_of[vid], lit_of[net.gate(vid).fanins[0]])
    for out in net.outputs:
        aig.add_output(lit_of[out], net.gate(out).name)
    if net.targets != net.outputs:
        for target in net.targets:
            aig.add_bad(lit_of[target], net.gate(target).name)
    return aig, lit_of


def aig_to_netlist(aig: AIG) -> Tuple[Netlist, Dict[int, int]]:
    """Convert an AIG back to a gate netlist.

    Returns ``(netlist, vertex_of_node)``.  When the AIG carries
    AIGER 1.9 bad-state properties, those become the verification
    targets and the outputs stay plain outputs; otherwise the outputs
    double as targets (the Section 4 convention for pre-1.9 files,
    where the property is the output).
    """
    net = Netlist(aig.name)
    const0 = net.const0()
    const1 = net.add_gate(GateType.NOT, (const0,))
    vertex_of: Dict[int, int] = {0: const0}
    not_cache: Dict[int, int] = {const0: const1, const1: const0}

    def lit_vertex(lit: int) -> int:
        base = vertex_of[aig_node(lit)]
        if not aig_complemented(lit):
            return base
        if base not in not_cache:
            not_cache[base] = net.add_gate(GateType.NOT, (base,))
        return not_cache[base]

    for node in range(1, len(aig)):
        kind = aig.kind(node)
        if kind == "input":
            vertex_of[node] = net.add_gate(GateType.INPUT, (),
                                           aig.names.get(node))
        elif kind == "latch":
            init = const1 if aig.init_of(node) else const0
            vertex_of[node] = net.add_gate(
                GateType.REGISTER, (const0, init), aig.names.get(node))
        else:
            a, b = aig.fanins(node)
            vertex_of[node] = net.add_gate(
                GateType.AND, (lit_vertex(a), lit_vertex(b)))
    for node in aig.latches:
        gate = net.gate(vertex_of[node])
        net.set_fanins(vertex_of[node],
                       (lit_vertex(aig.next_of(node)), gate.fanins[1]))
    for lit in aig.outputs:
        vid = lit_vertex(lit)
        net.add_output(vid)
        if not aig.bad:
            net.add_target(vid)
    for lit in aig.bad:
        net.add_target(lit_vertex(lit))
    return net, vertex_of
