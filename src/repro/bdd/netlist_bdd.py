"""Symbolic (BDD) views of netlists.

:class:`SymbolicNetlist` assigns BDD variables to the state elements and
primary inputs of a netlist, builds cone functions, and provides the
preimage operator that powers target enlargement (Section 3.4).

Variable ordering: state element ``i`` gets current-state level ``2*i``
and next-state level ``2*i + 1`` (interleaved, so current/next renaming
is order-preserving); primary inputs follow after all state variables.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..netlist import GateType, Netlist, topological_order
from .bdd import BDD, BDDNode


class SymbolicNetlist:
    """BDD manager bound to a netlist's state and input variables.

    The netlist must not change while the view lives: the variable
    maps and the memoized next-state functions describe it as built.
    """

    def __init__(self, net: Netlist, manager: Optional[BDD] = None) -> None:
        self.net = net
        self.bdd = manager or BDD()
        self.state_vars: Dict[int, int] = {}
        self.next_vars: Dict[int, int] = {}
        self.input_vars: Dict[int, int] = {}
        for i, vid in enumerate(net.state_elements):
            self.state_vars[vid] = 2 * i
            self.next_vars[vid] = 2 * i + 1
        base = 2 * len(self.state_vars)
        for j, vid in enumerate(net.inputs):
            self.input_vars[vid] = base + j
        # Next-state functions by state element, built on first use.
        self._next_fns: Dict[int, BDDNode] = {}

    # ------------------------------------------------------------------
    def cone(self, root: int,
             leaves: Optional[Dict[int, BDDNode]] = None) -> BDDNode:
        """BDD of ``root``'s combinational function.

        State elements map to their current-state variables and primary
        inputs to input variables unless overridden via ``leaves``.
        """
        bdd = self.bdd
        values: Dict[int, BDDNode] = dict(leaves or {})
        for vid in topological_order(self.net, [root]):
            if vid in values:
                continue
            gate = self.net.gate(vid)
            t = gate.type
            if gate.is_state:
                values[vid] = bdd.var(self.state_vars[vid])
                continue
            if t is GateType.INPUT:
                values[vid] = bdd.var(self.input_vars[vid])
                continue
            if t is GateType.CONST0:
                values[vid] = bdd.zero
                continue
            f = [values[x] for x in gate.fanins]
            if t is GateType.BUF:
                values[vid] = f[0]
            elif t is GateType.NOT:
                values[vid] = bdd.not_(f[0])
            elif t is GateType.AND:
                values[vid] = bdd.and_(*f)
            elif t is GateType.NAND:
                values[vid] = bdd.not_(bdd.and_(*f))
            elif t is GateType.OR:
                values[vid] = bdd.or_(*f)
            elif t is GateType.NOR:
                values[vid] = bdd.not_(bdd.or_(*f))
            elif t is GateType.XOR:
                out = f[0]
                for g in f[1:]:
                    out = bdd.xor(out, g)
                values[vid] = out
            elif t is GateType.XNOR:
                out = f[0]
                for g in f[1:]:
                    out = bdd.xor(out, g)
                values[vid] = bdd.not_(out)
            elif t is GateType.MUX:
                values[vid] = bdd.ite(f[0], f[1], f[2])
            else:  # pragma: no cover
                raise ValueError(f"cannot build BDD for gate type {t}")
        return values[root]

    def next_state_function(self, state_vid: int) -> BDDNode:
        """BDD of a state element's next-state function.

        For a register this is the cone of its ``next`` edge; for a
        latch (registered hold semantics) it is
        ``clock ? data : current``.  Built once per state element and
        memoized: the netlist must not change while this view of it
        lives (every image step of a reachability run asks again).
        """
        node = self._next_fns.get(state_vid)
        if node is None:
            gate = self.net.gate(state_vid)
            if gate.type is GateType.REGISTER:
                node = self.cone(gate.fanins[0])
            else:
                data, clock = gate.fanins
                node = self.bdd.ite(
                    self.cone(clock), self.cone(data),
                    self.bdd.var(self.state_vars[state_vid]))
            self._next_fns[state_vid] = node
        return node

    def initial_states(self) -> BDDNode:
        """Characteristic function of the initial state set ``Z``.

        Nondeterministic initial values (input-driven init edges) leave
        the corresponding state bits unconstrained.
        """
        bdd = self.bdd
        out = bdd.one
        for vid in self.net.state_elements:
            gate = self.net.gate(vid)
            svar = bdd.var(self.state_vars[vid])
            if gate.type is GateType.REGISTER:
                init = self.cone(gate.fanins[1])
                out = bdd.and_(out, bdd.equiv(svar, init))
            else:
                out = bdd.and_(out, bdd.not_(svar))
        return out

    # ------------------------------------------------------------------
    def preimage(self, states: BDDNode,
                 scope: Optional[Sequence[int]] = None) -> BDDNode:
        """States with some input transitioning into ``states``.

        ``pre(S) = exists i . S[ s_r := f_r(s, i) ]`` computed by
        renaming ``S`` to next-state variables and vector-composing the
        next-state functions.  ``scope`` restricts which state elements
        are substituted (default: the support of ``states``).
        """
        bdd = self.bdd
        if scope is None:
            support = set(bdd.support(states))
            scope = [vid for vid, lvl in self.state_vars.items()
                     if lvl in support]
        rename = {self.state_vars[vid]: self.next_vars[vid]
                  for vid in scope}
        shifted = bdd.rename(states, rename)
        for vid in scope:
            shifted = bdd.compose(
                shifted, self.next_vars[vid], self.next_state_function(vid))
        input_levels = list(self.input_vars.values())
        return bdd.exists(input_levels, shifted)

    def states_satisfying(self, root: int) -> BDDNode:
        """States for which ``root`` may evaluate to 1 for some input."""
        f = self.cone(root)
        return self.bdd.exists(list(self.input_vars.values()), f)
