"""Netlist reconstruction with hash-consing and local simplification.

:func:`rebuild` re-derives a netlist from its target/output cones while

* applying a vertex *substitution map* (the mechanism by which the COM
  redundancy-removal engine merges semantically-equivalent vertices —
  Section 3.1 of the paper),
* structurally hashing gates so isomorphic gates are shared,
* constant-folding and applying unit/idempotence laws, and
* dropping everything outside the cone of influence of the roots
  (the cone-of-influence reduction, which "preserves trace-equivalence
  of all vertices in the cone").

All transformations in :mod:`repro.transform` funnel through this
function, so their outputs are uniformly compacted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .netlist import Netlist
from .types import COMMUTATIVE_TYPES, Gate, GateType


class _Rebuilder:
    def __init__(self, src: Netlist, subst: Dict[int, int], name: str) -> None:
        self.src = src
        self.subst = subst
        self.dst = Netlist(name)
        self.new_of_old: Dict[int, int] = {}
        # Copied state elements as (old, new), in copy order: the
        # sequential edges :meth:`patch_state` wires.
        self.state_copies: List[Tuple[int, int]] = []
        self.hash_cons: Dict[Tuple, int] = {}
        self.const0 = self.dst.const0()
        self.const1 = self.dst.add_gate(GateType.NOT, (self.const0,))
        self.hash_cons[(GateType.CONST0, ())] = self.const0
        self.hash_cons[(GateType.NOT, (self.const0,))] = self.const1

    def resolve(self, vid: int) -> int:
        subst = self.subst
        if subst.get(vid, vid) == vid:
            return vid
        seen = set()
        while vid in subst and subst[vid] != vid:
            if vid in seen:
                break
            seen.add(vid)
            vid = subst[vid]
        return vid

    def map_vertex(self, old: int) -> int:
        """Translate ``old`` (a source vertex) into the new netlist."""
        new_of_old = self.new_of_old
        resolve = self.resolve
        stack = [old]
        while stack:
            vid = stack[-1]
            if vid in new_of_old:
                stack.pop()
                continue
            rep = resolve(vid)
            if rep != vid:
                if rep in new_of_old:
                    new_of_old[vid] = new_of_old[rep]
                    stack.pop()
                else:
                    stack.append(rep)
                continue
            gate = self.src.gate(vid)
            if gate.is_state:
                # Allocate the state element up front so feedback loops
                # terminate, then queue fanins; edges are patched later.
                placeholder = Gate(gate.type, (self.const0, self.const0),
                                   self._fresh_name(gate.name))
                new = new_of_old[vid] = self.dst.add(placeholder)
                self.state_copies.append((vid, new))
                stack.pop()
                continue
            reps = [resolve(f) for f in gate.fanins]
            missing = [f for f in reps if f not in new_of_old]
            if missing:
                stack.extend(missing)
                continue
            new_of_old[vid] = self._make(
                gate, tuple(new_of_old[f] for f in reps))
            stack.pop()
        return new_of_old[old]

    def _fresh_name(self, name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        try:
            self.dst.by_name(name)
        except KeyError:
            return name
        return None

    # Inverted gate types normalize to NOT of the base type.
    _INVERTED = {
        GateType.NAND: GateType.AND,
        GateType.NOR: GateType.OR,
        GateType.XNOR: GateType.XOR,
    }

    def _make(self, gate: Gate, fanins: Tuple[int, ...]) -> int:
        base = self._INVERTED.get(gate.type)
        if base is not None:
            inner = self._cons(base, fanins, gate.name)
            return self._negate(inner)
        if gate.type is GateType.INPUT:
            # Inputs are nondeterministic sources: never hash-consed.
            return self.dst.add(Gate(GateType.INPUT, (),
                                     self._fresh_name(gate.name)))
        vid = self._simplify(gate.type, fanins)
        if vid is not None:
            return vid
        key_fanins = tuple(sorted(fanins)) \
            if gate.type in COMMUTATIVE_TYPES else fanins
        key = (gate.type, key_fanins)
        if key in self.hash_cons:
            return self.hash_cons[key]
        vid = self.dst.add(Gate(gate.type, fanins,
                                self._fresh_name(gate.name)))
        self.hash_cons[key] = vid
        return vid

    # Local simplification: returns an existing vertex or None.
    def _simplify(self, gtype: GateType, fanins: Tuple[int, ...]):
        c0, c1 = self.const0, self.const1
        if gtype is GateType.BUF:
            return fanins[0]
        if gtype is GateType.NOT:
            (a,) = fanins
            if a == c0:
                return c1
            if a == c1:
                return c0
            inner = self.dst.gate(a)
            if inner.type is GateType.NOT:
                return inner.fanins[0]
            return None
        if gtype is GateType.AND:
            reduced = self._reduce(fanins, absorbing=c0, identity=c1)
            if isinstance(reduced, int):
                return reduced
            if len(reduced) == 1:
                return reduced[0]
            if len(reduced) != len(fanins):
                return self._cons(GateType.AND, tuple(reduced))
            return None
        if gtype is GateType.OR:
            reduced = self._reduce(fanins, absorbing=c1, identity=c0)
            if isinstance(reduced, int):
                return reduced
            if len(reduced) == 1:
                return reduced[0]
            if len(reduced) != len(fanins):
                return self._cons(GateType.OR, tuple(reduced))
            return None
        if gtype is GateType.XOR:
            if len(fanins) != 2:
                return None
            a, b = fanins
            if a == b:
                return c0
            if a == c0:
                return b
            if b == c0:
                return a
            if a == c1:
                return self._negate(b)
            if b == c1:
                return self._negate(a)
            return None
        if gtype is GateType.MUX:
            sel, then, else_ = fanins
            if sel == c1:
                return then
            if sel == c0:
                return else_
            if then == else_:
                return then
            if then == c1 and else_ == c0:
                return sel
            if then == c0 and else_ == c1:
                return self._negate(sel)
            return None
        return None

    def _reduce(self, fanins, absorbing, identity):
        if absorbing in fanins:
            return absorbing
        out: List[int] = []
        for f in fanins:
            if f != identity and f not in out:
                out.append(f)
        if not out:
            return identity
        return out

    def _negate(self, vid: int) -> int:
        return self._cons(GateType.NOT, (vid,))

    def _cons(self, gtype: GateType, fanins: Tuple[int, ...],
              name: Optional[str] = None) -> int:
        return self._make(Gate(gtype, fanins, name), fanins)

    def patch_state(self) -> None:
        """Second phase: wire the sequential edges of copied state gates.

        Each copied state element is wired once, in copy order.  Wiring
        one may copy more state (its next-state cone can reach state
        outside the roots' cones); the new copies join the end of
        :attr:`state_copies` and are wired in turn, so one pass reaches
        the fixpoint.
        """
        copies = self.state_copies
        i = 0
        while i < len(copies):
            old, new = copies[i]
            i += 1
            fanins = tuple(self.map_vertex(self.resolve(f))
                           for f in self.src.gate(old).fanins)
            self.dst.set_fanins(new, fanins)


def rebuild(
    net: Netlist,
    roots: Optional[Iterable[int]] = None,
    substitution: Optional[Dict[int, int]] = None,
    name: Optional[str] = None,
) -> Tuple[Netlist, Dict[int, int]]:
    """Rebuild ``net`` from ``roots``, applying ``substitution``.

    Returns ``(new_netlist, mapping)`` where ``mapping`` translates old
    vertex ids (of every vertex in the retained cone) to new ids.  The
    roots default to the union of targets and outputs; targets/outputs
    are re-registered on the new netlist in order.

    The work is linear in the retained cone: every source vertex is
    translated once, and every copied state element has its sequential
    edges wired once (:meth:`_Rebuilder.patch_state`).
    """
    if roots is None:
        roots = list(dict.fromkeys(list(net.targets) + list(net.outputs)))
    else:
        roots = list(roots)
    rb = _Rebuilder(net, substitution or {}, name or net.name)
    for root in roots:
        rb.map_vertex(root)
    rb.patch_state()
    out = rb.dst
    # Substituted vertices map to wherever their representative went.
    for old in (substitution or {}):
        rep = rb.resolve(old)
        if rep in rb.new_of_old:
            rb.new_of_old.setdefault(old, rb.new_of_old[rep])
    for t in net.targets:
        if t in rb.new_of_old:
            out.add_target(rb.new_of_old[t])
    for o in net.outputs:
        if o in rb.new_of_old:
            out.add_output(rb.new_of_old[o])
    return out, dict(rb.new_of_old)
