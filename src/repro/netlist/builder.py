"""Fluent construction API for netlists.

:class:`NetlistBuilder` wraps a :class:`~repro.netlist.netlist.Netlist`
with convenience constructors.  Boolean helpers perform light local
simplification (constant folding, unit laws, idempotence) so generated
workloads do not carry trivially redundant structure — the heavier
lifting is the COM engine's job (:mod:`repro.transform.redundancy`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .netlist import Netlist
from .types import GateType


class NetlistBuilder:
    """Builds gates on an underlying netlist with local simplification."""

    def __init__(self, name: str = "netlist") -> None:
        self.net = Netlist(name)
        self._const0 = self.net.const0()
        self._const1 = self.net.add_gate(
            GateType.NOT, (self._const0,), name="__const1"
        )

    # ------------------------------------------------------------------
    # Sources and state
    # ------------------------------------------------------------------
    @property
    def const0(self) -> int:
        """The constant-0 vertex."""
        return self._const0

    @property
    def const1(self) -> int:
        """The constant-1 vertex (NOT of constant 0)."""
        return self._const1

    def const(self, value: int) -> int:
        """Constant vertex for a 0/1 ``value``."""
        return self._const1 if value else self._const0

    def input(self, name: Optional[str] = None) -> int:
        """A fresh primary input (nondeterministic bit)."""
        return self.net.add_gate(GateType.INPUT, (), name)

    def register(
        self,
        next_vid: Optional[int] = None,
        init: Optional[int] = None,
        name: Optional[str] = None,
    ) -> int:
        """A register with next-state ``next_vid`` and initial value ``init``.

        ``init`` defaults to constant 0.  Pass ``next_vid=None`` to
        create a placeholder whose next-state is wired up later with
        :meth:`connect` (required for feedback loops).
        """
        if init is None:
            init = self._const0
        placeholder = next_vid if next_vid is not None else self._const0
        return self.net.add_gate(GateType.REGISTER, (placeholder, init), name)

    def connect(self, reg: int, next_vid: int) -> None:
        """Wire the next-state edge of a placeholder register."""
        gate = self.net.gate(reg)
        self.net.set_fanins(reg, (next_vid, gate.fanins[1]))

    def latch(self, data: int, clock: int, name: Optional[str] = None) -> int:
        """A level-sensitive latch, transparent while ``clock`` is 1."""
        return self.net.add_gate(GateType.LATCH, (data, clock), name)

    # ------------------------------------------------------------------
    # Combinational gates (with local simplification)
    # ------------------------------------------------------------------
    def not_(self, a: int) -> int:
        """Negation (double negations collapse)."""
        if a == self._const0:
            return self._const1
        if a == self._const1:
            return self._const0
        gate = self.net.gate(a)
        if gate.type is GateType.NOT:
            return gate.fanins[0]
        return self.net.add_gate(GateType.NOT, (a,))

    def buf(self, a: int, name: Optional[str] = None) -> int:
        """An explicit buffer (used to give internal signals names)."""
        return self.net.add_gate(GateType.BUF, (a,), name)

    def and_(self, *fanins: int) -> int:
        """Conjunction with unit/absorbing simplification."""
        fanins = self._flatten(fanins)
        if self._const0 in fanins:
            return self._const0
        fanins = tuple(f for f in fanins if f != self._const1)
        fanins = tuple(dict.fromkeys(fanins))
        if not fanins:
            return self._const1
        if len(fanins) == 1:
            return fanins[0]
        return self.net.add_gate(GateType.AND, fanins)

    def or_(self, *fanins: int) -> int:
        """Disjunction with unit/absorbing simplification."""
        fanins = self._flatten(fanins)
        if self._const1 in fanins:
            return self._const1
        fanins = tuple(f for f in fanins if f != self._const0)
        fanins = tuple(dict.fromkeys(fanins))
        if not fanins:
            return self._const0
        if len(fanins) == 1:
            return fanins[0]
        return self.net.add_gate(GateType.OR, fanins)

    def nand(self, *fanins: int) -> int:
        """Negated conjunction."""
        return self.not_(self.and_(*fanins))

    def nor(self, *fanins: int) -> int:
        """Negated disjunction."""
        return self.not_(self.or_(*fanins))

    def xor(self, a: int, b: int) -> int:
        """Exclusive or with constant folding."""
        if a == b:
            return self._const0
        if a == self._const0:
            return b
        if b == self._const0:
            return a
        if a == self._const1:
            return self.not_(b)
        if b == self._const1:
            return self.not_(a)
        return self.net.add_gate(GateType.XOR, (a, b))

    def xnor(self, a: int, b: int) -> int:
        """Negated exclusive or."""
        return self.not_(self.xor(a, b))

    def mux(self, sel: int, then: int, else_: int) -> int:
        """``sel ? then : else_``."""
        if sel == self._const1:
            return then
        if sel == self._const0:
            return else_
        if then == else_:
            return then
        return self.net.add_gate(GateType.MUX, (sel, then, else_))

    def implies(self, a: int, b: int) -> int:
        """``a -> b``."""
        return self.or_(self.not_(a), b)

    def _flatten(self, fanins: Sequence[int]) -> tuple:
        out: List[int] = []
        for f in fanins:
            if isinstance(f, (list, tuple)):
                out.extend(f)
            else:
                out.append(f)
        return tuple(out)

    # ------------------------------------------------------------------
    # Word-level helpers
    # ------------------------------------------------------------------
    def inputs(self, width: int, prefix: str = "i") -> List[int]:
        """A word of fresh primary inputs, LSB first."""
        return [self.input(f"{prefix}{k}") for k in range(width)]

    def registers(
        self,
        width: int,
        prefix: str = "r",
        init: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """A word of placeholder registers, LSB first."""
        out = []
        for k in range(width):
            ini = None if init is None else init[k]
            out.append(self.register(None, ini, name=f"{prefix}{k}"))
        return out

    def connect_word(self, regs: Sequence[int], nexts: Sequence[int]) -> None:
        """Wire next-state edges for a word of placeholder registers."""
        for reg, nxt in zip(regs, nexts):
            self.connect(reg, nxt)

    def word_eq(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Bitwise equality of two equal-width words."""
        return self.and_(*[self.xnor(x, y) for x, y in zip(a, b)])

    def word_const(self, value: int, width: int) -> List[int]:
        """Constant word for ``value`` (LSB first)."""
        return [self.const((value >> k) & 1) for k in range(width)]

    def word_mux(
        self, sel: int, then: Sequence[int], else_: Sequence[int]
    ) -> List[int]:
        """Per-bit mux over two words."""
        return [self.mux(sel, t, e) for t, e in zip(then, else_)]

    def increment(self, word: Sequence[int]) -> List[int]:
        """``word + 1`` (same width, wrapping)."""
        out: List[int] = []
        carry = self.const1
        for bit in word:
            out.append(self.xor(bit, carry))
            carry = self.and_(bit, carry)
        return out

    def adder(
        self, a: Sequence[int], b: Sequence[int], carry_in: Optional[int] = None
    ) -> List[int]:
        """Ripple-carry adder, returns sum word (wrapping, LSB first)."""
        carry = carry_in if carry_in is not None else self.const0
        out: List[int] = []
        for x, y in zip(a, b):
            out.append(self.xor(self.xor(x, y), carry))
            carry = self.or_(self.and_(x, y), self.and_(carry, self.xor(x, y)))
        return out

    def onehot_decode(self, word: Sequence[int]) -> List[int]:
        """Decode a binary word into ``2**len(word)`` one-hot lines."""
        lines = [self.const1]
        for bit in word:
            lines = [self.and_(line, self.not_(bit)) for line in lines] + [
                self.and_(line, bit) for line in lines
            ]
        return lines
