"""Core vertex/gate types for the netlist model (Definition 1 of the paper).

A netlist is a directed graph whose vertices are typed gates.  The gate
types here follow Definition 1: constants, primary inputs
(nondeterministic bits), registers, level-sensitive latches (needed for
phase abstraction, Section 3.3), and combinational gates with various
functions.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

# Gates are by far the highest-population objects in the process (one
# per vertex per netlist, duplicated across transform pipelines), so
# they carry __slots__ where the dataclass machinery supports it
# (slots=True needs 3.10; on 3.9 they quietly stay dict-backed).
_DATACLASS_KW = {"slots": True} if sys.version_info >= (3, 10) else {}


class NetlistError(Exception):
    """Raised for structural violations (bad fanin counts, cycles, ...)."""


class GateType(enum.Enum):
    """Semantic gate types, mapping ``G: V -> types`` of Definition 1."""

    CONST0 = "const0"
    INPUT = "input"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"  # fanins (sel, then, else): sel ? then : else
    REGISTER = "register"  # fanins (next, init)
    LATCH = "latch"  # fanins (data, clock); transparent while clock == 1

    # Members are singletons compared by identity, so the C-level
    # identity hash is consistent with equality.  ``Enum.__hash__`` is
    # a Python function, and every type test against the frozensets
    # below (``Gate.is_state`` alone, hundreds of thousands of times a
    # table) would call it.  No output depends on the hash: these sets
    # and dicts are only probed, never iterated into a result.
    __hash__ = object.__hash__


# Number of fanins each gate type requires; ``None`` means "one or more".
_ARITY = {
    GateType.CONST0: 0,
    GateType.INPUT: 0,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.AND: None,
    GateType.OR: None,
    GateType.NAND: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.MUX: 3,
    GateType.REGISTER: 2,
    GateType.LATCH: 2,
}

#: Gate types holding sequential state.
STATE_TYPES = frozenset({GateType.REGISTER, GateType.LATCH})

#: Purely combinational gate types (excludes sources and state).
COMBINATIONAL_TYPES = frozenset(
    {
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.OR,
        GateType.NAND,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.MUX,
    }
)

#: Gate types with no fanins.
SOURCE_TYPES = frozenset({GateType.CONST0, GateType.INPUT})

#: Gate types whose function does not depend on the order of their
#: fanins (structural hashing sorts them).
COMMUTATIVE_TYPES = frozenset(
    {GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
     GateType.XOR, GateType.XNOR}
)


@dataclass(frozen=True, **_DATACLASS_KW)
class Gate:
    """A single netlist vertex: its type, ordered fanins, optional name.

    ``fanins`` are vertex ids of the owning :class:`~repro.netlist.netlist.
    Netlist`.  For a ``REGISTER`` the fanins are ``(next, init)`` — the
    next-state function and the initial-value driver (which may itself be
    a primary input, giving a nondeterministic initial state as used in
    the paper's ``r1``/``r2`` example after Definition 3).  For a
    ``LATCH`` the fanins are ``(data, clock)``.
    """

    type: GateType
    fanins: Tuple[int, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        arity = _ARITY[self.type]
        if arity is None:
            if len(self.fanins) < 1:
                raise NetlistError(
                    f"{self.type.value} gate requires at least one fanin"
                )
        elif len(self.fanins) != arity:
            raise NetlistError(
                f"{self.type.value} gate requires {arity} fanins, "
                f"got {len(self.fanins)}"
            )

    @property
    def is_state(self) -> bool:
        """True for registers and latches."""
        return self.type in STATE_TYPES

    @property
    def is_combinational(self) -> bool:
        """True for gates computing a combinational function of fanins."""
        return self.type in COMBINATIONAL_TYPES

    @property
    def is_source(self) -> bool:
        """True for fanin-free gates (constants and primary inputs)."""
        return self.type in SOURCE_TYPES

    def with_fanins(self, fanins: Tuple[int, ...]) -> "Gate":
        """Return a copy of this gate with different fanins."""
        return Gate(self.type, tuple(fanins), self.name)
