"""Tseitin encoding of netlist logic into CNF.

:class:`CnfSink` feeds clauses to an incremental
:class:`~repro.sat.solver.Solver` and pins a shared true literal, and
:func:`encode_frame` encodes one combinational time-frame of a netlist
given literals for its leaves (inputs and state elements).  The
unroller (:mod:`repro.unroll`) chains frames; the COM engine encodes
single frames for SAT sweeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from ..netlist import GateType, Netlist, topological_order
from .cnf import lit_not, pos
from .solver import Solver


class CnfSink:
    """Clause sink over a Solver, with a lazily pinned true literal."""

    def __init__(self, backend: Solver) -> None:
        self.backend = backend
        self._true_lit: Optional[int] = None

    def new_var(self) -> int:
        """Allocate a variable in the backend."""
        return self.backend.new_var()

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause to the backend."""
        self.backend.add_clause(lits)

    @property
    def true_lit(self) -> int:
        """A literal constrained to be true (allocated lazily)."""
        if self._true_lit is None:
            var = self.new_var()
            self._true_lit = pos(var)
            self.add_clause([self._true_lit])
        return self._true_lit

    @property
    def false_lit(self) -> int:
        """A literal constrained to be false."""
        return lit_not(self.true_lit)


def encode_and(sink: CnfSink, out: int, fanins: Sequence[int]) -> None:
    """Clauses for ``out <-> AND(fanins)``."""
    for f in fanins:
        sink.add_clause([lit_not(out), f])
    sink.add_clause([out] + [lit_not(f) for f in fanins])


def encode_or(sink: CnfSink, out: int, fanins: Sequence[int]) -> None:
    """Clauses for ``out <-> OR(fanins)``."""
    for f in fanins:
        sink.add_clause([out, lit_not(f)])
    sink.add_clause([lit_not(out)] + list(fanins))


def encode_xor2(sink: CnfSink, out: int, a: int, b: int) -> None:
    """Clauses for ``out <-> a XOR b``."""
    sink.add_clause([lit_not(out), a, b])
    sink.add_clause([lit_not(out), lit_not(a), lit_not(b)])
    sink.add_clause([out, lit_not(a), b])
    sink.add_clause([out, a, lit_not(b)])


def encode_mux(sink: CnfSink, out: int, sel: int, then: int,
               else_: int) -> None:
    """Clauses for ``out <-> (sel ? then : else_)``."""
    sink.add_clause([lit_not(sel), lit_not(then), out])
    sink.add_clause([lit_not(sel), then, lit_not(out)])
    sink.add_clause([sel, lit_not(else_), out])
    sink.add_clause([sel, else_, lit_not(out)])


def encode_equiv(sink: CnfSink, a: int, b: int) -> None:
    """Clauses for ``a <-> b``."""
    sink.add_clause([lit_not(a), b])
    sink.add_clause([a, lit_not(b)])


def encode_frame(
    net: Netlist,
    sink: CnfSink,
    leaves: Dict[int, int],
    roots: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Encode one combinational frame of ``net``.

    ``leaves`` maps every primary input and state element (that the
    frame may reach) to a literal; missing leaves are allocated fresh
    variables.  Returns the vertex-to-literal map for all encoded
    vertices.  Constant-0 maps to a dedicated false literal.
    """
    lits: Dict[int, int] = dict(leaves)
    order = topological_order(net, roots)
    for vid in order:
        if vid in lits:
            continue
        gate = net.gate(vid)
        t = gate.type
        if t is GateType.INPUT or gate.is_state:
            lits[vid] = pos(sink.new_var())
            continue
        if t is GateType.CONST0:
            lits[vid] = sink.false_lit
            continue
        f = [lits[x] for x in gate.fanins]
        if t is GateType.BUF:
            lits[vid] = f[0]
            continue
        if t is GateType.NOT:
            lits[vid] = lit_not(f[0])
            continue
        out = pos(sink.new_var())
        if t is GateType.AND:
            encode_and(sink, out, f)
        elif t is GateType.NAND:
            encode_and(sink, lit_not(out), f)
        elif t is GateType.OR:
            encode_or(sink, out, f)
        elif t is GateType.NOR:
            encode_or(sink, lit_not(out), f)
        elif t in (GateType.XOR, GateType.XNOR):
            acc = f[0]
            for b in f[1:-1]:
                mid = pos(sink.new_var())
                encode_xor2(sink, mid, acc, b)
                acc = mid
            final = out if t is GateType.XOR else lit_not(out)
            if len(f) == 1:
                encode_equiv(sink, final, acc)
            else:
                encode_xor2(sink, final, acc, f[-1])
        elif t is GateType.MUX:
            encode_mux(sink, out, f[0], f[1], f[2])
        else:  # pragma: no cover - exhaustive over combinational types
            raise ValueError(f"cannot encode gate type {t}")
        lits[vid] = out
    return lits


def encode_init_state(
    net: Netlist, sink: CnfSink, state_lits: Dict[int, int]
) -> Dict[int, int]:
    """Constrain ``state_lits`` to the initial states ``Z``.

    Register initial-value cones are encoded combinationally (they may
    contain primary inputs — nondeterministic initial values); latches
    are constrained to 0.  Returns the literal map of the init cone.
    """
    init_roots = []
    reg_inits = {}
    for vid in net.state_elements:
        gate = net.gate(vid)
        if gate.type is GateType.REGISTER:
            reg_inits[vid] = gate.fanins[1]
            init_roots.append(gate.fanins[1])
    lits = encode_frame(net, sink, {}, roots=init_roots) if init_roots else {}
    for vid, lit in state_lits.items():
        gate = net.gate(vid)
        if gate.type is GateType.REGISTER:
            encode_equiv(sink, lit, lits[reg_inits[vid]])
        else:
            sink.add_clause([lit_not(lit)])  # latches start at 0
    return lits
