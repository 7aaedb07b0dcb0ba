"""The mutable netlist container (Definition 1).

A :class:`Netlist` owns a set of integer-identified :class:`~repro.
netlist.types.Gate` vertices, a distinguished constant-zero vertex, a
list of verification *targets* (``AG !t`` properties) and a list of
primary outputs (kept for benchmark-format round-trips; by convention
the experiments of Section 4 use every primary output as a target).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, \
    Optional, Tuple

from .types import Gate, GateType, NetlistError


class Netlist:
    """A gate-level netlist with registers, latches and targets.

    Views derived from the gate structure alone are computed once and
    memoized: :meth:`signature`, :attr:`state_elements`, the per-type
    vertex lists (:meth:`vertices_of_type`, :attr:`inputs`,
    :attr:`registers`, :attr:`latches`) and the whole-netlist
    :func:`~repro.netlist.traversal.topological_order`.  One rule keeps
    them fresh: every gate mutation (:meth:`add`, :meth:`set_fanins`,
    :meth:`replace_gate`) drops them all.  Targets, outputs and names
    are outside every view.  A memo holds a tuple and callers receive a
    fresh list, so no caller can corrupt it; :meth:`copy` shares the
    memos, since the copy starts with the same gates.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._gates: Dict[int, Gate] = {}
        self._next_id = 0
        self._names: Dict[str, int] = {}
        self.targets: List[int] = []
        self.outputs: List[int] = []
        # The single shared constant-0 vertex, created lazily.
        self._const0: Optional[int] = None
        # Memoized structural signature and views (see the class
        # docstring); both reset by every gate mutation (add /
        # set_fanins / replace_gate).
        self._sig: Optional[str] = None
        self._views: Dict[Hashable, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, gate: Gate) -> int:
        """Add ``gate`` and return its fresh vertex id.

        Fanins must already exist in this netlist.
        """
        for f in gate.fanins:
            if f not in self._gates:
                raise NetlistError(f"fanin {f} does not exist")
        vid = self._next_id
        self._next_id += 1
        self._gates[vid] = gate
        self._sig = None
        self._views.clear()
        if gate.name is not None:
            if gate.name in self._names:
                raise NetlistError(f"duplicate gate name {gate.name!r}")
            self._names[gate.name] = vid
        return vid

    def add_gate(
        self,
        gtype: GateType,
        fanins: Iterable[int] = (),
        name: Optional[str] = None,
    ) -> int:
        """Convenience wrapper building a :class:`Gate` and adding it."""
        return self.add(Gate(gtype, tuple(fanins), name))

    def const0(self) -> int:
        """Return the shared constant-0 vertex, creating it on first use."""
        if self._const0 is None:
            self._const0 = self.add_gate(GateType.CONST0)
        return self._const0

    def set_fanins(self, vid: int, fanins: Tuple[int, ...]) -> None:
        """Redirect the fanins of vertex ``vid`` (used by transformations)."""
        for f in fanins:
            if f not in self._gates:
                raise NetlistError(f"fanin {f} does not exist")
        self._gates[vid] = self._gates[vid].with_fanins(fanins)
        self._sig = None
        self._views.clear()

    def replace_gate(self, vid: int, gate: Gate) -> None:
        """Replace the gate at ``vid`` wholesale (type change allowed)."""
        for f in gate.fanins:
            if f not in self._gates:
                raise NetlistError(f"fanin {f} does not exist")
        old = self._gates[vid]
        if old.name is not None:
            del self._names[old.name]
        self._gates[vid] = gate
        self._sig = None
        self._views.clear()
        if gate.name is not None:
            if gate.name in self._names and self._names[gate.name] != vid:
                raise NetlistError(f"duplicate gate name {gate.name!r}")
            self._names[gate.name] = vid

    def add_target(self, vid: int) -> None:
        """Mark vertex ``vid`` as a verification target (``AG !t``)."""
        if vid not in self._gates:
            raise NetlistError(f"target {vid} does not exist")
        self.targets.append(vid)

    def add_output(self, vid: int) -> None:
        """Mark vertex ``vid`` as a primary output."""
        if vid not in self._gates:
            raise NetlistError(f"output {vid} does not exist")
        self.outputs.append(vid)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, vid: int) -> bool:
        return vid in self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[int]:
        return iter(self._gates)

    def gate(self, vid: int) -> Gate:
        """Return the gate at vertex ``vid``."""
        return self._gates[vid]

    def gates(self) -> Iterator[Tuple[int, Gate]]:
        """Iterate over ``(vid, gate)`` pairs in insertion order."""
        return iter(self._gates.items())

    def by_name(self, name: str) -> int:
        """Look a vertex up by its name."""
        return self._names[name]

    def memoized(self, key: Hashable,
                 compute: Callable[[], Tuple[int, ...]]) -> Tuple[int, ...]:
        """The view ``key`` of the gate structure, computed by
        ``compute`` on first use and kept until the next gate mutation.

        ``compute`` must depend on the gates alone (not on targets,
        outputs or names) and return a tuple.  A ``compute`` that
        raises memoizes nothing.
        """
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = compute()
        return view

    def vertices_of_type(self, gtype: GateType) -> List[int]:
        """All vertex ids with the given gate type, in insertion order."""
        return list(self._of_type(gtype))

    def _of_type(self, gtype: GateType) -> Tuple[int, ...]:
        return self.memoized(gtype, lambda: tuple(
            v for v, g in self._gates.items() if g.type is gtype))

    @property
    def inputs(self) -> List[int]:
        """All primary-input vertices."""
        return self.vertices_of_type(GateType.INPUT)

    @property
    def registers(self) -> List[int]:
        """All register vertices (``R`` in the paper)."""
        return self.vertices_of_type(GateType.REGISTER)

    @property
    def latches(self) -> List[int]:
        """All level-sensitive latch vertices."""
        return self.vertices_of_type(GateType.LATCH)

    @property
    def state_elements(self) -> List[int]:
        """Registers and latches together, in insertion order."""
        return list(self.memoized("state_elements", lambda: tuple(
            v for v, g in self._gates.items() if g.is_state)))

    def num_registers(self) -> int:
        """``|R|`` — number of registers."""
        return len(self._of_type(GateType.REGISTER))

    def fanout_map(self) -> Dict[int, List[int]]:
        """Map each vertex to the list of vertices reading it (all edges)."""
        fanouts: Dict[int, List[int]] = {v: [] for v in self._gates}
        for vid, gate in self._gates.items():
            for f in gate.fanins:
                fanouts[f].append(vid)
        return fanouts

    def signature(self) -> str:
        """Hex digest of the gate structure, memoized.

        Covers exactly what a compiled frame template
        (:mod:`repro.sat.template`) depends on: vertex ids, gate types
        and fanin tuples, in insertion order.  Targets, outputs and
        names are deliberately *excluded* — frame encoding never reads
        them, and transformations reassign them freely (``strash``
        rebuilds target lists in place), so including them would only
        defeat cache sharing.  The digest is computed once and
        invalidated by every gate mutation; :meth:`copy` shares it.
        """
        if self._sig is None:
            h = hashlib.sha256()
            update = h.update
            for vid, gate in self._gates.items():
                update(f"{vid}:{gate.type.value}:"
                       f"{','.join(map(str, gate.fanins))};".encode())
            self._sig = h.hexdigest()
        return self._sig

    def stats(self) -> Dict[str, int]:
        """Summary counts used by reports and examples."""
        counts: Dict[str, int] = {}
        for _, gate in self._gates.items():
            counts[gate.type.value] = counts.get(gate.type.value, 0) + 1
        counts["vertices"] = len(self._gates)
        counts["targets"] = len(self.targets)
        return counts

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep-copy this netlist (gates are immutable, so ids are kept)."""
        other = Netlist(name or self.name)
        other._gates = dict(self._gates)
        other._next_id = self._next_id
        other._names = dict(self._names)
        other.targets = list(self.targets)
        other.outputs = list(self.outputs)
        other._const0 = self._const0
        # Same gate structure, same signature and views.  The memo
        # dict itself is not shared: each side clears its own.
        other._sig = self._sig
        other._views = dict(self._views)
        return other

    def __repr__(self) -> str:
        return (
            f"<Netlist {self.name!r}: {len(self._gates)} vertices, "
            f"{len(self.inputs)} inputs, {self.num_registers()} registers, "
            f"{len(self.targets)} targets>"
        )
