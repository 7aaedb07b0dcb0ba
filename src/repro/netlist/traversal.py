"""Graph traversals over netlists.

Provides the structural analyses every other subsystem builds on:
combinational topological ordering, cone-of-influence (COI) extraction,
the register dependency graph, and an iterative Tarjan SCC
decomposition (used by the structural diameter bound of Section 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Set, Tuple

from .netlist import Netlist
from .types import GateType, NetlistError


def combinational_fanins(net: Netlist, vid: int) -> Tuple[int, ...]:
    """Fanins of ``vid`` that belong to the *same clock cycle*.

    Registers and latches act as sources within a cycle, so they report
    no combinational fanins; their ``next``/``data`` edges cross into
    the previous cycle.
    """
    gate = net.gate(vid)
    if gate.is_state:
        return ()
    return gate.fanins


def topological_order(
    net: Netlist, roots: Sequence[int] = None
) -> List[int]:
    """Topologically sort the combinational logic feeding ``roots``.

    State elements, inputs and constants appear before the gates that
    read them.  With ``roots=None`` the whole netlist is sorted, once
    per gate structure: the order is memoized on ``net``
    (:meth:`Netlist.memoized`) and each call returns a fresh list.
    Raises :class:`NetlistError` on a combinational cycle.
    """
    if roots is None:
        return list(net.memoized(
            "topological_order", lambda: tuple(_sort(net, list(net)))))
    return _sort(net, roots)


def _sort(net: Netlist, roots: Sequence[int]) -> List[int]:
    order: List[int] = []
    # 0 = unvisited, 1 = on stack (being expanded), 2 = done.
    state: Dict[int, int] = {}
    for root in roots:
        if state.get(root) == 2:
            continue
        # Entries are (vid, next fanin index, combinational fanins);
        # the fanins are None until the vertex is entered.
        stack: List[Tuple[int, int, Optional[Tuple[int, ...]]]] = \
            [(root, 0, None)]
        while stack:
            vid, idx, fanins = stack.pop()
            if fanins is None:
                mark = state.get(vid)
                if mark == 2:
                    continue
                if mark == 1:
                    raise NetlistError(f"combinational cycle through {vid}")
                state[vid] = 1
                fanins = combinational_fanins(net, vid)
            while idx < len(fanins) and state.get(fanins[idx]) == 2:
                idx += 1
            if idx < len(fanins):
                child = fanins[idx]
                if state.get(child) == 1:
                    raise NetlistError(f"combinational cycle through {child}")
                stack.append((vid, idx + 1, fanins))
                stack.append((child, 0, None))
            else:
                state[vid] = 2
                order.append(vid)
    return order


def cone_of_influence(net: Netlist, roots: Iterable[int]) -> Set[int]:
    """All vertices that may influence ``roots`` at any time.

    Follows every edge: combinational fanins, register ``next`` *and*
    ``init`` edges, latch ``data`` and ``clock`` edges.  This is the set
    ``coi(U)`` the paper uses; the diameter of ``U`` only depends on it.
    """
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        vid = stack.pop()
        if vid in seen:
            continue
        seen.add(vid)
        stack.extend(net.gate(vid).fanins)
    return seen


def state_support(net: Netlist, vid: int) -> Set[int]:
    """State elements (registers/latches) in ``vid``'s combinational cone."""
    support: Set[int] = set()
    seen: Set[int] = set()
    stack = [vid]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        gate = net.gate(v)
        if gate.is_state:
            support.add(v)
            continue
        stack.extend(gate.fanins)
    return support


def register_graph(net: Netlist) -> Dict[int, Set[int]]:
    """The register dependency graph.

    Nodes are state elements; there is an edge ``r1 -> r2`` when
    ``r2``'s next-state (or latch data/clock) function combinationally
    depends on ``r1``.  This is the graph whose SCC decomposition
    drives the structural diameter bound.
    """
    graph: Dict[int, Set[int]] = {}
    for vid, gate in net.gates():
        if not gate.is_state:
            continue
        preds: Set[int] = set()
        for edge in _sequential_edges(gate):
            for s in state_support(net, edge):
                preds.add(s)
        if gate.type is GateType.LATCH:
            # A latch holds its previous value while the clock is low:
            # an implicit self-dependence.
            preds.add(vid)
        graph[vid] = preds
    # Invert: we stored predecessors; produce successor sets.
    succ: Dict[int, Set[int]] = {v: set() for v in graph}
    for v, preds in graph.items():
        for p in preds:
            succ[p].add(v)
    return succ


def _sequential_edges(gate) -> Tuple[int, ...]:
    """The fanin edges of a state element that cross a cycle boundary."""
    if gate.type is GateType.REGISTER:
        return (gate.fanins[0],)  # next; init handled separately
    return gate.fanins  # latch: data and clock


def strongly_connected_components(
    graph: Dict[int, Set[int]]
) -> List[FrozenSet[int]]:
    """Iterative Tarjan SCC decomposition.

    Returns components in *reverse* topological order (a component
    appears before any component it depends on), which is Tarjan's
    natural emission order.
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    components: List[FrozenSet[int]] = []
    counter = [0]

    for root in graph:
        if root in index:
            continue
        work: List[Tuple[int, "object"]] = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                components.append(frozenset(component))
    return components


def condensation_order(
    graph: Dict[int, Set[int]]
) -> Tuple[List[FrozenSet[int]], Dict[FrozenSet[int], Set[FrozenSet[int]]]]:
    """SCCs in topological order plus the condensed predecessor map.

    Returns ``(components, preds)`` where ``components`` is ordered so
    that predecessors come first and ``preds[c]`` is the set of
    components with an edge into ``c``.
    """
    components = list(reversed(strongly_connected_components(graph)))
    member: Dict[int, FrozenSet[int]] = {}
    for comp in components:
        for v in comp:
            member[v] = comp
    preds: Dict[FrozenSet[int], Set[FrozenSet[int]]] = {
        c: set() for c in components
    }
    for v, succs in graph.items():
        for w in succs:
            cv, cw = member[v], member[w]
            if cv is not cw:
                preds[cw].add(cv)
    return components, preds


def combinational_depth(net: Netlist, roots: Sequence[int] = None) -> int:
    """Longest purely-combinational path length feeding ``roots``."""
    order = topological_order(net, roots)
    depth: Dict[int, int] = {}
    best = 0
    for vid in order:
        fanins = combinational_fanins(net, vid)
        d = 0 if not fanins else 1 + max(depth[f] for f in fanins)
        depth[vid] = d
        best = max(best, d)
    return best
