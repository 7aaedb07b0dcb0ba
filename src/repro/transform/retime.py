"""RET: min-register normalized retiming with a retiming stump.

Implements the verification-oriented generalized retiming of Kuehlmann
and Baumgartner [9] used as the paper's RET engine (Section 3.2):

* the netlist is abstracted into a *retiming graph* whose nodes are the
  non-register vertices (plus one breaker per register-only cycle) and
  whose edge weights count the registers between them;
* a minimum-register retiming ``r: V -> Z`` is obtained from the
  Leiserson-Saxe LP with register sharing, solved exactly in integers
  as its dual min-cost flow (the optimal node potentials are the lags),
  and *normalized* so that ``max_v r(v) = 0`` (Definition 5);
* the retimed netlist is rebuilt with ``w'(u, v) = w(u, v) + r(v) -
  r(u)`` registers per edge.  Initial values come from the *retiming
  stump*: gate ``u`` with lag ``r(u) = -k`` skips its first ``k``
  time-steps, which are recovered by combinationally unfolding the
  original netlist over fresh stump inputs;  chain positions deeper
  than the stump inherit the corresponding original register's initial
  value.

Each retained gate ``ũ`` is trace-equivalent to the original ``u``
modulo a temporal skew of ``-r(u)`` time-steps, so by Theorem 2 a
diameter bound ``d`` on a retimed target with lag ``-i`` yields the
bound ``d + i`` on the original target.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..core.record import StepKind, TransformResult, TransformStep
from ..netlist import Gate, GateType, Netlist, NetlistError, rebuild

__all__ = ["retime", "RetimingGraph", "min_register_lags"]


@dataclass
class _Edge:
    """A retiming-graph edge: ``head`` reads ``tail`` through ``weight``
    registers; ``chain_from_head`` lists them nearest-to-head first."""

    tail: int
    head: int
    fanin_index: int
    weight: int
    chain_from_head: List[int] = field(default_factory=list)


class RetimingGraph:
    """The register-weighted gate graph of a netlist."""

    def __init__(self, net: Netlist) -> None:
        if net.latches:
            raise NetlistError(
                "retiming requires a register-based netlist; apply phase "
                "abstraction first")
        self.net = net
        self.breakers = self._find_breakers()
        self.nodes = [vid for vid, gate in net.gates()
                      if gate.type is not GateType.REGISTER
                      or vid in self.breakers]
        self.node_index = {vid: i for i, vid in enumerate(self.nodes)}
        self.edges: List[_Edge] = []
        for vid in self.nodes:
            gate = net.gate(vid)
            fanins = gate.fanins
            if vid in self.breakers:
                fanins = (gate.fanins[0],)  # the next edge; init via stump
            for idx, f in enumerate(fanins):
                tail, weight, chain = self._walk_chain(
                    f, initial_weight=1 if vid in self.breakers else 0,
                    initial_chain=[vid] if vid in self.breakers else [])
                self.edges.append(_Edge(tail, vid, idx, weight, chain))

    def _find_breakers(self) -> set:
        """One register per register-only ``next``-edge cycle."""
        net = self.net
        direct: Dict[int, Optional[int]] = {}
        for vid in net.registers:
            nxt = net.gate(vid).fanins[0]
            while net.gate(nxt).type is GateType.BUF:
                nxt = net.gate(nxt).fanins[0]
            direct[vid] = nxt if net.gate(nxt).type is GateType.REGISTER \
                else None
        breakers = set()
        color: Dict[int, int] = {}
        for start in direct:
            if start in color:
                continue
            path = []
            vid = start
            while vid is not None and vid in direct and vid not in color:
                color[vid] = 1
                path.append(vid)
                vid = direct[vid]
            if vid is not None and vid in direct and color.get(vid) == 1 \
                    and vid in path:
                breakers.add(vid)
            for p in path:
                color[p] = 2
        return breakers

    def _walk_chain(self, start: int, initial_weight: int,
                    initial_chain: List[int]) -> Tuple[int, int, List[int]]:
        weight = initial_weight
        chain = list(initial_chain)
        vid = start
        net = self.net
        while True:
            gate = net.gate(vid)
            if gate.type is GateType.REGISTER and vid not in self.breakers:
                weight += 1
                chain.append(vid)
                vid = gate.fanins[0]
            else:
                return vid, weight, chain

    def total_registers(self) -> int:
        """Registers implied by the graph (shared chains counted once
        per edge — an upper bound on the physical count)."""
        return sum(e.weight for e in self.edges)


def min_register_lags(graph: RetimingGraph,
                      fixed: Optional[Iterable[int]] = None
                      ) -> Dict[int, int]:
    """Solve min-register retiming with register sharing.

    Registers on the fanout of a node are physically shared, so the
    objective counts ``max_e w'(e)`` per *tail*, not the per-edge sum —
    the Leiserson-Saxe sharing formulation.  With auxiliary variables
    ``s_u = r(u) + max_{e out of u} w'(e)`` this is a pure
    difference-constraint LP:

        minimize    sum_u (s_u - r(u))
        subject to  r(tail) - r(head) <= w(e)          (w'(e) >= 0)
                    s(tail) - r(head) >= w(e)          (s covers max)

    It is solved exactly as the dual of an uncapacitated min-cost flow
    (:func:`_min_cost_flow`): one node per ``r(v)`` and per ``s(u)``,
    supply +1 at ``s(u)`` and -1 at ``r(u)`` for every tail ``u``, and
    per edge an arc ``s(tail) -> r(head)`` of cost ``-w`` plus, off
    self-loops, an arc ``r(head) -> r(tail)`` of cost ``w``.  The
    optimal node potentials are the integral LP optimum.

    Lags are then normalized per weakly-connected component, with a
    no-gain reset (see below).  ``fixed`` vertices (classic I/O-timing
    retiming constrains the host boundary this way [18]) are pinned to
    lag 0 relative to their component's normalization: a root ``z``
    with zero-cost arcs ``z -> r(v)`` for every node and ``r(p) -> z``
    for every pinned ``p`` holds every ``r(v) <= z = r(p)``, and lags
    are read relative to ``z``.
    """
    n = len(graph.nodes)
    if n == 0:
        return {}
    fixed_set = set(fixed or ())
    unknown = fixed_set - set(graph.node_index)
    if unknown:
        raise NetlistError(
            f"fixed vertices {sorted(unknown)} are not retiming-graph "
            f"nodes (registers cannot be pinned)")
    index = graph.node_index
    tails = sorted({e.tail for e in graph.edges})
    s_index = {vid: n + i for i, vid in enumerate(tails)}
    supply = [0] * (n + len(tails))
    for vid in tails:
        supply[s_index[vid]] = 1
        supply[index[vid]] = -1
    # Start from the un-retimed solution (r = 0, s(u) = max w): every
    # reduced cost is then non-negative.
    potential = [0] * len(supply)
    arcs: List[Tuple[int, int, int]] = []
    for e in graph.edges:
        s = s_index[e.tail]
        potential[s] = max(potential[s], e.weight)
        arcs.append((s, index[e.head], -e.weight))
        if e.head != e.tail:
            arcs.append((index[e.head], index[e.tail], e.weight))
    z = len(supply)
    if fixed_set:
        supply.append(0)
        potential.append(0)
        arcs.extend((z, i, 0) for i in range(n))
        arcs.extend((index[vid], z, 0) for vid in fixed_set)
    potential, _ = _min_cost_flow(supply, arcs, potential)
    shift = potential[z] if fixed_set else 0
    lags = {vid: potential[i] - shift for i, vid in enumerate(graph.nodes)}
    # Normalize (Definition 5) per weakly-connected component: shifting
    # a whole component leaves every w' unchanged, and per-component
    # shifts keep disconnected debris (e.g. init cones) at lag 0 so it
    # cannot inflate the stump depth of the real design.
    uf = {vid: vid for vid in graph.nodes}

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for e in graph.edges:
        uf[find(e.tail)] = find(e.head)
    # Where retiming cannot reduce the register count of a component,
    # reset its lags to zero: the LP is free to pick any of many
    # equal-cost layouts, and a gratuitous move both perturbs
    # downstream structural analyses (e.g. memory-cell hold patterns)
    # and inflates target lags (the Theorem 2 penalty) for no benefit.
    before: Dict[int, int] = {}
    after: Dict[int, int] = {}
    for e in graph.edges:
        w_new = e.weight + lags[e.head] - lags[e.tail]
        before[e.tail] = max(before.get(e.tail, 0), e.weight)
        after[e.tail] = max(after.get(e.tail, 0), w_new)
    gain: Dict[int, int] = {}
    for tail in before:
        gain[find(tail)] = gain.get(find(tail), 0) \
            + after[tail] - before[tail]
    for vid in graph.nodes:
        if gain.get(find(vid), 0) >= 0:
            lags[vid] = 0
    max_of: Dict[int, int] = {}
    for vid, lag in lags.items():
        root = find(vid)
        max_of[root] = max(max_of.get(root, lag), lag)
    # Components holding a pinned node keep their absolute reference
    # (all lags there are already <= 0 by the root's arcs).
    for vid in fixed_set:
        max_of[find(vid)] = 0
    return {vid: lag - max_of[find(vid)] for vid, lag in lags.items()}


def _min_cost_flow(supply: List[int],
                   arcs: Sequence[Tuple[int, int, int]],
                   potential: List[int]) -> Tuple[List[int], int]:
    """Exact uncapacitated min-cost flow by successive shortest paths.

    ``supply[v]`` is node ``v``'s net outflow (the supplies sum to 0),
    ``arcs`` are ``(tail, head, cost)`` triples with integer costs, and
    ``potential`` must give every arc a non-negative reduced cost
    ``cost + potential[tail] - potential[head]``.  Each phase runs a
    multi-source Dijkstra on reduced costs from the nodes with excess,
    raises every potential by ``min(dist, D)`` with ``D`` the distance
    to the nearest deficit, augments along Dijkstra's path, then pushes
    a blocking flow over zero-reduced-cost arcs.

    Returns the final potentials and the flow's cost.  The potentials
    are an optimal dual solution: every arc keeps a non-negative
    reduced cost and every arc carrying flow a zero one, so strong
    duality ``sum(supply * potential) == -cost`` must hold; a mismatch
    (or an unroutable supply) raises :class:`RuntimeError`.
    """
    size = len(supply)
    # Residual arcs in pairs: 2k is arc k, 2k + 1 its reverse, whose
    # capacity is arc k's flow.  No arc can carry more than the whole
    # supply, so that bound stands in for an infinite capacity.
    units = sum(x for x in supply if x > 0)
    head: List[int] = []
    cost: List[int] = []
    cap: List[int] = []
    out: List[List[int]] = [[] for _ in range(size)]
    for tail, hd, c in arcs:
        out[tail].append(len(head))
        head.append(hd)
        cost.append(c)
        cap.append(units)
        out[hd].append(len(head))
        head.append(tail)
        cost.append(-c)
        cap.append(0)
    excess = list(supply)
    remaining = units
    while remaining:
        dist: List[Optional[int]] = [None] * size
        parent = [-1] * size
        done = [False] * size
        heap = [(0, v) for v in range(size) if excess[v] > 0]
        for _, v in heap:
            dist[v] = 0
        sink = -1
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            if excess[v] < 0:
                sink = v
                break
            base = d + potential[v]
            for a in out[v]:
                if cap[a]:
                    w = head[a]
                    nd = base + cost[a] - potential[w]
                    if dist[w] is None or nd < dist[w]:
                        dist[w] = nd
                        parent[w] = a
                        heapq.heappush(heap, (nd, w))
        if sink < 0:
            raise RuntimeError("min-cost flow: supply cannot be routed")
        reach = dist[sink]
        for v in range(size):
            potential[v] += dist[v] if done[v] else reach
        path = []
        v = sink
        while parent[v] >= 0:
            path.append(parent[v])
            v = head[parent[v] ^ 1]
        remaining -= _push(path, v, sink, excess, head, cap)
        # Blocking flow over zero-reduced-cost arcs.  An arc carrying
        # flow and its reverse form a zero-cost 2-cycle, hence the
        # on-path guard; current-arc pointers keep the phase linear.
        current = [0] * size
        on_path = [False] * size
        for source in range(size):
            while excess[source] > 0:
                path = []
                v = source
                on_path[v] = True
                while excess[v] >= 0:
                    arcs_v = out[v]
                    i = current[v]
                    while i < len(arcs_v):
                        a = arcs_v[i]
                        w = head[a]
                        if cap[a] and not on_path[w] and \
                                cost[a] + potential[v] == potential[w]:
                            break
                        i += 1
                    current[v] = i
                    if i < len(arcs_v):
                        path.append(a)
                        v = w
                        on_path[v] = True
                    elif path:
                        on_path[v] = False
                        v = head[path.pop() ^ 1]
                        current[v] += 1
                    else:
                        break
                on_path[source] = False
                for a in path:
                    on_path[head[a]] = False
                if excess[v] >= 0:
                    break
                remaining -= _push(path, source, v, excess, head, cap)
    flow_cost = sum(cost[a] * cap[a + 1] for a in range(0, len(cap), 2))
    dual = sum(b * p for b, p in zip(supply, potential))
    if dual != -flow_cost:
        raise RuntimeError(
            f"min-cost flow: duality violated (dual {dual}, flow cost "
            f"{flow_cost})")
    return potential, flow_cost


def _push(path: List[int], source: int, sink: int, excess: List[int],
          head: List[int], cap: List[int]) -> int:
    """Push the bottleneck amount along ``path`` (residual arcs from
    ``source`` to ``sink``) and return it."""
    amount = min([excess[source], -excess[sink]] + [cap[a] for a in path])
    for a in path:
        cap[a] -= amount
        cap[a ^ 1] += amount
    excess[source] -= amount
    excess[sink] += amount
    return amount


class _StumpBuilder:
    """Combinational unfolding of the original netlist's prefix steps.

    ``value(u, s)`` returns a vertex of the *new* netlist computing the
    value original vertex ``u`` takes at original time ``s >= 0``,
    over fresh stump primary inputs.
    """

    def __init__(self, src: Netlist, dst: Netlist) -> None:
        self.src = src
        self.dst = dst
        self._cache: Dict[Tuple[int, int], int] = {}
        self._const0: Optional[int] = None
        self._input_count = 0

    def value(self, u: int, s: int) -> int:
        key = (u, s)
        if key in self._cache:
            return self._cache[key]
        gate = self.src.gate(u)
        if gate.type is GateType.INPUT:
            # Deterministic names let callers correlate stump inputs
            # with (original input, original time) pairs.
            label = gate.name if gate.name else f"v{u}"
            out = self.dst.add_gate(
                GateType.INPUT, (), name=f"__stump{s}_{label}")
            self._input_count += 1
        elif gate.type is GateType.CONST0:
            out = self.dst.const0()
        elif gate.type is GateType.REGISTER:
            if s == 0:
                out = self.value(gate.fanins[1], 0)  # the init cone
            else:
                out = self.value(gate.fanins[0], s - 1)
        else:
            fanins = tuple(self.value(f, s) for f in gate.fanins)
            out = self.dst.add_gate(gate.type, fanins)
        self._cache[key] = out
        return out


def retime(net: Netlist, name_suffix: str = "ret",
           fixed: Optional[Iterable[int]] = None) -> TransformResult:
    """Apply min-register normalized retiming to ``net``.

    Targets are first materialized as buffer vertices so every target
    is a retimable graph node with a well-defined lag.  The step
    records per-target lags ``i = -r(t) >= 0`` for Theorem 2.
    ``fixed`` pins the given (non-register) vertices at lag 0 — the
    classic host-boundary constraint when interface timing must be
    preserved [18]; pinned targets then back-translate with lag 0.
    """
    with obs.span("transform.ret"):
        return _retime(net, name_suffix, fixed)


def _retime(net: Netlist, name_suffix: str,
            fixed: Optional[Iterable[int]]) -> TransformResult:
    work = net.copy()
    target_bufs: Dict[int, int] = {}
    for t in dict.fromkeys(work.targets):
        target_bufs[t] = work.add_gate(GateType.BUF, (t,))
    graph = RetimingGraph(work)
    with obs.span("transform.ret/lp"):
        lags = min_register_lags(graph, fixed=fixed)
    obs.counter("ret.calls")
    obs.counter("ret.graph_nodes", len(graph.nodes))
    obs.counter("ret.lagged_nodes",
                sum(1 for lag in lags.values() if lag != 0))

    out = Netlist(f"{net.name}-{name_suffix}")
    stump = _StumpBuilder(work, out)
    new_of_node: Dict[int, int] = {}
    # First pass: allocate every node (registers resolved after).
    placeholders: List[Tuple[int, Gate]] = []
    for vid in graph.nodes:
        gate = work.gate(vid)
        if gate.type is GateType.INPUT:
            new_of_node[vid] = out.add_gate(GateType.INPUT, (), gate.name)
        elif gate.type is GateType.CONST0:
            new_of_node[vid] = out.const0()
        else:
            # Placeholder: fanins patched in the second pass.  Breaker
            # registers become buffers (their delay moved to the edge).
            gtype = GateType.BUF if vid in graph.breakers else gate.type
            arity = 1 if vid in graph.breakers else len(gate.fanins)
            new_of_node[vid] = out.add_gate(
                gtype, tuple([out.const0()] * arity),
                name=gate.name if gate.name and vid not in graph.breakers
                else None)
    # Second pass: build edges with their retimed register chains.
    # Chains fanning out from the same tail carry identical streams, so
    # chain registers are shared via (driver, init) hash-consing — the
    # per-edge graph representation must not duplicate physical
    # registers (that would *grow* SCCs instead of shrinking them).
    reg_cache: Dict[Tuple[int, int], int] = {}
    for e in graph.edges:
        w_new = e.weight + lags[e.head] - lags[e.tail]
        if w_new < 0:  # pragma: no cover - LP constraints forbid this
            raise RuntimeError("negative edge weight after retiming")
        k_tail = -lags[e.tail]
        signal = new_of_node[e.tail]
        # Build the chain rho_1 .. rho_w' (rho_j(t) = tail(t - j + k)).
        for j in range(1, w_new + 1):
            if k_tail - j >= 0:
                init = stump.value(e.tail, k_tail - j)
            else:
                # Deeper than the stump: original register sigma_{j-k}
                # (position from the head side: chain[w - (j - k)]).
                pos = e.weight - (j - k_tail)
                orig_reg = e.chain_from_head[pos]
                init = stump.value(work.gate(orig_reg).fanins[1], 0)
            key = (signal, init)
            if key not in reg_cache:
                reg_cache[key] = out.add_gate(GateType.REGISTER,
                                              (signal, init))
            signal = reg_cache[key]
        fanins = list(out.gate(new_of_node[e.head]).fanins)
        fanins[e.fanin_index] = signal
        out.set_fanins(new_of_node[e.head], tuple(fanins))

    # Register targets/outputs on the new netlist, then compact.
    step_lags: Dict[int, int] = {}
    pre_map: Dict[int, int] = {}
    for t in net.targets:
        buf = target_bufs[t]
        pre_map[t] = new_of_node[buf]
        step_lags[t] = -lags[buf]
        out.add_target(new_of_node[buf])
    for o in net.outputs:
        if o in new_of_node:
            out.add_output(new_of_node[o])
        elif o in target_bufs:
            out.add_output(new_of_node[target_bufs[o]])
    compact, remap = rebuild(out, name=out.name)
    target_map = {t: remap.get(vid) for t, vid in pre_map.items()}
    step = TransformStep(
        name="RET",
        kind=StepKind.RETIME,
        target_map=target_map,
        lags=step_lags,
    )
    mapping = {vid: remap[new]
               for vid, new in new_of_node.items() if new in remap}
    input_lags = {
        (work.gate(vid).name or f"v{vid}"): -lags[vid]
        for vid in graph.nodes
        if work.gate(vid).type is GateType.INPUT
    }
    info = {"lags": dict(lags), "input_lags": input_lags}
    return TransformResult(netlist=compact, step=step, mapping=mapping,
                           info=info)
