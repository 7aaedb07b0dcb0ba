"""Property test: RET's lags minimize the shared register count.

``min_register_lags`` solves the Leiserson-Saxe register-sharing LP as
the dual of a min-cost flow.  On seeded random retiming graphs (1-4
nodes, 1-8 edges, weights 0-3, no zero-weight cycle, a random pinned
subset) its lags must reach the brute-force minimum of
``sum_u max_{e out of u} w'(e)`` over all lags with every ``w' >= 0``,
and the flow's cost must equal that minimum (strong duality).

The brute force ranges over ``[-K, K]`` with ``K`` = total weight + 1,
or ``[-K, 0]`` when nodes are pinned.  Some optimum always lies in
``[-W, 0]`` (W = total weight): shortest distances from a zero-cost
root in the optimal flow's residual network are optimal potentials,
and a simple path there crosses at most one negative arc, of cost
``-w(e)``, per edge.  The cost depends only on lag differences within
a weakly-connected component, so without pins the first node of each
component is held at 0, which keeps the search small.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.transform import min_register_lags
from repro.transform.retime import _min_cost_flow

NODE_IDS = (10, 11, 12, 13)


def random_graph(rng):
    """Nodes, (tail, head, weight) edges and a pinned subset."""
    n = rng.randint(1, 4)
    nodes = list(NODE_IDS[:n])
    while True:
        edges = [(rng.choice(nodes), rng.choice(nodes), rng.randint(0, 3))
                 for _ in range(rng.randint(1, 8))]
        if not has_zero_weight_cycle(nodes, edges):
            break
    pinned = [v for v in nodes if rng.random() < 0.25]
    return nodes, edges, pinned


def has_zero_weight_cycle(nodes, edges):
    """True when the zero-weight edges contain a cycle."""
    succ = {v: [h for t, h, w in edges if t == v and w == 0]
            for v in nodes}
    state = dict.fromkeys(nodes, 0)  # 0 new, 1 on stack, 2 done

    def visit(v):
        state[v] = 1
        for h in succ[v]:
            if state[h] == 1 or (state[h] == 0 and visit(h)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in nodes)


def retimed_weights(edges, lags):
    return [w + lags[h] - lags[t] for t, h, w in edges]


def shared_registers(edges, lags):
    """``sum_u max_{e out of u} w'(e)``: registers after sharing."""
    most = {}
    for (t, _, _), w_new in zip(edges, retimed_weights(edges, lags)):
        most[t] = max(most.get(t, 0), w_new)
    return sum(most.values())


def brute_force_minimum(nodes, edges, pinned):
    k = sum(w for _, _, w in edges) + 1
    if pinned:
        ranges = [[0] if v in pinned else range(-k, 1) for v in nodes]
    else:
        root = {v: v for v in nodes}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for t, h, _ in edges:
            root[find(t)] = find(h)
        held = {find(v): v for v in reversed(nodes)}.values()
        ranges = [[0] if v in held else range(-k, k + 1) for v in nodes]
    best = None
    for values in itertools.product(*ranges):
        lags = dict(zip(nodes, values))
        if min(retimed_weights(edges, lags)) < 0:
            continue
        cost = shared_registers(edges, lags)
        if best is None or cost < best:
            best = cost
    return best


def flow_cost(nodes, edges, pinned):
    """The min-cost flow of the LP's dual, built from its definition."""
    index = {v: i for i, v in enumerate(nodes)}
    tails = sorted({t for t, _, _ in edges})
    s_index = {v: len(nodes) + i for i, v in enumerate(tails)}
    supply = [0] * (len(nodes) + len(tails) + 1)
    potential = [0] * len(supply)
    arcs = []
    for v in tails:
        supply[s_index[v]], supply[index[v]] = 1, -1
    for t, h, w in edges:
        potential[s_index[t]] = max(potential[s_index[t]], w)
        arcs.append((s_index[t], index[h], -w))
        if t != h:
            arcs.append((index[h], index[t], w))
    root = len(supply) - 1
    if pinned:
        arcs += [(root, index[v], 0) for v in nodes]
        arcs += [(index[v], root, 0) for v in pinned]
    return _min_cost_flow(supply, arcs, potential)[1]


@pytest.mark.parametrize("seed", range(4))
def test_lags_reach_brute_force_minimum(seed):
    rng = random.Random(seed)
    for _ in range(150):
        nodes, edges, pinned = random_graph(rng)
        graph = SimpleNamespace(
            nodes=nodes, node_index={v: i for i, v in enumerate(nodes)},
            edges=[SimpleNamespace(tail=t, head=h, weight=w)
                   for t, h, w in edges])
        lags = min_register_lags(graph, fixed=pinned or None)
        case = (nodes, edges, pinned, lags)
        assert min(retimed_weights(edges, lags)) >= 0, case
        assert all(lag <= 0 for lag in lags.values()), case
        assert all(lags[v] == 0 for v in pinned), case
        registers = shared_registers(edges, lags)
        assert registers == brute_force_minimum(nodes, edges, pinned), case
        assert registers == -flow_cost(nodes, edges, pinned), case
