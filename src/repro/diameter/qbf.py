"""QBF-based exact initial-diameter computation.

Implements the quantified formulation the paper attributes to [2]: the
design's (initial-state) diameter is at most ``k + 1`` iff

    forall (k+1)-step path from Z  exists (<= k)-step path from Z
        reaching the same end state,

a 2QBF query discharged by the CEGAR engine of :mod:`repro.sat.qbf`.
Unlike the recurrence diameter this is *exact* — and exactly as
PSPACE-hard as the paper warns, so it is practical only for small
netlists; its role here is (a) ground truth beyond the explicit
oracle's input-enumeration limits, and (b) the substrate for the
paper's future-work direction ("apply this theory for speeding up
quantified-Boolean-formulae-based diameter calculation"): the
transformation theorems apply to QBF-derived bounds unchanged, and the
benchmarks show the query shrinking on transformed netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import obs
from ..obs import metrics as _metrics
from ..netlist import GateType, Netlist
from ..resilience import Budget, Cancelled
from ..sat import CnfSink, encode_xor2, lit_not, pos
from ..sat.qbf import QBFResult, solve_forall_exists
from ..sat.template import get_template


def _unroll_over_lits(net: Netlist, sink: CnfSink,
                      block: List[int], frames: int
                      ) -> List[Dict[int, int]]:
    """Unroll ``frames`` transitions over a flat literal ``block``.

    The block supplies, in order, the init-cone input literals followed
    by one group of input literals per frame; returns the state-literal
    maps for boundaries ``0 .. frames``.

    The init cone is stamped from the ``"init"`` template and each
    frame from the ``"io"`` template (inputs are slots here, unlike
    :class:`~repro.unroll.Unrolling`): the CEGAR abstraction
    re-invokes this encode on every refinement iteration, so one
    compilation amortizes over the whole loop.
    """
    inputs = net.inputs
    width = len(inputs)
    init_lits = dict(zip(inputs, block[:width]))
    reg = obs.get_registry()
    # Initial state from the init cones over the init-input literals.
    # (Templates are fetched outside the ``encode`` spans so the
    # one-off ``encode.compile`` time is not counted twice in the
    # bench tool's encode/solve split.)
    init_tmpl = get_template(net, "init") if net.registers else None
    io_tmpl = get_template(net, "io")
    with reg.span("encode"):
        if init_tmpl is None:
            cone: Dict[int, int] = {}
        else:
            cone, _ = init_tmpl.stamp(sink, init_lits)
    state: Dict[int, int] = {}
    for vid in net.state_elements:
        gate = net.gate(vid)
        if gate.type is GateType.REGISTER:
            state[vid] = cone[gate.fanins[1]]
        else:
            state[vid] = sink.false_lit  # latches start at 0
    states = [state]
    for frame in range(frames):
        offset = width * (frame + 1)
        leaves = dict(state)
        leaves.update(zip(inputs, block[offset:offset + width]))
        with reg.span("encode"):
            _, nxt = io_tmpl.stamp(sink, leaves)
        assert nxt is not None
        state = nxt
        states.append(state)
    return states


def _states_equal(sink: CnfSink, a: Dict[int, int],
                  b: Dict[int, int]) -> int:
    """Literal asserting two state-literal maps agree everywhere."""
    if not a:
        return sink.true_lit
    eq_bits = []
    for vid, la in a.items():
        x = pos(sink.new_var())
        encode_xor2(sink, x, la, b[vid])
        eq_bits.append(lit_not(x))
    out = pos(sink.new_var())
    for bit in eq_bits:
        sink.add_clause([lit_not(out), bit])
    sink.add_clause([out] + [lit_not(bit) for bit in eq_bits])
    return out


@dataclass
class QBFDiameterResult:
    """Outcome of the QBF initial-diameter computation.

    ``bound`` is the completeness bound (= exact ``initial_depth``
    when ``exact``); ``checks`` records the per-k 2QBF outcomes;
    ``exhaustion_reason`` carries the structured cause of an inexact
    stop driven by a resource budget (None otherwise).
    """

    bound: int
    exact: bool
    checks: List[QBFResult]
    exhaustion_reason: Optional[str] = None


def qbf_initial_diameter_check(net: Netlist, k: int,
                               max_iterations: int = 10000,
                               conflict_budget: Optional[int] = None,
                               budget: Optional[Budget] = None
                               ) -> QBFResult:
    """The 2QBF query "every (k+1)-step-reachable state is
    (<= k)-step-reachable"."""
    width = len(net.inputs)
    num_x = width * (k + 2)  # init inputs + k+1 frames
    num_y = width * (k + 1)  # init inputs + k frames

    def encode(sink: CnfSink, xs: List[int], ys: List[int]) -> int:
        long_states = _unroll_over_lits(net, sink, xs, k + 1)
        short_states = _unroll_over_lits(net, sink, ys, k)
        goal = long_states[-1]
        options = [_states_equal(sink, s, goal) for s in short_states]
        out = pos(sink.new_var())
        sink.add_clause([lit_not(out)] + options)
        for opt in options:
            sink.add_clause([out, lit_not(opt)])
        return out

    return solve_forall_exists(num_x, num_y, encode,
                               max_iterations=max_iterations,
                               conflict_budget=conflict_budget,
                               budget=budget)


def qbf_initial_diameter(net: Netlist, max_k: int = 32,
                         max_iterations: int = 10000,
                         conflict_budget: Optional[int] = None,
                         budget: Optional[Budget] = None
                         ) -> QBFDiameterResult:
    """Exact initial-state completeness bound via a series of 2QBFs.

    Returns the smallest ``k + 1`` such that the check holds at ``k``
    (every reachable state is then reachable within ``k`` steps, by
    induction on path length) — i.e. exactly ``initial_depth``.
    ``budget`` is checked per k (and cooperatively inside the CEGAR
    loop); exhaustion yields an inexact result with a structured
    ``exhaustion_reason``, cancellation raises :class:`Cancelled`.
    """
    checks: List[QBFResult] = []
    reg = obs.get_registry()
    with reg.span("diameter.qbf"):
        for k in range(max_k + 1):
            if budget is not None:
                if budget.cancelled:
                    raise Cancelled(budget_name=budget.name)
                reason = budget.exhausted()
                if reason is not None:
                    return QBFDiameterResult(bound=k + 1, exact=False,
                                             checks=checks,
                                             exhaustion_reason=reason)
            with _metrics.query_context("qbf", k=k), \
                    reg.span("check") as check_span:
                result = qbf_initial_diameter_check(
                    net, k, max_iterations=max_iterations,
                    conflict_budget=conflict_budget, budget=budget)
            _metrics.observe("qbf.check_seconds", check_span.seconds)
            reg.event("qbf.check", k=k, valid=result.valid,
                      exact=result.exact, seconds=check_span.seconds)
            obs.progress("qbf", k=k, of=max_k, valid=result.valid,
                         exact=result.exact,
                         seconds=round(check_span.seconds, 6))
            checks.append(result)
            if not result.exact:
                return QBFDiameterResult(
                    bound=k + 1, exact=False, checks=checks,
                    exhaustion_reason=result.exhaustion_reason)
            if result.valid:
                return QBFDiameterResult(bound=k + 1, exact=True,
                                         checks=checks)
    return QBFDiameterResult(bound=max_k + 2, exact=False, checks=checks)
