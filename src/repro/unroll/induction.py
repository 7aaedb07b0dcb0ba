"""K-induction with simple-path constraints.

Implements the Sheeran/Singh/Stalmarck-style inductive check the paper
cites ([5]) as a hybrid alternative for completing BMC: a target is
proven unreachable if (base) it is unhittable within ``k`` steps from
the initial states and (step) no length-``k`` *simple* path of states
all avoiding the target can be extended to a hit.  Also provides the
pairwise state-difference encoding reused by the recurrence-diameter
computation.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import obs
from ..cert import certification_enabled, certify_unsat
from ..netlist import Netlist
from ..resilience import Budget
from ..sat import UNKNOWN, UNSAT, CnfSink, Solver, encode_xor2, lit_not, \
    pos
from .bmc import BMCResult, PROVEN, BOUNDED, ABORTED, _budget_abort, \
    _budget_remaining, _solve_frame
from .unroller import Unrolling


def add_state_difference(
    sink: CnfSink, state_a: Dict[int, int], state_b: Dict[int, int]
) -> None:
    """Add a clause forcing states ``a`` and ``b`` to differ somewhere."""
    diffs = []
    for vid, lit_a in state_a.items():
        lit_b = state_b[vid]
        out = pos(sink.new_var())
        encode_xor2(sink, out, lit_a, lit_b)
        diffs.append(out)
    sink.add_clause(diffs)


def k_induction(
    net: Netlist,
    target: Optional[int] = None,
    max_k: int = 10,
    budget: Optional[Budget] = None,
    base_depth: Optional[int] = None,
) -> BMCResult:
    """Prove or falsify a target by k-induction up to ``max_k``.

    Base and step run in lockstep on two incremental solvers (Een and
    Sorensson, "Temporal Induction by Incremental SAT Solving"): round
    ``k`` first refutes base frame ``k - 1`` from the initial states,
    then tries step ``k``.  An UNSAT step returns :data:`PROVEN` with
    ``depth_checked`` = the inductive ``k``: frames ``0 .. k - 1`` are
    clean and no simple path of ``k + 1`` states reaches the target.
    A base hit returns :data:`FALSIFIED` with its counterexample, under
    :func:`~repro.unroll.bmc.bmc`'s conventions.  Every step before a
    reachable target's first hit is SAT (the suffix of a shortest path
    to the hit is a simple path), so the base finds the same first hit
    as a full window solved up front would, on the same solver with
    the same frame order.  After ``max_k`` inconclusive rounds the base
    window continues to ``base_depth`` frames (None = ``max_k + 1``;
    never fewer) and the call returns :data:`BOUNDED` with
    ``depth_checked = max_k``.  ``budget`` is checked before every base
    frame and every step (:data:`ABORTED` with a structured
    ``exhaustion_reason`` on exhaustion).

    The step cases share ONE persistent unrolling across all rounds:
    round ``k`` encodes only the new frame and the ``k`` new
    state-difference clauses pairing it with frames ``0..k-1`` (the
    earlier pairs are already in the solver), and blocks the target at
    frames ``0..k-1`` through solve-time *assumptions* rather than
    permanent unit clauses — so the clause set stays exactly the
    simple-path encoding and learned clauses carry across rounds.  The
    ``induction.diff_clauses`` / ``induction.step_vars`` counters
    expose the encoding size in the registry snapshot.

    Under :func:`repro.cert.use_certification` both solvers are built
    with ``Solver(proof=True)``.  PROVEN DRAT-checks the base solver's
    refuted frames and the step solver's refutation; FALSIFIED replays
    the witness (and checks the frames refuted before it); BOUNDED
    checks its base window; ABORTED certifies nothing.  Failure raises
    :class:`repro.resilience.CertificationFailure`.  Every verdict
    this call certifies carries ``certified=True``.  A negative
    ``max_k`` raises :class:`ValueError`.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be non-negative, got {max_k}")
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    do_cert = certification_enabled()
    depth = max(max_k + 1, base_depth or 0)
    base = Unrolling(net, Solver(proof=do_cert), constrain_init=True)
    # Step: an unconstrained simple path of k+1 states with the target
    # false at 0..k-1 and true at k must be UNSAT for inductiveness.
    reg = obs.get_registry()
    step = Unrolling(net, Solver(proof=do_cert), constrain_init=False)
    solver = step.solver
    for k in range(1, max_k + 1):
        stop = _solve_frame(base, target, k - 1, depth, budget, do_cert,
                            "k-induction")
        if stop is not None:
            return stop
        reason = _budget_abort(budget)
        if reason is not None:
            return BMCResult(ABORTED, target, k,
                             exhaustion_reason=reason)
        step.frame(k)
        for i in range(k):
            add_state_difference(step.sink, step.state_lits[i],
                                 step.state_lits[k])
        reg.counter("induction.diff_clauses", k)
        assumptions = [lit_not(step.literal(target, i))
                       for i in range(k)]
        assumptions.append(step.literal(target, k))
        with reg.span("induction/step") as step_span:
            result = solver.solve(assumptions, budget=budget)
        obs.progress("induction", k=k, of=max_k, result=result,
                     seconds=round(step_span.seconds, 6),
                     budget_s=_budget_remaining(budget))
        if result == UNSAT:
            reg.counter("induction.step_vars", solver.num_vars)
            if do_cert:
                certify_unsat(base.solver, "k-induction")
                certify_unsat(solver, "k-induction")
            return BMCResult(PROVEN, target, k, certified=do_cert)
        if result == UNKNOWN:
            return BMCResult(ABORTED, target, k,
                             exhaustion_reason=solver.last_exhaustion)
    reg.counter("induction.step_vars", solver.num_vars)
    for t in range(max_k, depth):
        stop = _solve_frame(base, target, t, depth, budget, do_cert,
                            "k-induction")
        if stop is not None:
            return stop
    if do_cert:
        certify_unsat(base.solver, "k-induction")
    return BMCResult(BOUNDED, target, max_k, certified=do_cert)
