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
from .bmc import BMCResult, FALSIFIED, PROVEN, BOUNDED, ABORTED, \
    _budget_abort, _budget_remaining, bmc
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
    conflict_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
    certify: Optional[bool] = None,
    base: Optional[BMCResult] = None,
) -> BMCResult:
    """Prove or falsify a target by k-induction up to ``max_k``.

    Returns :data:`PROVEN` (with ``depth_checked`` = the inductive k),
    :data:`FALSIFIED` (with a counterexample from the base case), or
    :data:`BOUNDED` if ``max_k`` is exhausted inconclusively.
    ``budget`` is checked per step query (:data:`ABORTED` with a
    structured ``exhaustion_reason`` on exhaustion).

    The step cases share ONE persistent unrolling across all rounds:
    round ``k`` encodes only the new frame and the ``k`` new
    state-difference clauses pairing it with frames ``0..k-1`` (the
    earlier pairs are already in the solver), and blocks the target at
    frames ``0..k-1`` through solve-time *assumptions* rather than
    permanent unit clauses — so the clause set stays exactly the
    simple-path encoding and learned clauses carry across rounds.  The
    previous implementation rebuilt a fresh unrolling with all O(k²)
    pairwise difference clauses every round (O(k³) clauses total over
    a run); the ``induction.diff_clauses`` / ``induction.step_vars``
    counters expose the encoding size so the reduction is visible in
    the registry snapshot.

    ``certify`` (None = the :func:`repro.cert.use_certification`
    default) certifies both halves of a PROVEN verdict: the base
    window through :func:`~repro.unroll.bmc.bmc`'s own certification,
    and the step refutation by DRAT-checking the step solver's proof
    log before PROVEN is returned.  Failure raises
    :class:`repro.resilience.CertificationFailure`.  Every verdict
    this call certifies carries ``certified=True``.

    ``base`` hands in a base case that is already discharged: a
    :func:`~repro.unroll.bmc.bmc` result for the same netlist and
    target, checked from the initial states.  It replaces this call's
    own base-case BMC only if it is BOUNDED for ``target``, covers at
    least ``max_k + 1`` frames, and is ``certified`` whenever this
    call certifies; any other ``base`` is ignored and the base window
    is solved here.  A PROVEN verdict on a reused base is certified
    by the base's DRAT check, which the call that produced it ran,
    together with this call's step check.
    """
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    do_cert = certification_enabled() if certify is None else certify
    reusable = (base is not None and base.status == BOUNDED
                and base.target == target
                and base.depth_checked >= max_k + 1
                and (base.certified or not do_cert))
    if not reusable:
        # Base cases are discharged incrementally by plain BMC.  Base
        # and step share one compiled frame template (the template
        # cache is keyed by netlist structure, not by unrolling).
        base = bmc(net, target, max_depth=max_k + 1,
                   conflict_budget=conflict_budget, budget=budget,
                   certify=do_cert)
        if base.status in (FALSIFIED, ABORTED):
            return base

    # Step: an unconstrained simple path of k+1 states with the target
    # false at 0..k-1 and true at k must be UNSAT for inductiveness.
    reg = obs.get_registry()
    step = Unrolling(net, Solver(proof=do_cert), constrain_init=False)
    solver = step.solver
    for k in range(1, max_k + 1):
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
            result = solver.solve(assumptions,
                                  conflict_budget=conflict_budget,
                                  budget=budget)
        obs.progress("induction", k=k, of=max_k, result=result,
                     seconds=round(step_span.seconds, 6),
                     budget_s=_budget_remaining(budget))
        if result == UNSAT:
            reg.counter("induction.step_vars", solver.num_vars)
            if do_cert:
                certify_unsat(solver, "k-induction")
            return BMCResult(PROVEN, target, k, certified=do_cert)
        if result == UNKNOWN:
            return BMCResult(ABORTED, target, k,
                             exhaustion_reason=solver.last_exhaustion)
    reg.counter("induction.step_vars", solver.num_vars)
    return BMCResult(BOUNDED, target, max_k, certified=do_cert)
