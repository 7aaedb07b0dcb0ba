"""Bounded model checking (BMC) over the SAT unrolling.

``BMC [2] attempts to find a property violation within k time-steps
from the initial state(s) of a design.``  With a diameter bound ``d``
from :mod:`repro.diameter`, a clean check of depths ``0 .. d - 1``
constitutes a *complete* proof (the paper's central motivation): the
generalized diameter of Definition 3 is "one greater than the standard
definition for graphs [matching] the number of time-steps necessary to
ensure completeness of BMC".
"""

from __future__ import annotations

from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..cert import certification_enabled, certify_unsat, certify_witness
from ..netlist import Netlist
from ..resilience import Budget, Cancelled
from ..sat import SAT, UNKNOWN, use_proofs
from .unroller import Unrolling

#: Verification statuses.
FALSIFIED = "falsified"  # counterexample found
PROVEN = "proven"  # complete bound exhausted without a hit
BOUNDED = "bounded"  # no hit within the checked window (incomplete)
ABORTED = "aborted"  # resource-out


@dataclass
class Counterexample:
    """An input trace hitting a target at time ``depth``."""

    depth: int
    inputs: List[Dict[int, int]] = field(default_factory=list)
    initial_state: Dict[int, int] = field(default_factory=dict)


@dataclass
class BMCResult:
    """Outcome of a bounded check.

    ``depth_checked`` invariant — the number of time-steps with a
    *definitive* per-frame answer: frames ``0 .. depth_checked - 1``
    have each been resolved SAT or UNSAT.  Per status:

    * :data:`FALSIFIED` — frames ``0 .. t - 1`` refuted and frame
      ``t`` hit, so ``depth_checked == t + 1 ==
      counterexample.depth + 1`` (note the off-by-one: the
      counterexample records the *hit time*, ``depth_checked`` the
      *window size*).
    * :data:`ABORTED` — the solver resourced out at frame ``t``,
      which is therefore unresolved: ``depth_checked == t``.  An
      abort on the very first query gives ``depth_checked == 0``.
      ``exhaustion_reason`` carries the structured cause (one of
      :data:`repro.resilience.EXHAUSTION_REASONS`, or None for a
      non-resource inconclusive answer such as an injected spurious
      unknown).
    * :data:`BOUNDED` — every queried frame refuted;
      ``depth_checked`` equals the window actually examined
      (``min(max_depth, complete_bound)`` when a bound was supplied).
    * :data:`PROVEN` — all refuted and ``depth_checked >=
      complete_bound``, so the window covers the full diameter.

    Keep these conventions in sync with :func:`bmc`, :func:`bmc_multi`
    and ``k_induction`` (whose PROVEN reuses the field for the
    inductive ``k`` — documented there).
    """

    status: str
    target: int
    depth_checked: int
    counterexample: Optional[Counterexample] = None
    exhaustion_reason: Optional[str] = None

    @property
    def is_complete(self) -> bool:
        """True when the verdict is definitive (proven/falsified)."""
        return self.status in (FALSIFIED, PROVEN)


def _budget_remaining(budget: Optional[Budget]) -> Optional[float]:
    """Seconds left on ``budget`` for progress records (None if
    unlimited or no budget)."""
    if budget is None:
        return None
    remaining = budget.remaining_seconds()
    return None if remaining is None else round(remaining, 3)


def _budget_abort(budget: Optional[Budget]) -> Optional[str]:
    """Pre-frame cooperative check: raises on cancellation, returns
    the exhaustion reason (None to keep going)."""
    if budget is None:
        return None
    if budget.cancelled:
        raise Cancelled(budget_name=budget.name)
    return budget.exhausted()


def bmc(
    net: Netlist,
    target: Optional[int] = None,
    max_depth: int = 20,
    complete_bound: Optional[int] = None,
    conflict_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
    certify: Optional[bool] = None,
) -> BMCResult:
    """Check target reachability for depths ``0 .. max_depth - 1``.

    ``complete_bound`` is a diameter bound for the target: if the
    window covers ``0 .. complete_bound - 1`` with no hit, the target
    is declared :data:`PROVEN` unreachable.  Returns the first
    counterexample otherwise.  ``conflict_budget`` follows the
    ``Solver.solve`` contract; ``budget`` is checked before every
    frame (and cooperatively inside each solve) — exhaustion yields
    :data:`ABORTED` with a structured ``exhaustion_reason``,
    cancellation raises.

    ``certify`` (None = the :func:`repro.cert.certification_enabled`
    toggle) arms verdict certification: the unrolling solver keeps a
    DRAT-style proof log, refuted windows are checked by the
    :mod:`repro.cert.drat` checker on exit, and counterexamples are
    replayed through the bit-parallel simulator before FALSIFIED is
    returned.  A verdict that fails its check raises
    :class:`repro.resilience.CertificationFailure` instead of
    returning.  ABORTED results are never certified (no verdict
    stands).
    """
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    do_cert = certification_enabled() if certify is None else certify
    with use_proofs(True) if do_cert else _nullcontext():
        unroll = Unrolling(net, constrain_init=True)
    refuted = 0
    depth = max_depth
    if complete_bound is not None:
        depth = min(max_depth, complete_bound)
    reg = obs.get_registry()
    with reg.span("bmc"):
        for t in range(depth):
            reason = _budget_abort(budget)
            if reason is not None:
                reg.counter("bmc.budget_aborts")
                return BMCResult(ABORTED, target, t,
                                 exhaustion_reason=reason)
            lit = unroll.literal(target, t)
            with reg.span("frame") as frame_span:
                result = unroll.solver.solve(
                    [lit], conflict_budget=conflict_budget,
                    budget=budget)
            reg.event("bmc.frame", t=t, result=result,
                      seconds=frame_span.seconds)
            obs.progress(
                "bmc", frame=t, of=depth, result=result,
                seconds=round(frame_span.seconds, 6),
                budget_s=_budget_remaining(budget))
            if result == SAT:
                model = unroll.solver.model
                cex = Counterexample(
                    depth=t,
                    inputs=[unroll.input_values(model, i)
                            for i in range(t + 1)],
                    initial_state=unroll.state_values(model, 0),
                )
                if do_cert:
                    certify_witness(net, target, cex, model=model,
                                    unroll=unroll, engine="bmc")
                    if refuted:
                        certify_unsat(unroll.solver, "bmc")
                return BMCResult(FALSIFIED, target, t + 1, cex)
            if result == UNKNOWN:
                return BMCResult(
                    ABORTED, target, t,
                    exhaustion_reason=unroll.solver.last_exhaustion)
            refuted += 1
    if do_cert and refuted:
        certify_unsat(unroll.solver, "bmc")
    if complete_bound is not None and depth >= complete_bound:
        return BMCResult(PROVEN, target, depth)
    return BMCResult(BOUNDED, target, depth)


def bmc_multi(
    net: Netlist,
    targets: Optional[List[int]] = None,
    max_depth: int = 20,
    complete_bounds: Optional[Dict[int, int]] = None,
    conflict_budget: Optional[int] = None,
    budget: Optional[Budget] = None,
    certify: Optional[bool] = None,
) -> Dict[int, BMCResult]:
    """Check many targets over one shared unrolling.

    The Section 4 experiments check every primary output as a target;
    sharing the time-frame expansion amortizes the Tseitin encoding
    and lets learned clauses transfer between target queries (each
    target is queried by assumption, so the solver state stays
    reusable).  ``complete_bounds`` optionally maps targets to their
    diameter bounds; a target whose window closes is PROVEN and not
    queried further.

    ``certify`` follows the :func:`bmc` contract.  Witnesses are
    replayed at discovery time; the shared solver's proof log —
    which covers every refuted (target, frame) query — is checked
    once after the sweep, so one check certifies every UNSAT-backed
    verdict in the returned map.
    """
    if targets is None:
        targets = list(dict.fromkeys(net.targets))
    complete_bounds = complete_bounds or {}
    do_cert = certification_enabled() if certify is None else certify
    with use_proofs(True) if do_cert else _nullcontext():
        unroll = Unrolling(net, constrain_init=True)
    refuted = 0
    results: Dict[int, BMCResult] = {}
    open_targets = list(dict.fromkeys(targets))
    reg = obs.get_registry()
    for t in range(max_depth):
        if not open_targets:
            break
        still_open = []
        for target in open_targets:
            bound = complete_bounds.get(target)
            if bound is not None and t >= bound:
                # Frames 0 .. t-1 all refuted (t >= bound suffices).
                results[target] = BMCResult(PROVEN, target, t)
                continue
            reason = _budget_abort(budget)
            if reason is not None:
                reg.counter("bmc.budget_aborts")
                results[target] = BMCResult(ABORTED, target, t,
                                            exhaustion_reason=reason)
                continue
            lit = unroll.literal(target, t)
            with reg.span("bmc.multi/frame"):
                outcome = unroll.solver.solve(
                    [lit], conflict_budget=conflict_budget,
                    budget=budget)
            if outcome == SAT:
                model = unroll.solver.model
                cex = Counterexample(
                    depth=t,
                    inputs=[unroll.input_values(model, i)
                            for i in range(t + 1)],
                    initial_state=unroll.state_values(model, 0),
                )
                if do_cert:
                    certify_witness(net, target, cex, model=model,
                                    unroll=unroll, engine="bmc.multi")
                results[target] = BMCResult(FALSIFIED, target, t + 1, cex)
            elif outcome == UNKNOWN:
                results[target] = BMCResult(
                    ABORTED, target, t,
                    exhaustion_reason=unroll.solver.last_exhaustion)
            else:
                refuted += 1
                still_open.append(target)
        obs.progress("bmc.multi", frame=t, of=max_depth,
                     open=len(still_open), resolved=len(results),
                     budget_s=_budget_remaining(budget))
        open_targets = still_open
    if do_cert and refuted:
        certify_unsat(unroll.solver, "bmc.multi")
    for target in open_targets:
        bound = complete_bounds.get(target)
        if bound is not None and max_depth >= bound:
            results[target] = BMCResult(PROVEN, target, max_depth)
        else:
            results[target] = BMCResult(BOUNDED, target, max_depth)
    return results


def replay_counterexample(net: Netlist, target: int,
                          cex: Counterexample) -> bool:
    """Validate a counterexample by resimulation; True if target hit."""
    from ..sim import BitParallelSimulator

    sim = BitParallelSimulator(net)
    state = dict(cex.initial_state)
    # The decoded initial state already includes init-cone effects.
    for t, inputs in enumerate(cex.inputs):
        values, state = sim.step(state, inputs)
        if t == cex.depth:
            return bool(values[target] & 1)
    return False
