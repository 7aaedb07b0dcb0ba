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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..cert import certification_enabled, certify_unsat, certify_witness
from ..netlist import Netlist
from ..resilience import Budget
from ..sat import SAT, UNKNOWN, Solver
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

    ``certified`` is True when the engine that returned the verdict
    ran its certificate checks on it: the DRAT check of every refuted
    frame and, for :data:`FALSIFIED`, the witness replay.  It stays
    False when certification was off and on every :data:`ABORTED`
    result.

    Keep these conventions in sync with :func:`bmc` and
    ``k_induction`` (whose PROVEN reuses the field for the inductive
    ``k`` — documented there).
    """

    status: str
    target: int
    depth_checked: int
    counterexample: Optional[Counterexample] = None
    exhaustion_reason: Optional[str] = None
    certified: bool = False

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
    """Pre-frame cooperative check: the exhaustion reason (None to
    keep going)."""
    if budget is None:
        return None
    return budget.exhausted()


def bmc(
    net: Netlist,
    target: Optional[int] = None,
    max_depth: int = 20,
    complete_bound: Optional[int] = None,
    budget: Optional[Budget] = None,
) -> BMCResult:
    """Check target reachability for depths ``0 .. max_depth - 1``.

    ``complete_bound`` is a diameter bound for the target: if the
    window covers ``0 .. complete_bound - 1`` with no hit, the target
    is declared :data:`PROVEN` unreachable.  Returns the first
    counterexample otherwise.  ``budget`` is checked before every
    frame (and cooperatively inside each solve) — exhaustion yields
    :data:`ABORTED` with a structured ``exhaustion_reason``.

    Under :func:`repro.cert.use_certification` the call certifies its
    verdict: the unrolling is built on a ``Solver(proof=True)``,
    refuted windows are checked by the :mod:`repro.cert.drat` checker
    on exit, and counterexamples are replayed through the bit-parallel
    simulator before FALSIFIED is returned.  A verdict that passes
    carries ``certified=True``; one that fails its check raises
    :class:`repro.resilience.CertificationFailure` instead of
    returning.  ABORTED results are never certified (no verdict
    stands).  A negative ``max_depth`` raises :class:`ValueError`.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be non-negative, got {max_depth}")
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    do_cert = certification_enabled()
    unroll = Unrolling(net, Solver(proof=do_cert), constrain_init=True)
    depth = max_depth
    if complete_bound is not None:
        depth = min(max_depth, complete_bound)
    with obs.get_registry().span("bmc"):
        for t in range(depth):
            stop = _solve_frame(unroll, target, t, depth, budget,
                                do_cert, "bmc")
            if stop is not None:
                return stop
    if do_cert and depth > 0:
        certify_unsat(unroll.solver, "bmc")
    status = BOUNDED
    if complete_bound is not None and depth >= complete_bound:
        status = PROVEN
    return BMCResult(status, target, depth, certified=do_cert)


def _solve_frame(
    unroll: Unrolling,
    target: int,
    t: int,
    of: int,
    budget: Optional[Budget],
    certify: bool,
    engine: str,
) -> Optional[BMCResult]:
    """Solve frame ``t`` of one BMC window, the frame loop's body.

    ``unroll`` is constrained to the initial states and frames ``0 ..
    t - 1`` of ``target`` are already refuted on its solver; ``of`` is
    the window size (for progress records).  Returns None when frame
    ``t`` is refuted too.  Otherwise returns the verdict that ends the
    window: :data:`ABORTED` when ``budget`` is exhausted before the
    solve or the solver gives up (frame ``t`` unresolved), or
    :data:`FALSIFIED` with the decoded counterexample.  Under
    ``certify`` the counterexample is replayed and the refuted frames
    are DRAT-checked before FALSIFIED is returned; a window that ends
    refuted is the caller's to check.  ``engine`` names the caller in
    certificate records and failures.
    """
    reg = obs.get_registry()
    reason = _budget_abort(budget)
    if reason is not None:
        reg.counter("bmc.budget_aborts")
        return BMCResult(ABORTED, target, t, exhaustion_reason=reason)
    lit = unroll.literal(target, t)
    with reg.span("frame") as frame_span:
        result = unroll.solver.solve([lit], budget=budget)
    reg.event("bmc.frame", t=t, result=result, seconds=frame_span.seconds)
    obs.progress("bmc", frame=t, of=of, result=result,
                 seconds=round(frame_span.seconds, 6),
                 budget_s=_budget_remaining(budget))
    if result == SAT:
        model = unroll.solver.model
        cex = Counterexample(
            depth=t,
            inputs=[unroll.input_values(model, i) for i in range(t + 1)],
            initial_state=unroll.state_values(model, 0),
        )
        if certify:
            certify_witness(unroll.net, target, cex, model=model,
                            unroll=unroll, engine=engine)
            if t:
                certify_unsat(unroll.solver, engine)
        return BMCResult(FALSIFIED, target, t + 1, cex, certified=certify)
    if result == UNKNOWN:
        return BMCResult(ABORTED, target, t,
                         exhaustion_reason=unroll.solver.last_exhaustion)
    return None


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
