"""SAT-based recurrence diameter computation.

"The recurrence diameter [2] of a design is its maximum-length
irredundant state sequence, and may be calculated by a series of
propositional satisfiability problems."  We search for the smallest
``k`` such that no simple path (all states pairwise distinct) with
``k`` transitions exists; a BMC window of ``k`` time-steps
(``0 .. k - 1`` states visited plus the arrival state) is then
complete.  Per Kroening/Strichman [6], restricting the path to start
in an initial state yields a tighter (still sound for BMC-
completeness) variant; both are provided.

The recurrence diameter may be exponentially larger than the true
diameter (a free-running n-bit counter has recurrence diameter 2**n
but small functional diameters for many observables), which is exactly
the weakness the paper's structural transformations address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..netlist import Netlist
from ..resilience import Budget
from ..sat import UNKNOWN, UNSAT
from ..unroll import Unrolling, add_state_difference


@dataclass
class RecurrenceResult:
    """Outcome of a recurrence-diameter computation.

    ``bound`` is the completeness bound (number of BMC time-steps that
    suffice), i.e. one greater than the longest simple path found;
    ``exact`` is False when the search stopped on ``max_k`` or a
    resource limit, in which case ``bound`` is only a lower bound of
    the true recurrence bound and *must not* be used for completeness.
    ``exhaustion_reason`` carries the structured cause of an inexact
    stop driven by a resource budget (None for a plain ``max_k``
    exit).
    """

    bound: int
    exact: bool
    longest_path: int
    exhaustion_reason: Optional[str] = None


def recurrence_diameter(
    net: Netlist,
    from_init: bool = False,
    max_k: int = 64,
    budget: Optional[Budget] = None,
) -> RecurrenceResult:
    """Compute the recurrence diameter by a series of SAT problems.

    ``from_init=True`` anchors the path in the initial states (the
    Kroening/Strichman refinement); otherwise paths start anywhere.
    ``budget`` is checked per step; exhaustion yields an inexact
    result with a structured ``exhaustion_reason``.
    """
    unroll = Unrolling(net, constrain_init=from_init)
    k = 1
    longest = 0
    reg = obs.get_registry()
    with reg.span("diameter.recurrence"):
        while k <= max_k:
            if budget is not None:
                reason = budget.exhausted()
                if reason is not None:
                    return RecurrenceResult(bound=k, exact=False,
                                            longest_path=longest,
                                            exhaustion_reason=reason)
            unroll.frame(k - 1)  # ensure frames 0..k-1 and state k exist
            # Add distinctness between the newest state and all others.
            for i in range(k):
                add_state_difference(unroll.sink, unroll.state_lits[i],
                                     unroll.state_lits[k])
            with reg.span("step") as step_span:
                result = unroll.solver.solve(budget=budget)
            reg.event("recurrence.step", k=k, result=result,
                      seconds=step_span.seconds)
            obs.progress("recurrence", k=k, of=max_k, result=result,
                         bound_so_far=longest + 1,
                         seconds=round(step_span.seconds, 6))
            if result == UNSAT:
                return RecurrenceResult(bound=k, exact=True,
                                        longest_path=k - 1)
            if result == UNKNOWN:
                return RecurrenceResult(
                    bound=k, exact=False, longest_path=longest,
                    exhaustion_reason=unroll.solver.last_exhaustion)
            longest = k
            k += 1
    return RecurrenceResult(bound=max_k + 1, exact=False, longest_path=longest)


def recurrence_diameter_for_target(
    net: Netlist,
    target: int,
    from_init: bool = True,
    max_k: int = 64,
    budget: Optional[Budget] = None,
) -> RecurrenceResult:
    """Recurrence bound restricted to the target's cone of influence.

    The bounded cone-of-influence refinement of Kroening/Strichman [6]
    cited in Section 1: state elements outside ``coi(target)`` cannot
    affect the target, so the simple-path constraint may ignore them —
    often exponentially tightening the bound (any free-running counter
    elsewhere in the design otherwise pumps the path length).
    Implemented by reducing to the cone (trace-equivalence preserving,
    Theorem 1 keeps the bound valid for the original target).
    """
    from ..transform.coi import coi_reduction

    reduced = coi_reduction(net, roots=[target])
    return recurrence_diameter(reduced.netlist, from_init=from_init,
                               max_k=max_k, budget=budget)
