"""Counterexample-guided localization refinement.

Section 3.5 establishes that localization's diameter bounds do not
back-translate — but its *unreachability verdicts* do ("any target
assessed to be unreachable after overapproximation is guaranteed to be
unreachable before").  This module combines that one-way soundness
with the rest of the system into the classic CEGAR loop:

1. keep only the registers within ``radius`` register-levels of the
   target; localize the rest (they become free inputs);
2. bound the *abstraction's* diameter structurally — the bound is
   valid for the abstraction, so a clean BMC window of that depth
   proves the abstract target unreachable, which transfers to the
   original netlist;
3. an abstract counterexample is checked on the original netlist with
   an exact bounded query; a real hit concludes FALSIFIED, a spurious
   one widens the radius and repeats.

The loop terminates: the radius eventually restores every register,
at which point the "abstraction" is exact and its BMC runs on the
original netlist, so a hit there needs no concretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..diameter.structural import StructuralAnalysis
from ..netlist import Netlist
from ..resilience import Budget
from ..unroll import ABORTED, FALSIFIED, PROVEN, Counterexample, bmc
from .approx import localize_by_distance

#: Loop outcomes.
REFINED_OUT = "exhausted"  # gave up (depth budget) without an answer


@dataclass
class LocalizationResult:
    """Outcome of the localization-refinement loop.

    A ``falsified`` result carries a ``counterexample`` on the
    original netlist (not on the abstraction), found by a concrete
    BMC run that hit, and that run's ``certified`` flag (see
    :class:`~repro.unroll.BMCResult`).
    """

    status: str  # 'proven' | 'falsified' | 'exhausted'
    iterations: int
    final_radius: int
    abstraction: Optional[Netlist] = None
    abstraction_registers: int = 0
    history: List[str] = field(default_factory=list)
    counterexample: Optional[Counterexample] = None
    exhaustion_reason: Optional[str] = None
    certified: bool = False


def localization_refinement(
    net: Netlist,
    target: Optional[int] = None,
    initial_radius: int = 1,
    max_depth: int = 64,
    budget: Optional[Budget] = None,
) -> LocalizationResult:
    """Run the CEGAR loop for one target; see the module docstring.

    ``budget`` is checked per refinement iteration and threaded into
    the inner BMC runs; exhaustion returns an ``exhausted`` result
    carrying a structured ``exhaustion_reason`` (which is sound — the
    loop only ever concludes from definitive inner verdicts).
    """
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    total_registers = len(net.state_elements)
    radius = initial_radius
    iterations = 0
    history: List[str] = []
    while True:
        iterations += 1
        if budget is not None:
            reason = budget.exhausted()
            if reason is not None:
                return LocalizationResult(
                    status=REFINED_OUT, iterations=iterations,
                    final_radius=radius, history=history,
                    exhaustion_reason=reason)
        abstraction_result = localize_by_distance(net, target, radius)
        abstraction = abstraction_result.netlist
        abs_target = abstraction_result.step.target_map[target]
        if abs_target is None:  # pragma: no cover - targets never drop
            raise RuntimeError("target vanished during localization")

        exact = len(abstraction.state_elements) >= total_registers
        bound = StructuralAnalysis(abstraction, budget=budget) \
            .bound(abs_target)
        window = min(bound, max_depth)
        # An abstraction that keeps every register behaves as ``net``
        # does, so its window is checked on ``net`` itself and a hit
        # is already concrete.
        check = bmc(net if exact else abstraction,
                    target if exact else abs_target, max_depth=window,
                    complete_bound=bound if bound <= max_depth else None,
                    budget=budget)
        if check.status == ABORTED:
            return LocalizationResult(
                status=REFINED_OUT, iterations=iterations,
                final_radius=radius, abstraction=abstraction,
                abstraction_registers=len(abstraction.state_elements),
                history=history,
                exhaustion_reason=check.exhaustion_reason)
        history.append(
            f"radius={radius} regs={len(abstraction.state_elements)}"
            f"/{total_registers} bound={bound} -> {check.status}")

        if check.status == PROVEN:
            return LocalizationResult(
                status="proven", iterations=iterations,
                final_radius=radius, abstraction=abstraction,
                abstraction_registers=len(abstraction.state_elements),
                history=history)
        if check.status == FALSIFIED:
            depth = check.counterexample.depth
            concrete = check
            if not exact:
                # Concretization check: exact bounded query on the
                # original netlist at the abstract counterexample depth.
                concrete = bmc(net, target, max_depth=depth + 1,
                               budget=budget)
            if concrete.status == ABORTED:
                return LocalizationResult(
                    status=REFINED_OUT, iterations=iterations,
                    final_radius=radius, abstraction=abstraction,
                    abstraction_registers=len(abstraction.state_elements),
                    history=history,
                    exhaustion_reason=concrete.exhaustion_reason)
            if concrete.status == FALSIFIED:
                return LocalizationResult(
                    status="falsified", iterations=iterations,
                    final_radius=radius, abstraction=abstraction,
                    abstraction_registers=len(abstraction.state_elements),
                    history=history,
                    counterexample=concrete.counterexample,
                    certified=concrete.certified)
            history.append(f"  spurious at depth {depth}; refining")
        if exact:
            # The window closed inconclusively on the netlist itself.
            return LocalizationResult(
                status=REFINED_OUT, iterations=iterations,
                final_radius=radius, abstraction=abstraction,
                abstraction_registers=len(abstraction.state_elements),
                history=history)
        radius += 1
