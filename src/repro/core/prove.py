"""A top-level verification manager: ``prove(net, target)``.

Orchestrates everything the library implements into the decision
procedure the paper motivates: try transformation-based diameter
bounds first (a small bound turns BMC into a full decision procedure);
quickly search for shallow counterexamples; fall back to k-induction
and localization refinement when bounds stay impractical.

Resource governance (Layer 0.6): ``prove`` accepts a
:class:`repro.resilience.Budget` and slices it across its phases.  On
exhaustion or an engine failure it *degrades, never lies*: the result
falls back to the always-terminating structural bounder on the
original netlist — the only fallback that is sound for diameter
(approximation-derived bounds do not back-translate, Sections
3.5/3.6) — with ``degraded=True`` and a structured
``exhaustion_reason``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import obs
from ..netlist import Netlist
from ..resilience import Budget, CertificationFailure, EngineFailure
from ..transform.localize_cegar import localization_refinement
from ..unroll import Counterexample, FALSIFIED as BMCFALSIFIED, \
    PROVEN as BMC_PROVEN, bmc, k_induction
from .portfolio import DEFAULT_STRATEGIES, compare_strategies

#: Final verdicts.
PROVEN = "proven"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


@dataclass
class ProofResult:
    """Outcome of :func:`prove` for a single target.

    ``degraded`` marks a run that hit its resource budget or an engine
    failure and fell back to the structural bounder; the reported
    ``bound`` is still sound.  ``exhaustion_reason`` carries the
    structured cause (one of
    :data:`repro.resilience.EXHAUSTION_REASONS`, ``"failure"`` for an
    engine crash, or ``"certification"`` when a verdict failed its
    proof/witness check on the first run and on the retry).
    """

    status: str
    method: str
    target: int
    bound: Optional[int] = None
    strategy: Optional[str] = None
    counterexample: Optional[Counterexample] = None
    seconds: float = 0.0
    log: List[str] = field(default_factory=list)
    degraded: bool = False
    exhaustion_reason: Optional[str] = None


def _structural_fallback(net: Netlist, target: int,
                         best: Optional[int]) -> Optional[int]:
    """The sound degradation bound: the structural analysis of the
    *original* netlist, combined with any bound already in hand.

    Never budgeted — it must terminate for degradation to be graceful
    — and never replaced by an approximation engine: localization /
    c-slow bounds do not back-translate (Sections 3.5/3.6), so using
    them here would be unsound.
    """
    try:
        from ..diameter.structural import StructuralAnalysis

        fallback = StructuralAnalysis(net).bound(target)
    except Exception:  # pragma: no cover - structural never raises
        return best
    if best is None:
        return fallback
    return min(best, fallback)


def _run_certified(reg, budget: Optional[Budget], phase: str, call):
    """Run an engine call, retrying it once after a certification
    failure.

    A genuine solver bug fails again (the checker does not share the
    search), while a transient fault — such as a scripted
    :class:`~repro.resilience.FaultPlan` whose call indices have
    passed — recovers.  The retry runs under whatever budget survives,
    after a tiny budget-capped backoff; with the budget already
    exhausted the arbitration gives up immediately.  A second
    :class:`CertificationFailure` (or any :class:`EngineFailure`)
    propagates to the caller's degradation path.
    """
    try:
        return call()
    except CertificationFailure:
        pass
    reg.counter("cert.retried")
    reg.event("cert.retry", phase=phase)
    delay = 0.05
    if budget is not None:
        reason = budget.exhausted()
        if reason is not None:
            raise CertificationFailure(
                phase, stage="arbitration",
                message=f"budget exhausted ({reason}) before the "
                        "certification retry")
        remaining = budget.remaining_seconds()
        if remaining is not None:
            delay = max(0.0, min(delay, remaining * 0.1))
    if delay:
        time.sleep(delay)
    result = call()
    reg.counter("cert.recovered")
    return result


def prove(
    net: Netlist,
    target: Optional[int] = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    max_complete_depth: int = 64,
    quick_bmc_depth: int = 10,
    induction_k: int = 8,
    sweep_config=None,
    refine_gc_limit: int = 6,
    budget: Optional[Budget] = None,
) -> ProofResult:
    """Decide ``AG(!target)`` with the full engine stack.

    1. run the strategy portfolio; keep the best back-translated bound;
    2. if the bound fits ``max_complete_depth``, discharge completely
       with BMC (Theorem 1-4 soundness makes this a decision);
    3. otherwise run k-induction, whose base case is the quick
       search for shallow counterexamples: base and step run in
       lockstep, and when the step stays inconclusive the base window
       continues to ``quick_bmc_depth`` frames (at least
       ``induction_k + 1``).  A base hit is reported with method
       ``"bmc"``.  Then localization refinement;
    4. report ``unknown`` with the best bound when everything passes.

    ``budget`` governs the whole call: the portfolio runs on a 40%
    slice (so the fallback phases always have time left), every later
    phase checks the deadline before starting, and any
    exhaustion or :class:`EngineFailure` degrades to the structural
    bound (see the module docstring) instead of raising.

    Certification arbitration: when verdict certification is armed
    (:func:`repro.cert.use_certification`, which ``repro-check
    --certify`` enters), BMC and k-induction build their solvers with
    ``Solver(proof=True)``, and a
    :class:`repro.resilience.CertificationFailure` from either
    triggers ONE retry of that engine call under the surviving budget
    (``cert.retried`` / ``cert.recovered`` counters); a second
    failure degrades to the structural bound with
    ``exhaustion_reason="certification"`` — the same never-lie
    posture as an engine crash.
    """
    if target is None:
        if not net.targets:
            raise ValueError("netlist has no targets")
        target = net.targets[0]
    watch = obs.stopwatch()
    reg = obs.get_registry()
    log: List[str] = []

    def degraded(best: Optional[int], strategy: Optional[str],
                 reason: str, detail: str) -> ProofResult:
        reg.counter("resilience.downgrades")
        reg.event("resilience.downgrade", target=target,
                  reason=reason, detail=detail)
        log.append(f"degraded ({reason}): {detail}; "
                   "falling back to structural bound")
        bound = _structural_fallback(net, target, best)
        return ProofResult(UNKNOWN, "structural-fallback", target,
                           bound=bound, strategy=strategy, log=log,
                           seconds=watch.elapsed, degraded=True,
                           exhaustion_reason=reason)

    def gate(best: Optional[int], strategy: Optional[str],
             phase: str) -> Optional[ProofResult]:
        """Pre-phase budget check; a result means stop degraded."""
        if budget is None:
            return None
        reason = budget.exhausted()
        if reason is None:
            return None
        return degraded(best, strategy, reason,
                        f"budget exhausted before {phase}")

    with reg.span("prove"):
        scoped = net.copy()
        scoped.targets = [target]
        # The portfolio gets a capped share so the completion phases
        # are never starved by a pathological transformation pipeline.
        portfolio_budget = None if budget is None else \
            budget.slice(0.4, name="prove/portfolio")
        portfolio = compare_strategies(scoped, strategies=strategies,
                                       sweep_config=sweep_config,
                                       refine_gc_limit=refine_gc_limit,
                                       budget=portfolio_budget)
        bound, strategy = portfolio.best(target)
        log.append(f"portfolio best bound: {bound} via "
                   f"{strategy or '(none)'}")
        if bound == 0:
            reg.counter("prove.proven.transformation")
            return ProofResult(PROVEN, "transformation", target, bound=0,
                               strategy=strategy, log=log,
                               seconds=watch.elapsed)
        if bound is not None and bound <= max_complete_depth:
            stop = gate(bound, strategy, "complete BMC")
            if stop is not None:
                return stop
            try:
                with reg.span("complete-bmc"):
                    check = _run_certified(
                        reg, budget, "complete-bmc",
                        lambda: bmc(net, target, max_depth=bound,
                                    complete_bound=bound,
                                    budget=budget))
            except CertificationFailure as exc:
                return degraded(bound, strategy, "certification",
                                str(exc))
            except EngineFailure as exc:
                return degraded(bound, strategy, "failure", str(exc))
            log.append(f"complete BMC to {bound}: {check.status}")
            if check.status == BMC_PROVEN:
                reg.counter("prove.proven.complete-bmc")
                return ProofResult(PROVEN, "complete-bmc", target,
                                   bound=bound, strategy=strategy,
                                   log=log, seconds=watch.elapsed)
            if check.status == BMCFALSIFIED:
                reg.counter("prove.falsified.complete-bmc")
                return ProofResult(FALSIFIED, "complete-bmc", target,
                                   bound=bound, strategy=strategy,
                                   counterexample=check.counterexample,
                                   log=log, seconds=watch.elapsed)

        stop = gate(bound, strategy, "k-induction")
        if stop is not None:
            return stop
        try:
            with reg.span("k-induction"):
                induct = _run_certified(
                    reg, budget, "k-induction",
                    lambda: k_induction(net, target, max_k=induction_k,
                                        base_depth=quick_bmc_depth,
                                        budget=budget))
        except CertificationFailure as exc:
            return degraded(bound, strategy, "certification", str(exc))
        except EngineFailure as exc:
            return degraded(bound, strategy, "failure", str(exc))
        log.append(f"k-induction to k={induction_k}: {induct.status}")
        if induct.status == BMC_PROVEN:
            reg.counter("prove.proven.k-induction")
            return ProofResult(PROVEN, "k-induction", target,
                               bound=bound, log=log,
                               seconds=watch.elapsed)
        if induct.status == BMCFALSIFIED:
            reg.counter("prove.falsified.bmc")
            return ProofResult(FALSIFIED, "bmc", target, bound=bound,
                               counterexample=induct.counterexample,
                               log=log, seconds=watch.elapsed)

        stop = gate(bound, strategy, "localization")
        if stop is not None:
            return stop
        try:
            with reg.span("localization"):
                cegar = localization_refinement(
                    net, target, max_depth=max_complete_depth,
                    budget=budget)
            log.append(f"localization refinement: {cegar.status} "
                       f"({cegar.iterations} iteration(s))")
            if cegar.status == "proven":
                reg.counter("prove.proven.localization")
                return ProofResult(PROVEN, "localization", target,
                                   bound=bound, log=log,
                                   seconds=watch.elapsed)
            if cegar.status == "falsified":
                reg.counter("prove.falsified.localization")
                return ProofResult(
                    FALSIFIED, "localization", target, bound=bound,
                    counterexample=cegar.counterexample,
                    log=log, seconds=watch.elapsed)
        except CertificationFailure as exc:
            # Localization runs concrete BMC internally; its
            # certification failures degrade without a retry
            # (the refinement loop is not idempotent enough to
            # replay wholesale).
            return degraded(bound, strategy, "certification",
                            str(exc))
        except EngineFailure as exc:
            return degraded(bound, strategy, "failure", str(exc))

    reg.counter("prove.unknown")
    return ProofResult(UNKNOWN, "exhausted", target, bound=bound,
                       strategy=strategy, log=log,
                       seconds=watch.elapsed)
