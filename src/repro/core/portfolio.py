"""Strategy portfolios: attempt several transformation pipelines.

Motivation 2 of Section 1: transformations "may vary both resource
requirements and tightness of the obtained approximation ... this
research constitutes yet another practical mechanism which may be
attempted to discharge difficult verification problems."  In practice
one therefore runs a *portfolio* of strategies and keeps, per target,
the best back-translated bound any of them produced — each is sound,
so their minimum is sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..netlist import Netlist, NetlistError
from ..resilience import Budget, Cancelled, EngineFailure, \
    ResourceExhausted
from .engine import EngineResult, PROVEN, TBVEngine

#: A sensible default portfolio (cheap to expensive).
DEFAULT_STRATEGIES = ("", "STRASH", "COM", "RET", "COM,RET,COM")


@dataclass
class StrategyOutcome:
    """One strategy's run: its result or the error that stopped it."""

    strategy: str
    result: Optional[EngineResult] = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the strategy completed without error."""
        return self.result is not None


@dataclass
class PortfolioResult:
    """All strategy outcomes plus per-target winners."""

    net: Netlist
    outcomes: List[StrategyOutcome] = field(default_factory=list)

    def best(self, target: int) -> Tuple[Optional[int], Optional[str]]:
        """The tightest sound bound for ``target`` and its strategy.

        Returns ``(0, strategy)`` for proven targets and
        ``(None, None)`` when no strategy produced a bound.
        """
        best_bound: Optional[int] = None
        best_strategy: Optional[str] = None
        for outcome in self.outcomes:
            if not outcome.ok:
                continue
            for report in outcome.result.reports:
                if report.target != target:
                    continue
                bound = 0 if report.status == PROVEN else report.bound
                if bound is None:
                    continue
                if best_bound is None or bound < best_bound:
                    best_bound = bound
                    best_strategy = outcome.strategy
        return best_bound, best_strategy

    def best_per_target(self) -> Dict[int, Tuple[Optional[int],
                                                 Optional[str]]]:
        """Best ``(bound, strategy)`` for every target."""
        return {t: self.best(t) for t in self.net.targets}

    def useful(self, threshold: int = 50) -> int:
        """Targets whose *best* bound beats ``threshold`` — the
        portfolio's |T'| (>= any single strategy's)."""
        count = 0
        for t in self.net.targets:
            bound, _ = self.best(t)
            if bound is not None and bound < threshold:
                count += 1
        return count

    def summary(self) -> str:
        """A human-readable multi-line summary."""
        lines = [f"portfolio over {self.net.name}: "
                 f"{len(self.net.targets)} target(s)"]
        for outcome in self.outcomes:
            label = outcome.strategy or "(none)"
            if not outcome.ok:
                lines.append(f"  {label:<14} failed: {outcome.error}")
                continue
            useful = len(outcome.result.useful())
            lines.append(
                f"  {label:<14} |T'| = {useful:<4} "
                f"({outcome.seconds * 1e3:7.1f} ms)")
        lines.append(f"  {'portfolio':<14} |T'| = {self.useful()}")
        return "\n".join(lines)


def compare_strategies(
    net: Netlist,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    sweep_config=None,
    refine_gc_limit: int = 0,
    budget: Optional[Budget] = None,
    jobs: int = 1,
) -> PortfolioResult:
    """Run every strategy; failures (e.g. CSLOW on a non-c-slow
    netlist, an engine crash, an exhausted per-strategy budget) are
    recorded, not raised — each strategy's bound is independently
    sound, so the portfolio survives any subset of them.

    Each strategy runs under the obs span ``portfolio/<strategy>``, so
    per-strategy wall-time and the solver effort spent inside it land
    in the active registry; ``StrategyOutcome.seconds`` is the span's
    own duration (monotonic).

    ``budget`` governs the whole portfolio: each strategy runs on an
    equal :meth:`~repro.resilience.Budget.slice` of whatever remains,
    strategies are skipped outright (with a recorded outcome and a
    ``portfolio.budget_skips`` counter) once the shared pool is dry,
    and cancellation raises :class:`Cancelled` immediately.

    ``jobs > 1`` fans the strategies across the work-stealing pool
    (:mod:`repro.parallel`): outcomes come back in strategy order, so
    without a budget the per-target minima are identical at any
    ``jobs`` value.  The strategies share ``budget`` as one pool under
    one deadline, as table rows do, instead of taking equal slices; a
    strategy whose worker crashes becomes a failed outcome (never an
    aborted portfolio), and worker telemetry lands under
    ``parallel/portfolio/<strategy>``.
    """
    if jobs > 1:
        return _compare_strategies_parallel(
            net, strategies, sweep_config, refine_gc_limit, budget,
            jobs)
    portfolio = PortfolioResult(net=net)
    reg = obs.get_registry()
    with reg.span("portfolio"):
        for i, strategy in enumerate(strategies):
            label = strategy or "(none)"
            sub: Optional[Budget] = None
            if budget is not None:
                if budget.cancelled:
                    raise Cancelled(budget_name=budget.name)
                reason = budget.exhausted()
                if reason is not None:
                    reg.counter("portfolio.budget_skips")
                    portfolio.outcomes.append(StrategyOutcome(
                        strategy=strategy,
                        error=f"skipped: budget exhausted ({reason})"))
                    continue
                # Equal share of the remaining pool per pending
                # strategy, so an expensive early pipeline cannot
                # starve the rest of the portfolio.
                sub = budget.slice(1.0 / (len(strategies) - i),
                                   name=f"portfolio[{label}]")
            try:
                with reg.span(label) as strategy_span:
                    result = TBVEngine(
                        strategy, sweep_config=sweep_config,
                        refine_gc_limit=refine_gc_limit).run(
                            net, budget=sub)
                portfolio.outcomes.append(StrategyOutcome(
                    strategy=strategy, result=result,
                    seconds=strategy_span.seconds))
            except (NetlistError, ValueError, EngineFailure,
                    ResourceExhausted) as exc:
                reg.counter("portfolio.failures")
                portfolio.outcomes.append(StrategyOutcome(
                    strategy=strategy, error=str(exc),
                    seconds=strategy_span.seconds))
    return portfolio


def _compare_strategies_parallel(
    net: Netlist,
    strategies: Sequence[str],
    sweep_config,
    refine_gc_limit: int,
    budget: Optional[Budget],
    jobs: int,
) -> PortfolioResult:
    """The ``jobs > 1`` fan-out of :func:`compare_strategies`."""
    from ..parallel import ParallelExecutor
    from ..parallel.workers import run_strategy

    portfolio = PortfolioResult(net=net)
    reg = obs.get_registry()
    payloads = [{"net": net, "strategy": strategy,
                 "sweep_config": sweep_config,
                 "refine_gc_limit": refine_gc_limit}
                for strategy in strategies]
    labels = [strategy or "(none)" for strategy in strategies]
    with reg.span("portfolio"):
        executor = ParallelExecutor(jobs=jobs, name="portfolio")
        outcomes = executor.map(run_strategy, payloads, budget=budget,
                                labels=labels)
        for strategy, outcome in zip(strategies, outcomes):
            if outcome.ok:
                portfolio.outcomes.append(outcome.value)
            else:
                # Worker crash or typed error: the same failed-outcome
                # shape the sequential loop records.
                reg.counter("portfolio.failures")
                portfolio.outcomes.append(StrategyOutcome(
                    strategy=strategy, error=str(outcome.error),
                    seconds=outcome.seconds))
    return portfolio
