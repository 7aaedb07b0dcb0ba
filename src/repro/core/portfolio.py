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
from ..resilience import Budget, EngineFailure, ResourceExhausted
from .engine import EngineResult, PROVEN, Prefixes, TBVEngine

#: A sensible default portfolio (cheap to expensive).
DEFAULT_STRATEGIES = ("", "STRASH", "COM", "RET", "COM,RET,COM")


@dataclass
class StrategyOutcome:
    """One strategy's run: its result or the error that stopped it.

    ``seconds`` is the strategy's own time: a transform prefix it
    resumed from an earlier strategy of the same portfolio is counted
    in that strategy only.
    """

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


def run_strategy(net: Netlist, strategy: str, sweep_config,
                 refine_gc_limit: int, budget: Optional[Budget],
                 prefixes: Optional[Prefixes] = None) -> StrategyOutcome:
    """One portfolio strategy over ``net``, under the obs span
    ``<strategy>``.  ``prefixes`` is :meth:`TBVEngine.transform`'s.
    Engine errors become the outcome's ``error`` field.
    """
    reg = obs.get_registry()
    try:
        with reg.span(strategy or "(none)") as strategy_span:
            result = TBVEngine(
                strategy, sweep_config=sweep_config,
                refine_gc_limit=refine_gc_limit).run(
                    net, budget=budget, prefixes=prefixes)
        return StrategyOutcome(strategy=strategy, result=result,
                               seconds=strategy_span.seconds)
    except (NetlistError, ValueError, EngineFailure,
            ResourceExhausted) as exc:
        reg.counter("portfolio.failures")
        return StrategyOutcome(strategy=strategy, error=str(exc),
                               seconds=strategy_span.seconds)


def compare_strategies(
    net: Netlist,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    sweep_config=None,
    refine_gc_limit: int = 0,
    budget: Optional[Budget] = None,
) -> PortfolioResult:
    """Run every strategy; failures (e.g. CSLOW on a non-c-slow
    netlist, an engine crash, an exhausted per-strategy budget) are
    recorded, not raised — each strategy's bound is independently
    sound, so the portfolio survives any subset of them.

    Each strategy runs under the obs span ``portfolio/<strategy>``, so
    per-strategy wall-time and the solver effort spent inside it land
    in the active registry; ``StrategyOutcome.seconds`` is the span's
    own duration (monotonic).  The strategies share their transform
    prefixes: ``COM,RET,COM`` resumes from the ``COM`` strategy's
    chain instead of sweeping again (see :meth:`TBVEngine.transform`).

    ``budget`` governs the whole portfolio: each strategy runs on an
    equal :meth:`~repro.resilience.Budget.slice` of whatever time
    remains, strategies are skipped outright (with a recorded outcome
    and a ``portfolio.budget_skips`` counter) once the deadline has
    passed.
    """
    portfolio = PortfolioResult(net=net)
    reg = obs.get_registry()
    with reg.span("portfolio"):
        prefixes: Prefixes = {}
        for i, strategy in enumerate(strategies):
            sub: Optional[Budget] = None
            if budget is not None:
                reason = budget.exhausted()
                if reason is not None:
                    reg.counter("portfolio.budget_skips")
                    portfolio.outcomes.append(StrategyOutcome(
                        strategy=strategy,
                        error=f"skipped: budget exhausted ({reason})"))
                    continue
                # Equal share of the remaining time per pending
                # strategy, so an expensive early pipeline cannot
                # starve the rest of the portfolio.
                label = strategy or "(none)"
                sub = budget.slice(1.0 / (len(strategies) - i),
                                   name=f"portfolio[{label}]")
            portfolio.outcomes.append(run_strategy(
                net, strategy, sweep_config, refine_gc_limit, sub,
                prefixes))
    return portfolio
