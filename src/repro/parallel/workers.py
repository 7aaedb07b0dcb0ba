"""Module-level worker entry points for the process-pool fan-out.

Every function here has the shape ``fn(payload, budget) -> result``
demanded by :meth:`repro.parallel.ParallelExecutor.map`: module-level
(so the pool pickles it by reference), payload a plain picklable dict,
result one of the library's existing dataclasses (all audited to
pickle cleanly — they carry netlists, bounds and traces, never live
solvers or registries).

Each mirrors one sequential loop body exactly — same engine
construction, same error-to-outcome mapping — so a fan-out at any
``jobs`` value reproduces the sequential results value-for-value:

* :func:`run_strategy` — one portfolio strategy
  (:func:`repro.core.portfolio.compare_strategies`);
* :func:`run_design` — one experiment table row
  (:func:`repro.experiments.runner.run_table`);
* :func:`run_bmc_probe` / :func:`run_induction_probe` — the
  independent engine probes ``prove()`` races after the portfolio.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .. import obs
from ..resilience import Budget

__all__ = ["run_bmc_probe", "run_design", "run_induction_probe",
           "run_strategy"]


def run_strategy(payload: Dict[str, Any],
                 budget: Optional[Budget]) -> Any:
    """One portfolio strategy over a netlist.

    Payload keys: ``net``, ``strategy``, ``sweep_config``,
    ``refine_gc_limit``.  Returns a
    :class:`~repro.core.portfolio.StrategyOutcome` — engine errors
    become the outcome's ``error`` field exactly as in the sequential
    portfolio loop.  :class:`Cancelled` (and anything non-engine)
    propagates to the shim.
    """
    from ..core.engine import TBVEngine
    from ..core.portfolio import StrategyOutcome
    from ..netlist import NetlistError
    from ..resilience import EngineFailure, ResourceExhausted

    strategy = payload["strategy"]
    reg = obs.get_registry()
    label = strategy or "(none)"
    try:
        with reg.span(label) as strategy_span:
            result = TBVEngine(
                strategy, sweep_config=payload.get("sweep_config"),
                refine_gc_limit=payload.get("refine_gc_limit", 0)).run(
                    payload["net"], budget=budget)
        return StrategyOutcome(strategy=strategy, result=result,
                               seconds=strategy_span.seconds)
    except (NetlistError, ValueError, EngineFailure,
            ResourceExhausted) as exc:
        reg.counter("portfolio.failures")
        return StrategyOutcome(strategy=strategy, error=str(exc),
                               seconds=strategy_span.seconds)


def run_design(payload: Dict[str, Any],
               budget: Optional[Budget]) -> Any:
    """One experiment-table row: generate the design, run the
    pipelines.

    Payload keys: ``generate`` (a module-level generator function,
    e.g. ``repro.gen.iscas89.generate``), ``name``, ``scale``,
    ``sweep_config``, and optionally ``strategy_map``.  Returns a
    :class:`~repro.experiments.runner.RowResult`; a generation failure
    yields the same error row the sequential table loop produces.
    """
    from ..experiments.runner import RowResult, evaluate_design
    from ..resilience import Cancelled

    reg = obs.get_registry()
    try:
        net = payload["generate"](payload["name"],
                                  scale=payload["scale"])
        return evaluate_design(net,
                               sweep_config=payload.get("sweep_config"),
                               strategy_map=payload.get("strategy_map"),
                               budget=budget)
    except Cancelled:
        raise
    except Exception as exc:
        reg.counter("runner.design_errors")
        reg.event("runner.design_error", design=payload["name"],
                  error=str(exc))
        return RowResult(payload["name"],
                         error=str(exc) or type(exc).__name__)


def run_bmc_probe(payload: Dict[str, Any],
                  budget: Optional[Budget]) -> Any:
    """The quick falsification probe of ``prove()``'s engine race.

    The optional ``certify`` payload key carries the parent's
    certification toggle explicitly — a worker never relies on
    inheriting process globals across the pool boundary.  A
    :class:`repro.resilience.CertificationFailure` propagates to the
    shim, surfaces as the outcome's ``error``, and re-enters the
    parent's certification retry.
    """
    from ..unroll import bmc

    reg = obs.get_registry()
    with reg.span("quick-bmc"):
        return bmc(payload["net"], payload["target"],
                   max_depth=payload["max_depth"], budget=budget,
                   certify=payload.get("certify"))


def run_induction_probe(payload: Dict[str, Any],
                        budget: Optional[Budget]) -> Any:
    """The k-induction probe of ``prove()``'s engine race.

    ``certify`` follows the :func:`run_bmc_probe` contract.
    """
    from ..unroll import k_induction

    reg = obs.get_registry()
    with reg.span("k-induction"):
        return k_induction(payload["net"], payload["target"],
                           max_k=payload["max_k"], budget=budget,
                           certify=payload.get("certify"))
