"""CLI: diameter bounds for every target of a netlist file.

Usage::

    python -m repro.tools.bound design.bench [--strategy COM,RET,COM]
        [--threshold 50] [--bounder structural|recurrence]

Loads a ``.bench``/``.aag`` file, applies the transformation strategy,
bounds each target's diameter, back-translates via Theorems 1-4, and
prints one line per target (the per-design content of the paper's
tables).

``--strategy`` accepts ``/``-separated alternatives (e.g.
``"COM/RET/COM,RET,COM"``): they run as a portfolio, one after the
other and sharing transform prefixes, and each target reports the best
sound bound any alternative produced, with the winning strategy named.
The portfolio bounds structurally, so alternatives do not combine with
``--bounder recurrence``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .. import obs
from ..core import TBVEngine, compare_strategies
from ..diameter import recurrence_diameter
from ..netlist import NetlistError
from ..resilience import Budget, ResourceExhausted
from .io import at_least, load_or_exit


def _recurrence_bounder(net, target):
    result = recurrence_diameter(net, from_init=True, max_k=128)
    if not result.exact:
        return 1 << 62  # effectively "no useful bound"
    return result.bound


def _portfolio_main(net, args, budget) -> int:
    """The ``/``-separated alternatives path: run every strategy (a
    portfolio) and report each target's best sound bound.  Failed
    alternatives are reported, not fatal — each bound is independently
    sound, so the minimum survives any subset of failures.  Uses the
    structural bounder (the portfolio engine's default); ``main``
    refuses ``--bounder recurrence`` here."""
    strategies = args.strategy.split("/")
    portfolio = compare_strategies(net, strategies=strategies,
                                   refine_gc_limit=args.refine_gc,
                                   budget=budget)
    print(f"portfolio: {len(strategies)} alternative(s)")
    for outcome in portfolio.outcomes:
        label = outcome.strategy or "(none)"
        if not outcome.ok:
            print(f"  {label:<20} failed: {outcome.error}")
    for target in net.targets:
        bound, strategy = portfolio.best(target)
        label = net.gate(target).name or f"t{target}"
        if bound is None:
            print(f"  {label:<20} no bound")
        elif bound == 0:
            print(f"  {label:<20} PROVEN unreachable "
                  f"(via {strategy or '(none)'})")
        else:
            star = " *" if bound < args.threshold else ""
            print(f"  {label:<20} d̂(t) = {bound}{star} "
                  f"(via {strategy or '(none)'})")
    useful = portfolio.useful(args.threshold)
    print(f"|T'|/|T| = {useful}/{len(net.targets)} "
          f"(threshold {args.threshold})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("netlist", help=".bench or .aag file")
    parser.add_argument("--strategy", default="COM,RET,COM",
                        help="transformation pipeline (default "
                             "COM,RET,COM; empty for none)")
    parser.add_argument("--threshold", type=at_least(int, 1), default=50,
                        help="useful-bound threshold (default 50)")
    parser.add_argument("--bounder", choices=["structural", "recurrence"],
                        default="structural")
    parser.add_argument("--refine-gc", type=at_least(int, 0), default=0,
                        help="reachable-state refinement for GCs up to "
                             "this many registers (structural bounder)")
    parser.add_argument("--timeout", type=at_least(float, 0), default=0,
                        help="wall-clock budget in seconds (0 = "
                             "unlimited); an exhausted COM degrades "
                             "to fewer merges, bounds stay sound")
    parser.add_argument("--progress", action="store_true",
                        help="report live engine progress on stderr")
    args = parser.parse_args(argv)
    if "/" in args.strategy and args.bounder == "recurrence":
        parser.error("--bounder recurrence does not apply to "
                     "/-separated strategy alternatives (the portfolio "
                     "bounds structurally)")
    obs.trace.setup_cli(parser, progress_flag=args.progress)
    bounder = _recurrence_bounder if args.bounder == "recurrence" else None
    try:
        engines = [TBVEngine(strategy, bounder=bounder,
                             refine_gc_limit=args.refine_gc)
                   for strategy in args.strategy.split("/")]
    except ValueError as exc:
        parser.error(str(exc))

    net = load_or_exit(parser, args.netlist)
    if not net.targets:
        parser.error("no targets to bound")
    print(f"loaded {net}")
    from ..netlist import validate as validate_netlist

    for issue in validate_netlist(net):
        print(f"  lint: {issue.severity}[{issue.code}] {issue.message}")
    budget = Budget(wall_seconds=args.timeout, name="bound") \
        if args.timeout else None
    if len(engines) > 1:
        return _portfolio_main(net, args, budget)
    try:
        result = engines[0].run(net, budget=budget)
    except NetlistError as exc:  # e.g. CSLOW on a netlist not c-slow
        parser.error(str(exc))
    except ResourceExhausted as exc:
        # Sound degradation: bound the untransformed netlist instead
        # (the structural bounder always terminates).
        print(f"budget exhausted ({exc.reason}); bounding the "
              "untransformed netlist instead")
        engine = TBVEngine("", bounder=bounder,
                           refine_gc_limit=args.refine_gc)
        result = engine.run(net)
    print(f"after {args.strategy or '(no transformation)'}: "
          f"{result.netlist}")
    for report in result.reports:
        label = report.name or f"t{report.target}"
        if report.status == "proven":
            print(f"  {label:<20} PROVEN unreachable")
        elif report.status == "trivial-hit":
            print(f"  {label:<20} trivially hit "
                  f"(within {report.bound} steps)")
        else:
            star = " *" if report.bound < args.threshold else ""
            print(f"  {label:<20} d̂(t') = {report.transformed_bound}"
                  f" -> d̂(t) = {report.bound}{star}")
    useful = result.useful(args.threshold)
    print(f"|T'|/|T| = {len(useful)}/{len(result.reports)} "
          f"(threshold {args.threshold}); avg over T' = "
          f"{result.average_bound(args.threshold):.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
