"""Shared experiment harness for the Table 1 / Table 2 reproductions.

For every design the paper's three columns are reproduced:

* **Original Netlist** — the structural diameter bound of [7] run
  directly on the (synthesized) design;
* **COM** — bound on the redundancy-removed netlist, back-translated by
  Theorem 1;
* **COM,RET,COM** — bound after redundancy removal + min-register
  normalized retiming, back-translated by Theorems 1 and 2.

Each column reports the register classification ``R in CC; AC; MC+QC;
GC``, the useful-target count ``|T'|`` (bound below 50), and the
average bound over ``T'`` — exactly the quantities of Tables 1 and 2.

Robustness: one failing design or pipeline never aborts a table.  Per-
pipeline failures (engine crash, exhausted budget) become *error
cells* (:attr:`ColumnResult.error`), per-design failures become error
rows (:attr:`RowResult.error`); the Σ row and the renderer skip them.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, \
    Tuple

from .. import obs
from ..core import TBVEngine
from ..core.engine import Prefixes
from ..diameter.structural import StructuralAnalysis
from ..gen.profiles import USEFUL_THRESHOLD, DesignProfile
from ..netlist import Netlist
from ..resilience import Budget
from ..tools.io import above, at_least
from ..transform import SweepConfig

#: Sweep configuration tuned for experiment throughput (the structural
#: bounder itself is sub-second; COM's SAT sweeping dominates).
EXPERIMENT_SWEEP = SweepConfig(sim_cycles=8, sim_width=32,
                               conflict_budget=300)

PIPELINES = ("original", "com", "crc")
_STRATEGY = {"original": "", "com": "COM", "crc": "COM,RET,COM"}

#: The full GP flow of Table 2's preamble: the latch netlists are first
#: folded by the phase-abstraction engine [10], then pushed through the
#: Table pipelines (Theorem 3 contributes the factor-c on the way back).
LATCHED_STRATEGY = {
    "original": "PHASE",
    "com": "PHASE,COM",
    "crc": "PHASE,COM,RET,COM",
}


@dataclass
class ColumnResult:
    """One pipeline column for one design.

    A non-None ``error`` marks a column whose pipeline failed or ran
    out of budget; the numeric fields are then zeros/placeholders and
    the column is excluded from the Σ row.  ``exhaustion_reason`` is
    set when the error was a structured resource exhaustion.
    ``seconds`` is the pipeline's own time: a transform prefix it
    resumed from an earlier column (``COM,RET,COM``'s first ``COM``)
    is counted in that column only.
    """

    profile: Tuple[int, int, int, int]  # (CC, AC, MC+QC, GC)
    useful: int
    targets: int
    average: float
    seconds: float = 0.0
    error: Optional[str] = None
    exhaustion_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the column holds real measurements."""
        return self.error is None


@dataclass
class RowResult:
    """One design row across the three pipeline columns.

    ``error`` marks a design that failed before any pipeline could
    run (e.g. generation error, budget exhausted); its ``columns``
    dict is then empty.
    """

    name: str
    columns: Dict[str, ColumnResult] = field(default_factory=dict)
    error: Optional[str] = None


def _error_column(targets: int, message: str,
                  exhaustion_reason: Optional[str] = None,
                  seconds: float = 0.0) -> ColumnResult:
    return ColumnResult(profile=(0, 0, 0, 0), useful=0, targets=targets,
                        average=0.0, seconds=seconds, error=message,
                        exhaustion_reason=exhaustion_reason)


def _profile_tuple(analysis: StructuralAnalysis) -> Tuple[int, int, int,
                                                          int]:
    p = analysis.register_profile()
    return (p["CC"], p["AC"], p["MC"] + p["QC"], p["GC"])


def evaluate_design(net: Netlist,
                    sweep_config: Optional[SweepConfig] = None,
                    threshold: int = USEFUL_THRESHOLD,
                    pipelines: Sequence[str] = PIPELINES,
                    strategy_map: Optional[Dict[str, str]] = None,
                    budget: Optional[Budget] = None
                    ) -> RowResult:
    """Run the transformation pipelines over one netlist.

    ``strategy_map`` overrides the column-to-strategy mapping (e.g.
    :data:`LATCHED_STRATEGY` for latch-based designs needing the PHASE
    front-end).  The pipelines share their transform prefixes: each
    distinct prefix (``COM`` for ``COM`` and ``COM,RET,COM``) is
    computed once per call (see :meth:`TBVEngine.transform`).
    ``budget`` is split equally across the pending pipelines; a
    pipeline that fails or exhausts its share yields an error cell
    (``runner.error_cells`` counter) and the row carries on.
    """
    sweep_config = sweep_config or EXPERIMENT_SWEEP
    strategies = strategy_map or _STRATEGY
    row = RowResult(net.name)
    reg = obs.get_registry()
    prefixes: Prefixes = {}
    with reg.span(f"experiment/{net.name}"):
        for i, pipeline in enumerate(pipelines):
            sub: Optional[Budget] = None
            if budget is not None:
                reason = budget.exhausted()
                if reason is not None:
                    reg.counter("runner.error_cells")
                    row.columns[pipeline] = _error_column(
                        len(net.targets),
                        f"budget exhausted ({reason})",
                        exhaustion_reason=reason)
                    continue
                sub = budget.slice(1.0 / (len(pipelines) - i),
                                   name=f"{net.name}/{pipeline}")
            # The per-pipeline span doubles as the table's time column:
            # monotonic, and visible in any enclosing obs snapshot
            # (e.g. a test's obs.scoped()) as experiment/<design>/<col>.
            column_span = None
            try:
                with reg.span(pipeline) as column_span:
                    engine = TBVEngine(strategies[pipeline],
                                       sweep_config=sweep_config)
                    result = engine.run(net, budget=sub,
                                        prefixes=prefixes)
                    useful = result.useful(threshold)
                row.columns[pipeline] = ColumnResult(
                    profile=_profile_tuple(result.analysis),
                    useful=len(useful),
                    targets=len(net.targets),
                    average=result.average_bound(threshold),
                    seconds=column_span.seconds,
                )
            except Exception as exc:
                reg.counter("runner.error_cells")
                reg.event("runner.pipeline_error", design=net.name,
                          pipeline=pipeline, error=str(exc))
                reason = getattr(exc, "reason", None)
                row.columns[pipeline] = _error_column(
                    len(net.targets), str(exc) or type(exc).__name__,
                    exhaustion_reason=reason,
                    seconds=column_span.seconds if column_span else 0.0)
    return row


def parse_designs(parser: argparse.ArgumentParser, value: Optional[str],
                  profiles: Sequence[DesignProfile]
                  ) -> Optional[List[str]]:
    """Split a comma-separated ``--designs`` value (None when the flag
    is absent).

    Names match profile names case-insensitively.  A value that names
    no design, or a name no profile has, ends in ``parser.error``
    before any design runs.
    """
    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        parser.error(f"no design named in {value!r}")
    known = {p.name.upper() for p in profiles}
    unknown = [name for name in names if name.upper() not in known]
    if unknown:
        parser.error(f"unknown design(s) {', '.join(unknown)}; choose "
                     f"from {', '.join(p.name for p in profiles)}")
    return names


def select_profiles(profiles: Sequence[DesignProfile], scale: float,
                    designs: Optional[Sequence[str]] = None,
                    max_registers: Optional[int] = None
                    ) -> List[Tuple[DesignProfile, float]]:
    """The profiles a table runs, in profile order, each with its
    effective scale.

    ``designs`` selects by name, case-insensitively (None or empty:
    every profile).  A design whose registers at ``scale`` exceed
    ``max_registers`` runs at the scale that meets the cap instead.
    """
    wanted = {d.upper() for d in designs} if designs else None
    selected = []
    for profile in profiles:
        if wanted is not None and profile.name.upper() not in wanted:
            continue
        effective_scale = scale
        if max_registers and profile.registers * scale > max_registers:
            effective_scale = max_registers / profile.registers
        selected.append((profile, effective_scale))
    return selected


def run_design(payload: Dict[str, Any],
               budget: Optional[Budget]) -> RowResult:
    """One table row — generate the design, run the pipelines: the task
    both :func:`run_table` paths run, in its loop or on the pool.

    Payload keys: ``generate`` (a module-level generator function,
    e.g. ``repro.gen.iscas89.generate``), ``name``, ``scale`` and
    ``sweep_config``.  A design whose generation or evaluation fails
    becomes an error row.
    """
    reg = obs.get_registry()
    try:
        net = payload["generate"](payload["name"], scale=payload["scale"])
        return evaluate_design(net, sweep_config=payload["sweep_config"],
                               budget=budget)
    except Exception as exc:
        reg.counter("runner.design_errors")
        reg.event("runner.design_error", design=payload["name"],
                  error=str(exc))
        return RowResult(payload["name"],
                         error=str(exc) or type(exc).__name__)


def run_table(generate: Callable[..., Netlist],
              profiles: Sequence[DesignProfile],
              scale: float = 1.0,
              sweep_config: Optional[SweepConfig] = None,
              designs: Optional[Sequence[str]] = None,
              max_registers: Optional[int] = None,
              budget: Optional[Budget] = None,
              jobs: int = 1) -> List[RowResult]:
    """Evaluate every profile (optionally filtered/scaled).

    Every selected profile produces a row: a design whose generation
    or evaluation fails contributes an error row instead of aborting
    the table, and once ``budget``'s deadline has passed the remaining
    designs are emitted as error rows immediately.  Each design runs
    on whatever time remains, not on a share of it.

    ``jobs > 1`` with more than one selected design evaluates the
    designs across the work-stealing pool (:mod:`repro.parallel`),
    largest first: rows come back in profile order — the rendered
    table is byte-identical at any ``jobs`` value — the designs share
    ``budget``'s deadline, and a crashed worker becomes an error row,
    never an aborted table.  Otherwise the designs run in this
    function's own loop.
    """
    selected = select_profiles(profiles, scale, designs, max_registers)
    payloads = [{"generate": generate, "name": profile.name,
                 "scale": effective_scale, "sweep_config": sweep_config}
                for profile, effective_scale in selected]
    if jobs > 1 and len(payloads) > 1:
        sizes = [profile.registers * effective_scale
                 for profile, effective_scale in selected]
        return _run_pooled(payloads, sizes, budget, jobs)
    rows = []
    for payload in payloads:
        row = _budget_error_row(payload["name"], budget)
        rows.append(row if row is not None
                    else run_design(payload, budget))
    return rows


def _budget_error_row(name: str,
                      budget: Optional[Budget]) -> Optional[RowResult]:
    """The error row of a design whose turn comes after ``budget``'s
    deadline (None while time remains)."""
    if budget is None:
        return None
    reason = budget.exhausted()
    if reason is None:
        return None
    obs.get_registry().counter("runner.design_errors")
    return RowResult(name, error=f"budget exhausted ({reason})")


def _run_pooled(payloads: List[Dict[str, Any]],
                sizes: List[float],
                budget: Optional[Budget],
                jobs: int) -> List[RowResult]:
    """The pooled fan-out of :func:`run_table` (``jobs > 1``, several
    designs); ``sizes`` holds each design's registers times its
    effective scale."""
    from ..parallel import ParallelExecutor

    if budget is not None and budget.exhausted() is not None:
        # The deadline passed before the fan-out: every design gets the
        # sequential loop's error row.
        return [_budget_error_row(payload["name"], budget)
                for payload in payloads]
    # Rows are heterogeneous (one big design can dwarf the rest), so
    # idle workers steal the next design, and the largest designs go
    # first: a big row started last runs on while the other workers
    # idle.  The outcomes are put back in profile order, keeping the
    # rendered table byte-identical at any jobs.
    order = sorted(range(len(payloads)), key=lambda i: -sizes[i])
    reg = obs.get_registry()
    executor = ParallelExecutor(jobs=jobs, name="table")
    submitted = executor.map(run_design, [payloads[i] for i in order],
                             budget=budget,
                             labels=[payloads[i]["name"] for i in order])
    outcomes = [None] * len(payloads)
    for index, outcome in zip(order, submitted):
        outcomes[index] = outcome
    rows: List[RowResult] = []
    for payload, outcome in zip(payloads, outcomes):
        if outcome.ok:
            rows.append(outcome.value)
        else:
            # A crashed worker degrades to the error row the
            # sequential loop would emit for a failed design.
            reg.counter("runner.design_errors")
            reg.event("runner.design_error", design=payload["name"],
                      error=str(outcome.error))
            rows.append(RowResult(payload["name"],
                                  error=str(outcome.error)
                                  or type(outcome.error).__name__))
    return rows


def cumulative(rows: Sequence[RowResult]) -> RowResult:
    """The paper's Σ row.

    Error cells and error rows are skipped: the Σ column aggregates
    only the measurements that actually completed (missing columns —
    e.g. from a renderer given partial rows — are tolerated the same
    way).
    """
    sigma = RowResult("Σ")
    for pipeline in PIPELINES:
        profile = [0, 0, 0, 0]
        useful = targets = 0
        seconds = 0.0
        weighted = 0.0
        for row in rows:
            col = row.columns.get(pipeline)
            if col is None or not col.ok:
                continue
            for i in range(4):
                profile[i] += col.profile[i]
            useful += col.useful
            targets += col.targets
            seconds += col.seconds
            weighted += col.average * col.useful
        sigma.columns[pipeline] = ColumnResult(
            profile=tuple(profile), useful=useful, targets=targets,
            average=weighted / useful if useful else 0.0,
            seconds=seconds)
    return sigma


def format_table(rows: Sequence[RowResult], title: str) -> str:
    """Render rows in the paper's table layout.

    Failed pipelines render as error cells, failed designs as error
    rows; missing columns render as ``--`` so partially-evaluated
    rows (e.g. a custom pipeline subset) still format.
    """
    header = (f"{'Design':<12}"
              + "".join(f"| {col:^34} " for col in
                        ("Original Netlist", "COM", "COM,RET,COM")))
    sub = (f"{'':<12}"
           + "".join(f"| {'CC;AC;MC+QC;GC':>20} {'T/T;avg':>13} "
                     for _ in range(3)))
    lines = [title, "=" * len(header), header, sub, "-" * len(header)]
    for row in list(rows) + [cumulative(rows)]:
        cells = [f"{row.name:<12}"]
        for pipeline in PIPELINES:
            col = row.columns.get(pipeline)
            if col is None:
                text = f"!! {row.error}" if row.error else "--"
                cells.append(f"| {text[:34]:^34} ")
            elif not col.ok:
                text = f"!! {col.error}"
                cells.append(f"| {text[:34]:^34} ")
            else:
                prof = ";".join(str(x) for x in col.profile)
                cells.append(
                    f"| {prof:>20} {col.useful:>4}/{col.targets:<4}"
                    f";{col.average:>5.1f} ")
        lines.append("".join(cells))
    return "\n".join(lines)


def table_main(argv: Optional[Sequence[str]], description: str,
               gen: Any, name: str, title: str) -> int:
    """The command-line body that ``repro-table1`` and ``repro-table2``
    share: run the profiles of ``gen`` (``repro.gen.iscas89`` or
    ``repro.gen.gp``), print the table under ``title``, then the
    paper-vs-measured comparison.  ``name`` names the budget.  Returns
    a process exit code.
    """
    # compare.py imports this module, so import it at call time.
    from .compare import compare_useful_fractions, format_comparison

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--scale", type=above(float, 0), default=0.25,
                        help="profile scale factor (default 0.25)")
    parser.add_argument("--designs", type=str, default=None,
                        help="comma-separated design subset")
    parser.add_argument("--max-registers", type=at_least(int, 0),
                        default=400,
                        help="per-design register cap (0 = none)")
    parser.add_argument("--timeout", type=at_least(float, 0), default=0,
                        help="wall-clock budget in seconds for the "
                             "whole table (0 = unlimited); exhausted "
                             "designs become error rows")
    parser.add_argument("--jobs", type=at_least(int, 1), default=1,
                        help="worker processes for per-design fan-out "
                             "(default 1 = sequential)")
    parser.add_argument("--progress", action="store_true",
                        help="report live engine progress on stderr")
    args = parser.parse_args(argv)
    obs.trace.setup_cli(parser, progress_flag=args.progress)
    profiles = gen.profiles()
    designs = parse_designs(parser, args.designs, profiles)
    budget = Budget(wall_seconds=args.timeout, name=name) \
        if args.timeout else None
    max_registers = args.max_registers or None
    rows = run_table(gen.generate, profiles, scale=args.scale,
                     designs=designs, max_registers=max_registers,
                     budget=budget, jobs=args.jobs)
    print(format_table(rows, title))
    print()
    scaled = [profile.scaled(effective_scale)
              for profile, effective_scale in select_profiles(
                  profiles, args.scale, designs, max_registers)]
    table = title.partition(":")[0]
    print(format_comparison(compare_useful_fractions(rows, scaled),
                            f"Paper-vs-measured |T'| fractions ({table})"))
    return 0
