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
Only cooperative cancellation (:class:`repro.resilience.Cancelled`)
aborts a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core import TBVEngine
from ..diameter.structural import StructuralAnalysis
from ..gen.profiles import USEFUL_THRESHOLD, DesignProfile
from ..netlist import Netlist
from ..resilience import Budget, Cancelled
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
    front-end).  ``budget`` is split equally across the pending
    pipelines; a pipeline that fails or exhausts its share yields an
    error cell (``runner.error_cells`` counter) and the row carries
    on.  :class:`Cancelled` propagates.
    """
    sweep_config = sweep_config or EXPERIMENT_SWEEP
    strategies = strategy_map or _STRATEGY
    row = RowResult(net.name)
    reg = obs.get_registry()
    with reg.span(f"experiment/{net.name}"):
        for i, pipeline in enumerate(pipelines):
            sub: Optional[Budget] = None
            if budget is not None:
                if budget.cancelled:
                    raise Cancelled(budget_name=budget.name)
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
                    result = engine.run(net, budget=sub)
                    analysis = StructuralAnalysis(result.netlist)
                    useful = result.useful(threshold)
                row.columns[pipeline] = ColumnResult(
                    profile=_profile_tuple(analysis),
                    useful=len(useful),
                    targets=len(net.targets),
                    average=result.average_bound(threshold),
                    seconds=column_span.seconds,
                )
            except Cancelled:
                raise
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
    the table, and once ``budget`` is exhausted the remaining designs
    are emitted as error rows immediately.  :class:`Cancelled` is the
    only exception that escapes.

    ``jobs > 1`` evaluates the designs across the work-stealing pool
    (:mod:`repro.parallel`): rows come back in profile order — the
    rendered table is byte-identical at any ``jobs`` value — the
    designs share ``budget`` as one pool under one deadline, and a
    crashed worker becomes an error row, never an aborted table.
    """
    if jobs > 1:
        return _run_table_parallel(generate, profiles, scale,
                                   sweep_config, designs,
                                   max_registers, budget, jobs)
    rows = []
    reg = obs.get_registry()
    wanted = {d.upper() for d in designs} if designs else None
    for profile in profiles:
        if wanted is not None and profile.name.upper() not in wanted:
            continue
        if budget is not None:
            if budget.cancelled:
                raise Cancelled(budget_name=budget.name)
            reason = budget.exhausted()
            if reason is not None:
                reg.counter("runner.design_errors")
                rows.append(RowResult(
                    profile.name,
                    error=f"budget exhausted ({reason})"))
                continue
        effective_scale = scale
        if max_registers and profile.registers * scale > max_registers:
            effective_scale = max_registers / profile.registers
        try:
            net = generate(profile.name, scale=effective_scale)
            rows.append(evaluate_design(net, sweep_config=sweep_config,
                                        budget=budget))
        except Cancelled:
            raise
        except Exception as exc:
            reg.counter("runner.design_errors")
            reg.event("runner.design_error", design=profile.name,
                      error=str(exc))
            rows.append(RowResult(profile.name,
                                  error=str(exc) or type(exc).__name__))
    return rows


def _run_table_parallel(generate: Callable[..., Netlist],
                        profiles: Sequence[DesignProfile],
                        scale: float,
                        sweep_config: Optional[SweepConfig],
                        designs: Optional[Sequence[str]],
                        max_registers: Optional[int],
                        budget: Optional[Budget],
                        jobs: int) -> List[RowResult]:
    """The ``jobs > 1`` fan-out of :func:`run_table`."""
    from ..parallel import ParallelExecutor
    from ..parallel.workers import run_design

    reg = obs.get_registry()
    wanted = {d.upper() for d in designs} if designs else None
    payloads = []
    for profile in profiles:
        if wanted is not None and profile.name.upper() not in wanted:
            continue
        effective_scale = scale
        if max_registers and profile.registers * scale > max_registers:
            effective_scale = max_registers / profile.registers
        payloads.append({"generate": generate, "name": profile.name,
                         "scale": effective_scale,
                         "sweep_config": sweep_config
                         or EXPERIMENT_SWEEP})
    if budget is not None:
        if budget.cancelled:
            raise Cancelled(budget_name=budget.name)
        reason = budget.exhausted()
        if reason is not None:
            reg.counter("runner.design_errors", len(payloads))
            return [RowResult(payload["name"],
                              error=f"budget exhausted ({reason})")
                    for payload in payloads]
    # Rows are heterogeneous (one big design can dwarf the rest), so
    # idle workers steal the next design; outcomes still merge in
    # submission order, keeping the rendered table byte-identical at
    # any jobs.
    executor = ParallelExecutor(jobs=jobs, name="table")
    outcomes = executor.map(run_design, payloads, budget=budget,
                            labels=[p["name"] for p in payloads])
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
