"""CLI: a small fixed benchmark workload seeding the perf trajectory.

Usage::

    python -m repro.tools.bench [--rev <label>] [--out <path>]
                                [--profile full|smoke]

Runs a deterministic micro-workload through every engine layer under
an isolated :mod:`repro.obs` registry and writes ``BENCH_<rev>.json``:
per-engine wall-time, SAT-solver effort (conflicts / decisions /
propagations / restarts), the per-design, per-pipeline experiment
timings of the Table 1 harness, and (schema v2) an ``encode`` section
timing frame *encoding* on the largest profile with a cold template
cache (includes the one-off compile) and a warm one, plus a
``time_split`` giving the total encode-vs-solve seconds across the
whole run with the solve side broken down into propagation, decision
and conflict-analysis seconds (the run enables the solver's
search-phase profiling).  ``<rev>`` defaults to the current git short
hash (``dev`` outside a checkout).

The artifact is a per-engine breakdown for inspecting one revision
(``repro-report``) or comparing two of the same workload
(``repro-trace regress``); the committed ``benchmarks/BENCH_*.json``
are the history of earlier revisions.  End-to-end performance claims
are measured by ``perf/run.py`` instead, which times the runs users
make (Table 1, Table 2, ``prove``) with known run-to-run spread.  The
default ``full`` profile runs in well under a minute; the ``smoke``
profile shrinks every section to seconds and is exercised by the
tier-1 suite to keep the artifact schema honest.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
from typing import Any, Dict, List, Optional, Sequence

from .. import obs
from ..core.prove import prove
from ..diameter.qbf import qbf_initial_diameter
from ..diameter.recurrence import recurrence_diameter
from ..diameter.structural import StructuralAnalysis
from ..experiments.runner import PIPELINES, evaluate_design
from ..gen import iscas89
from ..netlist import s27
from ..resilience import Budget, FaultPlan, inject
from ..obs import metrics as _metrics
from ..sat.solver import PROFILE_PHASES, use_sat_profile
from ..sat.template import clear_template_cache
from ..unroll import Unrolling, bmc, k_induction

#: The fixed experiment slice: small-to-medium profiles at full scale
#: so the SAT sweep and the LP actually work, while the whole run
#: stays far below the 60 s budget.
BENCH_DESIGNS = ("S27", "S298", "S386", "S641", "S820", "S1488",
                 "S3330", "S5378")
BENCH_SCALE = 1.0

#: Workload profiles.  ``full`` is the committed-artifact
#: configuration; ``smoke`` shrinks every knob so a complete run
#: (including the ``encode`` section) finishes in a few seconds — it
#: exists purely so the tier-1 suite can validate the artifact schema
#: end-to-end on every test run.
BENCH_PROFILES: Dict[str, Dict[str, Any]] = {
    "full": {
        "designs": BENCH_DESIGNS,
        "scale": BENCH_SCALE,
        "recurrence_design": "S298", "recurrence_max_k": 12,
        "bmc_design": "S641", "bmc_depth": 24,
        "qbf_max_k": 8,
        "kind_bits": 8,
        "encode_design": "S5378", "encode_frames": 16,
    },
    "smoke": {
        "designs": ("S27", "S298"),
        "scale": 0.5,
        "recurrence_design": "S27", "recurrence_max_k": 4,
        "bmc_design": "S298", "bmc_depth": 6,
        "qbf_max_k": 3,
        "kind_bits": 3,
        "encode_design": "S298", "encode_frames": 4,
    },
}


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "dev"
    except OSError:
        return "dev"


def _encode_section(reg: obs.Registry, design: str, frames: int,
                    scale: float) -> Dict[str, Any]:
    """Time frame encoding on one design, cold and warm.

    Each measurement builds a fresh :class:`Unrolling` and forces
    ``frames`` frames — pure encoding, no solving.  ``template_cold``
    starts from an empty template cache (so it pays the one-off
    compile); ``template_warm`` reuses the cached compilation — the
    steady state every engine actually runs in.  ``warm`` is best-of-5
    (scheduler/allocator noise otherwise dominates sub-10ms samples;
    ``cold`` is necessarily a single pass because only the first pass
    pays the compile).
    """
    net = iscas89.generate(design, scale=scale)

    def encode_all(label: str) -> float:
        # The Unrolling constructor (solver setup + initial-state
        # load) stays outside the measured window: the figure is
        # *frame* encoding.
        unroll = Unrolling(net)
        with reg.span(f"bench/encode/{label}") as sp:
            unroll.frame(frames - 1)
        return sp.seconds

    hits_before = reg.counter_value("template.hits")
    compiles_before = reg.counter_value("template.compiles")
    # Pause the cyclic GC while sampling: a collection landing inside
    # one sub-10ms window otherwise skews it by tens of percent.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        clear_template_cache()
        cold = encode_all("template_cold")
        warm = min(encode_all("template_warm") for _ in range(5))
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "design": design,
        "frames": frames,
        "template_cold_seconds": cold,
        "template_warm_seconds": warm,
        "template_compiles": reg.counter_value("template.compiles")
        - compiles_before,
        "template_hits": reg.counter_value("template.hits")
        - hits_before,
    }


def _time_split(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Aggregate encode-vs-solve seconds from a registry snapshot.

    Encoding is everything recorded under a leaf ``encode`` span plus
    the one-off ``encode.compile`` spans (template compilation —
    emitted outside ``encode`` spans by construction, so nothing is
    double-counted); solving is the ``sat.solve`` leaves.  The solve
    side is further broken down from the solver's own search-phase
    profiling (the ``sat.propagate_ns``/``sat.decide_ns``/
    ``sat.analyze_ns`` counters, published because the bench run
    enables :func:`repro.sat.use_sat_profile`): seconds spent in
    unit propagation, decision picking and conflict analysis, with
    the remainder (restart bookkeeping, learnt recording, DB
    reduction, the control loop itself) as ``solve_other_seconds``.
    """
    encode = solve = 0.0
    for path, stat in snapshot["timers"].items():
        leaf = path.rsplit("/", 1)[-1]
        if leaf in ("encode", "encode.compile"):
            encode += stat["total_s"]
        elif leaf == "sat.solve":
            solve += stat["total_s"]
    total = encode + solve
    counters = snapshot["counters"]
    split: Dict[str, Any] = {
        "encode_seconds": encode,
        "solve_seconds": solve,
        "encode_fraction": encode / total if total else None,
    }
    phases = 0.0
    for phase in PROFILE_PHASES:
        seconds = counters.get(f"sat.{phase}_ns", 0) / 1e9
        split[f"solve_{phase}_seconds"] = seconds
        phases += seconds
    split["solve_other_seconds"] = max(0.0, solve - phases)
    return split


def run_workload(reg: obs.Registry,
                 budget: Optional[Budget] = None,
                 jobs: int = 1,
                 profile: str = "full") -> Dict[str, Any]:
    """Execute the fixed workload; returns the per-section summary.

    ``budget`` (from ``--timeout``) bounds the experiment-harness
    section only — the fixed engine sections stay unbudgeted so their
    timings remain comparable across revisions.  ``jobs > 1`` adds a
    ``parallel`` section: the experiment slice reruns through the
    process pool and reports per-worker wall time plus the speedup
    over the sequential section just measured.  ``profile`` selects a
    :data:`BENCH_PROFILES` entry sizing every section.
    """
    cfg = BENCH_PROFILES[profile]
    bench_designs: Sequence[str] = cfg["designs"]
    bench_scale: float = cfg["scale"]
    sections: Dict[str, Any] = {}
    net = s27()

    # Diameter engines on the golden s27 netlist.
    with reg.span("bench/structural") as sp:
        analysis = StructuralAnalysis(net)
        bounds = analysis.bounds()
    sections["structural"] = {
        "seconds": sp.seconds,
        "bounds": {str(t): b for t, b in bounds.items()},
    }
    rec_net = iscas89.generate(cfg["recurrence_design"],
                               scale=bench_scale)
    with reg.span("bench/recurrence") as sp:
        rec = recurrence_diameter(rec_net, from_init=True,
                                  max_k=cfg["recurrence_max_k"],
                                  conflict_budget=5000)
    sections["recurrence"] = {
        "seconds": sp.seconds, "bound": rec.bound, "exact": rec.exact,
    }
    with reg.span("bench/qbf") as sp:
        qbf = qbf_initial_diameter(net, max_k=cfg["qbf_max_k"])
    sections["qbf"] = {
        "seconds": sp.seconds, "bound": qbf.bound, "exact": qbf.exact,
    }

    # BMC to a fixed window on a generated mid-size design (exercises
    # the unrolling + solver far beyond what s27 can).
    bmc_net = iscas89.generate(cfg["bmc_design"], scale=bench_scale)
    with reg.span("bench/bmc") as sp:
        check = bmc(bmc_net, max_depth=cfg["bmc_depth"])
    sections["bmc"] = {
        "seconds": sp.seconds,
        "status": check.status,
        "depth_checked": check.depth_checked,
    }

    # The full decision procedure on the golden netlist.
    with reg.span("bench/prove") as sp:
        verdict = prove(net)
    sections["prove"] = {
        "seconds": sp.seconds,
        "status": verdict.status,
        "method": verdict.method,
    }

    # The three-pipeline experiment harness on a small design slice.
    designs: Dict[str, Dict[str, float]] = {}
    with reg.span("bench/experiments") as sp:
        for name in bench_designs:
            design = iscas89.generate(name, scale=bench_scale)
            row = evaluate_design(design, budget=budget)
            designs[name] = {
                pipeline: row.columns[pipeline].seconds
                for pipeline in PIPELINES
            }
    sections["experiments"] = {"seconds": sp.seconds,
                               "per_design": designs}

    # k-induction encoding-size markers: the persistent step unrolling
    # accumulates O(k²) difference clauses over a run (the rebuilt-
    # per-round encoding was O(k³)); ``induction.diff_clauses`` /
    # ``induction.step_vars`` land in the artifact so the reduction is
    # visible revision over revision.  An 8-bit counter targeting its
    # max value keeps every step round inconclusive (the simple path
    # 254 -> 255 always exists), so all ``max_k`` rounds run.
    from ..netlist import NetlistBuilder

    bits = cfg["kind_bits"]
    builder = NetlistBuilder(f"bench-counter{bits}")
    regs = builder.registers(bits, prefix="c")
    builder.connect_word(regs, builder.increment(regs))
    kind_target = builder.buf(
        builder.word_eq(regs, builder.word_const(2 ** bits - 1, bits)),
        name="t")
    builder.net.add_target(kind_target)
    with reg.span("bench/k-induction") as sp:
        kind = k_induction(builder.net, kind_target, max_k=bits,
                           conflict_budget=20000)
    counters = reg.snapshot()["counters"]
    sections["k_induction"] = {
        "seconds": sp.seconds,
        "status": kind.status,
        "depth_checked": kind.depth_checked,
        "diff_clause_pairs": counters.get("induction.diff_clauses", 0),
        "step_vars": counters.get("induction.step_vars", 0),
    }

    # The same experiment slice through the process pool: per-worker
    # wall time plus the speedup over the sequential section above.
    if jobs > 1:
        from ..parallel import ParallelExecutor
        from ..parallel.workers import run_design

        payloads = [{"generate": iscas89.generate, "name": name,
                     "scale": bench_scale, "sweep_config": None}
                    for name in bench_designs]
        with reg.span("bench/parallel") as sp:
            outcomes = ParallelExecutor(jobs=jobs, name="bench").map(
                run_design, payloads, labels=list(bench_designs))
        sequential = sections["experiments"]["seconds"]
        sections["parallel"] = {
            "jobs": jobs,
            "seconds": sp.seconds,
            "sequential_seconds": sequential,
            "speedup": sequential / sp.seconds if sp.seconds else None,
            "per_worker": {outcome.label: outcome.seconds
                           for outcome in outcomes},
        }

    # Resource-governance micro-workload: a pre-exhausted budget and an
    # injected timeout fault drive the degradation paths every run, so
    # their counters and outcomes are tracked revision over revision.
    with reg.span("bench/resilience") as sp:
        starved = prove(net, budget=Budget(conflicts=0,
                                           name="bench-starved"))
        with inject(FaultPlan(at={0: "timeout"})):
            aborted = bmc(net, max_depth=4)
    sections["resilience"] = {
        "seconds": sp.seconds,
        "prove_status": starved.status,
        "prove_method": starved.method,
        "prove_degraded": starved.degraded,
        "prove_bound": starved.bound,
        "prove_exhaustion": starved.exhaustion_reason,
        "bmc_status": aborted.status,
        "bmc_exhaustion": aborted.exhaustion_reason,
    }

    # Certification A/B: the same BMC window uncertified, then with
    # the cert layer armed (proof logging + DRAT check + witness
    # replay).  The verdict and depth must match exactly —
    # certification observes, never steers — and the overhead ratio
    # tracks the checker's cost revision over revision.
    from ..cert import use_certification

    cert_keys = ("cert.checked", "cert.failed", "cert.lemmas_checked",
                 "cert.lemmas_trimmed")
    cert_before = {key: reg.counter_value(key) for key in cert_keys}
    with reg.span("bench/certification/plain") as plain_sp:
        plain = bmc(bmc_net, max_depth=cfg["bmc_depth"])
    with reg.span("bench/certification/certified") as cert_sp:
        with use_certification(True):
            certified = bmc(bmc_net, max_depth=cfg["bmc_depth"])
    cert_deltas = {key.split(".", 1)[1]:
                   reg.counter_value(key) - cert_before[key]
                   for key in cert_keys}
    sections["certification"] = {
        "seconds": plain_sp.seconds + cert_sp.seconds,
        "design": cfg["bmc_design"],
        "depth": cfg["bmc_depth"],
        "uncertified_seconds": plain_sp.seconds,
        "certified_seconds": cert_sp.seconds,
        "overhead_ratio": cert_sp.seconds / plain_sp.seconds
        if plain_sp.seconds else None,
        "status": certified.status,
        "verdict_match": plain.status == certified.status
        and plain.depth_checked == certified.depth_checked,
        **cert_deltas,
    }

    # Frame encoding on the profile's largest design, cold and warm
    # template cache.
    with reg.span("bench/encode") as sp:
        encode = _encode_section(reg, cfg["encode_design"],
                                 cfg["encode_frames"], bench_scale)
    encode["seconds"] = sp.seconds
    sections["encode"] = encode
    return sections


def _metrics_section(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The artifact's ``metrics`` section from a registry snapshot.

    Solve-latency quantiles (p50/p90/p99 over every ``Solver.solve``
    in the workload, workers merged in bucket-wise), the top-5
    slowest ledger queries, and the raw histograms so ``repro-report``
    can draw the distributions without re-running anything.
    """
    data = snapshot.get("metrics", {})
    histograms = data.get("histograms", {})
    section: Dict[str, Any] = {"histograms": histograms}
    solve = histograms.get("sat.solve_seconds")
    if solve:
        hist = _metrics.Histogram.from_snapshot(solve)
        section["solve_latency"] = dict(
            count=hist.count, mean=hist.mean, **hist.quantiles())
    ledger = data.get("ledger", {})
    led = _metrics.Ledger.from_snapshot(ledger) if ledger \
        else _metrics.Ledger()
    section["ledger_top"] = [
        {key: rec.get(key) for key in
         ("engine", "frame", "k", "verdict", "conflicts", "seconds",
          "source")
         if rec.get(key) is not None}
        for rec in led.top(5)]
    section["ledger_dropped"] = led.dropped
    return section


def run_bench(rev: str, timeout: float = 0,
              jobs: int = 1, profile: str = "full") -> Dict[str, Any]:
    """Run the workload in a scoped registry; returns the artifact."""
    budget = Budget(wall_seconds=timeout, name="bench") \
        if timeout else None
    with obs.scoped(obs.Registry(f"bench-{rev}")) as reg:
        # Search-phase profiling feeds the time_split breakdown; the
        # toggle applies to every solver the workload constructs.
        # Distribution metrics feed the artifact's latency quantiles
        # and ledger top-5 (workers inherit both via the environment).
        with use_sat_profile(True), _metrics.use_metrics(True):
            sections = run_workload(reg, budget=budget, jobs=jobs,
                                    profile=profile)
            snapshot = reg.snapshot()
    solver_keys = ("sat.conflicts", "sat.decisions", "sat.propagations",
                   "sat.restarts", "sat.solve_calls")
    resilience_prefixes = ("resilience.", "faults.", "bmc.budget",
                           "com.budget", "portfolio.budget",
                           "portfolio.failures", "runner.",
                           "structural.refinement_skips")
    cfg = BENCH_PROFILES[profile]
    return {
        "schema": "repro-bench-v2",
        "rev": rev,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "workload": {"designs": list(cfg["designs"]),
                     "scale": cfg["scale"],
                     "profile": profile},
        "sections": sections,
        "metrics": _metrics_section(snapshot),
        "time_split": _time_split(snapshot),
        "solver": {key: snapshot["counters"].get(key, 0)
                   for key in solver_keys},
        "resilience": {key: value for key, value
                       in sorted(snapshot["counters"].items())
                       if key.startswith(resilience_prefixes)},
        "timers": snapshot["timers"],
        "counters": snapshot["counters"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rev", default=None,
                        help="revision label (default: git short hash)")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_<rev>.json)")
    parser.add_argument("--timeout", type=float, default=0,
                        help="wall-clock budget in seconds for the "
                             "experiment-harness section (0 = "
                             "unlimited); exhausted pipelines show up "
                             "in the resilience stats")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the parallel "
                             "section (default 1 = skip it)")
    parser.add_argument("--profile", default="full",
                        choices=sorted(BENCH_PROFILES),
                        help="workload size (default: full; smoke is "
                             "the tier-1 schema check)")
    parser.add_argument("--progress", action="store_true",
                        help="report live engine progress on stderr")
    args = parser.parse_args(argv)
    obs.trace.setup_cli(progress_flag=args.progress)
    rev = args.rev or _git_rev()
    artifact = run_bench(rev, timeout=args.timeout, jobs=args.jobs,
                         profile=args.profile)
    path = args.out or f"BENCH_{rev}.json"
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=False)
        handle.write("\n")
    lines: List[str] = [f"wrote {path}"]
    for name, section in artifact["sections"].items():
        lines.append(f"  {name:<12} {section['seconds']:8.3f} s")
    solver = artifact["solver"]
    lines.append(f"  solver: {solver['sat.solve_calls']} calls, "
                 f"{solver['sat.conflicts']} conflicts, "
                 f"{solver['sat.decisions']} decisions")
    encode = artifact["sections"]["encode"]
    lines.append(f"  encode ({encode['design']}, {encode['frames']} "
                 f"frames): cold {encode['template_cold_seconds']:.3f}"
                 f" s, warm {encode['template_warm_seconds']:.3f} s")
    cert = artifact["sections"].get("certification", {})
    if cert.get("overhead_ratio") is not None:
        lines.append(f"  certification ({cert['design']}): "
                     f"verdict_match={cert['verdict_match']}, "
                     f"overhead {cert['overhead_ratio']:.2f}x, "
                     f"{cert['checked']} check(s), "
                     f"{cert['lemmas_checked']} lemma(s) verified")
    latency = artifact.get("metrics", {}).get("solve_latency")
    if latency:
        lines.append(
            f"  solve latency: p50 {latency['p50'] * 1e3:.3f} ms / "
            f"p90 {latency['p90'] * 1e3:.3f} ms / "
            f"p99 {latency['p99'] * 1e3:.3f} ms "
            f"over {latency['count']} solves")
    split = artifact["time_split"]
    lines.append(f"  time split: encode {split['encode_seconds']:.3f} s"
                 f" / solve {split['solve_seconds']:.3f} s")
    lines.append(
        "  solve split: "
        f"propagate {split['solve_propagate_seconds']:.3f} s / "
        f"decide {split['solve_decide_seconds']:.3f} s / "
        f"analyze {split['solve_analyze_seconds']:.3f} s / "
        f"other {split['solve_other_seconds']:.3f} s")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
