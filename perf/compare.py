"""Compare two benchmark result sets: ``python perf/compare.py BASE NEW``.

BASE and NEW are files written by ``perf/run.py --out``.  For every
(workload, end-to-end metric) pair the verdict is one of:

* ``worse`` — NEW's median is worse than BASE's by more than the
  metric's bound;
* ``better`` — NEW's median is better by more than BASE's quartile
  spread (q3 - q1) and NEW wins at least nine in ten of the paired
  passes (ties count for neither side);
* ``unresolved`` — BASE's own spread is wider than the bound, unless
  every pass of NEW reads better than every pass of BASE;
* ``unchanged`` — otherwise.

Counts marked exact (``layers.EXACT_COUNTERS``) must be identical on
both sides, since they count work rather than time.  The per-layer
``*.self_s`` deltas of the traced passes are ranked, so a regression
names the layer it came from.  Exit status 1 on any ``worse``, any
count mismatch, or any rise in ``fail_frac``; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import EXACT_COUNTERS
from run import quartiles

WIN_SHARE = 0.9
#: Self-time shifts listed per workload.
TOP_SHIFTS = 3


def verdict(base: Sequence[float], new: Sequence[float], bound: float,
            better: str = "lower") -> str:
    """better / worse / unchanged / unresolved for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    # Positive = NEW is worse, as a share of BASE's median.
    shift = sign * (new_median - base_median) / base_median
    if shift > bound:
        return "worse"
    spread = (q3 - q1) / base_median
    separated = all(sign * (n - b) < 0 for n in new for b in base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if -shift * base_median > q3 - q1 and wins >= WIN_SHARE * len(pairs) \
            and (spread <= bound or separated):
        return "better"
    if spread > bound and not separated:
        return "unresolved"
    return "unchanged"


def self_time_shifts(base: Dict[str, Any], new: Dict[str, Any]
                     ) -> List[Tuple[str, float]]:
    """Per-layer self-time deltas (NEW - BASE), largest first."""
    a = base.get("per_layer", {})
    b = new.get("per_layer", {})
    names = [name for name in a if name in b and
             (name.endswith(".self_s") or name == "unattributed_s")]
    shifts = [(name, b[name]["value"] - a[name]["value"]) for name in names]
    shifts.sort(key=lambda item: -abs(item[1]))
    return shifts


def compare(base_doc: Dict[str, Any], new_doc: Dict[str, Any]
            ) -> Dict[str, Any]:
    """Every verdict, count mismatch and fail_frac rise."""
    rows: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    fail_rises: List[str] = []
    shifts: Dict[str, List[Tuple[str, float]]] = {}
    for name, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(name)
        if new is None:
            continue
        shifts[name] = self_time_shifts(base, new)
        if new["fail_frac"] > base["fail_frac"]:
            fail_rises.append(f"{name}: fail_frac {base['fail_frac']:.3g}"
                              f" -> {new['fail_frac']:.3g}")
        for metric, m in base["end_to_end"].items():
            n = new["end_to_end"].get(metric)
            if n is None:
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": m["unit"],
                "verdict": verdict(m["values"], n["values"], m["bound"],
                                   m["better"]),
                "base": m["median"], "new": n["median"],
                "shift": (n["median"] - m["median"]) / m["median"],
                "bound": m["bound"], "spread": m["spread"],
            })
        a, b = base.get("per_layer", {}), new.get("per_layer", {})
        for metric in EXACT_COUNTERS:
            if metric in a and metric in b and \
                    a[metric]["value"] != b[metric]["value"]:
                mismatches.append(f"{name}.{metric}: {a[metric]['value']}"
                                  f" -> {b[metric]['value']}")
    return {"rows": rows, "mismatches": mismatches,
            "fail_rises": fail_rises, "shifts": shifts}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base_doc = json.load(handle)
    with open(args.new) as handle:
        new_doc = json.load(handle)
    result = compare(base_doc, new_doc)
    print(f"{args.base} -> {args.new}")
    for row in result["rows"]:
        top = result["shifts"].get(row["workload"]) or [("-", 0.0)]
        print(f"  {row['verdict']:<10} {row['workload']}.{row['metric']:<12}"
              f" {row['base']:.4g} -> {row['new']:.4g} {row['unit']:<4}"
              f" ({row['shift']:+.1%}; bound {row['bound']:.0%},"
              f" base spread {row['spread']:.1%})"
              + (f"  top shift {top[0][0]} {top[0][1]:+.3f} s"
                 if row["verdict"] == "worse" else ""))
    for name, shifts in result["shifts"].items():
        if shifts:
            print(f"  {name} self-time shifts: " + ", ".join(
                f"{layer} {delta:+.3f} s"
                for layer, delta in shifts[:TOP_SHIFTS]))
    for line in result["mismatches"]:
        print(f"  COUNT MISMATCH {line}")
    for line in result["fail_rises"]:
        print(f"  FAIL_FRAC ROSE {line}")
    worse = [r for r in result["rows"] if r["verdict"] == "worse"]
    counts = {v: sum(1 for r in result["rows"] if r["verdict"] == v)
              for v in ("better", "worse", "unchanged", "unresolved")}
    print("  " + ", ".join(f"{n} {v}" for v, n in counts.items())
          + f", {len(result['mismatches'])} count mismatch(es)")
    return 1 if worse or result["mismatches"] or result["fail_rises"] \
        else 0


if __name__ == "__main__":
    sys.exit(main())
