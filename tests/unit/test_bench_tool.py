"""Tests for the repro.tools.bench perf-seed harness.

The full workload run is marked ``bench`` and excluded from the
default (tier-1) suite; the unmarked tests guard the committed
artifact and the CLI plumbing without paying for a run.
"""

import json
from pathlib import Path

import pytest

from repro.tools.bench import _git_rev, main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Keys every bench artifact must carry (the cross-revision contract).
REQUIRED_KEYS = ("schema", "rev", "host", "workload", "sections",
                 "solver", "timers", "counters")
REQUIRED_SECTIONS = ("structural", "recurrence", "qbf", "bmc", "prove",
                     "experiments")


def _validate_artifact(artifact):
    for key in REQUIRED_KEYS:
        assert key in artifact, f"missing top-level key {key!r}"
    assert artifact["schema"] in ("repro-bench-v1", "repro-bench-v2")
    for section in REQUIRED_SECTIONS:
        assert section in artifact["sections"]
        assert artifact["sections"][section]["seconds"] >= 0.0
    solver = artifact["solver"]
    assert solver["sat.solve_calls"] > 0
    assert solver["sat.conflicts"] > 0
    assert solver["sat.decisions"] > 0
    per_design = artifact["sections"]["experiments"]["per_design"]
    for timings in per_design.values():
        assert set(timings) == {"original", "com", "crc"}
    if artifact["schema"] == "repro-bench-v2":
        _validate_v2_extensions(artifact)


def _validate_v2_extensions(artifact):
    """Schema v2: the ``encode`` section and the encode/solve split."""
    encode = artifact["sections"]["encode"]
    for key in ("design", "frames", "template_cold_seconds",
                "template_warm_seconds", "template_compiles",
                "template_hits"):
        assert key in encode, f"missing encode key {key!r}"
    assert encode["frames"] > 0
    assert encode["template_cold_seconds"] > 0
    assert encode["template_warm_seconds"] > 0
    assert encode["template_compiles"] >= 1
    assert encode["template_hits"] >= 1
    split = artifact["time_split"]
    assert split["encode_seconds"] > 0
    assert split["solve_seconds"] > 0
    counters = artifact["counters"]
    assert counters.get("template.frames_stamped", 0) > 0
    # Artifacts produced since the flat-solver work also break the
    # solve side down by search phase (committed pr4/pr5 baselines
    # predate it).
    if "solve_propagate_seconds" in split:
        phases = (split["solve_propagate_seconds"]
                  + split["solve_decide_seconds"]
                  + split["solve_analyze_seconds"])
        assert phases > 0
        assert split["solve_other_seconds"] >= 0
        assert phases <= split["solve_seconds"] + 1e-6


def test_git_rev_is_nonempty_string():
    rev = _git_rev()
    assert isinstance(rev, str) and rev


def test_committed_seed_artifact_matches_schema():
    seed = REPO_ROOT / "benchmarks" / "BENCH_seed.json"
    assert seed.exists(), "benchmarks/BENCH_seed.json must be committed"
    artifact = json.loads(seed.read_text())
    assert artifact["rev"] == "seed"
    _validate_artifact(artifact)


def test_committed_pr3_artifact_has_parallel_sections():
    path = REPO_ROOT / "benchmarks" / "BENCH_pr3.json"
    assert path.exists(), "benchmarks/BENCH_pr3.json must be committed"
    artifact = json.loads(path.read_text())
    assert artifact["rev"] == "pr3"
    _validate_artifact(artifact)
    par = artifact["sections"]["parallel"]
    assert par["jobs"] >= 2
    assert par["sequential_seconds"] > 0
    assert par["speedup"] is not None
    assert set(par["per_worker"]) == \
        set(artifact["workload"]["designs"])
    kind = artifact["sections"]["k_induction"]
    k = kind["depth_checked"]
    # The persistent step unrolling accumulates exactly k new
    # difference-clause pairs per round: O(k^2) total.
    assert kind["diff_clause_pairs"] == k * (k + 1) // 2
    assert kind["step_vars"] > 0


def test_committed_pr4_artifact_has_encode_section():
    path = REPO_ROOT / "benchmarks" / "BENCH_pr4.json"
    assert path.exists(), "benchmarks/BENCH_pr4.json must be committed"
    artifact = json.loads(path.read_text())
    assert artifact["rev"] == "pr4"
    assert artifact["schema"] == "repro-bench-v2"
    _validate_artifact(artifact)
    encode = artifact["sections"]["encode"]
    # The headline acceptance figure of the compiled-template work:
    # warm stamping beats the direct netlist walk by >= 3x on the
    # largest bench profile.
    assert encode["design"] == "S5378"
    assert encode["encode_speedup"] >= 3.0


def test_committed_pr8_artifact_has_simplify_section():
    path = REPO_ROOT / "benchmarks" / "BENCH_pr8.json"
    assert path.exists(), "benchmarks/BENCH_pr8.json must be committed"
    artifact = json.loads(path.read_text())
    assert artifact["rev"] == "pr8"
    _validate_artifact(artifact)
    simp = artifact["sections"]["simplify"]
    for key in ("design", "off_seconds", "on_seconds", "speedup",
                "verdict_match", "rounds", "subsumed", "strengthened",
                "eliminated_vars", "restored_vars"):
        assert key in simp, f"missing simplify key {key!r}"
    # Inprocessing must observe, never steer.
    assert simp["verdict_match"] is True
    assert simp["rounds"] >= 1
    assert simp["eliminated_vars"] >= 1
    # The PR's headline: retired sweep indicators + inprocessing cut
    # decisions and total solve time against the pr7 baseline.
    pr7 = json.loads(
        (REPO_ROOT / "benchmarks" / "BENCH_pr7.json").read_text())
    assert artifact["solver"]["sat.decisions"] < \
        pr7["solver"]["sat.decisions"]
    assert artifact["time_split"]["solve_seconds"] < \
        pr7["time_split"]["solve_seconds"]


def test_smoke_profile_validates_schema(tmp_path):
    """Tier-1 end-to-end run of the smallest bench profile: keeps the
    v2 artifact schema (encode section, time split) honest without
    paying for the full workload."""
    out = tmp_path / "BENCH_smoke.json"
    assert main(["--rev", "smoke", "--out", str(out),
                 "--profile", "smoke"]) == 0
    artifact = json.loads(out.read_text())
    assert artifact["rev"] == "smoke"
    assert artifact["schema"] == "repro-bench-v2"
    assert artifact["workload"]["profile"] == "smoke"
    _validate_artifact(artifact)


@pytest.mark.bench
def test_bench_cli_produces_artifact(tmp_path):
    out = tmp_path / "BENCH_test.json"
    assert main(["--rev", "test", "--out", str(out)]) == 0
    artifact = json.loads(out.read_text())
    assert artifact["rev"] == "test"
    _validate_artifact(artifact)
