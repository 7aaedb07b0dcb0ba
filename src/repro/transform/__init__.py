"""Structural transformations (Section 3)."""

from .redundancy import SweepConfig, redundancy_removal
from .coi import coi_reduction
from .retime import RetimingGraph, min_register_lags, retime
from .phase import infer_latch_colors, phase_abstract
from .cslow import cslow_abstract, infer_cslow_coloring, max_cslow_factor
from .enlarge import enlarge_target, enlargement_frontiers, synthesize_bdd
from .approx import case_split, localize, localize_by_distance
from .localize_cegar import LocalizationResult, localization_refinement
from .parametric import cut_is_surjective, parametric_reencode
from .strash import strash
from .miter import (
    DIFFERENT,
    EQUIVALENT,
    EquivalenceResult,
    UNDECIDED,
    build_miter,
    check_equivalence,
)

__all__ = [
    "RetimingGraph",
    "SweepConfig",
    "UNDECIDED",
    "build_miter",
    "case_split",
    "check_equivalence",
    "coi_reduction",
    "cslow_abstract",
    "cut_is_surjective",
    "enlarge_target",
    "enlargement_frontiers",
    "infer_cslow_coloring",
    "infer_latch_colors",
    "DIFFERENT",
    "EQUIVALENT",
    "EquivalenceResult",
    "LocalizationResult",
    "localization_refinement",
    "localize",
    "localize_by_distance",
    "max_cslow_factor",
    "min_register_lags",
    "parametric_reencode",
    "phase_abstract",
    "redundancy_removal",
    "retime",
    "strash",
    "synthesize_bdd",
]
