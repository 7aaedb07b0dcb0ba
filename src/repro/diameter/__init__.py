"""Diameter bounding engines: structural, recurrence, exact."""

from .exact import (
    ExplicitStateSpace,
    MAX_EXPLICIT_BITS,
    first_hit_time,
    initial_depth,
    state_diameter,
)
from .recurrence import (
    RecurrenceResult,
    recurrence_diameter,
    recurrence_diameter_for_target,
)
from .symbolic import (
    ReachabilityResult,
    symbolic_first_hit,
    symbolic_initial_depth,
    symbolic_reachability,
    transition_image,
)
from .structural import (
    AC,
    CC,
    GC,
    MC,
    QC,
    Component,
    StructuralAnalysis,
    detect_cell,
    structural_diameter_bound,
)

__all__ = [
    "AC",
    "CC",
    "Component",
    "ExplicitStateSpace",
    "GC",
    "MAX_EXPLICIT_BITS",
    "MC",
    "QC",
    "ReachabilityResult",
    "RecurrenceResult",
    "StructuralAnalysis",
    "detect_cell",
    "first_hit_time",
    "initial_depth",
    "recurrence_diameter",
    "recurrence_diameter_for_target",
    "state_diameter",
    "structural_diameter_bound",
    "symbolic_first_hit",
    "symbolic_initial_depth",
    "symbolic_reachability",
    "transition_image",
]
