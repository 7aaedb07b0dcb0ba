"""Time-frame expansion, BMC, and k-induction."""

from .unroller import Unrolling
from .bmc import (
    ABORTED,
    BMCResult,
    BOUNDED,
    Counterexample,
    FALSIFIED,
    PROVEN,
    bmc,
    replay_counterexample,
)
from .induction import add_state_difference, k_induction

__all__ = [
    "ABORTED",
    "BMCResult",
    "BOUNDED",
    "Counterexample",
    "FALSIFIED",
    "PROVEN",
    "Unrolling",
    "add_state_difference",
    "bmc",
    "k_induction",
    "replay_counterexample",
]
