"""Two- and three-valued netlist simulation."""

from .simulator import BitParallelSimulator
from .ternary import (
    X,
    constant_state_elements,
    ternary_initial_state,
)
from .random_sim import random_signatures, signature_classes

__all__ = [
    "BitParallelSimulator",
    "X",
    "constant_state_elements",
    "random_signatures",
    "signature_classes",
    "ternary_initial_state",
]
