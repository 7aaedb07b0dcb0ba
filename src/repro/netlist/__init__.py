"""Netlist data model, construction, traversal and I/O (Definition 1)."""

from .types import Gate, GateType, NetlistError
from .netlist import Netlist
from .builder import NetlistBuilder
from .rebuild import rebuild
from .bench import parse_bench, write_bench, s27, S27_BENCH
from .aig import (
    AIG,
    FALSE,
    TRUE,
    aig_complemented,
    aig_node,
    aig_not,
    aig_to_netlist,
    netlist_to_aig,
)
from .aiger import parse_aiger, write_aiger
from .blif import parse_blif, write_blif
from .validate import ERROR, Issue, WARNING, assert_valid, validate
from .traversal import (
    cone_of_influence,
    combinational_depth,
    combinational_fanins,
    condensation_order,
    register_graph,
    state_support,
    strongly_connected_components,
    topological_order,
)

__all__ = [
    "AIG",
    "FALSE",
    "TRUE",
    "Gate",
    "GateType",
    "aig_complemented",
    "aig_node",
    "aig_not",
    "aig_to_netlist",
    "netlist_to_aig",
    "parse_aiger",
    "parse_blif",
    "validate",
    "assert_valid",
    "Issue",
    "ERROR",
    "WARNING",
    "write_aiger",
    "write_blif",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "S27_BENCH",
    "combinational_depth",
    "combinational_fanins",
    "condensation_order",
    "cone_of_influence",
    "parse_bench",
    "rebuild",
    "register_graph",
    "s27",
    "state_support",
    "strongly_connected_components",
    "topological_order",
    "write_bench",
]
